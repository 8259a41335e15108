"""Exception hierarchy for the PyAOmpLib runtime and aspect library."""

from __future__ import annotations


class AOmpError(Exception):
    """Base class for all PyAOmpLib errors."""


class NotInParallelRegionError(AOmpError):
    """Raised when a construct requiring a team is used outside a parallel region.

    Most constructs degrade gracefully to sequential semantics when used
    outside a region (this is a central claim of the paper); this error is
    reserved for operations that are meaningless without a team, e.g. an
    explicit team barrier requested through the low-level API.
    """


class WeavingError(AOmpError):
    """Raised when an aspect cannot be woven into (or removed from) a target."""


class PointcutError(AOmpError):
    """Raised for malformed pointcut expressions."""


class SchedulingError(AOmpError):
    """Raised for invalid loop-scheduling requests (bad bounds, zero step, ...)."""


class ReductionError(AOmpError):
    """Raised when a thread-local reduction cannot be performed."""


class TaskError(AOmpError):
    """Raised when a spawned task failed; wraps the original exception."""

    def __init__(self, message: str, cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.cause = cause


class BrokenTeamError(AOmpError):
    """Raised when a team member died with an exception and the team is unusable.

    Carries the full failure roster so the region-level recovery policy
    (``parallel_region(on_failure=...)``) can distinguish infrastructure
    failures — dead worker processes, broken barriers — from deterministic body exceptions that would fail again on retry.
    """

    def __init__(
        self,
        message: str,
        *,
        failures: "list[tuple[int, BaseException]] | None" = None,
    ) -> None:
        super().__init__(message)
        #: ``(member_id, exception)`` per failing member, in member order.
        self.failures: list[tuple[int, BaseException]] = failures or []


class BackendError(AOmpError):
    """Raised when an execution backend cannot be constructed or operated.

    Distinct from :class:`BackendCapabilityError` (a *construct* the backend
    cannot honour): this error means the backend itself is unusable on the
    current platform/build — e.g. the process backend's persistent pool on a
    platform without the ``fork`` start method, where spawn/forkserver would
    silently break the pre-fork ``SharedArray``/arena handoff.
    """


class BackendCapabilityError(AOmpError):
    """Raised when a construct is used on a backend that cannot honour it.

    Typically: constructs requiring a shared Python heap (single/master
    broadcast, ordered execution) invoked inside a process-backed team.  The
    weaver avoids this by consulting backend capability flags and falling
    back to threads; the error surfaces only on direct runtime API misuse.
    """


class WorkerProcessError(AOmpError):
    """Raised when a process-backend worker failed in a way that cannot be
    reconstructed in the parent (died silently, or its exception was not
    picklable).

    When the failure was a worker *death* detected by the heartbeat monitor,
    the structured fields identify the casualty: ``member`` (team-relative
    id), ``pid`` and ``exitcode`` (negative = killed by that signal number).
    """

    def __init__(
        self,
        message: str,
        *,
        member: "int | None" = None,
        pid: "int | None" = None,
        exitcode: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.member = member
        self.pid = pid
        self.exitcode = exitcode


class BrokenBarrierError(RuntimeError):
    """Raised when a barrier is broken because a participant failed or the barrier was aborted."""
