"""Work-sharing aspects: the ``@For`` construct and its scheduling variants.

A *for method* exposes its loop range in its first three integer parameters
(start, end, step).  The for aspect rewrites that range per team member, as in
the paper's Figures 10 (static) and 11 (dynamic), by delegating to
:func:`repro.runtime.worksharing.run_for`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.aspects.base import MethodAspect, callable_or_value
from repro.core.weaver.joinpoint import JoinPoint
from repro.core.weaver.pointcut import Pointcut
from repro.runtime.ordered import ordered_call
from repro.runtime.scheduler import Schedule, parse_schedule_spec
from repro.runtime.worksharing import run_for
from repro.runtime.exceptions import SchedulingError


class ForWorkSharing(MethodAspect):
    """Distribute a for method's iteration range over the team.

    Parameters
    ----------
    pointcut:
        Join points that are for methods (``scheduleForStatic()`` etc. in the
        paper's concrete aspects).
    schedule:
        ``"staticBlock"`` (default), ``"staticCyclic"``, ``"dynamic"`` or
        ``"guided"``; a :class:`~repro.runtime.scheduler.Schedule` value, or a
        zero-argument provider returning either.  Subclasses may override
        :meth:`loop_schedule` instead (case-specific scheduling, as the Sparse
        benchmark requires in Table 2).
    chunk:
        Chunk size for cyclic/dynamic/guided schedules.
    nowait:
        Skip the implicit end-of-loop barrier.
    ordered:
        Install an ordered region spanning the loop (needed when the loop body
        uses the ordered construct).
    weight:
        Optional per-iteration weight function forwarded to the trace for the
        performance model (non-uniform iteration costs).
    """

    abstraction = "FOR"

    def __init__(
        self,
        pointcut: Pointcut | None = None,
        *,
        schedule: "str | Schedule | Callable[[], str | Schedule]" = Schedule.STATIC_BLOCK,
        chunk: int = 1,
        nowait: bool = False,
        ordered: bool = False,
        weight: Callable[[int], float] | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(pointcut, name=name)
        self._schedule = callable_or_value(schedule)
        self.chunk = chunk
        self.nowait = nowait
        self.ordered = ordered
        self.weight = weight

    def loop_schedule(self) -> "str | Schedule":
        """Schedule used for the matched loops (overridable, like the paper's concrete aspects)."""
        return self._schedule()

    def around(self, joinpoint: JoinPoint) -> Any:
        if len(joinpoint.args) < 3:
            raise SchedulingError(
                f"{joinpoint.qualified_name} is not a for method: it must expose (start, end, step) "
                f"as its first three parameters, got {len(joinpoint.args)} args"
            )
        start, end, step, *rest = joinpoint.args

        def body(chunk_start: int, chunk_end: int, chunk_step: int, *extra: Any, **kwargs: Any) -> Any:
            return joinpoint.proceed(chunk_start, chunk_end, chunk_step, *extra, **kwargs)

        return run_for(
            body,
            int(start),
            int(end),
            int(step),
            *rest,
            schedule=self.loop_schedule(),
            chunk=self.chunk,
            loop_name=joinpoint.qualified_name,
            ordered=self.ordered,
            nowait=self.nowait,
            weight=self.weight,
            **dict(joinpoint.kwargs),
        )

    def describe(self) -> str:
        base = super().describe()
        # parse_schedule_spec, not Schedule.parse: the schedule may be an
        # OpenMP-style "kind,chunk" spec string (accepted by run_for).
        schedule, spec_chunk = parse_schedule_spec(self.loop_schedule())
        suffix = f",{spec_chunk}" if spec_chunk is not None else ""
        return f"{base}(schedule={schedule.value}{suffix})"


class ForStatic(ForWorkSharing):
    """``@For(schedule=staticBlock)`` — contiguous blocks per thread."""

    def __init__(self, pointcut: Pointcut | None = None, **kwargs: Any) -> None:
        kwargs.setdefault("schedule", Schedule.STATIC_BLOCK)
        super().__init__(pointcut, **kwargs)


class ForCyclic(ForWorkSharing):
    """``@For(schedule=staticCyclic)`` — round-robin iterations per thread."""

    def __init__(self, pointcut: Pointcut | None = None, **kwargs: Any) -> None:
        kwargs.setdefault("schedule", Schedule.STATIC_CYCLIC)
        super().__init__(pointcut, **kwargs)


class ForDynamic(ForWorkSharing):
    """``@For(schedule=dynamic)`` — threads claim chunks from a shared counter."""

    def __init__(self, pointcut: Pointcut | None = None, **kwargs: Any) -> None:
        kwargs.setdefault("schedule", Schedule.DYNAMIC)
        super().__init__(pointcut, **kwargs)


class ForGuided(ForWorkSharing):
    """Guided self-scheduling (extension; used by the scheduling ablation)."""

    def __init__(self, pointcut: Pointcut | None = None, **kwargs: Any) -> None:
        kwargs.setdefault("schedule", Schedule.GUIDED)
        super().__init__(pointcut, **kwargs)


class AdaptiveSchedule(ForWorkSharing):
    """``@For(schedule=auto)`` — the adaptive tuner picks the schedule online.

    Extension beyond the paper's Table 1 (OpenMP's ``schedule(auto)``): each
    matched loop site measures successive invocations under candidate
    schedules, converges on the fastest, and falls back to serial execution
    when the loop is too small to amortise team spin-up.  Decisions persist
    across processes through the ``AOMP_TUNE_CACHE`` file.  Because the
    aspect is just a ``ForWorkSharing`` configuration, an already-woven
    program opts in without any source change — swap the for aspect in the
    bundle.  See :mod:`repro.tune`.
    """

    abstraction = "FOR(auto)"

    def __init__(self, pointcut: Pointcut | None = None, **kwargs: Any) -> None:
        kwargs.setdefault("schedule", Schedule.AUTO)
        super().__init__(pointcut, **kwargs)


class OrderedAspect(MethodAspect):
    """``@Ordered`` — execute matched methods in the sequential iteration order.

    Only meaningful within the calling context of a for method whose aspect
    was configured with ``ordered=True``; outside it the call proceeds
    directly (sequential semantics).  The iteration index is taken from one of
    the method's arguments (``index_arg``, default the first).
    """

    abstraction = "ORD"
    requires_shared_locals = True  # ordered hand-off uses an in-process ticket

    def __init__(self, pointcut: Pointcut | None = None, *, index_arg: int = 0, name: str | None = None) -> None:
        super().__init__(pointcut, name=name)
        self.index_arg = index_arg

    def around(self, joinpoint: JoinPoint) -> Any:
        if self.index_arg >= len(joinpoint.args):
            raise SchedulingError(
                f"{joinpoint.qualified_name}: ordered construct expects the iteration index "
                f"as argument {self.index_arg}, but only {len(joinpoint.args)} arguments were passed"
            )
        iteration = int(joinpoint.args[self.index_arg])
        return ordered_call(iteration, joinpoint.proceed)
