"""Teams of threads and parallel-region execution.

This is the heart of the execution model (paper Section III.A and Figure 9):
the master thread enters a parallel region, a team of threads is created,
every member executes the region body, and the master waits for all spawned
members before returning.  Constructs used inside the region (work-sharing,
barriers, single/master, thread-local fields...) locate their team through
:mod:`repro.runtime.context`.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

# shm before repro.obs: the obs package's MetricsArena derives from shm's
# CellArena, so importing shm here keeps its (and numpy's) first import at
# this depth instead of re-entering repro.runtime from inside repro.obs's own
# import — which measured ~50 ms dearer in every spawned worker interpreter.
from repro.runtime import shm  # isort: skip
import repro.obs.registry as obsreg
from repro.runtime import context as ctx
from repro.runtime.backend import Backend, backend_by_name, resolve_backend
from repro.runtime.barrier import BrokenBarrierError, CyclicBarrier
from repro.runtime.config import ON_FAILURE_POLICIES, get_config
from repro.runtime.exceptions import BrokenTeamError, WorkerProcessError
from repro.runtime.member import run_member as run_region_member
from repro.runtime.trace import NO_REGION, EventKind, TraceRecorder, get_global_recorder


@dataclass(slots=True)
class TeamMember:
    """One member of a team: its id and (for spawned members) the OS thread."""

    thread_id: int
    thread: Optional[threading.Thread] = None
    exception: Optional[BaseException] = None
    result: Any = None


class Team:
    """A team of ``size`` threads executing one parallel region.

    The team owns the synchronisation objects that have *team scope* in the
    paper's model: the team barrier, the slot arenas the claiming constructs
    (dynamic/guided loops, taskloop, ``auto`` plans) draw from,
    and the shared slots used by the single/master/ordered constructs.

    Teams form a hierarchy: a member of an outer team that enters a nested
    parallel region spawns a *child* team whose :attr:`parent` points back to
    the team it was spawned from.  Each level keeps its own member ids — a
    member of a team-of-teams is identified by the per-level id path exposed
    through :meth:`repro.runtime.context.ExecutionContext.member_path`.
    """

    def __init__(
        self,
        size: int,
        *,
        region_id: int = 0,
        name: str | None = None,
        recorder: TraceRecorder | None = None,
        nesting_level: int = 0,
        process_sync: "shm.ProcessSync | None" = None,
        parent: "Team | None" = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"team size must be >= 1, got {size}")
        if process_sync is not None and nesting_level > 0:
            # Process teams exist only at level 0 (nested regions resolve to
            # thread sub-teams with heap arenas of their own), so a shared
            # arena's loop ordinals belong to exactly one team.
            raise ValueError(f"a process team is a level-0 team, got nesting level {nesting_level}")
        self.size = size
        self.name = name or f"region-{region_id}"
        self.region_id = region_id
        self.recorder = recorder
        #: cheap hot-path predicate: constructs check this single attribute
        #: before building any trace payload (see Team.record / run_for).
        self.tracing = recorder is not None
        #: same discipline for metrics: one predicate, cached at team
        #: construction so every instrumentation site costs one attribute
        #: load when ``AOMP_METRICS`` is off.
        self.metrics = get_config().metrics
        self.nesting_level = nesting_level
        self.parent = parent
        self.members = [TeamMember(i) for i in range(size)]
        self.process_sync = process_sync
        #: identity of the backend that executes this team, set by
        #: ``parallel_region`` after backend resolution (master side only —
        #: worker-side reconstructions keep the neutral defaults, which is
        #: fine: the tuner's plan is decided on the master and published).
        #: ``backend_spinup_scale`` feeds the tuner's serial-fallback cutoff.
        self.backend_name = ""
        self.backend_spinup_scale = 1.0
        #: tuner serving this team's ``schedule="auto"`` loops, stamped by
        #: ``_execute_region`` when the region starts under a
        #: :class:`repro.tune.tuner_scope` (per-tenant caches in the compute
        #: service).  ``None`` means the process-wide tuner.
        self.tuner: Any = None
        self._barrier = process_sync.barrier if process_sync is not None else CyclicBarrier(size)
        #: in-process barrier-arrival counts (process teams use the heartbeat
        #: arena's cells instead — see ``arrival_counts``).
        self._arrivals = [0] * size
        self._shared: dict[Hashable, Any] = {}
        self._shared_lock = threading.Lock()
        #: the claiming constructs' slot arenas: a process team's come with its
        #: sync bundle; an in-process team builds heap ones on its first claim
        #: (see :meth:`_slot_arenas`), so a region that never claims allocates none.
        self._arenas: "shm.SlotArenas | None" = process_sync.slots if process_sync is not None else None

    @property
    def is_process_team(self) -> bool:
        """Whether members execute in separate processes (no shared Python heap)."""
        return self.process_sync is not None

    @property
    def broken(self) -> bool:
        """Whether the team barrier was aborted (some member failed)."""
        return self._barrier.broken

    def _slot_arenas(self) -> "shm.SlotArenas":
        """The team's slot arenas, built on heap cells by the first claim of an
        in-process team (under the team's lock, so every member sees one)."""
        arenas = self._arenas
        if arenas is None:
            with self._shared_lock:
                if self._arenas is None:
                    self._arenas = shm.SlotArenas.build(self.size, self._barrier, cells=shm.heap_cells)
                arenas = self._arenas
        return arenas

    def proc_loop_slot(self, ordinal: int) -> "shm.ArenaSlot":
        """Claim slot for the ``ordinal``-th claiming construct of this team.

        The dynamic/guided loop cursor on every tier: a process team's slot
        is in its fork-inherited (or coordinator-hosted)
        :class:`~repro.runtime.shm.SyncArena`, an in-process team's in its
        heap one.
        """
        return self._slot_arenas().arena.slot(ordinal)

    def proc_steal_slot(self, ordinal: int, ntiles: int) -> "shm.TaskStealSlot":
        """The ``taskloop`` tile deck of ``ntiles`` tiles for the ``ordinal``-th
        claiming construct, dealt over the team's members."""
        return self._slot_arenas().steal.slot(ordinal, self.size, ntiles)

    def proc_tune_slot(self, ordinal: int) -> "shm.TunePlanSlot":
        """Tune-plan slot for the ``ordinal``-th claiming construct: member 0
        publishes a ``schedule="auto"`` loop's plan, the others read it."""
        return self._slot_arenas().tune.slot(ordinal)

    # -- synchronisation ----------------------------------------------------

    def barrier(self, *, label: str | None = None) -> None:
        """Block the calling member until all team members have arrived.

        Records a ``BARRIER`` trace event per member (the perf model uses
        barriers to delimit phases), counts the arrival for failure
        diagnostics (and, on process teams, refreshes the member's heartbeat
        cell), and enriches any :class:`BrokenBarrierError` with the team,
        member and per-member arrival counts — a bare "barrier is broken"
        names none of the actors.
        """
        member = ctx.get_thread_id()
        if self.tracing:
            self.recorder.record(
                EventKind.BARRIER,
                self.region_id,
                member,
                label=label,
            )
        metrics = self.metrics
        if metrics:
            obsreg.inc(obsreg.BARRIERS)
        sync = self.process_sync
        if sync is not None:
            sync.heartbeat.note_arrival(member)
        elif member < len(self._arrivals):
            self._arrivals[member] += 1
        if self.size > 1:
            wait_start = time.perf_counter() if metrics else 0.0
            try:
                self._barrier.wait()
            except BrokenBarrierError as exc:
                if metrics:
                    obsreg.inc(obsreg.BARRIER_BREAKS)
                detail = f"label {label!r}, " if label else ""
                raise BrokenBarrierError(
                    f"{exc} [{detail}team {self.name!r}, level {self.nesting_level}, "
                    f"member {member} of {self.size}; barrier arrivals by member: "
                    f"{self.arrival_counts()}]"
                ) from exc
            else:
                if metrics:
                    obsreg.observe("aomp_barrier_wait_seconds", time.perf_counter() - wait_start)

    def arrival_counts(self) -> list[int]:
        """Barrier arrivals per member so far (diagnostic for barrier failures)."""
        sync = self.process_sync
        if sync is not None:
            return sync.heartbeat.arrivals(self.size)
        return list(self._arrivals)

    def abort(self) -> None:
        """Break the team barrier so that members blocked in it fail fast."""
        self._barrier.abort()

    # -- shared slots --------------------------------------------------------

    def shared_slot(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the team-shared object registered under ``key``.

        The first member to ask for ``key`` creates the object with
        ``factory``; all members then observe the same instance.  Used for
        single/master result broadcasts, ordered-region tickets and the
        task pool.
        """
        with self._shared_lock:
            if key not in self._shared:
                self._shared[key] = factory()
            return self._shared[key]

    def get_slot(self, key: Hashable, default: Any = None) -> Any:
        """Peek at a shared slot without creating it (unlike :meth:`shared_slot`).

        No lock: a dict read is atomic, and a peek racing a creation sees the
        slot or its absence, as it would one instant either side of the lock.
        """
        return self._shared.get(key, default)

    # -- tracing helpers -----------------------------------------------------

    def record(self, kind: EventKind, **data: Any) -> None:
        """Record a trace event attributed to the calling member, if tracing.

        Callers that build a non-trivial payload should guard it with the
        :attr:`tracing` flag themselves so the payload construction is also
        skipped when tracing is off.
        """
        if self.tracing:
            self.recorder.record(kind, self.region_id, ctx.get_thread_id(), **data)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Team(name={self.name!r}, size={self.size}, region={self.region_id})"


#: thread-local region watcher: a callback invoked with each Team created by
#: a region entered on the watching thread (outermost and nested alike).
_region_watch = threading.local()


class watch_teams:
    """Observe every team created by regions entered on the calling thread.

    The compute service's dispatch workers run request bodies under this
    watcher to learn the live :class:`Team` handles, which is what makes
    *external* cancellation possible: ``team.abort()`` breaks the barrier so
    members fail fast instead of draining the whole loop.  Watchers nest (the
    previous callback is restored on exit) and are thread-local, so
    concurrent workers never observe each other's teams.
    """

    def __init__(self, callback: "Callable[[Team], None] | None") -> None:
        self._callback = callback
        self._previous: "Callable[[Team], None] | None" = None

    def __enter__(self) -> None:
        self._previous = getattr(_region_watch, "callback", None)
        _region_watch.callback = self._callback

    def __exit__(self, *exc_info) -> None:
        _region_watch.callback = self._previous


def _resolve_num_threads(num_threads: int | None, parent: "ctx.ExecutionContext | None") -> int:
    """Team size for a region spawned under ``parent`` (``None`` = outermost).

    Nested parallelism follows OpenMP's *active level* rules: a level is
    active when its team has more than one member.  ``nested=False``
    (``AOMP_NESTED=0``) serialises any region spawned inside an active team;
    ``max_active_levels`` (``AOMP_MAX_ACTIVE_LEVELS``) caps how many active
    levels may stack.  Serialised (team-of-one) levels consume no budget, so
    parallelism re-appears below them.
    """
    config = get_config()
    if parent is not None:
        active = parent.active_levels()
        if active >= 1 and not config.nested:
            return 1
        if active >= config.max_active_levels:
            return 1
    n = num_threads if num_threads is not None else config.num_threads
    return max(1, int(n))


def _body_retry_safe(body: Callable[[], Any]) -> bool:
    """Whether ``body`` (or its bound owner) is marked ``retry_safe``."""
    flag = getattr(body, "retry_safe", None)
    if flag is None:
        flag = getattr(getattr(body, "__self__", None), "retry_safe", None)
    return bool(flag)


#: failure types the recovery policy may retry: infrastructure breakage
#: (a worker process died, a barrier was aborted/timed out) — never a
#: deterministic body exception, which would fail identically on every
#: attempt.
_RECOVERABLE_TYPES = (WorkerProcessError, BrokenBarrierError)


def _infrastructure_failure(exc: BaseException) -> bool:
    """Whether ``exc`` (or anything along its cause chain) is recoverable."""
    seen: set[int] = set()
    node: BaseException | None = exc
    while node is not None and id(node) not in seen:
        if isinstance(node, _RECOVERABLE_TYPES):
            return True
        seen.add(id(node))
        node = node.__cause__
    return False


def _recoverable(error: BrokenTeamError) -> bool:
    """Whether *every* member failure behind ``error`` is infrastructure."""
    failures = error.failures
    if not failures:
        cause = error.__cause__
        return cause is not None and _infrastructure_failure(cause)
    return all(_infrastructure_failure(exc) for _, exc in failures)


def _degraded_backend(backend: Backend) -> "Backend | None":
    """Next backend down the fallback chain (processes → threads → serial)."""
    fallback = getattr(backend, "fallback", None)
    if isinstance(fallback, Backend) and fallback is not backend:
        return fallback
    if backend.name != "serial":
        return backend_by_name("serial")
    return None


def parallel_region(
    body: Callable[[], Any],
    *,
    num_threads: int | None = None,
    backend: "Backend | str | None" = None,
    recorder: TraceRecorder | None = None,
    name: str | None = None,
    requires_shared_locals: bool = False,
    on_failure: str | None = None,
    max_retries: int | None = None,
    retry_backoff: float | None = None,
    retry_safe: bool | None = None,
) -> Any:
    """Execute ``body`` as a parallel region and return the master's result.

    Every team member calls ``body()`` (SPMD execution, exactly as the
    ``around`` advice in the paper's Figure 9 makes every spawned thread and
    the master call ``proceed()``).  The master's return value is returned to
    the caller; the other members' return values are kept on the team's
    :class:`TeamMember` records.

    Parameters
    ----------
    body:
        Zero-argument callable; use a closure or ``functools.partial`` to bind
        arguments.
    num_threads:
        Team size; defaults to the global configuration.
    backend:
        Execution backend — an instance, a registered backend name
        (``"serial"`` | ``"threads"`` | ``"processes"``) or ``None`` for the
        globally configured backend.
    recorder:
        Trace recorder; defaults to the globally installed recorder (if any)
        when tracing is enabled.
    name:
        Human-readable region name used in traces.
    requires_shared_locals:
        Declares that the region body uses constructs needing a shared Python
        heap (single/master broadcast, ordered, critical sections,
        reductions).  Backends lacking that capability (processes) then fall
        back to their in-process fallback backend.  Set automatically by the
        weaver from the aspects woven alongside a parallel-region aspect.
    on_failure:
        Failure policy (default from the configuration / ``AOMP_ON_FAILURE``):
        ``"raise"`` propagates a :class:`BrokenTeamError` immediately;
        ``"retry"`` re-runs the region — with exponential backoff, up to
        ``max_retries`` times — when every member failure was *recoverable
        infrastructure* (a dead worker process, a broken barrier;
        deterministic body exceptions always raise); ``"degrade"``
        additionally walks down the backend fallback chain (processes →
        threads → serial, each with its own retry budget) before giving up.
    max_retries / retry_backoff:
        Retry budget per backend level and base delay in seconds (doubling
        per attempt); default from the configuration.
    retry_safe:
        Retries re-execute the body, so they are gated on an explicit
        idempotence marker: pass ``retry_safe=True``, or set a ``retry_safe``
        attribute on the body or its bound owner.  Unmarked bodies raise even
        under ``retry``/``degrade`` (the error gains a note saying why).
    """
    config = get_config()
    policy = on_failure if on_failure is not None else config.on_failure
    if policy not in ON_FAILURE_POLICIES:
        raise ValueError(
            f"on_failure must be one of {', '.join(map(repr, ON_FAILURE_POLICIES))}, got {policy!r}"
        )
    if policy == "raise":
        return _execute_region(
            body,
            num_threads=num_threads,
            backend=backend,
            recorder=recorder,
            name=name,
            requires_shared_locals=requires_shared_locals,
        )

    safe = retry_safe if retry_safe is not None else _body_retry_safe(body)
    retries = max_retries if max_retries is not None else config.max_retries
    backoff = retry_backoff if retry_backoff is not None else config.retry_backoff
    current = resolve_backend(backend)
    attempt = 0
    while True:
        try:
            return _execute_region(
                body,
                num_threads=num_threads,
                backend=current,
                recorder=recorder,
                name=name,
                requires_shared_locals=requires_shared_locals,
            )
        except BrokenTeamError as exc:
            if not safe:
                if hasattr(exc, "add_note"):  # pragma: no branch - 3.11+
                    exc.add_note(
                        f"on_failure={policy!r} ignored: the region body is not marked "
                        "retry_safe (pass retry_safe=True or set a retry_safe attribute "
                        "on the body/its owner)"
                    )
                raise
            if not _recoverable(exc):
                raise
            rec = recorder
            if rec is None and config.tracing:
                rec = get_global_recorder()
            if attempt < retries:
                delay = backoff * (2**attempt)
                attempt += 1
                if config.metrics:
                    obsreg.inc(obsreg.REGIONS_RETRIED)
                if rec is not None:
                    rec.record(
                        EventKind.REGION_RETRY,
                        NO_REGION,
                        ctx.get_thread_id(),
                        name=name,
                        action="retry",
                        attempt=attempt,
                        backend=current.name,
                        delay=delay,
                    )
                if delay > 0:
                    time.sleep(delay)
                continue
            degraded = _degraded_backend(current) if policy == "degrade" else None
            if degraded is None:
                raise
            if config.metrics:
                obsreg.inc(obsreg.REGIONS_DEGRADED)
            if rec is not None:
                rec.record(
                    EventKind.REGION_RETRY,
                    NO_REGION,
                    ctx.get_thread_id(),
                    name=name,
                    action="degrade",
                    attempt=attempt,
                    backend=degraded.name,
                    from_backend=current.name,
                )
            current = degraded
            attempt = 0


def _execute_region(
    body: Callable[[], Any],
    *,
    num_threads: int | None,
    backend: "Backend | str | None",
    recorder: TraceRecorder | None,
    name: str | None,
    requires_shared_locals: bool,
) -> Any:
    """One attempt at a parallel region (the pre-recovery ``parallel_region``)."""
    parent = ctx.current_context()
    nesting_level = parent.nesting_level + 1 if parent is not None else 0
    size = _resolve_num_threads(num_threads, parent)
    backend = resolve_backend(backend)
    # A backend without blocking sync (serial, or any registered sequential
    # backend) runs members one after another, which cannot satisfy
    # multi-party barriers; clamp to a team of one (sequential semantics)
    # unless the backend explicitly opts into multi-member serial execution.
    if not backend.supports_blocking_sync and not getattr(backend, "allow_multi", False):
        size = 1
    backend = backend.resolve_for_region(
        size=size, nesting_level=nesting_level, requires_shared_locals=requires_shared_locals
    )
    config = get_config()
    if recorder is None and config.tracing:
        recorder = get_global_recorder()

    region_id = recorder.new_region_id() if recorder is not None else 0
    team = Team(
        size,
        region_id=region_id,
        name=name,
        recorder=recorder,
        nesting_level=nesting_level,
        process_sync=backend.create_process_sync(size, body),
        parent=parent.team if parent is not None else None,
    )
    # Record the *resolved* backend's identity: after fallback resolution this
    # names the backend that actually runs the members, which is what the
    # adaptive tuner keys its per-site cache and spinup costs on.
    team.backend_name = backend.name
    team.backend_spinup_scale = backend.spinup_cost_scale
    # A thread-scoped tuner (per-tenant caches in the compute service) is
    # stamped onto the team so every member agrees on it.  Nested regions,
    # whose member 0 (the one that opens an auto invocation) is a member
    # thread of the parent with no scope of its own, inherit the parent
    # team's stamp.  A scope can only be open once the tune package is
    # loaded, so a region need not load it to look (the tune package imports
    # runtime modules).
    tuner_module = sys.modules.get("repro.tune.tuner")
    team.tuner = tuner_module.scoped_tuner() if tuner_module is not None else None
    if team.tuner is None and parent is not None:
        team.tuner = parent.team.tuner
    watcher = getattr(_region_watch, "callback", None)
    if watcher is not None:
        watcher(team)
    if team.metrics:
        obsreg.inc(obsreg.REGIONS_ENTERED)
        # Lazy import: the HTTP exposition stack only loads when metrics are
        # actually on.  Idempotent, and a no-op unless AOMP_METRICS_PORT is set.
        from repro.obs.exposition import ensure_exporter

        ensure_exporter()
    # From here on the backend may hold per-region resources (the process
    # backend's pool lock); every exit path below must reach finish_region.
    try:
        if recorder is not None:
            # Parent linkage lets the perf model fold a nested region's
            # makespan into the spawning member's lane instead of double
            # counting it as another top-level region.  Region ids are only
            # meaningful within one recorder, so the link is recorded only
            # when parent and child trace into the same one.
            linked = parent is not None and parent.team.recorder is recorder
            recorder.record(
                EventKind.REGION_BEGIN,
                region_id,
                ctx.get_thread_id(),
                name=team.name,
                size=size,
                level=nesting_level,
                parent_region=parent.team.region_id if linked else None,
                parent_thread=parent.thread_id if linked else None,
            )

        def run_member(thread_id: int) -> Any:
            return run_region_member(team, thread_id, body, parent)

        try:
            result = backend.run_team(team, run_member, body)
        finally:
            if recorder is not None:
                recorder.record(EventKind.REGION_END, region_id, ctx.get_thread_id(), name=team.name)
            if team.metrics:
                # Fold every worker's flushed counts back into the master's
                # registry *before* the backend releases the sync bundle.
                sync = team.process_sync
                arena = getattr(sync, "metrics", None) if sync is not None else None
                if arena is not None:
                    obsreg.absorb(arena.drain())
    finally:
        backend.finish_region(team)

    failures = [(m.thread_id, m.exception) for m in team.members if m.exception is not None]
    if team.metrics:
        obsreg.inc(obsreg.REGIONS_FAILED if failures else obsreg.REGIONS_COMPLETED)
    if failures:
        # Primary-cause selection: when a worker dies, every survivor reports
        # a knock-on BrokenBarrierError — the diagnosis is the
        # WorkerProcessError naming the casualty, so prefer it (then any
        # non-barrier failure) as the chained cause.
        primary_id, primary = failures[0]
        for thread_id, exc in failures:
            if isinstance(exc, WorkerProcessError):
                primary_id, primary = thread_id, exc
                break
        else:
            for thread_id, exc in failures:
                if not isinstance(exc, BrokenBarrierError):
                    primary_id, primary = thread_id, exc
                    break
        roster = ", ".join(f"member {tid}: {type(exc).__name__}" for tid, exc in failures)
        raise BrokenTeamError(
            f"{len(failures)} of {team.size} member(s) of team {team.name!r} "
            f"(level {team.nesting_level}, backend {team.backend_name or '?'}) failed "
            f"[{roster}]; first diagnosed failure from member {primary_id}: {primary!r}",
            failures=failures,
        ) from primary
    return result
