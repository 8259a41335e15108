"""Execution backends for parallel regions.

The backend is a strategy object deciding *how* team members execute:

* :class:`ThreadBackend` — runs each team member beyond the master on a real
  OS thread, taken from a process-wide stack of parked workers and returned
  to it afterwards (a warm region costs a hand-off, not a thread start).
  Correct concurrent semantics; actual wall-clock speedup is limited by the
  CPython GIL for pure-Python work, which is why :mod:`repro.perf` exists
  (see README.md).
* :class:`SerialBackend` — forces a team of one and runs the body inline.
  Useful for debugging and as the embodiment of the paper's *sequential
  semantics* claim: a program composed with aspects still runs correctly
  with parallelism disabled.
* :class:`ProcessBackend` — runs team members in worker *processes*, escaping
  the GIL for genuine multi-core speedups.  Shared state must live in
  :mod:`repro.runtime.shm` shared-memory arrays; constructs that require a
  shared Python heap (single/master broadcast, ordered, critical sections,
  thread-local reductions) transparently fall back to the thread backend via
  the :attr:`Backend.supports_shared_locals` capability flag, which the
  weaver and the worksharing layer consult.
* :class:`~repro.runtime.distributed.DistributedBackend` (registered as
  ``distributed``) — runs team members in spawned worker processes over the
  socket data plane: no fork, so it works on every platform.

Capability flags describe what each backend can honour; the
:attr:`Backend.true_parallel` flag additionally reports whether members can
execute Python bytecode *simultaneously* — which for the thread backend is a
property of the build (free-threaded CPython, PEP 703), detected live via
:func:`gil_enabled`, not a constant.

Backends are selected (in increasing precedence): the ``AOMP_BACKEND``
environment variable / :class:`repro.runtime.config.RuntimeConfig` field, a
global :func:`set_backend` override, and the per-region ``backend=`` argument
of :func:`repro.runtime.team.parallel_region` (a backend instance or name).
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import sysconfig
import threading
import warnings
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.runtime import shm
import repro.obs.registry as obsreg
from repro.runtime.barrier import CyclicBarrier
from repro.runtime.config import get_config, usable_cpus
from repro.runtime.member import (
    FrameReader,
    _encode_exception,
    _encode_result,
    body_payload,
    join_team,
    send_frame,
    watch_master,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.team import Team


def free_threaded_build() -> bool:
    """Whether this CPython was built with ``Py_GIL_DISABLED`` (PEP 703)."""
    return bool(sysconfig.get_config_var("Py_GIL_DISABLED"))


#: the live GIL probe of free-threaded builds; regular builds lack it
_GIL_PROBE = getattr(sys, "_is_gil_enabled", None)


def gil_enabled() -> bool:
    """Whether the GIL is actually active in this process.

    On free-threaded builds the GIL can still be re-enabled at runtime
    (``PYTHON_GIL=1``, or an incompatible extension forcing it back on), so
    the live :func:`sys._is_gil_enabled` answer is authoritative where it
    exists; regular builds lack the probe and always hold the GIL.
    """
    return True if _GIL_PROBE is None else bool(_GIL_PROBE())


class Backend:
    """Interface for parallel-region execution backends."""

    name = "abstract"

    #: Whether team members share one Python heap: mutations of ordinary
    #: Python objects made by one member are visible to the others.  Process
    #: and distributed backends set this to ``False``; constructs that
    #: need shared locals (single/master broadcast, ordered, critical
    #: sections, reductions) are routed to a fallback backend when it is
    #: unset.
    supports_shared_locals = True

    #: Whether members can block in multi-party barriers (False only for the
    #: serial backend, which runs members one after another).
    supports_blocking_sync = True

    #: Whether members execute in separate OS processes.
    is_process_based = False

    #: Rough cost of spinning up this backend's team relative to spawning
    #: threads (1.0).  The adaptive tuner multiplies its serial-fallback
    #: cutoff by this, so an expensive-to-start backend serialises small
    #: loops sooner and a thread team is not charged a fork's price.
    spinup_cost_scale = 1.0

    @property
    def true_parallel(self) -> bool:
        """Whether team members can execute Python bytecode simultaneously.

        ``False`` for GIL-bound threads (pure-Python bodies serialise even on
        many cores); ``True`` for process teams and threads on a live
        free-threaded build.
        Consumers — the tuner's arbitration, the benchmark report — must ask
        the *backend*, not assume thread ⇒ GIL-bound.
        """
        return False

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: Callable[[], Any] | None = None) -> Any:
        """Execute ``run_member(thread_id)`` for every member of ``team``.

        Must return the master's (thread id 0) return value.  Exceptions
        raised by members must *not* propagate from this method: they are
        recorded on the corresponding :class:`~repro.runtime.team.TeamMember`
        by the region driver, which converts them into a
        :class:`~repro.runtime.exceptions.BrokenTeamError` after all members
        have finished.  ``body`` is the raw region body (before the context
        bookkeeping that ``run_member`` adds); process backends use it to
        decide whether the region can be shipped to a persistent worker pool.
        """
        raise NotImplementedError

    def resolve_for_region(self, *, size: int, nesting_level: int, requires_shared_locals: bool) -> "Backend":
        """Return the backend that will actually execute the region.

        The default backend honours every region; the process backend
        delegates to its thread fallback for regions it cannot execute
        faithfully (nested regions, regions whose constructs need a shared
        Python heap).
        """
        return self

    def create_process_sync(self, size: int, body: Callable[[], Any] | None) -> "shm.ProcessSync | None":
        """Create cross-process team synchronisation, or ``None`` for in-process backends."""
        return None

    def finish_region(self, team: "Team") -> None:
        """Hook called after a region completes (releases pooled resources)."""


class _RegionJoin:
    """Completion latch for one region: released by the last member to finish."""

    __slots__ = ("_lock", "_left", "done")

    def __init__(self, members: int) -> None:
        self._lock = threading.Lock()
        self._left = members
        self.done = threading.Lock()
        self.done.acquire()

    def member_finished(self) -> None:
        with self._lock:
            self._left -= 1
            last = self._left == 0
        if last:
            self.done.release()


class _ParkedWorker:
    """A reusable daemon thread that runs one team member at a time.

    Between members the thread blocks in ``_wake.acquire()`` — a C-level
    wait that holds no lock and no reference to the last region — so a
    region on a warm team costs one lock hand-off per member instead of a
    ``threading.Thread`` start and join.
    """

    __slots__ = ("thread", "cpu", "_wake", "_job")

    _ordinals = itertools.count()

    def __init__(self) -> None:
        #: the one processor a master last asked this thread to run on
        self.cpu: "int | None" = None
        self._wake = threading.Lock()
        self._wake.acquire()
        self._job: "tuple[Callable[[int], Any], int, _RegionJoin, str] | None" = None
        self.thread = threading.Thread(
            target=self._serve, name=f"aomp-parked-{next(self._ordinals)}", daemon=True
        )
        self.thread.start()

    def follow(self, cpu: int) -> None:
        """Bind this parked thread to ``cpu``, the processor its next master is on."""
        moved = self.cpu is not None
        self.cpu = cpu  # remembered even if refused: one call per move, not per region
        try:
            os.sched_setaffinity(self.thread.native_id, (cpu,))
        except OSError:
            return  # a cpuset or sandbox said no: the worker runs where it is
        if moved and get_config().metrics:
            obsreg.inc(obsreg.MEMBER_MOVES)

    def dispatch(self, run_member: Callable[[int], Any], thread_id: int, join: _RegionJoin, name: str) -> None:
        self._job = (run_member, thread_id, join, name)
        self._wake.release()

    def _serve(self) -> None:
        thread = self.thread
        parked_name = thread.name
        while True:
            self._wake.acquire()
            run_member, thread_id, join, name = self._job  # type: ignore[misc]
            self._job = None
            # Named after the member it is running, so a stack dump of a hung
            # region says which team and member each thread belongs to.
            thread.name = name
            try:
                run_member(thread_id)
            except BaseException:
                # The exception is recorded on the member by the region
                # driver; swallowing it here keeps the worker reusable.
                pass
            del run_member  # a parked worker pins no region
            thread.name = parked_name
            # Park before reporting, so the master's next region finds this
            # (cache-warm) worker on top of the idle stack.
            _idle_workers.append(self)
            join.member_finished()
            del join


#: parked workers, most recently used last, shared by every ThreadBackend so
#: fallback teams, nested teams and the service's dispatch threads all reuse
#: the same threads.  ``list.append``/``list.pop`` are atomic; the stack only
#: ever holds workers that are parked (or about to park), so a taker never
#: waits for one — it starts a new thread when the stack is empty.
_idle_workers: "list[_ParkedWorker]" = []

if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI
    # Threads do not survive fork: the child's copy of the stack names
    # workers that no longer exist, and a member handed to one would never
    # run.  Regions entered in a forked child start fresh workers.
    os.register_at_fork(after_in_child=_idle_workers.clear)


@functools.lru_cache(maxsize=None)
def _find_sched_getcpu() -> "Callable[[], int] | None":
    """libc's ``sched_getcpu``, or ``None`` where members are not placed (no
    such call, or one usable processor).  Looked for once, by the first
    multi-member region: a program without one never opens libc through
    ``ctypes``, and the mask is read when teams start, not at import."""
    if hasattr(os, "sched_setaffinity") and usable_cpus() > 1:
        try:
            import ctypes

            probe = ctypes.CDLL(None).sched_getcpu  # int sched_getcpu(void): ctypes' defaults
            if probe() >= 0:
                return probe
        except (ImportError, OSError, AttributeError):  # no _ctypes, no libc, no symbol
            pass
    return None


class ThreadBackend(Backend):
    """Run each non-master member on a worker thread; the master runs inline.

    This mirrors the paper's Figure 9 — ``numberOfThreads - 1`` members run
    beside the master, which executes the body itself and then waits for
    all of them — except that the threads are *kept*: a finished member's
    thread parks on a process-wide idle stack and serves the next region,
    so ``threading.local`` state a body leaves behind is visible to a later
    region (use the team-scoped ``threadlocal`` construct instead).

    Members that share a GIL cannot run Python side by side, so a hand-off
    to a worker parked on another processor buys no parallelism and pays
    that processor's wake-up, and the kernel never repairs it: two threads
    that alternate on a lock do not look imbalanced.  The master therefore
    binds each worker it takes to the processor it is itself running on (a
    system call only when that differs from the worker's last place).  Its
    own mask is never written, and a body that re-binds its thread keeps
    what it set until its master next moves.
    """

    name = "threads"

    def __init__(self, daemon: bool = True, name_prefix: str = "aomp-worker") -> None:
        """``name_prefix`` leads the name a worker thread carries while it runs
        a member of this backend's teams (``<prefix>-<team>-<member>``).
        ``daemon`` is accepted for callers written against per-region
        threads and no longer selects anything: parked workers are shared
        process-wide and outlive their region, so they are always daemons."""
        if not daemon:
            warnings.warn(
                "ThreadBackend(daemon=False) is ignored: worker threads are reused across "
                "regions and are always daemons",
                DeprecationWarning,
                stacklevel=2,
            )
        self.name_prefix = name_prefix

    @property
    def true_parallel(self) -> bool:
        """Threads run Python in parallel exactly when the GIL is off (PEP 703
        free-threaded builds); on regular builds pure-Python bodies serialise."""
        return not gil_enabled()

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: Callable[[], Any] | None = None) -> Any:
        spawned = team.members[1:]
        workers: list[_ParkedWorker] = []
        try:
            for member in spawned:
                try:
                    worker = _idle_workers.pop()
                except IndexError:
                    worker = _ParkedWorker()
                workers.append(worker)
                member.thread = worker.thread
            if workers and not self.true_parallel:
                getcpu = _find_sched_getcpu()
                if getcpu is not None:
                    cpu = getcpu()
                    for worker in workers:
                        if worker.cpu != cpu:
                            worker.follow(cpu)
        except BaseException:
            # Thread exhaustion (or placement raised): nothing was dispatched
            # yet, so hand back what was taken instead of stranding it.
            _idle_workers.extend(workers)
            raise
        join = _RegionJoin(len(workers))
        prefix = f"{self.name_prefix}-{team.name}-"
        for member, worker in zip(spawned, workers):
            worker.dispatch(run_member, member.thread_id, join, f"{prefix}{member.thread_id}")

        master_result: Any = None
        try:
            master_result = run_member(0)
        except BaseException:
            # Recorded on the member; do not propagate until workers finished.
            pass
        finally:
            if workers:
                join.done.acquire()
        return master_result


class SerialBackend(Backend):
    """Run every member sequentially on the calling thread.

    With a team of size 1 this is exactly sequential execution.  With a larger
    team it runs members one after another, which only works for regions
    without cross-member blocking synchronisation (no multi-party barriers);
    the region driver therefore clamps the team size to 1 when this backend is
    selected globally, unless ``allow_multi`` is set (used by tests that check
    the clamping behaviour itself).
    """

    name = "serial"
    supports_blocking_sync = False

    def __init__(self, allow_multi: bool = False) -> None:
        self.allow_multi = allow_multi

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: Callable[[], Any] | None = None) -> Any:
        member_ids = range(team.size) if self.allow_multi else range(min(1, team.size))
        master_result: Any = None
        for thread_id in member_ids:
            try:
                result = run_member(thread_id)
            except BaseException:
                continue
            if thread_id == 0:
                master_result = result
        return master_result


class ExternalBackend(Backend):
    """A backend whose members live outside the master's Python heap.

    What the process and distributed tiers have in common on
    the master's side: an in-process ``fallback`` for the regions they cannot
    honour, one rule for which regions those are, and a warning — once per
    reason — when the fallback is a degradation rather than the design.
    """

    supports_shared_locals = False

    def __init__(self, fallback: Backend | None = None) -> None:
        self._fallback = fallback if fallback is not None else ThreadBackend()
        self._warned_fallback: set[str] = set()

    @property
    def fallback(self) -> Backend:
        """The in-process backend used for regions this tier cannot honour."""
        return self._fallback

    def unavailable(self) -> "str | None":
        """Why this tier's workers cannot exist on this host, or ``None``."""
        return None

    def resolve_for_region(self, *, size: int, nesting_level: int, requires_shared_locals: bool) -> Backend:
        if size <= 1:
            return self
        reason = self.unavailable()
        if reason is not None:
            self._warn_once("platform", f"{reason}; using thread backend")
            return self._fallback
        if nesting_level > 0:
            # Designed hierarchy, not a degradation: the external team forms
            # the outer level and nested regions spawned inside its workers
            # run as thread sub-teams within each worker (new workers could
            # not share the enclosing team's heap or its sync bundle).
            return self._fallback
        if requires_shared_locals:
            self._warn_once(
                "shared-locals",
                "region needs a shared Python heap (constructs like single/master "
                "broadcast, ordered, critical or reductions — or a woven target whose "
                "mutable state is not shared-memory backed / marked process_safe); "
                "using thread backend",
            )
            return self._fallback
        return self

    def _shippable(self, body: Callable[[], Any] | None) -> "bytes | None":
        """``body`` pickled for this tier's workers; warns when it cannot travel."""
        body_bytes = body_payload(body)
        if body_bytes is None:
            # create_process_sync then returns None and run_team delegates to
            # the thread fallback.
            self._warn_once(
                "body",
                "region body is not a picklable process_safe SPMD callable; "
                "this tier's workers cannot receive it — using thread backend",
            )
        return body_bytes

    def _warn_once(self, key: str, message: str) -> None:
        if key not in self._warned_fallback:
            self._warned_fallback.add(key)
            warnings.warn(f"{type(self).__name__}: {message}", RuntimeWarning, stacklevel=3)


#: transport label threaded into a fork-inherited team's barrier-timeout messages.
SHM_TRANSPORT = "shm data plane, fork-inherited shared memory"


def shm_process_sync(size: int, *, pooled: bool = False, max_workers: int | None = None) -> shm.ProcessSync:
    """The ``ProcessSync`` bundle a ``size``-member fork-inherited team runs on:
    the shm data plane, whose arenas and barrier live in ``multiprocessing``
    shared memory and reach forked members by address-space inheritance.

    ``max_workers`` sizes the arenas (default ``max(size, 2)``); the pool
    passes its full width, as its team sizes vary region to region.
    """
    capacity = max_workers if max_workers is not None else max(size, 2)
    metrics = None
    if pooled or get_config().metrics:
        # Pool syncs always carry an arena: pooled workers are forked once
        # at pool construction and can only ever flush into cells that
        # existed at fork time, so the arena must exist even if metrics
        # are enabled later via ``config_override``.
        from repro.obs.arena import MetricsArena

        metrics = MetricsArena(capacity)
    barrier = CyclicBarrier(size, cells=shm.mp_cells, transport=SHM_TRANSPORT)
    return shm.ProcessSync(
        barrier,
        shm.SlotArenas.build(capacity, barrier),
        pooled=pooled,
        heartbeat=shm.HeartbeatArena(),
        metrics=metrics,
    )


class ProcessBackend(ExternalBackend):
    """Run team members in worker *processes* for true multi-core execution.

    Two execution paths, chosen per region:

    * **Persistent pool** — when the region body is a picklable SPMD callable
      whose owner opts in (``process_safe`` attribute, set by the JGF kernels
      when their arrays live in shared memory), the members are dispatched to
      a pool of long-lived worker processes.  The pool's barrier and claim
      arena are reused across regions, so steady-state region startup costs
      one task message per member instead of a fork.
    * **Fork-per-region** — arbitrary region bodies (closures over local
      state, woven classes) cannot be pickled; they are shipped to workers by
      address-space inheritance instead: ``size - 1`` processes are forked at
      region entry and exit at region end.  Requires the ``fork`` start
      method (anything POSIX).

    In both paths the master executes inline in the parent, worksharing
    chunks mutate :class:`~repro.runtime.shm.SharedArray` data in place, the
    team barrier is the thread teams' :class:`~repro.runtime.barrier.CyclicBarrier`
    on fork-inherited cells (:func:`~repro.runtime.shm.mp_cells`), and
    dynamic/guided loop claims go through a pre-allocated
    :class:`~repro.runtime.shm.SyncArena`.  Member results and exceptions are
    shipped back over a private reply pipe per member, so ``BrokenTeamError``
    semantics are identical to the thread backend.

    Regions the backend cannot honour — regions whose aspects require a
    shared Python heap (``supports_shared_locals``) — run on the ``fallback``
    thread backend instead.  Nested regions spawned inside a process team's
    workers also resolve to the thread fallback: the process team forms the
    outer level of the hierarchy and each worker hosts thread sub-teams
    (see ``resolve_for_region``).
    """

    name = "processes"
    is_process_based = True
    #: fork + channel setup per region (amortised by the persistent pool, but
    #: the first region and non-picklable bodies pay full price).
    spinup_cost_scale = 4.0

    @property
    def true_parallel(self) -> bool:
        """Each worker process has its own interpreter and GIL — genuinely
        parallel wherever the backend can run at all (fork available)."""
        return shm.fork_available()

    def __init__(
        self,
        fallback: Backend | None = None,
        *,
        pool_workers: int | None = None,
        use_pool: bool = True,
    ) -> None:
        super().__init__(fallback)
        self._pool_workers = pool_workers
        self._use_pool = use_pool
        self._pool = None
        self._pool_lock = threading.Lock()

    # -- strategy hooks -------------------------------------------------------

    def unavailable(self) -> "str | None":
        return None if shm.fork_available() else "fork start method unavailable"

    def create_process_sync(self, size: int, body: Callable[[], Any] | None) -> "shm.ProcessSync | None":
        if size <= 1 or not shm.fork_available():
            return None
        # Bodies that cannot be pickled by value (closures over local state,
        # woven classes) silently take the fork-per-region path instead.
        body_bytes = body_payload(body) if self._use_pool else None
        if body_bytes is not None and self._pool_lock.acquire(blocking=False):
            pool = self._ensure_pool(size - 1)
            if pool is not None:
                pool.prepare(size)
                return pool.region_sync(body_bytes, self._pool_lock)
            self._pool_lock.release()
        return shm_process_sync(size)

    def finish_region(self, team: "Team") -> None:
        sync = team.process_sync
        if sync is not None and sync.owned is not None:
            # A pooled region holds the pool for its duration.
            lock, sync.owned = sync.owned, None
            lock.release()

    # -- execution ------------------------------------------------------------

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: Callable[[], Any] | None = None) -> Any:
        sync = team.process_sync
        if sync is None:
            return self._fallback.run_team(team, run_member, body)
        if sync.pooled:
            return self._pool.run_region(team, run_member, sync.body_bytes)
        return self._run_forked(team, run_member)

    def _run_forked(self, team: "Team", run_member: Callable[[int], Any]) -> Any:
        ctx = shm._mp_context()

        def child(thread_id: int, reply_fd: int) -> None:
            # Only the master keeps read ends, so a reply to a dead master
            # fails instead of filling a pipe nobody reads.
            for fd in read_fds:
                os.close(fd)
            threading.Thread(
                target=watch_master,
                args=(os.getppid(), team.process_sync.barrier, threading.Event()),
                name="aomp-master-watch",
                daemon=True,
            ).start()
            try:
                reply = (_encode_result(run_member(thread_id)), None)
            except BaseException as exc:
                reply = (None, _encode_exception(exc))
            try:
                send_frame(reply_fd, (thread_id, reply))
            except BrokenPipeError:
                shm.sweep_orphans()  # the master is gone, and with it the owner of the team's segments

        # One reply pipe per member, its write end closed here as soon as its
        # child holds it: a child that dies without replying leaves EOF.
        workers, read_fds = [], []
        try:
            for member in team.members[1:]:
                read_fd, write_fd = os.pipe()
                read_fds.append(read_fd)
                worker = ctx.Process(
                    target=child, args=(member.thread_id, write_fd), daemon=True, name=f"aomp-proc-{member.thread_id}"
                )
                try:
                    worker.start()
                finally:
                    os.close(write_fd)
                workers.append(worker)
        except BaseException:
            for fd in read_fds:
                os.close(fd)
            raise
        replies = FrameReader(read_fds)

        def dead_workers() -> list:
            # Fork path: worker i *is* member i+1, and a worker that finished
            # cleanly exits 0 — only abnormal exits are deaths.
            return [
                (member.thread_id, worker.pid, worker.exitcode)
                for member, worker in zip(team.members[1:], workers)
                if worker.exitcode not in (None, 0)
            ]

        def reap(failed: bool) -> None:
            # A failed region may leave a wedged worker behind (e.g. a member
            # stalled in a long sleep): don't wait out its sleep, reap it.
            for worker in workers:
                worker.join(timeout=0.5 if failed else 5.0)
                if worker.is_alive():
                    worker.terminate()
                    worker.join(timeout=1.0)
            replies.close()

        return join_team(
            team,
            run_member,
            receive=replies.get,
            alive=lambda: any(worker.is_alive() for worker in workers),
            dead_workers=dead_workers,
            reap=reap,
        )

    # -- helpers --------------------------------------------------------------

    def _ensure_pool(self, needed_workers: int):
        pool = self._pool
        if pool is not None and pool.workers >= needed_workers and pool.healthy:
            return pool
        # Lazy: a program that never pools never loads the pool module.
        from repro.runtime.procpool import PersistentProcessPool

        if pool is not None and pool.workers < needed_workers:
            pool.shutdown()
            pool = self._pool = None
        elif pool is not None and not pool.healthy:
            # Self-healing first: respawn dead workers in place, keeping the
            # warm shared primitives — unless a casualty poisoned them (died
            # holding an arena lock), in which case rebuild from scratch.
            if not pool.heal():
                pool.shutdown()
                pool = self._pool = None
        if pool is None:
            default = self._pool_workers or max(needed_workers, usable_cpus() - 1)
            try:
                pool = PersistentProcessPool(max(needed_workers, default))
            except Exception:  # pragma: no cover - pool creation failure
                return None
            self._pool = pool
        return pool

    def prewarm(self, workers: int) -> bool:
        """Spawn the persistent pool now so the first region finds it hot.

        The compute service calls this at startup for each dispatch worker's
        private backend instance: pool construction *is* the warm-up (workers
        fork eagerly), so a prewarmed backend serves its first request
        without paying the spawn cost.  Returns whether a healthy pool is up
        (``False`` when pooling is disabled or construction failed — regions
        then fall back to fork-per-region exactly as before).
        """
        if not self._use_pool or workers < 1:
            return False
        with self._pool_lock:
            pool = self._ensure_pool(workers)
            return pool is not None and pool.healthy

    def condemn_pool(self) -> bool:
        """Condemn the live pool so an in-flight pooled region fails fast.

        External cancellation hook (PR-7 machinery): marking the pool
        condemned makes the region's join stop waiting on its workers, the region
        surfaces a :class:`BrokenTeamError`, and the *next* region rebuilds a
        fresh pool via ``_ensure_pool`` — the wedged team is torn down, not
        leaked.  Returns whether there was a pool to condemn.
        """
        pool = self._pool  # snapshot, not lock: the region in flight holds _pool_lock
        if pool is None:
            return False
        pool.condemn()
        return True

    def live_workers(self) -> list:
        """Pool worker processes that are still running (none after :meth:`shutdown`)."""
        pool = self._pool
        return [proc for proc in pool._procs if proc.is_alive()] if pool is not None else []

    def shutdown(self) -> None:
        """Stop the persistent worker pool (used by tests and at interpreter exit)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None


# ---------------------------------------------------------------------------
# Backend registry and selection
# ---------------------------------------------------------------------------

_backend_lock = threading.Lock()
_backend: Optional[Backend] = None  # explicit global override (set_backend)

_BACKEND_FACTORIES: Dict[str, Callable[[], Backend]] = {}
_BACKEND_ALIASES = {
    "serial": "serial",
    "sequential": "serial",
    "thread": "threads",
    "threads": "threads",
    "threading": "threads",
    "process": "processes",
    "processes": "processes",
    "proc": "processes",
    "multiprocessing": "processes",
}
_named_instances: Dict[str, Backend] = {}


def register_backend(name: str, factory: Callable[[], Backend], *, aliases: tuple = ()) -> None:
    """Register a backend factory under ``name`` (plus optional aliases)."""
    _BACKEND_FACTORIES[name] = factory
    _BACKEND_ALIASES[name] = name
    for alias in aliases:
        _BACKEND_ALIASES[alias] = name
    _named_instances.pop(name, None)


def _distributed_backend() -> Backend:
    # Imported lazily: distributed.py imports this module for the Backend
    # base class, so a module-level import would be circular.
    from repro.runtime.distributed import DistributedBackend

    return DistributedBackend()


register_backend("serial", SerialBackend)
register_backend("threads", ThreadBackend)
register_backend("processes", ProcessBackend)
register_backend("distributed", _distributed_backend, aliases=("dist", "sockets", "socket"))


def available_backends() -> list[str]:
    """Canonical names of the registered backends."""
    return sorted(_BACKEND_FACTORIES)


def backend_by_name(name: str) -> Backend:
    """Return the (cached) backend instance registered under ``name``."""
    try:
        canonical = _BACKEND_ALIASES[name.strip().lower()]
    except (KeyError, AttributeError):
        raise ValueError(
            f"unknown backend {name!r}; valid backends: {', '.join(available_backends())}"
        ) from None
    instance = _named_instances.get(canonical)
    if instance is None:  # the lock guards creation only
        with _backend_lock:
            instance = _named_instances.get(canonical)
            if instance is None:
                instance = _named_instances[canonical] = _BACKEND_FACTORIES[canonical]()
    return instance


def resolve_backend(spec: "Backend | str | None" = None) -> Backend:
    """Normalise a backend specification (instance, name, or ``None``).

    ``None`` resolves to the global override installed with
    :func:`set_backend`, falling back to the backend named by the runtime
    configuration (``AOMP_BACKEND`` environment variable).
    """
    if isinstance(spec, Backend):
        return spec
    if spec is None:
        return get_backend()
    if isinstance(spec, str):
        return backend_by_name(spec)
    raise TypeError(f"backend must be a Backend, name or None, got {type(spec).__name__}")


def get_backend() -> Backend:
    """Return the globally configured backend."""
    if _backend is not None:
        return _backend
    from repro.runtime.config import get_config

    return backend_by_name(get_config().backend)


def set_backend(backend: Optional[Backend]) -> Optional[Backend]:
    """Install ``backend`` as the global override and return the previous override.

    Passing ``None`` clears the override, restoring configuration-driven
    selection (the ``AOMP_BACKEND`` environment variable).
    """
    global _backend
    with _backend_lock:
        previous, _backend = _backend, backend
    return previous
