"""Persistent worker-process pool for the process backend.

Forking per region is cheap on Linux but not free; regions whose bodies are
*picklable* SPMD callables (bound methods of kernels whose arrays live in
shared memory) can instead be dispatched to this pool of long-lived worker
processes.  The pool owns the cross-process synchronisation objects — one
reusable :class:`~repro.runtime.shm.SharedBarrier` and one
:class:`~repro.runtime.shm.SyncArena` — created *before* the workers fork so
every worker inherits them; they are reset between regions — and one watcher
thread that checks worker liveness for whichever region is in flight.

Only one region executes on the pool at a time (the backend serialises
access); arbitrary non-picklable region bodies always use the backend's
fork-per-region path instead.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, Tuple

import repro.obs.registry as obsreg
from repro.runtime import faults, shm
from repro.runtime.backend import ResultChannel, _encode_exception, _encode_result
from repro.runtime.config import get_config
from repro.runtime.dataplane import ShmDataPlane

#: sentinel telling workers to exit
_STOP = None


def _pool_worker(task_queue, result_queue, sync: "shm.ProcessSync") -> None:
    """Worker loop: execute one team member per task message.

    Runs in a forked child; imports are deferred so the module can be
    imported by :mod:`repro.runtime.backend` without a circular import.
    """
    import repro.obs.registry as obsreg
    from repro.obs.exposition import suppress_exporter
    from repro.runtime import context as ctx
    from repro.runtime.team import Team

    from repro.runtime.config import config_override, get_config

    # Pool workers never serve scrapes: only the master holds the team-wide
    # aggregated counts (and the inherited exporter state must stay dormant).
    suppress_exporter()
    while True:
        task = task_queue.get()
        if task is _STOP:
            break
        ticket, thread_id, size, nesting_level, region_id, name, fault_region, cfg, body_bytes = task
        attached: "list[shm.SharedArray]" = []
        try:
            body, attached = shm.loads_tracking_attachments(body_bytes)
            team = Team(
                size,
                region_id=region_id,
                name=name,
                nesting_level=nesting_level,
                process_sync=sync,
            )
            team.fault_region = fault_region
            team.backend_name = "processes"
            if sync.heartbeat is not None:
                # Pool workers pick members per region: the heartbeat cell is
                # how the master maps this process back to the member it ran.
                sync.heartbeat.register(thread_id)
            frame = ctx.ExecutionContext(team=team, thread_id=thread_id, nesting_level=nesting_level)
            ctx.push_context(frame)
            try:
                if faults.active():
                    faults.fire(
                        "member", member=thread_id, region=fault_region, backend="processes", team=team
                    )
                # Long-lived workers keep the config captured when the pool
                # forked; the region's *current* schedule/nesting settings
                # travel in the task message so master and workers always
                # partition loops identically (a stale default_schedule here
                # silently corrupts work-shared results).
                with config_override(**cfg):
                    # The Team above was built under the worker's inherited
                    # config; the region's live metrics flag travels in cfg.
                    team.metrics = get_config().metrics
                    result = body()
            finally:
                ctx.pop_context()
                # Pool members execute the body directly (not run_member), so
                # the team-wide aggregation flush must happen here, before
                # the result frame signals completion to the master.
                if team.metrics and sync.metrics is not None:
                    sync.metrics.flush_member(thread_id, obsreg.flush_delta())
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            # Release siblings blocked in the team barrier, then report.
            sync.barrier.abort()
            payload = (ticket, thread_id, None, _encode_exception(exc))
        else:
            payload = (ticket, thread_id, _encode_result(result), None)
        # Every region re-attaches the arrays its pickled body names; detach
        # them now (the payload above already encoded any it references by
        # segment name) or the worker gains a mapping and an fd per array per
        # region.
        body = result = None
        for array in attached:
            array.close()
        result_queue.put(payload)


class PersistentProcessPool:
    """A fixed-size pool of forked worker processes executing team members."""

    #: Longest the master waits for the watcher's lock.  The watcher holds it
    #: while it checks, and a check can wedge inside ``team.abort()`` when a
    #: worker died holding the barrier's lock.
    WATCHER_WAIT = 5.0

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"pool needs at least 1 worker, got {workers}")
        # The pool's contract is fork inheritance: barrier, arenas and queues
        # below are created first and handed to the children by address-space
        # inheritance.  Fail loudly (BackendError) rather than let a spawn/
        # forkserver platform break the handoff silently — _mp_context() pins
        # the explicit "fork" context, never the ambient default.
        shm.require_fork("the persistent process pool")
        ctx = shm._mp_context()
        self.workers = workers
        # Constructed through the shm data plane (the barrier starts with one
        # party and is reset per region; the steal arena gets the full
        # 64-worker width because pool team sizes vary region to region).
        self._sync = ShmDataPlane().create_sync(1, pooled=True, max_workers=64)
        self.barrier = self._sync.barrier
        self.arena = self._sync.arena
        self.steal = self._sync.steal
        self.tune = self._sync.tune
        self.heartbeat = self._sync.heartbeat
        self.metrics = self._sync.metrics
        self._tasks = ctx.SimpleQueue()
        self._results = ResultChannel(ctx)
        self._tickets = itertools.count(1)
        self._procs = [
            ctx.Process(
                target=_pool_worker,
                args=(self._tasks, self._results, self._sync),
                daemon=True,
                name=f"aomp-pool-{i}",
            )
            for i in range(workers)
        ]
        for proc in self._procs:
            proc.start()
        self._shutdown = False
        self._broken = False
        self._condemned = False
        # One watcher thread for the pool's lifetime, armed per region with
        # that region's WorkerMonitor and parked in between.
        self._watch_cond = threading.Condition()
        self._watching: "faults.WorkerMonitor | None" = None
        self._watcher_parked = False
        self._watcher = threading.Thread(target=self._watch_loop, name="aomp-pool-watcher", daemon=True)
        self._watcher.start()

    @property
    def healthy(self) -> bool:
        """Whether the pool is usable: not shut down, not timed out, workers alive."""
        return (
            not self._shutdown
            and not self._broken
            and all(proc.is_alive() for proc in self._procs)
        )

    def prepare(self, team_size: int) -> None:
        """Reset the shared barrier/arenas for a region of ``team_size`` members."""
        self.barrier.reset(team_size)
        self.arena.reset()
        self.steal.reset()
        self.tune.reset()
        self.heartbeat.reset()
        if self._sync.metrics is not None:
            # Orphaned counts from an aborted region's dead workers must not
            # leak into the next region's drain.
            self._sync.metrics.reset()

    def submit_region(self, team, body_bytes: bytes) -> int:
        """Dispatch one task per non-master member; returns the region ticket."""
        from repro.runtime.subinterp import _spmd_config_fields

        ticket = next(self._tickets)
        cfg = _spmd_config_fields()
        for member in team.members[1:]:
            self._tasks.put(
                (
                    ticket,
                    member.thread_id,
                    team.size,
                    team.nesting_level,
                    team.region_id,
                    team.name,
                    team.fault_region,
                    cfg,
                    body_bytes,
                )
            )
        return ticket

    def dead_workers(self) -> "list[tuple[int | None, int | None, int | None]]":
        """``(member, pid, exitcode)`` per exited worker (member via heartbeat).

        Unlike the fork path, a pool worker has no fixed member identity —
        the heartbeat arena's pid cells, written at region entry, provide
        the mapping; a worker that died before claiming a member maps to
        ``None`` (the monitor still aborts the team).
        """
        dead = []
        for proc in self._procs:
            if proc.exitcode is not None:
                dead.append((self.heartbeat.member_for_pid(proc.pid), proc.pid, proc.exitcode))
        return dead

    def watch(self, team) -> "faults.WorkerMonitor":
        """Arm the pool's watcher for ``team``'s region; returns its monitor.

        Dead workers and, when configured, stale heartbeats abort the team
        within a heartbeat interval, exactly as a monitor thread of the
        region's own would — without starting and joining one per region.
        """
        monitor = faults.WorkerMonitor(team, self.dead_workers, heartbeat=self.heartbeat)
        monitor.publish_liveness()
        with self._watch_cond:
            self._watching = monitor
            if self._watcher_parked:
                self._watch_cond.notify()
        return monitor

    def unwatch(self, monitor: "faults.WorkerMonitor") -> None:
        """Disarm the watcher; on return no check of ``monitor`` is running.

        Checks run under the watcher's lock, so taking it here means a late
        check can never abort the pool's (shared, already reset) barrier
        under the *next* region's team.  The wait is bounded: a watcher
        wedged inside an abort (a worker died holding the barrier's lock)
        condemns the pool instead of hanging the master.
        """
        if self._watch_cond.acquire(timeout=self.WATCHER_WAIT):
            try:
                if self._watching is monitor:
                    self._watching = None
            finally:
                self._watch_cond.release()
        else:  # pragma: no cover - watcher stuck on a poisoned barrier lock
            self.condemn()
        monitor.withdraw_liveness()

    def _watch_loop(self) -> None:
        """Check the region in flight once per heartbeat interval.

        With nothing in flight the loop parks until :meth:`watch` (or
        :meth:`shutdown`) notifies; regions armed while it sleeps out an
        interval do not wake it, so a stream of short regions costs the
        master at most one thread wake-up per interval.
        """
        cond = self._watch_cond
        with cond:
            while not self._shutdown:
                monitor = self._watching
                if monitor is None:
                    self._watcher_parked = True
                    cond.wait()
                    self._watcher_parked = False
                    continue
                cond.wait(monitor.interval)
                monitor = self._watching  # whichever region is in flight *now*
                if monitor is not None and monitor.check_once():
                    self._watching = None

    def condemn(self) -> None:
        """Mark the pool unhealable (a live worker is wedged in a dead region).

        :meth:`heal` can only replace *exited* workers; a member that stopped
        heartbeating but never died would survive a heal still stuck in the
        old region's body, then collide with the next region's reset barrier.
        Condemning forces the backend down the shutdown-and-rebuild path.
        """
        self._broken = True
        self._condemned = True

    def heal(self) -> bool:
        """Rebuild the pool's workers in place; ``False`` if it cannot be saved.

        A worker killed *while holding* one of the shared synchronisation
        locks (an arena lock, the barrier's condition) leaves it locked
        forever; each is probed with a short timeout and any poisoned lock
        vetoes healing — those are the warm, preallocated primitives whose
        reuse the pool exists for.  The task/result queues cannot be probed
        the same way: an idle worker blocks inside ``SimpleQueue.get()``
        *holding* the queue's reader lock by design, so a worker SIGKILLed
        while idle may have poisoned it undetectably.  They are therefore
        replaced wholesale, every worker (dead or alive) is reaped, and a
        fresh generation is forked against the new queues — forks are cheap,
        and a survivor still wedged in the old region's body must not meet
        the next region's reset barrier anyway.
        """
        if self._shutdown or self._condemned:
            return False
        if not self._probe_locks():
            return False
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                proc.kill()
                proc.join(timeout=1.0)
        ctx = shm._mp_context()
        self._tasks = ctx.SimpleQueue()
        self._results = ResultChannel(ctx)
        self._procs = [
            ctx.Process(
                target=_pool_worker,
                args=(self._tasks, self._results, self._sync),
                daemon=True,
                name=f"aomp-pool-{i}",
            )
            for i in range(self.workers)
        ]
        for proc in self._procs:
            proc.start()
        self._broken = False
        if get_config().metrics:
            obsreg.inc(obsreg.POOL_HEALS)
        return self.healthy

    def _probe_locks(self, timeout: float = 0.5) -> bool:
        locks = (
            getattr(self.barrier, "_cond", None),
            getattr(self.arena, "_lock", None),
            getattr(self.steal, "_lock", None),
            getattr(self.tune, "_lock", None),
        )
        for lock in locks:
            acquire = getattr(lock, "acquire", None)
            if acquire is None:
                continue
            try:
                acquired = acquire(timeout=timeout)
            except TypeError:  # pragma: no cover - lock without timeout support
                continue
            if not acquired:
                return False
            lock.release()
        return True

    def collect(
        self,
        ticket: int,
        *,
        expected: int,
        abort: Callable[[], None],
        timeout: float | None = None,
        tripped: "Callable[[], bool] | None" = None,
    ) -> Dict[int, Tuple[Any, Any]]:
        """Gather ``expected`` member payloads for ``ticket``.

        Stale payloads from earlier (aborted) regions are discarded.  If
        workers die or the deadline passes, the remaining members are left
        unreported (the backend converts them into ``WorkerProcessError``)
        and the pool poisons itself — a worker still stuck in the old
        region's body would otherwise hit the *next* region's reset
        barrier/arena — so the backend replaces it.
        """
        from repro.runtime.backend import collect_member_payloads

        def give_up() -> None:
            self._broken = True

        return collect_member_payloads(
            self._results.get,
            expected=expected,
            alive=lambda: self.healthy,
            abort=abort,
            timeout=timeout if timeout is not None else shm.BARRIER_TIMEOUT + 30.0,
            accept=lambda item: (item[1], (item[2], item[3])) if item[0] == ticket else None,
            on_give_up=give_up,
            tripped=tripped,
        )

    def shutdown(self) -> None:
        """Stop all workers and release the queues."""
        if self._shutdown:
            return
        self._shutdown = True
        # Bounded like unwatch(): a watcher wedged inside an abort holds the
        # condition; it is a daemon and sees _shutdown whenever it gets out.
        if self._watch_cond.acquire(timeout=self.WATCHER_WAIT):
            try:
                self._watch_cond.notify()
            finally:
                self._watch_cond.release()
            self._watcher.join(timeout=self.WATCHER_WAIT)
        for _ in self._procs:
            try:
                self._tasks.put(_STOP)
            except Exception:  # pragma: no cover - queue already closed
                break
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
