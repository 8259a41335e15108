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

import repro.obs.registry as obsreg
from repro.runtime import faults, shm
from repro.runtime.backend import ResultChannel
from repro.runtime.config import get_config
from repro.runtime.dataplane import ShmDataPlane
from repro.runtime.member import describe_region, join_team, run_shipped_member

#: sentinel telling workers to exit
_STOP = None


def _pool_worker(task_queue, result_queue, sync: "shm.ProcessSync") -> None:
    """Worker loop (runs in a forked child): one team member per task message.

    A task is ``(ticket, thread_id, descriptor)``; the reply is the member's
    encoded outcome under the same ticket and id.
    """
    import repro.obs.exposition  # noqa: F401 - loaded at fork, not inside the first region

    while True:
        task = task_queue.get()
        if task is _STOP:
            break
        ticket, thread_id, descriptor = task
        result_queue.put((ticket, thread_id, run_shipped_member(descriptor, thread_id, sync)))


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

    def run_region(self, team, run_member, body_bytes: bytes):
        """Run ``team``'s region on the pool; returns the master's result.

        One task per non-master member goes out under a fresh ticket, and
        replies carrying an earlier (aborted) region's ticket are discarded.
        If workers die or the deadline passes, the remaining members are left
        unreported (the join turns them into ``WorkerProcessError``) and the
        pool poisons itself — a worker still stuck in the old region's body
        would otherwise hit the *next* region's reset barrier/arena — so the
        backend replaces it.
        """
        ticket = next(self._tickets)
        descriptor = describe_region(team, body_bytes)
        for member in team.members[1:]:
            self._tasks.put((ticket, member.thread_id, descriptor))

        def give_up() -> None:
            self._broken = True

        return join_team(
            team,
            run_member,
            receive=self._results.get,
            accept=lambda item: item[1:] if item[0] == ticket else None,
            alive=lambda: self.healthy,
            dead_workers=self.dead_workers,
            watcher=self,
            on_give_up=give_up,
        )

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

    def watch(self, monitor: "faults.WorkerMonitor") -> None:
        """Arm the pool's watcher with ``monitor`` for the region in flight.

        Dead workers and, when configured, stale heartbeats abort the team
        within a heartbeat interval, exactly as a monitor thread of the
        region's own would — without starting and joining one per region.
        """
        monitor.publish_liveness()
        with self._watch_cond:
            self._watching = monitor
            if self._watcher_parked:
                self._watch_cond.notify()

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
        if monitor.stalled:
            # A member that stopped heartbeating is still alive inside the old
            # region's body; it must never meet the next region's barrier.
            self.condemn()

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
