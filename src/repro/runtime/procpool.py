"""Persistent worker-process pool for the process backend.

Forking per region is cheap on Linux but not free; regions whose bodies are
*picklable* SPMD callables (bound methods of kernels whose arrays live in
shared memory) can instead be dispatched to this pool of long-lived worker
processes.  The pool owns the cross-process synchronisation objects — one
reusable :class:`~repro.runtime.barrier.CyclicBarrier` on fork-inherited
cells and the claim, steal, tune, heartbeat and metric arenas — created
*before* the workers fork so every worker inherits them; they are reset
between regions (a reset also sets the barrier's party count).  Each worker has
two private pipes, descriptors in and replies out, and member ``k`` of a
region always runs on worker ``k - 1``: only one region owns the pool at a
time (the backend serialises access), so a pipe has one writer and one
reader and needs no lock.  One watcher thread, with one monitor, checks
worker liveness for whichever region is in flight.

Arbitrary non-picklable region bodies always use the backend's
fork-per-region path instead.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading

import repro.obs.registry as obsreg
from repro.obs.exposition import suppress_exporter
from repro.runtime import shm
from repro.runtime.backend import shm_process_sync
from repro.runtime.config import get_config
from repro.runtime.member import (
    FrameReader,
    WorkerState,
    describe_region,
    join_team,
    run_shipped_member,
    send_frame,
    watch_master,
)
from repro.runtime.monitor import WorkerMonitor


#: Seconds without a task after which a worker lets go of the shared arrays
#: its last body attached: the master may have unlinked them since, and their
#: memory is only freed once every mapping is gone.
IDLE_RELEASE = 1.0

#: Longest a worker whose master's pipe closed waits for the master to be
#: gone before it sweeps (see :func:`_pool_worker`).
ORPHAN_WAIT = 1.0


def _pool_worker(tasks: int, replies: int, sync: "shm.ProcessSync", inherited: "list[int]") -> None:
    """Worker loop (runs in a forked child): one team member per task frame.

    A task is ``(ticket, thread_id, descriptor)``; the reply is the member's
    encoded outcome under the same ticket and id.  ``None`` — or the master's
    end of a pipe closing — sends the worker home.  ``inherited`` are the
    master's ends of every pipe this child was forked with; closing them is
    what lets a pipe report its other side gone.

    A master that dies mid-region never ends the round its workers sleep in:
    :func:`~repro.runtime.member.watch_master` breaks the pool barrier once
    it has gone, so they leave within moments instead of at the barrier
    timeout.  On the way out the worker sweeps ownerless shared-memory
    segments (:func:`shm.sweep_orphans`): what a master killed with a warm
    pool left.
    A dying master's pipes may close before its segment locks are released,
    so a worker that found its master's pipe closed waits for the master to
    be gone first.
    """
    for fd in inherited:
        os.close(fd)
    suppress_exporter()  # only the master serves scrapes: it alone holds the team-wide counts
    reader, state, wait = FrameReader([tasks]), WorkerState(), IDLE_RELEASE
    master_gone = threading.Event()
    threading.Thread(
        target=watch_master, args=(os.getppid(), sync.barrier, master_gone), name="aomp-master-watch", daemon=True
    ).start()
    try:
        while True:
            try:
                task = reader.get(wait)
            except queue.Empty:
                if not reader.open:
                    break
                state.close()  # idle: nothing kept mapped until the next task
                wait = None
                continue
            if task is None:
                return
            ticket, thread_id, descriptor = task
            try:
                send_frame(replies, (ticket, thread_id, run_shipped_member(descriptor, thread_id, sync, state)))
            except BrokenPipeError:
                break
            wait = IDLE_RELEASE
        master_gone.wait(ORPHAN_WAIT)  # the master's pipe has closed
    finally:
        shm.sweep_orphans()


class PersistentProcessPool:
    """A fixed-size pool of forked worker processes executing team members."""

    #: Longest the master waits for the watcher's lock.  The watcher holds it
    #: while it checks, and a check can wedge inside ``team.abort()`` when a
    #: worker died holding the barrier's lock.
    WATCHER_WAIT = 5.0

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"pool needs at least 1 worker, got {workers}")
        # The pool's contract is fork inheritance: barrier, arenas and pipes
        # below are created first and handed to the children by address-space
        # inheritance.  Fail loudly (BackendError) rather than let a spawn/
        # forkserver platform break the handoff silently — _mp_context() pins
        # the explicit "fork" context, never the ambient default.
        shm.require_fork("the persistent process pool")
        self.workers = workers
        # The barrier starts with one party and is reset per region; the
        # arenas get the full 64-worker width because pool team sizes vary
        # region to region.
        self._sync = shm_process_sync(1, pooled=True, max_workers=64)
        self.barrier = self._sync.barrier
        self.slots = self._sync.slots
        self.heartbeat = self._sync.heartbeat
        self.metrics = self._sync.metrics
        self._tickets = itertools.count(1)
        self._start_workers()
        self._shutdown = False
        self._broken = False
        self._condemned = False
        # One watcher thread and one monitor for the pool's lifetime, armed
        # per region with that region's team and parked in between.
        self._monitor = WorkerMonitor(None, lambda: self.dead_workers(), heartbeat=self.heartbeat)
        self._watch_cond = threading.Condition()
        self._watching: "WorkerMonitor | None" = None
        self._watcher_parked = False
        self._watcher = threading.Thread(target=self._watch_loop, name="aomp-pool-watcher", daemon=True)
        self._watcher.start()

    def _start_workers(self) -> None:
        """Fork a generation of workers, each with its two private pipes.

        A pipe is created just before its worker forks and the master closes
        the worker's ends just after, so no later worker inherits them: a
        worker that dies leaves its reply pipe at EOF and its task pipe
        without a reader.
        """
        ctx = shm._mp_context()
        self._procs = []
        self._tasks: "list[int]" = []
        replies: "list[int]" = []
        for i in range(self.workers):
            task_read, task_write = os.pipe()
            reply_read, reply_write = os.pipe()
            proc = ctx.Process(
                target=_pool_worker,
                args=(task_read, reply_write, self._sync, [*self._tasks, *replies, task_write, reply_read]),
                daemon=True,
                name=f"aomp-pool-{i}",
            )
            try:
                proc.start()
            finally:
                os.close(task_read)
                os.close(reply_write)
            self._procs.append(proc)
            self._tasks.append(task_write)
            replies.append(reply_read)
        self._replies = FrameReader(replies)

    def _close_pipes(self) -> None:
        for fd in self._tasks:
            os.close(fd)
        self._replies.close()

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
        for arena in self.slots:
            arena.reset()
        self.heartbeat.reset()
        if self._sync.metrics is not None:
            # Orphaned counts from an aborted region's dead workers must not
            # leak into the next region's drain.
            self._sync.metrics.reset()

    def region_sync(self, body_bytes: bytes, owned) -> "shm.ProcessSync":
        """The pool's one sync bundle, carrying this region's body and the lock
        it holds the pool by (regions run one at a time)."""
        sync = self._sync
        sync.body_bytes, sync.owned = body_bytes, owned
        return sync

    def run_region(self, team, run_member, body_bytes: bytes):
        """Run ``team``'s region on the pool; returns the master's result.

        Member ``k``'s task goes to worker ``k - 1`` under a fresh ticket, and
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
            try:
                send_frame(self._tasks[member.thread_id - 1], (ticket, member.thread_id, descriptor))
            except OSError:
                pass  # the worker is gone: the join's liveness checks name it

        def give_up() -> None:
            self._broken = True

        try:
            return join_team(
                team,
                run_member,
                receive=self._replies.get,
                accept=lambda item: item[1:] if item[0] == ticket else None,
                alive=lambda: self.healthy,
                dead_workers=self.dead_workers,
                watcher=self,
                on_give_up=give_up,
            )
        finally:
            self._monitor.rearm(None)  # a parked pool pins no region's team

    def dead_workers(self) -> "list[tuple[int | None, int | None, int | None]]":
        """``(member, pid, exitcode)`` per exited worker: worker ``i`` serves
        member ``i + 1`` (``None`` when the region has no such member)."""
        dead = []
        parties = self.barrier.parties
        for index, proc in enumerate(self._procs):
            if (code := proc.exitcode) is not None:
                dead.append((index + 1 if index + 1 < parties else None, proc.pid, code))
        return dead

    def watch(self, team) -> "WorkerMonitor":
        """Arm the pool's watcher for ``team``, the region in flight.

        Dead workers and, when configured, stale heartbeats abort the team
        within a heartbeat interval, exactly as a monitor thread of the
        region's own would — without starting and joining one per region.
        Returns the monitor the join reads the diagnosis from.
        """
        monitor = self._monitor
        with self._watch_cond:
            monitor.rearm(team)
            self._watching = monitor
            if self._watcher_parked:
                self._watch_cond.notify()
        monitor.publish_liveness()
        return monitor

    def unwatch(self, monitor: "WorkerMonitor") -> None:
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
        locks (an arena's, the barrier's) leaves it locked forever; each is
        probed with a short timeout and any poisoned lock vetoes healing —
        those are the warm, preallocated primitives whose reuse the pool
        exists for.  Every worker (dead or alive) is reaped and a fresh
        generation is forked with fresh pipes — forks are cheap, a pipe whose
        worker died mid-frame cannot be trusted, and a survivor still wedged
        in the old region's body must not meet the next region's reset
        barrier anyway.
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
        self._close_pipes()
        self._start_workers()
        self._broken = False
        if get_config().metrics:
            obsreg.inc(obsreg.POOL_HEALS)
        return self.healthy

    def _probe_locks(self, timeout: float = 0.5) -> bool:
        for arena in (self.barrier, *self.slots):
            if not arena._lock.acquire(timeout=timeout):
                return False
            arena._lock.release()
        return True

    def shutdown(self) -> None:
        """Stop all workers and close the pipes."""
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
        # The monitor calls back into the pool: without this cycle the pool's
        # shared memory and semaphores go the moment the backend drops it.
        self._monitor = None
        for fd in self._tasks:
            try:
                send_frame(fd, None)
            except OSError:
                pass  # that worker is already gone
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        self._close_pipes()
