"""Fast failure detection and region-level recovery, driven by bodies that fail.

Failures are rehearsed the way they happen (:mod:`faultkit`): a member's body
is killed, raises or stalls.  Covers:

* failures in a member, a loop chunk or before a barrier, with ``dies``
  raising instead of killing in a member that shares the master's process,
  and the same failures in the worker processes of the pool and of
  ``distributed`` teams;
* the :class:`~repro.runtime.shm.HeartbeatArena` data plane;
* the SIGKILL regression the subsystem exists for: a worker process killed
  mid-region must surface a diagnosed ``WorkerProcessError`` in seconds (not
  the 120s barrier timeout), on both the fork-per-region path and the
  persistent pool (which must then self-heal);
* the ``on_failure="retry"|"degrade"`` recovery policies, including the
  ``retry_safe`` gate and the non-recoverable (application error) veto.

Process-killing scenarios run in tier-1 but stay under a couple of seconds;
the broader multi-fault scenarios carry the ``chaos`` marker and run in the
dedicated (non-blocking) CI job.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from faultkit import InjectedFault, dies, raises, raises_on_chunk, stalls
from repro.runtime import context as ctx
from repro.runtime import shm
from repro.runtime.backend import ProcessBackend
from repro.runtime.distributed import DistributedBackend
from repro.runtime.barrier import BrokenBarrierError
from repro.runtime.exceptions import BrokenTeamError, WorkerProcessError
from repro.runtime.team import parallel_region
from repro.runtime.trace import EventKind
from repro.runtime.worksharing import run_for

requires_fork = pytest.mark.skipif(not shm.fork_available(), reason="process scenarios need fork")

#: generous bound for "fast" detection — the acceptance criterion is < 5s
#: against a 120s barrier timeout; observed latency is well under 1s.
DETECTION_BOUND = 5.0


@pytest.fixture
def process_backend():
    backend = ProcessBackend()
    yield backend
    backend.shutdown()


def nothing() -> None:
    pass


class SharedFillBody:
    """Picklable ``process_safe`` SPMD owner writing disjoint shared slots.

    Pool dispatch requires a *bound method* of a ``process_safe`` owner
    (``body.run``); the fork path takes anything, including closures.
    """

    process_safe = True
    retry_safe = True

    def __init__(self, n: int) -> None:
        self.out = shm.shared_zeros(n)

    def run(self) -> None:
        run_for(self.fill, 0, len(self.out.view()), 1, loop_name="recovery.fill")

    def fill(self, start: int, end: int, step: int) -> None:
        view = self.out.view()
        for i in range(start, end, step):
            view[i] = i * 2.0

    def expected(self) -> np.ndarray:
        return np.arange(len(self.out.view())) * 2.0

    def close(self) -> None:
        self.out.close()


class TestFailuresInProcess:
    """Thread-backend failures: every member shares the master's process."""

    def test_raise_fails_the_selected_member(self):
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(raises(nothing, member=1).run, num_threads=2, name="inject")
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert [(m, type(e)) for m, e in excinfo.value.failures] == [(1, InjectedFault)]
        # The failure was the body's: the next region is clean.
        parallel_region(nothing, num_threads=2, name="inject-after")

    def test_dies_raises_instead_in_process(self):
        # Threads share the master's pid; a real SIGKILL would take the test
        # process down, so the member raises InjectedFault instead.
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(dies(nothing, member=1).run, num_threads=2, name="kill-threads")
        cause = excinfo.value.__cause__
        assert isinstance(cause, InjectedFault)
        assert cause.action == "kill"

    def test_a_failure_after_clean_regions(self):
        parallel_region(nothing, num_threads=2, name="region-0")
        with pytest.raises(BrokenTeamError):
            parallel_region(raises(nothing, member=0).run, num_threads=2, name="region-1")

    @pytest.mark.parametrize("schedule", ["static_cyclic", "dynamic"])
    def test_a_chunk_failure_stops_the_member_after_its_earlier_chunks(self, schedule, recorder):
        # static_cyclic with chunk=2 over [0, 32) gives member 0 the
        # dispatches [0,2), [4,6), ...; under dynamic,2 its first claim is
        # several adjacent chunks, which tracing makes it dispatch chunk by
        # chunk — the body's second call is its second *chunk*, not its
        # second claim.
        seen = []
        first_chunk_done = threading.Event()

        def loop(s, e, st):
            if ctx.get_thread_id() == 0:
                seen.append((s, e))
                first_chunk_done.set()
            else:
                # Keep member 1 from draining the dynamic loop before member
                # 0 has claimed: hold its first dispatch until member 0 ran one.
                first_chunk_done.wait(timeout=10.0)

        failing = raises_on_chunk(loop, 1, member=0)

        def body():
            run_for(failing, 0, 32, 1, schedule=schedule, chunk=2)

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=2, name="chunk-site")
        cause = excinfo.value.__cause__
        assert isinstance(cause, InjectedFault) and cause.site == "chunk"
        # member 0 completed exactly its first chunk (its writes are there)
        # before its 2nd dispatch failed
        assert [e - s for s, e in seen] == [2]
        if schedule == "static_cyclic":
            assert seen == [(0, 2)]

    def test_a_failure_before_the_second_barrier(self):
        def body():
            team = ctx.current_team()
            team.barrier(label="first")
            if ctx.get_thread_id() == 1:
                raise InjectedFault("raise fault at the second barrier", site="barrier")
            team.barrier(label="second")

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=2, name="barrier-site")
        assert any(isinstance(e, InjectedFault) and e.site == "barrier" for _, e in excinfo.value.failures)

    def test_stall_delays_but_does_not_fail(self):
        start = time.monotonic()
        parallel_region(stalls(nothing, member=1, seconds=0.2).run, num_threads=2, name="stall")
        assert time.monotonic() - start >= 0.2


class WorkerBody(SharedFillBody):
    """:class:`SharedFillBody` with bodies that fail inside a worker process."""

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.failing_fill = raises_on_chunk(self.fill, 0, member=1)

    def run_failing_loop(self) -> None:
        run_for(self.failing_fill, 0, len(self.out.view()), 1, schedule="static_block", loop_name="recovery.fail")

    def fail_before_the_second_barrier(self) -> None:
        team = ctx.current_team()
        team.barrier(label="first")
        if ctx.get_thread_id() == 1:
            raise InjectedFault("raise fault at the second barrier", site="barrier")
        team.barrier(label="second")


@pytest.fixture(params=["processes", "distributed"])
def worker_tier(request):
    if request.param == "processes" and not shm.fork_available():
        pytest.skip("the pool needs fork")
    backend = ProcessBackend() if request.param == "processes" else DistributedBackend()
    yield backend
    backend.shutdown()


@pytest.fixture
def worker_body():
    body = WorkerBody(32)
    yield body
    body.close()


class TestFailuresInWorkers:
    """The failures above, in members that run in worker processes: the
    failure is shipped back to the master with what it says intact."""

    def test_raise_fails_the_selected_member(self, worker_tier, worker_body):
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(raises(worker_body.run, member=1).run, num_threads=2, backend=worker_tier, name="inject")
        failures = dict(excinfo.value.failures)
        assert isinstance(failures.pop(1), InjectedFault)
        assert all(isinstance(e, BrokenBarrierError) for e in failures.values()), "the others saw the team break"
        parallel_region(worker_body.run, num_threads=2, backend=worker_tier, name="inject-after")
        assert np.array_equal(worker_body.out.view(), worker_body.expected())

    def test_a_chunk_failure_stops_the_member_before_its_writes(self, worker_tier, worker_body):
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(worker_body.run_failing_loop, num_threads=2, backend=worker_tier, name="chunk-site")
        assert any(m == 1 and isinstance(e, InjectedFault) and e.site == "chunk" for m, e in excinfo.value.failures)
        out = worker_body.out.view()
        assert np.array_equal(out[:16], worker_body.expected()[:16]), "member 0 ran its block"
        assert not out[16:].any(), "member 1 failed on its first chunk"

    def test_a_failure_before_the_second_barrier(self, worker_tier, worker_body):
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(
                worker_body.fail_before_the_second_barrier, num_threads=2, backend=worker_tier, name="barrier-site"
            )
        assert any(m == 1 and isinstance(e, InjectedFault) and e.site == "barrier" for m, e in excinfo.value.failures)

    def test_stall_delays_but_does_not_fail(self, worker_tier, worker_body):
        start = time.monotonic()
        parallel_region(
            stalls(worker_body.run, member=1, seconds=0.2).run, num_threads=2, backend=worker_tier, name="stall"
        )
        assert time.monotonic() - start >= 0.2
        assert np.array_equal(worker_body.out.view(), worker_body.expected())


class TestHeartbeatArena:
    def test_register_beat_and_age(self):
        arena = shm.HeartbeatArena(capacity=4)
        arena.register(2)
        assert arena.pid(2) == os.getpid()
        age = arena.age(2)
        assert age is not None and 0 <= age < 1.0
        assert arena.age(1) is None  # never registered

    def test_arrivals_accumulate_and_reset(self):
        arena = shm.HeartbeatArena(capacity=4)
        arena.register(0)
        arena.note_arrival(0)
        arena.note_arrival(0)
        arena.note_arrival(1)
        assert arena.arrivals(4) == [2, 1, 0, 0]
        arena.reset()
        assert arena.arrivals(4) == [0, 0, 0, 0]
        assert arena.pid(0) == 0

    def test_out_of_capacity_members_are_ignored(self):
        arena = shm.HeartbeatArena(capacity=2)
        arena.register(5)  # silently ignored, not an IndexError
        arena.beat(5)
        arena.note_arrival(5)
        assert arena.pid(5) == 0 and arena.age(5) is None


class TestBarrierDiagnostics:
    def test_broken_barrier_carries_team_context(self):
        def body():
            team = ctx.current_team()
            if ctx.get_thread_id() == 1:
                raise ValueError("member 1 exploded")
            team.barrier(label="sync")

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=2, name="diagnosed")
        # Primary cause prefers the application error over the broken barrier.
        assert isinstance(excinfo.value.__cause__, ValueError)
        broken = [e for _, e in excinfo.value.failures if isinstance(e, BrokenBarrierError)]
        assert broken, "the member stuck at the barrier must be reported too"
        message = str(broken[0])
        assert "team 'diagnosed'" in message
        assert "arrivals by member" in message

    def test_broken_team_message_names_team_and_members(self):
        with pytest.raises(BrokenTeamError, match=r"team 'roster'.*member 1.*InjectedFault"):
            parallel_region(raises(nothing, member=1).run, num_threads=2, name="roster")


@requires_fork
class TestWorkerDeathForkPath:
    def test_sigkill_mid_region_is_diagnosed_fast(self, process_backend, recorder):
        """The headline regression: SIGKILL surfaces in seconds, fully named."""
        marker = object()  # closure capture forces the fork-per-region path

        def body():
            assert marker is not None
            time.sleep(0.05)

        start = time.monotonic()
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(dies(body, member=1).run, num_threads=3, backend=process_backend, name="fork-kill")
        elapsed = time.monotonic() - start
        assert elapsed < DETECTION_BOUND, f"detection took {elapsed:.1f}s"

        cause = excinfo.value.__cause__
        assert isinstance(cause, WorkerProcessError)
        assert cause.member == 1
        assert cause.pid is not None
        assert "SIGKILL" in str(cause)
        assert "team 'fork-kill'" in str(cause)

        dead = [e for e in recorder.events() if e.kind is EventKind.WORKER_DEAD]
        assert dead and dead[0].data["member"] == 1
        assert dead[0].data["signal"] == "SIGKILL"

    def test_survivors_of_a_sibling_death_still_report(self, process_backend):
        marker = object()

        def body():
            assert marker is not None

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(dies(body, member=1).run, num_threads=4, backend=process_backend, name="survivors")
        by_member = dict(excinfo.value.failures)
        assert isinstance(by_member[1], WorkerProcessError)
        # Members 2 and 3 were alive: they must not be misdiagnosed as dead.
        for member in (2, 3):
            if member in by_member:  # reported a broken barrier, not a death
                assert not isinstance(by_member[member], WorkerProcessError)


@requires_fork
class TestWorkerDeathPoolPath:
    def test_pool_worker_sigkill_is_diagnosed_and_pool_heals(self, process_backend):
        body = SharedFillBody(32)
        try:
            start = time.monotonic()
            with pytest.raises(BrokenTeamError) as excinfo:
                parallel_region(dies(body.run, member=1).run, num_threads=3, backend=process_backend, name="pool-kill")
            elapsed = time.monotonic() - start
            assert elapsed < DETECTION_BOUND, f"detection took {elapsed:.1f}s"
            cause = excinfo.value.__cause__
            assert isinstance(cause, WorkerProcessError)
            assert "SIGKILL" in str(cause)

            # The backend must replace/heal the poisoned pool: the next region
            # on the same backend instance runs to completion.
            body.out.view()[:] = 0.0
            parallel_region(body.run, num_threads=3, backend=process_backend, name="pool-after")
            assert np.array_equal(body.out.view(), body.expected())
        finally:
            body.close()

    def test_heal_respawns_worker_killed_mid_region(self, process_backend):
        """A worker killed *in the body* holds no locks: heal replaces it in place."""
        body = SharedFillBody(16)
        try:
            with pytest.raises(BrokenTeamError):
                parallel_region(dies(body.run, member=1).run, num_threads=3, backend=process_backend, name="heal-prep")
            pool = process_backend._pool
            dead_pids = {proc.pid for proc in pool._procs if not proc.is_alive()}
            assert dead_pids and not pool.healthy
            assert pool.heal()
            assert pool.healthy
            assert dead_pids.isdisjoint(proc.pid for proc in pool._procs)
        finally:
            body.close()

    def test_heal_replaces_a_worker_killed_while_idle(self):
        from repro.runtime.procpool import PersistentProcessPool

        # An idle worker dies blocked reading its task pipe — heal replaces
        # the pipes and the whole worker generation, so nothing half-read
        # carries over.
        pool = PersistentProcessPool(2)
        try:
            victim = pool._procs[0]
            os.kill(victim.pid, 9)
            victim.join(timeout=5.0)
            assert not pool.healthy
            assert pool.heal()
            assert pool.healthy
            assert victim.pid not in {proc.pid for proc in pool._procs}
        finally:
            pool.shutdown()

    def test_heal_vetoes_a_poisoned_arena_lock(self):
        from repro.runtime.procpool import PersistentProcessPool

        pool = PersistentProcessPool(1)
        try:
            # Simulate a worker that died holding the claim arena's lock.
            pool.slots.arena._lock.acquire()
            try:
                assert not pool.heal()
            finally:
                pool.slots.arena._lock.release()
            assert pool.heal()
        finally:
            pool.shutdown()

    def test_heal_refuses_after_shutdown(self):
        from repro.runtime.procpool import PersistentProcessPool

        pool = PersistentProcessPool(1)
        pool.shutdown()
        assert not pool.heal()


class TwoArrayBody:
    """Picklable ``process_safe`` owner of two shared arrays, touched in full
    by every member, whose spawned member hands one of them back."""

    process_safe = True

    def __init__(self, n: int) -> None:
        self.a = shm.shared_zeros(n)
        self.b = shm.shared_zeros(n)

    def run(self):
        member = ctx.get_thread_id()
        self.a.np[member::2] += 1.0
        self.b.np[member::2] = self.a.np[member::2] * 2.0
        return self.b if member else None

    def close(self) -> None:
        self.a.close()
        self.b.close()


def _proc_fds(pid: int) -> int:
    return len(os.listdir(f"/proc/{pid}/fd"))


def _proc_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError(f"no VmRSS line for pid {pid}")


@requires_fork
class TestPoolWatcher:
    """The pool's one long-lived watcher replaces a monitor thread per region."""

    @staticmethod
    def _armed(pool, team):
        """Arm the pool's watcher for ``team`` the way the shared join does."""
        return pool.watch(team)

    def test_sigkill_is_named_within_a_second_without_a_monitor_thread(self, process_backend, monkeypatch):
        import threading

        # 0.1 s to the watcher's look + the collector's 0.5 s idle grace.
        monkeypatch.setenv("AOMP_HEARTBEAT_INTERVAL", "0.1")
        body = SharedFillBody(32)
        try:
            parallel_region(body.run, num_threads=2, backend=process_backend, name="pool-warm")
            start = time.monotonic()
            with pytest.raises(BrokenTeamError) as excinfo:
                parallel_region(dies(body.run, member=1).run, num_threads=2, backend=process_backend, name="pool-kill")
            elapsed = time.monotonic() - start
            cause = excinfo.value.__cause__
            assert isinstance(cause, WorkerProcessError)
            assert cause.member == 1 and cause.pid and cause.exitcode == -9
            assert f"pid {cause.pid}" in str(cause) and "SIGKILL" in str(cause)
            assert elapsed < 1.0, f"detection took {elapsed:.2f}s"
            assert process_backend._pool._watcher.is_alive()
            assert not any(thread.name.startswith("aomp-monitor-") for thread in threading.enumerate())
        finally:
            body.close()

    def test_heartbeat_stall_condemns_the_pool(self, process_backend, monkeypatch):
        monkeypatch.setenv("AOMP_HEARTBEAT_TIMEOUT", "0.3")
        monkeypatch.setenv("AOMP_HEARTBEAT_INTERVAL", "0.05")
        body = SharedFillBody(8)
        try:
            parallel_region(body.run, num_threads=2, backend=process_backend, name="stall-warm")
            stalled_pool = process_backend._pool
            start = time.monotonic()
            stalled = stalls(body.run, member=1, seconds=1.0)
            with pytest.raises(BrokenTeamError) as excinfo:
                parallel_region(stalled.run, num_threads=2, backend=process_backend, name="stall")
            assert time.monotonic() - start < DETECTION_BOUND
            assert "stopped heartbeating" in str(excinfo.value.__cause__)
            assert stalled_pool._condemned and not stalled_pool.heal()
            # The next region must not meet the wedged worker: fresh pool.
            body.out.view()[:] = 0.0
            parallel_region(body.run, num_threads=2, backend=process_backend, name="stall-after")
            assert process_backend._pool is not stalled_pool
            assert np.array_equal(body.out.view(), body.expected())
        finally:
            body.close()

    def test_unwatch_keeps_a_late_check_off_the_next_regions_barrier(self, monkeypatch):
        """Pooled teams share one barrier object: a check of region N landing
        after ``unwatch`` would abort region N+1."""
        from repro.runtime.procpool import PersistentProcessPool
        from repro.runtime.team import Team

        monkeypatch.setenv("AOMP_HEARTBEAT_INTERVAL", "0.02")
        pool = PersistentProcessPool(1)
        try:
            casualties = [(1, 4242, -9)]
            pool.dead_workers = lambda: casualties
            pool.prepare(2)
            first = self._armed(pool, Team(2, name="tripped", process_sync=pool._sync))
            deadline = time.monotonic() + 5.0
            while not first.tripped and time.monotonic() < deadline:
                time.sleep(0.01)
            assert first.tripped and pool.barrier.broken
            pool.unwatch(first)

            pool.prepare(2)  # the next region resets the shared barrier...
            time.sleep(0.1)  # ...and nobody is watching: reported deaths go unheard
            assert not pool.barrier.broken
            casualties = []
            second = self._armed(pool, Team(2, name="next", process_sync=pool._sync))
            time.sleep(0.1)  # several intervals
            assert not second.tripped and not pool.barrier.broken
            pool.unwatch(second)
        finally:
            del pool.dead_workers
            pool.shutdown()
        assert not pool._watcher.is_alive()

    def test_a_wedged_watcher_hangs_neither_unwatch_nor_shutdown(self, monkeypatch):
        """A watcher stuck inside an abort (a worker died holding the barrier
        lock) keeps the condition: the master condemns the pool and shuts it
        down in bounded time instead of blocking on that lock."""
        import threading

        from repro.runtime.procpool import PersistentProcessPool
        from repro.runtime.team import Team

        monkeypatch.setattr(PersistentProcessPool, "WATCHER_WAIT", 0.2)
        monkeypatch.setenv("AOMP_HEARTBEAT_INTERVAL", "0.02")
        pool = PersistentProcessPool(1)
        wedged, release = threading.Event(), threading.Event()
        try:
            pool.prepare(2)
            team = Team(2, name="wedged", process_sync=pool._sync)
            team.abort = lambda: (wedged.set(), release.wait(10.0))
            pool.dead_workers = lambda: [(1, 4242, -9)]
            monitor = self._armed(pool, team)
            assert wedged.wait(5.0)
            start = time.monotonic()
            pool.unwatch(monitor)
            assert pool._condemned and not pool.healthy
            pool.shutdown()
            assert time.monotonic() - start < 2.0
            assert all(not proc.is_alive() for proc in pool._procs)
        finally:
            release.set()
            pool._watcher.join(5.0)
        assert not pool._watcher.is_alive()

    def test_five_hundred_regions_leave_worker_fds_and_rss_flat(self, process_backend):
        from repro.runtime.team import watch_teams

        body = TwoArrayBody(8192)  # 64 KiB each: a kept mapping per region would add up
        teams = []
        try:
            with watch_teams(teams.append):
                for _ in range(5):
                    parallel_region(body.run, num_threads=2, backend=process_backend)
                (worker,) = process_backend._pool._procs[:1]
                fds, rss_kb = _proc_fds(worker.pid), _proc_rss_kb(worker.pid)
                for _ in range(500):
                    parallel_region(body.run, num_threads=2, backend=process_backend)
            assert process_backend._pool._procs[0] is worker and worker.is_alive()
            # "<=": a collection in the worker may also close inherited garbage.
            assert _proc_fds(worker.pid) <= fds
            assert _proc_rss_kb(worker.pid) - rss_kb < 2048
            assert np.all(body.a.np == 505.0) and np.all(body.b.np == 1010.0)
            # The member's result named an array the worker has since detached:
            # it still arrives as a live attachment of the same segment.
            returned = teams[-1].members[1].result
            assert isinstance(returned, shm.SharedArray) and returned.name == body.b.name
            assert np.array_equal(returned.np, body.b.np)
            for team in teams:
                team.members[1].result.close()
        finally:
            body.close()


class TestRecoveryPolicy:
    def test_invalid_policy_is_rejected(self):
        with pytest.raises(ValueError, match="on_failure"):
            parallel_region(lambda: None, num_threads=2, on_failure="panic")

    def test_retry_reruns_to_clean_result(self, recorder, tmp_path):
        runs = []

        def body():
            runs.append(ctx.get_thread_id())

        body.retry_safe = True
        once = raises(body, member=1, once=tmp_path / "fired")
        parallel_region(once.run, num_threads=2, name="retry-ok", on_failure="retry")
        # first attempt failed on member 1; the retry ran the full team.
        assert runs.count(1) == 1 and runs.count(0) == 2
        retries = [e for e in recorder.events() if e.kind is EventKind.REGION_RETRY]
        assert len(retries) == 1
        assert retries[0].data["action"] == "retry"

    def test_retry_requires_retry_safe(self):
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(raises(nothing, member=1).run, num_threads=2, name="unsafe", on_failure="retry")
        assert any("retry_safe" in note for note in getattr(excinfo.value, "__notes__", []))

    def test_retry_safe_attribute_on_body_owner(self, tmp_path):
        body = SharedFillBody(8)  # class sets retry_safe = True
        try:
            once = raises(body.run, member=1, once=tmp_path / "fired")
            parallel_region(once.run, num_threads=2, name="owner-safe", on_failure="retry")
            assert np.array_equal(body.out.view(), body.expected())
        finally:
            body.close()

    def test_application_errors_are_not_retried(self):
        attempts = []

        def body():
            if ctx.get_thread_id() == 1:
                attempts.append(1)
                raise ValueError("a real bug")

        body.retry_safe = True
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=2, name="app-error", on_failure="retry")
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert attempts == [1], "an application error must not be replayed"

    def test_retries_are_bounded(self):
        attempts = []

        def body():
            attempts.append(ctx.get_thread_id())

        body.retry_safe = True
        start = time.monotonic()
        with pytest.raises(BrokenTeamError):
            parallel_region(
                raises(body, member=1).run,  # fails on every attempt
                num_threads=2,
                name="bounded",
                on_failure="retry",
                max_retries=2,
                retry_backoff=0.01,
            )
        assert time.monotonic() - start < DETECTION_BOUND
        assert attempts == [0, 0, 0]  # initial attempt + 2 retries

    def test_degrade_walks_the_fallback_chain_to_serial(self, recorder):
        witness = []

        def body():
            witness.append((ctx.get_thread_id(), ctx.get_num_team_threads()))

        body.retry_safe = True
        failing = raises(body, member=1)  # any team with a member 1 fails
        parallel_region(failing.run, num_threads=2, name="degrade", on_failure="degrade", max_retries=0)
        assert witness[-1] == (0, 1), "only the serial team-of-one can finish"
        degrades = [
            e for e in recorder.events() if e.kind is EventKind.REGION_RETRY and e.data["action"] == "degrade"
        ]
        assert degrades, "the degrade decision must be traced"
        assert degrades[-1].data["backend"] == "serial"

    def test_policy_default_comes_from_config(self, tmp_path):
        from repro.runtime.config import RuntimeConfig, set_config

        set_config(RuntimeConfig(num_threads=2, on_failure="retry"))

        def body():
            pass

        body.retry_safe = True
        once = raises(body, member=1, once=tmp_path / "fired")
        parallel_region(once.run, num_threads=2, name="config-default")  # no explicit policy


@requires_fork
@pytest.mark.chaos
class TestChaosScenarios:
    """Broader failure scenarios for the non-blocking CI chaos job."""

    def test_pool_retry_after_sigkill_matches_serial(self, process_backend, tmp_path):
        """Acceptance scenario: kill a pool member, retry, compare to serial."""
        body = SharedFillBody(128)
        try:
            once = dies(body.run, member=1, once=tmp_path / "fired")
            parallel_region(once.run, num_threads=4, backend=process_backend, name="chaos-retry", on_failure="retry")
            assert np.array_equal(body.out.view(), body.expected())
        finally:
            body.close()

    def test_repeated_kills_degrade_to_completion(self, process_backend):
        body = SharedFillBody(64)
        try:
            parallel_region(
                dies(body.run, member=1).run,
                num_threads=3,
                backend=process_backend,
                name="chaos-degrade",
                on_failure="degrade",
                max_retries=1,
                retry_backoff=0.01,
            )
            assert np.array_equal(body.out.view(), body.expected())
        finally:
            body.close()

    def test_two_simultaneous_deaths(self, process_backend):
        marker = object()

        def body():
            assert marker is not None
            time.sleep(0.05)

        both = dies(dies(body, member=1).run, member=2)
        start = time.monotonic()
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(both.run, num_threads=4, backend=process_backend, name="chaos-two")
        assert time.monotonic() - start < DETECTION_BOUND
        dead = [m for m, e in excinfo.value.failures if isinstance(e, WorkerProcessError)]
        assert set(dead) == {1, 2}

    def test_stalled_worker_hits_heartbeat_timeout(self, process_backend, monkeypatch):
        monkeypatch.setenv("AOMP_HEARTBEAT_TIMEOUT", "0.5")
        monkeypatch.setenv("AOMP_HEARTBEAT_INTERVAL", "0.1")
        marker = object()

        def body():
            assert marker is not None
            team = ctx.current_team()
            team.barrier(label="rendezvous")

        start = time.monotonic()
        with pytest.raises(BrokenTeamError):
            stalled = stalls(body, member=1, seconds=30)
            parallel_region(stalled.run, num_threads=3, backend=process_backend, name="chaos-stall")
        assert time.monotonic() - start < DETECTION_BOUND


@requires_fork
@pytest.mark.chaos
@pytest.mark.parametrize("backend, members", [("processes", 2), ("distributed", 3)])
def test_a_killed_series_member_retries_to_the_sequential_result(backend, members, tmp_path, recorder):
    """The headline scenario on a JGF kernel, built as ``series.run_backend``
    builds it: member 1 is SIGKILLed mid-region, and the retry recomputes the
    sequential answer — on the warm pool and on spawned socket workers."""
    from repro.jgf.common import BenchmarkResult, resolve_size
    from repro.jgf.series import parallel as series
    from repro.jgf.series.kernel import FourierSeries
    from repro.runtime.backend import resolve_backend

    tier = resolve_backend(backend)
    bench = FourierSeries(resolve_size(series.SIZES, "tiny"), shared=not tier.supports_shared_locals)
    try:
        once = dies(bench.run_spmd, member=1, once=tmp_path / "fired")
        parallel_region(once.run, num_threads=members, backend=tier, on_failure="retry", retry_safe=True)
        assert [e.data["action"] for e in recorder.events() if e.kind is EventKind.REGION_RETRY] == ["retry"]
        result = BenchmarkResult("Series", f"backend:{tier.name}", "tiny", bench.checksum(), 0.0)
        assert result.validates_against(series.run_sequential("tiny")), "recovered result diverged from serial"
    finally:
        bench.release_shared()


class TestMonitorTeardown:
    """Services cycle WorkerMonitors per drain/restart — teardown must be
    idempotent and must never leave dead collectors in the registry."""

    def _monitor(self, metrics: bool = True):
        import repro.obs.registry as obsreg
        from repro.runtime.monitor import WorkerMonitor
        from repro.runtime.team import Team

        team = Team(2, region_id=0, name="monitor-teardown")
        team.metrics = metrics
        return WorkerMonitor(team, lambda: [], interval=0.05), obsreg

    def test_stop_without_start_is_a_no_op(self):
        monitor, _ = self._monitor()
        monitor.stop()  # must not raise, nothing was registered

    def test_double_stop_is_idempotent(self):
        monitor, obsreg = self._monitor()
        monitor.start()
        monitor.stop()
        monitor.stop()  # second stop: no raise, no double-unregister
        assert monitor._thread is None

    def test_double_start_does_not_orphan_a_thread(self):
        import threading

        monitor, _ = self._monitor(metrics=False)
        monitor.start()
        first = monitor._thread
        monitor.start()  # idempotent: keeps the running thread
        assert monitor._thread is first
        monitor.stop()
        assert not any(
            t.name == "aomp-monitor-monitor-teardown" and t.is_alive()
            for t in threading.enumerate()
        )

    def test_check_once_is_the_whole_detection_step(self):
        """What the monitor's own loop and the pool's watcher both call."""
        from repro.runtime.monitor import WorkerMonitor
        from repro.runtime.team import Team

        team = Team(2, region_id=0, name="check-once")
        casualties: list = []
        monitor = WorkerMonitor(team, lambda: casualties, interval=60.0)
        assert monitor.check_once() is False
        assert not monitor.tripped and not team.broken
        casualties.append((1, 4242, -9))
        assert monitor.check_once() is True
        assert monitor.deaths == [(1, 4242, -9)] and team.broken

    def test_repeated_cycles_keep_the_collector_count_stable(self):
        monitor, obsreg = self._monitor()
        baseline = len(obsreg.get_registry()._collectors)
        for _ in range(5):
            monitor.start()
            assert len(obsreg.get_registry()._collectors) == baseline + 1
            monitor.stop()
            assert len(obsreg.get_registry()._collectors) == baseline
