"""Fault injection, fast failure detection, and region-level recovery.

Covers the fault subsystem end to end:

* ``AOMP_FAULTS`` spec parsing (:func:`repro.runtime.faults.parse_fault_spec`);
* deterministic injection at the member / chunk / barrier sites, with the
  backend-aware ``kill`` degradation for in-process members;
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

from repro.runtime import context as ctx
from repro.runtime import faults, shm
from repro.runtime.backend import ProcessBackend, SerialBackend
from repro.runtime.barrier import BrokenBarrierError
from repro.runtime.exceptions import (
    BrokenTeamError,
    FaultSpecError,
    InjectedFault,
    WorkerProcessError,
)
from repro.runtime.faults import FaultPlan, FaultRule, parse_fault_spec, set_fault_plan
from repro.runtime.team import parallel_region
from repro.runtime.trace import EventKind
from repro.runtime.worksharing import run_for

requires_fork = pytest.mark.skipif(not shm.fork_available(), reason="process scenarios need fork")

#: generous bound for "fast" detection — the acceptance criterion is < 5s
#: against a 120s barrier timeout; observed latency is well under 1s.
DETECTION_BOUND = 5.0


@pytest.fixture(autouse=True)
def _isolated_fault_plan():
    """No fault plan leaks into or out of a test (conftest doesn't cover this)."""
    previous = set_fault_plan(None)
    yield
    set_fault_plan(previous)


@pytest.fixture
def process_backend():
    backend = ProcessBackend()
    yield backend
    backend.shutdown()


def install(spec: str) -> FaultPlan:
    plan = parse_fault_spec(spec)
    set_fault_plan(plan)
    return plan


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
        run_for(self.fill, 0, len(self.out.view()), 1, loop_name="faults.fill")

    def fill(self, start: int, end: int, step: int) -> None:
        view = self.out.view()
        for i in range(start, end, step):
            view[i] = i * 2.0

    def expected(self) -> np.ndarray:
        return np.arange(len(self.out.view())) * 2.0

    def close(self) -> None:
        self.out.close()


class TestParseFaultSpec:
    def test_member_rule(self):
        plan = parse_fault_spec("raise:member=1,region=2")
        (rule,) = plan.rules
        assert (rule.action, rule.site, rule.member, rule.region) == ("raise", "member", 1, 2)
        assert rule.times == 1 and rule.p is None

    def test_chunk_and_barrier_selectors_pick_the_site(self):
        chunk, barrier = parse_fault_spec("raise:chunk=3;stall:barrier=1,seconds=0.5").rules
        assert (chunk.site, chunk.index) == ("chunk", 3)
        assert (barrier.site, barrier.index, barrier.seconds) == ("barrier", 1, 0.5)

    def test_seed_rule_and_multiple_rules(self):
        plan = parse_fault_spec("seed:42; raise:member=0,p=0.5; kill:member=1,times=3")
        assert plan.seed == 42
        assert [r.action for r in plan.rules] == ["raise", "kill"]
        assert plan.rules[1].times == 3

    def test_repr_round_trips_through_the_parser(self):
        plan = parse_fault_spec("stall:member=1,region=0,seconds=2,times=2")
        (reparsed,) = parse_fault_spec(repr(plan.rules[0])).rules
        original = plan.rules[0]
        for slot in ("action", "site", "member", "region", "index", "seconds", "times", "p"):
            assert getattr(reparsed, slot) == getattr(original, slot)

    @pytest.mark.parametrize(
        "spec",
        [
            "",  # no rules
            "explode:member=1",  # unknown action
            "raise:wat=1",  # unknown selector
            "raise:member",  # missing value
            "raise:member=x",  # non-integer
            "raise:p=nope",  # non-number
            "raise:chunk=1,barrier=2",  # two sites
            "seed:xyz",  # malformed seed
            "raise:times=0",  # times < 1
            "raise:p=1.5",  # p out of range
            "stall:seconds=-1",  # negative stall
        ],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(spec)

    def test_rule_validation_direct(self):
        with pytest.raises(FaultSpecError):
            FaultRule("raise", site="nowhere")


class TestInjectionInProcess:
    """Thread/serial-backend injection: everything shares the master's process."""

    def test_raise_fires_on_selected_member_and_region(self):
        install("raise:member=1,region=0")
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(lambda: None, num_threads=2, name="inject")
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert [(m, type(e)) for m, e in excinfo.value.failures] == [(1, InjectedFault)]
        # region=0 was consumed (times=1 default): the next region is clean.
        parallel_region(lambda: None, num_threads=2, name="inject-after")

    def test_kill_degrades_to_injected_fault_in_process(self):
        # Threads share the plan's origin pid; a real SIGKILL would take the
        # test process down, so the action must degrade to InjectedFault.
        install("kill:member=1,region=0")
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(lambda: None, num_threads=2, name="kill-threads")
        cause = excinfo.value.__cause__
        assert isinstance(cause, InjectedFault)
        assert cause.action == "kill"

    def test_region_selector_skips_earlier_regions(self):
        install("raise:member=0,region=1")
        parallel_region(lambda: None, num_threads=2, name="region-0")
        with pytest.raises(BrokenTeamError):
            parallel_region(lambda: None, num_threads=2, name="region-1")

    def test_backend_selector(self):
        install("raise:member=0,backend=serial")
        parallel_region(lambda: None, num_threads=2, name="not-serial")  # threads: no match
        with pytest.raises(BrokenTeamError):
            parallel_region(lambda: None, num_threads=1, backend=SerialBackend(), name="serial")

    @pytest.mark.parametrize("schedule", ["static_cyclic", "dynamic"])
    def test_chunk_site_counts_per_member_dispatches(self, schedule):
        # static_cyclic with chunk=2 over [0, 32) gives member 0 the
        # dispatches [0,2), [4,6), ...; under dynamic,2 its first claim is
        # several adjacent chunks, which an armed plan makes it dispatch
        # chunk by chunk — ``chunk=1`` is its second *chunk*, not its second
        # claim.
        install("raise:chunk=1,member=0")
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

        def body():
            run_for(loop, 0, 32, 1, schedule=schedule, chunk=2)

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=2, name="chunk-site")
        cause = excinfo.value.__cause__
        assert isinstance(cause, InjectedFault) and cause.site == "chunk"
        # member 0 completed exactly its first chunk (its writes are there)
        # before its 2nd dispatch fired
        assert [e - s for s, e in seen] == [2]
        if schedule == "static_cyclic":
            assert seen == [(0, 2)]

    def test_inactive_plan_costs_a_claim_loop_one_active_check(self, monkeypatch):
        from repro.runtime.team import Team

        checks = []
        real_active = faults.active
        monkeypatch.setattr(faults, "active", lambda: checks.append(1) or real_active())
        calls = []
        # Member 0 of a 2-member team on the calling thread, no barrier: the
        # only fault hooks passed are the loop's own.
        ctx.push_context(ctx.ExecutionContext(team=Team(2), thread_id=0, nesting_level=0))
        try:
            run_for(lambda s, e, st: calls.append((s, e)), 0, 400, 1, schedule="dynamic", chunk=2, nowait=True)
        finally:
            ctx.pop_context()
        assert len(calls) > 4 and len(checks) == 1

    def test_barrier_site_fires_on_nth_arrival(self):
        install("raise:barrier=1,member=1")

        def body():
            team = ctx.current_team()
            team.barrier(label="first")  # arrival 0: no fault
            team.barrier(label="second")  # arrival 1: member 1 faults

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=2, name="barrier-site")
        assert any(isinstance(e, InjectedFault) and e.site == "barrier" for _, e in excinfo.value.failures)

    def test_stall_delays_but_does_not_fail(self):
        install("stall:member=1,region=0,seconds=0.2")
        start = time.monotonic()
        parallel_region(lambda: None, num_threads=2, name="stall")
        assert time.monotonic() - start >= 0.2

    def test_times_bounds_firing(self):
        install("raise:member=1,times=2")
        for name in ("t0", "t1"):
            with pytest.raises(BrokenTeamError):
                parallel_region(lambda: None, num_threads=2, name=name)
        parallel_region(lambda: None, num_threads=2, name="t2")  # rule exhausted

    def test_seeded_probability_is_deterministic(self):
        def fired_pattern() -> list[bool]:
            plan = parse_fault_spec("seed:7;raise:member=0,times=100,p=0.5")
            pattern = []
            for _ in range(20):
                try:
                    plan.fire("member", member=0, region=0, backend="threads")
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        first, second = fired_pattern(), fired_pattern()
        assert first == second
        assert any(first) and not all(first)

    def test_fault_injected_trace_event(self, recorder):
        install("raise:member=1,region=0")
        with pytest.raises(BrokenTeamError):
            parallel_region(lambda: None, num_threads=2, name="traced")
        events = [e for e in recorder.events() if e.kind is EventKind.FAULT_INJECTED]
        assert len(events) == 1
        assert events[0].data["action"] == "raise"
        assert events[0].data["member"] == 1

    def test_env_spec_is_resolved_lazily(self, monkeypatch):
        monkeypatch.setenv("AOMP_FAULTS", "raise:member=0,region=0")
        faults.reset_fault_plan()
        try:
            assert faults.active()
            with pytest.raises(BrokenTeamError):
                parallel_region(lambda: None, num_threads=2, name="env-spec")
        finally:
            monkeypatch.delenv("AOMP_FAULTS")
            faults.reset_fault_plan()


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
        install("raise:member=1,region=0")
        with pytest.raises(BrokenTeamError, match=r"team 'roster'.*member 1.*InjectedFault"):
            parallel_region(lambda: None, num_threads=2, name="roster")


@requires_fork
class TestWorkerDeathForkPath:
    def test_sigkill_mid_region_is_diagnosed_fast(self, process_backend, recorder):
        """The headline regression: SIGKILL surfaces in seconds, fully named."""
        install("kill:member=1,region=0")
        marker = object()  # closure capture forces the fork-per-region path

        def body():
            assert marker is not None
            time.sleep(0.05)

        start = time.monotonic()
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=3, backend=process_backend, name="fork-kill")
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
        install("kill:member=1,region=0")
        marker = object()

        def body():
            assert marker is not None

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=4, backend=process_backend, name="survivors")
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
            install("kill:member=1,region=0")
            start = time.monotonic()
            with pytest.raises(BrokenTeamError) as excinfo:
                parallel_region(body.run, num_threads=3, backend=process_backend, name="pool-kill")
            elapsed = time.monotonic() - start
            assert elapsed < DETECTION_BOUND, f"detection took {elapsed:.1f}s"
            cause = excinfo.value.__cause__
            assert isinstance(cause, WorkerProcessError)
            assert "SIGKILL" in str(cause)

            # The backend must replace/heal the poisoned pool: the next region
            # on the same backend instance runs to completion.
            set_fault_plan(None)
            body.out.view()[:] = 0.0
            parallel_region(body.run, num_threads=3, backend=process_backend, name="pool-after")
            assert np.array_equal(body.out.view(), body.expected())
        finally:
            body.close()

    def test_heal_respawns_worker_killed_mid_region(self, process_backend):
        """A worker killed *in the body* holds no locks: heal replaces it in place."""
        body = SharedFillBody(16)
        try:
            install("kill:member=1,region=0")
            with pytest.raises(BrokenTeamError):
                parallel_region(body.run, num_threads=3, backend=process_backend, name="heal-prep")
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
            # Pool workers keep the plan they were forked with: arm it first.
            install("kill:member=1,region=1")
            parallel_region(body.run, num_threads=2, backend=process_backend, name="pool-warm")
            start = time.monotonic()
            with pytest.raises(BrokenTeamError) as excinfo:
                parallel_region(body.run, num_threads=2, backend=process_backend, name="pool-kill")
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
            install("stall:member=1,region=1,seconds=1.0")
            parallel_region(body.run, num_threads=2, backend=process_backend, name="stall-warm")
            stalled_pool = process_backend._pool
            start = time.monotonic()
            with pytest.raises(BrokenTeamError) as excinfo:
                parallel_region(body.run, num_threads=2, backend=process_backend, name="stall")
            assert time.monotonic() - start < DETECTION_BOUND
            assert "stopped heartbeating" in str(excinfo.value.__cause__)
            assert stalled_pool._condemned and not stalled_pool.heal()
            # The next region must not meet the wedged worker: fresh pool.
            set_fault_plan(None)
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

    def test_retry_reruns_to_clean_result(self, recorder):
        install("raise:member=1,region=0")
        runs = []

        def body():
            runs.append(ctx.get_thread_id())

        body.retry_safe = True
        parallel_region(body, num_threads=2, name="retry-ok", on_failure="retry")
        # first attempt faulted on member 1; the retry ran the full team.
        assert runs.count(1) == 1 and runs.count(0) == 2
        retries = [e for e in recorder.events() if e.kind is EventKind.REGION_RETRY]
        assert len(retries) == 1
        assert retries[0].data["action"] == "retry"

    def test_retry_requires_retry_safe(self):
        install("raise:member=1,region=0")
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(lambda: None, num_threads=2, name="unsafe", on_failure="retry")
        assert any("retry_safe" in note for note in getattr(excinfo.value, "__notes__", []))

    def test_retry_safe_attribute_on_body_owner(self):
        install("raise:member=1,region=0")
        body = SharedFillBody(8)  # class sets retry_safe = True
        try:
            parallel_region(body.run, num_threads=2, name="owner-safe", on_failure="retry")
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
        install("raise:member=1,times=99")  # fires on every attempt

        def body():
            pass

        body.retry_safe = True
        start = time.monotonic()
        with pytest.raises(BrokenTeamError):
            parallel_region(
                body, num_threads=2, name="bounded", on_failure="retry", max_retries=2, retry_backoff=0.01
            )
        assert time.monotonic() - start < DETECTION_BOUND
        plan = faults.current_plan()
        assert plan.rules[0].fired == 3  # initial attempt + 2 retries

    def test_degrade_walks_the_fallback_chain_to_serial(self, recorder):
        install("raise:member=1,times=99")  # any team with a member 1 faults
        witness = []

        def body():
            witness.append((ctx.get_thread_id(), ctx.get_num_team_threads()))

        body.retry_safe = True
        parallel_region(body, num_threads=2, name="degrade", on_failure="degrade", max_retries=0)
        assert witness[-1] == (0, 1), "only the serial team-of-one can finish"
        degrades = [
            e for e in recorder.events() if e.kind is EventKind.REGION_RETRY and e.data["action"] == "degrade"
        ]
        assert degrades, "the degrade decision must be traced"
        assert degrades[-1].data["backend"] == "serial"

    def test_policy_default_comes_from_config(self, monkeypatch):
        from repro.runtime.config import RuntimeConfig, set_config

        install("raise:member=1,region=0")
        set_config(RuntimeConfig(num_threads=2, on_failure="retry"))

        def body():
            pass

        body.retry_safe = True
        parallel_region(body, num_threads=2, name="config-default")  # no explicit policy


@requires_fork
@pytest.mark.chaos
class TestChaosScenarios:
    """Broader fault scenarios for the non-blocking CI chaos job."""

    def test_pool_retry_after_sigkill_matches_serial(self, process_backend):
        """Acceptance scenario: kill a pool member, retry, compare to serial."""
        body = SharedFillBody(128)
        try:
            install("kill:member=1,region=0")
            parallel_region(body.run, num_threads=4, backend=process_backend, name="chaos-retry", on_failure="retry")
            assert np.array_equal(body.out.view(), body.expected())
        finally:
            body.close()

    def test_repeated_kills_degrade_to_completion(self, process_backend):
        body = SharedFillBody(64)
        try:
            install("kill:member=1,times=99")
            parallel_region(
                body.run,
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
        install("kill:member=1,region=0;kill:member=2,region=0")
        marker = object()

        def body():
            assert marker is not None
            time.sleep(0.05)

        start = time.monotonic()
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=4, backend=process_backend, name="chaos-two")
        assert time.monotonic() - start < DETECTION_BOUND
        dead = [m for m, e in excinfo.value.failures if isinstance(e, WorkerProcessError)]
        assert set(dead) == {1, 2}

    def test_stalled_worker_hits_heartbeat_timeout(self, process_backend, monkeypatch):
        monkeypatch.setenv("AOMP_HEARTBEAT_TIMEOUT", "0.5")
        monkeypatch.setenv("AOMP_HEARTBEAT_INTERVAL", "0.1")
        install("stall:member=1,region=0,seconds=30")
        marker = object()

        def body():
            assert marker is not None
            team = ctx.current_team()
            team.barrier(label="rendezvous")

        start = time.monotonic()
        with pytest.raises(BrokenTeamError):
            parallel_region(body, num_threads=3, backend=process_backend, name="chaos-stall")
        assert time.monotonic() - start < DETECTION_BOUND


class TestMonitorTeardown:
    """Services cycle WorkerMonitors per drain/restart — teardown must be
    idempotent and must never leave dead collectors in the registry."""

    def _monitor(self, metrics: bool = True):
        import repro.obs.registry as obsreg
        from repro.runtime.faults import WorkerMonitor
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
        from repro.runtime.faults import WorkerMonitor
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
