"""Warm regions rebuild only what changed.

A long-lived worker — a ``processes`` pool worker or a parked
``distributed`` socket worker — keeps what the last region built when the
next descriptor ships the same: the configuration, the fault plan, the
attachments of the shared arrays its body names.  These tests
change each of them between two warm regions and check that the worker sees
the change; break a region and check that the next one runs clean on the same
workers; kill a parked pool worker; and check the one-step static ranges a
member now computes against the scheduler's partition.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import context as ctx
from repro.runtime import distributed, procpool, shm
from repro.runtime.backend import ProcessBackend
from repro.runtime.config import get_config, config_override
from repro.runtime.distributed import DistributedBackend
from repro.runtime.exceptions import BrokenTeamError, InjectedFault, WorkerProcessError
from repro.runtime.faults import parse_fault_spec, set_fault_plan
from repro.runtime.scheduler import make_scheduler
from repro.runtime.team import Team, parallel_region
from repro.runtime.worksharing import run_for

SCHEDULES = ("static_block", "static_cyclic", "dynamic", "guided")

#: what member ``m``'s row of :attr:`Seen.rows` holds, column by column
PRESENT, SCHEDULE, CHUNK, METRICS, NESTED, PID = range(6)


class Seen:
    """Picklable ``process_safe`` body: each member writes down the
    configuration it runs under, then marks the iterations its share of a
    loop under the *default* schedule covered."""

    process_safe = True

    def __init__(self, iterations: int = 12) -> None:
        self.rows = shm.shared_zeros((4, 6), np.int64)
        self.owner = shm.shared_zeros(iterations, np.int64)

    def record(self) -> None:
        me, config = ctx.get_thread_id(), get_config()
        self.rows[me] = (
            1,
            SCHEDULES.index(config.default_schedule),
            config.default_chunk,
            config.metrics,
            config.nested,
            os.getpid(),
        )
        run_for(self.mark, 0, len(self.owner), 1, loop_name="seen.mark")

    def mark(self, start: int, end: int, step: int) -> None:
        for i in range(start, end, step):
            self.owner[i] = ctx.get_thread_id() + 1

    def explode(self) -> None:
        if ctx.get_thread_id() == 1:
            raise ValueError("member 1 exploded")
        ctx.current_team().barrier()

    def abort(self) -> None:
        if ctx.get_thread_id() == 0:
            ctx.current_team().abort()
        ctx.current_team().barrier()

    def pid(self, member: int) -> int:
        return int(self.rows.np[member, PID])

    def close(self) -> None:
        self.rows.close()
        self.owner.close()


class Rounds:
    """Picklable body for barrier rounds across pool processes: ``early``
    counts the members that left a barrier before a sibling had arrived."""

    process_safe = True

    def __init__(self) -> None:
        self.pids = shm.shared_zeros(2, np.int64)
        self.round = shm.shared_zeros(2, np.int64)
        self.early = shm.shared_zeros(1, np.int64)

    def die_asleep(self) -> None:
        """Member 1 goes to sleep in a barrier; the master SIGKILLs it there,
        then arrives itself."""
        me, team = ctx.get_thread_id(), ctx.current_team()
        self.pids[me] = os.getpid()
        if me == 1:
            team.barrier()
            return
        deadline = time.monotonic() + 10.0
        while team.process_sync.heartbeat.arrivals(2)[1] < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.1)  # past its arrival bookkeeping: asleep on the barrier's semaphore
        os.kill(int(self.pids.np[1]), signal.SIGKILL)
        team.barrier()

    def lockstep(self, rounds: int = 40) -> None:
        """Round ``r``: the master arrives late; nobody may leave before both wrote ``r``."""
        me, team = ctx.get_thread_id(), ctx.current_team()
        for r in range(1, rounds + 1):
            if me == 0:
                time.sleep(0.002)
            self.round[me] = r
            team.barrier()
            if min(self.round.np) < r:
                self.early[0] += 1

    def close(self) -> None:
        for array in (self.pids, self.round, self.early):
            array.close()


class Filler:
    """Picklable body naming whichever shared array it currently holds."""

    process_safe = True

    def __init__(self, array: "shm.SharedArray", value: float) -> None:
        self.array, self.value = array, value

    def run(self) -> None:
        run_for(self.fill, 0, len(self.array), 1, loop_name="filler.fill")

    def fill(self, start: int, end: int, step: int) -> None:
        self.array.np[start:end:step] = self.value


@pytest.fixture(params=["processes", "distributed"])
def backend(request, monkeypatch):
    """The tier under test; a distributed team is kept for a minute between regions."""
    if request.param == "processes":
        if not shm.fork_available():
            pytest.skip("the pool needs fork")
        instance = ProcessBackend()
    else:
        monkeypatch.setattr(distributed, "LINGER_CAP", 60.0)
        monkeypatch.setattr(distributed._WorkerTeam, "start_seconds", property(lambda self: 60.0))
        instance = DistributedBackend()
    yield instance
    set_fault_plan(None)
    shutdown = getattr(instance, "shutdown", None)
    if shutdown is not None:
        shutdown()


@pytest.fixture
def seen():
    body = Seen()
    yield body
    body.close()


def _worker_row(body: Seen) -> "tuple[int, ...]":
    return tuple(int(value) for value in body.rows.np[1, :PID])


class TestWhatAWorkerKeeps:
    def test_a_configuration_changed_between_warm_regions_reaches_the_worker(self, backend, seen):
        with config_override(default_schedule="static_block", default_chunk=1, metrics=False, nested=True):
            parallel_region(seen.record, num_threads=2, backend=backend, name="warm")
            assert _worker_row(seen) == (1, 0, 1, 0, 1)
            assert list(seen.owner.np) == [1] * 6 + [2] * 6
        seen.rows.np[:] = 0
        with config_override(default_schedule="static_cyclic", default_chunk=3, metrics=True, nested=False):
            parallel_region(seen.record, num_threads=2, backend=backend, name="changed")
            assert _worker_row(seen) == (1, 1, 3, 1, 0)
            assert list(seen.owner.np) == [1, 2] * 6
        seen.rows.np[:] = 0
        with config_override(default_schedule="static_block", default_chunk=1, metrics=False, nested=True):
            parallel_region(seen.record, num_threads=2, backend=backend, name="back")
            assert _worker_row(seen) == (1, 0, 1, 0, 1)
            assert list(seen.owner.np) == [1] * 6 + [2] * 6

    def test_a_fault_plan_installed_after_warm_up_fires_and_once_removed_does_not(self, backend, seen):
        parallel_region(seen.record, num_threads=2, backend=backend, name="warm")
        set_fault_plan(parse_fault_spec("raise:member=1,times=100"))  # every region while installed
        for _ in range(2):
            with pytest.raises(BrokenTeamError) as excinfo:
                parallel_region(seen.record, num_threads=2, backend=backend, name="armed")
            assert any(isinstance(exc, InjectedFault) for _, exc in excinfo.value.failures)
        set_fault_plan(None)
        for _ in range(3):
            seen.owner.np[:] = 0
            parallel_region(seen.record, num_threads=2, backend=backend, name="disarmed")
            assert list(seen.owner.np) == [1] * 6 + [2] * 6

    def test_bodies_naming_different_arrays_compute_right(self, backend):
        first, second = shm.shared_zeros(64), shm.shared_zeros(64)
        try:
            for value in range(1, 7):
                target = first if value % 2 else second
                parallel_region(Filler(target, value).run, num_threads=2, backend=backend)
                assert np.all(target.np == value)
            # The master closes (and unlinks) one; a fresh array takes its place.
            first.close()
            first = shm.shared_zeros(64)
            for value in range(7, 11):
                target = first if value % 2 else second
                parallel_region(Filler(target, value).run, num_threads=2, backend=backend)
                assert np.all(target.np == value)
        finally:
            first.close()
            second.close()

    def test_a_recycled_segment_name_is_attached_afresh(self, backend):
        """A kept attachment stands for its name only while its segment is
        linked: once the master unlinks it, the name may denote a new one."""
        old = shm.shared_zeros(64)
        name = old.name
        try:
            parallel_region(Filler(old, 1.0).run, num_threads=2, backend=backend)
        finally:
            old.close()
        new = shm.SharedArray(name, (64,), np.float64, create=True)
        try:
            parallel_region(Filler(new, 2.0).run, num_threads=2, backend=backend)
            assert np.all(new.np == 2.0)
        finally:
            new.close()


class TestABrokenRegionThenACleanOne:
    @pytest.mark.parametrize("breaks", ["explode", "abort"])
    def test_the_next_region_runs_clean(self, backend, seen, breaks):
        parallel_region(seen.record, num_threads=2, backend=backend, name="warm")
        with pytest.raises(BrokenTeamError):
            parallel_region(getattr(seen, breaks), num_threads=2, backend=backend, name=breaks)
        for _ in range(3):
            seen.owner.np[:] = 0
            parallel_region(seen.record, num_threads=2, backend=backend, name="after")
            assert list(seen.owner.np) == [1] * 6 + [2] * 6


@pytest.mark.skipif(not shm.fork_available(), reason="the pool needs fork")
class TestThePoolWorker:
    @pytest.fixture
    def pool(self):
        instance = ProcessBackend()
        yield instance
        instance.shutdown()

    def test_a_raising_member_leaves_the_pool_and_its_worker(self, pool, seen):
        parallel_region(seen.record, num_threads=2, backend=pool)
        worker, procs = seen.pid(1), pool.live_workers()
        with pytest.raises(BrokenTeamError):
            parallel_region(seen.explode, num_threads=2, backend=pool)
        parallel_region(seen.record, num_threads=2, backend=pool)
        assert seen.pid(1) == worker and pool.live_workers() == procs

    @pytest.mark.parametrize("settle", [True, False], ids=["dead", "dying"])
    def test_a_worker_killed_while_parked_is_named_or_healed_never_a_hang(self, pool, seen, settle, watchdog):
        parallel_region(seen.record, num_threads=2, backend=pool)
        victim = seen.pid(1)
        os.kill(victim, signal.SIGKILL)
        if settle:
            deadline = time.monotonic() + 10.0
            while any(proc.pid == victim for proc in pool.live_workers()) and time.monotonic() < deadline:
                time.sleep(0.01)

        def region() -> "BrokenTeamError | None":
            try:
                parallel_region(seen.record, num_threads=2, backend=pool, name="after-kill")
            except BrokenTeamError as exc:
                return exc
            return None

        outcome = watchdog(region, timeout=30)
        if outcome is None:  # healed: a fresh worker ran member 1
            assert seen.pid(1) not in (0, victim)
        else:
            cause = outcome.__cause__
            assert isinstance(cause, WorkerProcessError) and cause.member == 1, outcome
            assert cause.pid == victim
        seen.owner.np[:] = 0
        watchdog(lambda: parallel_region(seen.record, num_threads=2, backend=pool), timeout=30)
        assert list(seen.owner.np) == [1] * 6 + [2] * 6

    def test_a_worker_killed_asleep_in_a_barrier_leaves_no_early_release(self, pool, watchdog):
        """The wake-up posted for a party that died asleep is never taken by
        it; the healed pool keeps the barrier, and no later round may let a
        party through before its sibling arrives."""
        body = Rounds()
        try:
            parallel_region(body.lockstep, num_threads=2, backend=pool)
            barrier = pool._pool.barrier
            with pytest.raises(BrokenTeamError):
                watchdog(lambda: parallel_region(body.die_asleep, num_threads=2, backend=pool), timeout=30)
            for _ in range(3):
                body.round.np[:] = 0
                watchdog(lambda: parallel_region(body.lockstep, num_threads=2, backend=pool), timeout=30)
            assert pool._pool.barrier is barrier, "healed in place, not rebuilt"
            assert int(body.pids.np[1]) not in [proc.pid for proc in pool.live_workers()]
            assert int(body.early.np[0]) == 0
        finally:
            body.close()

    def test_an_idle_worker_lets_go_of_the_arrays_its_last_body_named(self, pool, monkeypatch):
        monkeypatch.setattr(procpool, "IDLE_RELEASE", 0.1)  # read by the workers the first region forks
        fresh = shm.shared_zeros(8)
        try:
            parallel_region(Filler(fresh, 1.0).run, num_threads=2, backend=pool)
            workers = [proc.pid for proc in pool.live_workers()]
            array = shm.shared_zeros(512)  # after the fork: only an attachment maps it in a worker
            segment = array.name.lstrip("/")
            try:
                parallel_region(Filler(array, 1.0).run, num_threads=2, backend=pool)
                assert any(_maps(pid, segment) for pid in workers)
            finally:
                array.close()  # the master unlinks it
            deadline = time.monotonic() + 10.0
            while any(_maps(pid, segment) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(_maps(pid, segment) for pid in workers)
            parallel_region(Filler(fresh, 2.0).run, num_threads=2, backend=pool)  # and it still serves
            assert np.all(fresh.np == 2.0) and [proc.pid for proc in pool.live_workers()] == workers
        finally:
            fresh.close()

    def test_fds_and_mappings_stay_flat_over_two_thousand_regions(self, pool):
        arrays = [shm.shared_zeros(512) for _ in range(3)]
        try:
            for index in range(20):
                parallel_region(Filler(arrays[index % 3], index).run, num_threads=2, backend=pool)
            (worker,) = pool.live_workers()
            fds, maps = _counts(worker.pid)
            for index in range(2000):
                slot = index % 3
                if index % 500 == 499:  # the master drops one array for a new one
                    arrays[slot].close()
                    arrays[slot] = shm.shared_zeros(512)
                parallel_region(Filler(arrays[slot], index).run, num_threads=2, backend=pool)
                assert arrays[slot].np[0] == index and arrays[slot].np[-1] == index
            assert pool.live_workers() == [worker]
            after_fds, after_maps = _counts(worker.pid)
            assert after_fds <= fds and after_maps <= maps
        finally:
            for array in arrays:
                array.close()


def _counts(pid: int) -> "tuple[int, int]":
    """Open descriptors and mapped ``aomp_`` segments of process ``pid``."""
    with open(f"/proc/{pid}/maps", encoding="utf-8") as maps:
        segments = sum("/aomp_" in line for line in maps)
    return len(os.listdir(f"/proc/{pid}/fd")), segments


def _maps(pid: int, segment: str) -> bool:
    """Whether process ``pid`` still maps shared-memory ``segment``."""
    with open(f"/proc/{pid}/maps", encoding="utf-8") as maps:
        return any(segment in line for line in maps)


class _Calls:
    def __init__(self) -> None:
        self.ranges: "list[tuple[int, int, int]]" = []

    def __call__(self, start: int, end: int, step: int) -> None:
        self.ranges.append((start, end, step))


@settings(max_examples=300, deadline=None)
@given(
    start=st.integers(-50, 50),
    end=st.integers(-50, 50),
    step=st.integers(-7, 7).filter(bool),
    size=st.integers(1, 8),
    data=st.data(),
)
def test_a_members_static_range_is_the_schedulers_partition(start, end, step, size, data):
    """One arithmetic step per member gives exactly the partition's chunks,
    zero-trip and negative-step loops included."""
    member = data.draw(st.integers(0, size - 1))
    schedule = data.draw(st.sampled_from(["static_block", "static_cyclic"]))
    chunk = data.draw(st.integers(1, 4)) if schedule == "static_cyclic" else 1
    calls = _Calls()
    ctx.push_context(ctx.ExecutionContext(team=Team(size), thread_id=member))
    try:
        run_for(calls, start, end, step, schedule=schedule, chunk=chunk, nowait=True)
    finally:
        ctx.pop_context()
    expected = make_scheduler(schedule, chunk).partition(size, start, end, step)[member]
    if size > 1:
        assert calls.ranges == [(piece.start, piece.end, piece.step) for piece in expected]
    else:  # a team of one runs the untouched range: the same iterations, in one call
        assert [i for call in calls.ranges for i in range(*call)] == [i for piece in expected for i in piece.indices()]
