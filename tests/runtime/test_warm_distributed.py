"""Warm distributed teams: a team of socket workers outlives its region.

What parks and what does not, who retires a team and when, and that a parked
worker is only ever a cache of *processes*: configuration and metrics reach
it with every region's descriptor.  Every assertion is on state
(pids, ``/proc``, the parked team, counters) — waits are polls with a
generous deadline, never a bound on wall time.  Tests that assert *reuse*
pin the linger to a minute (it is a measurement of this host, and a loaded
box may take longer than it between two regions); the linger test itself
runs on the measured one.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

import repro.obs.registry as obsreg
from faultkit import InjectedFault, dies, raises
from repro.runtime import context as ctx
from repro.runtime import distributed, shm
from repro.runtime.config import config_override
from repro.runtime.distributed import DistributedBackend
from repro.runtime.exceptions import BrokenTeamError, WorkerProcessError
from repro.runtime.team import parallel_region
from repro.runtime.worksharing import run_for

#: generous deadline for "eventually" polls (a worker leaving takes milliseconds)
EVENTUALLY = 20.0

#: set by the concurrency test in the master process only (a spawned worker
#: imports this module afresh and finds ``None``)
_RENDEZVOUS: "threading.Barrier | None" = None


class Probe:
    """Picklable ``process_safe`` SPMD owner: who ran where, and which iterations."""

    process_safe = True

    def __init__(self, iterations: int = 12) -> None:
        self.pids = shm.shared_zeros(8, dtype=np.int64)
        self.owner = shm.shared_zeros(iterations, dtype=np.int64)

    def run(self) -> int:
        me = ctx.get_thread_id()
        self.pids[me] = os.getpid()
        if me == 0 and _RENDEZVOUS is not None:
            _RENDEZVOUS.wait()  # the other caller's region is in flight too
        run_for(self.mark, 0, len(self.owner), 1, loop_name="probe.mark")
        return me

    def mark(self, start: int, end: int, step: int) -> None:
        for i in range(start, end, step):
            self.owner[i] = ctx.get_thread_id() + 1

    def explode(self) -> None:
        self.pids[ctx.get_thread_id()] = os.getpid()
        if ctx.get_thread_id() == 1:
            raise ValueError("member exploded")
        ctx.current_team().barrier()

    def abort_late(self) -> None:
        self.run()
        if ctx.get_thread_id() == 0:
            ctx.current_team().abort()  # an outside cancel landing after the last barrier

    def worker_pids(self, size: int) -> "list[int]":
        return [int(pid) for pid in self.pids.np[1:size]]

    def close(self) -> None:
        self.pids.close()
        self.owner.close()


def _exists(pid: int) -> bool:
    """Whether ``pid`` still has a ``/proc`` entry (a zombie does)."""
    return os.path.exists(f"/proc/{pid}")


def _eventually(predicate) -> bool:
    deadline = time.monotonic() + EVENTUALLY
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def _region(backend, probe: Probe, size: int = 3, body=None) -> "list[int]":
    """Run one region; returns the worker pids that ran it."""
    probe.pids.np[:] = 0
    probe.owner.np[:] = 0
    parallel_region(body or probe.run, num_threads=size, backend=backend, name="warm-probe")
    return probe.worker_pids(size)


def _blocks(size: int, iterations: int = 12) -> "list[int]":
    per = iterations // size
    return [member + 1 for member in range(size) for _ in range(per)]


@pytest.fixture
def probe():
    body = Probe()
    yield body
    body.close()


@pytest.fixture
def backend(monkeypatch):
    """A backend whose parked team stays for a minute, retired at teardown."""
    monkeypatch.setattr(distributed, "LINGER_CAP", 60.0)
    monkeypatch.setattr(distributed._WorkerTeam, "start_seconds", property(lambda self: 60.0))
    instance = DistributedBackend()
    yield instance
    instance.shutdown()


class TestWhatParks:
    def test_back_to_back_regions_run_on_the_same_workers(self, backend, probe):
        with config_override(metrics=True):
            obsreg.reset()
            first = _region(backend, probe)
            assert all(first) and len(set(first)) == 2 and os.getpid() not in first
            for _ in range(4):
                assert _region(backend, probe) == first
                assert list(probe.owner.np) == _blocks(3)
            teams = obsreg.get_registry().snapshot()["counters"]["aomp_distributed_teams_total"]
        # reused == regions - 1 ("retired" is process-wide: another test's
        # backend may see its team linger out while this one runs)
        assert (teams["spawned"], teams["reused"]) == (1, 4)
        assert sorted(proc.pid for proc in backend.live_workers()) == sorted(first)

    def test_nothing_of_a_region_stays_with_the_parked_team(self, backend, probe):
        for _ in range(3):
            _region(backend, probe)
            coordinator = backend._parked.coordinator
            assert coordinator._segments == {} and coordinator._shadows == {}
            assert coordinator._parked <= {1, 2} and not coordinator._syncing
            assert coordinator.lost_members() == [] and not coordinator.barrier.broken

    def test_a_new_team_size_gets_a_new_team(self, backend, probe):
        three = _region(backend, probe, 3)
        two = _region(backend, probe, 2)
        assert len(two) == 1 and not set(two) & set(three)
        assert list(probe.owner.np) == _blocks(2)
        assert _eventually(lambda: not any(_exists(pid) for pid in three))  # retired and reaped
        assert _region(backend, probe, 2) == two

    def test_two_callers_at_once_get_one_warm_and_one_cold_team(self, backend, monkeypatch):
        probes = [Probe(), Probe()]
        try:
            warm = _region(backend, probes[0])
            monkeypatch.setattr(f"{__name__}._RENDEZVOUS", threading.Barrier(2, timeout=EVENTUALLY))
            ran: "dict[int, list[int]]" = {}

            def caller(index: int) -> None:
                ran[index] = _region(backend, probes[index])

            callers = [threading.Thread(target=caller, args=(index,)) for index in range(2)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=2 * EVENTUALLY)
            assert not any(thread.is_alive() for thread in callers)
            assert all(list(body.owner.np) == _blocks(3) for body in probes)
            assert not set(ran[0]) & set(ran[1])
            assert warm in ran.values()  # one caller took the parked team, the other started its own
            # One team is enough to keep: the other is sent home.
            kept = sorted(proc.pid for proc in backend.live_workers())
            assert kept in (sorted(ran[0]), sorted(ran[1]))
            dropped = ran[1] if kept == sorted(ran[0]) else ran[0]
            assert _eventually(lambda: not any(_exists(pid) for pid in dropped))
        finally:
            for body in probes:
                body.close()


class TestWhatDoesNotPark:
    def _assert_fresh_team_after(self, backend, probe, failed: "list[int]") -> None:
        assert backend._parked is None and backend.live_workers() == []
        assert not any(_exists(pid) for pid in failed if pid)  # reaped by the failed region itself
        fresh = _region(backend, probe)
        assert all(fresh) and not set(fresh) & set(failed)
        assert list(probe.owner.np) == _blocks(3)

    def test_a_member_exception_retires_the_team(self, backend, probe):
        warm = _region(backend, probe)
        with pytest.raises(BrokenTeamError) as excinfo:
            _region(backend, probe, body=probe.explode)
        assert isinstance(excinfo.value.__cause__, ValueError)
        self._assert_fresh_team_after(backend, probe, warm)

    def test_a_killed_worker_retires_the_team(self, backend, probe):
        warm = _region(backend, probe)
        with pytest.raises(BrokenTeamError) as excinfo:
            _region(backend, probe, body=dies(probe.run, member=1).run)
        cause = excinfo.value.__cause__
        assert isinstance(cause, WorkerProcessError) and cause.member == 1 and cause.pid == warm[0]
        self._assert_fresh_team_after(backend, probe, warm)

    def test_an_aborted_barrier_retires_the_team_even_if_every_member_finished(self, backend, probe):
        warm = _region(backend, probe)
        assert _region(backend, probe, body=probe.abort_late) == warm  # nobody failed ...
        assert list(probe.owner.np) == _blocks(3)
        self._assert_fresh_team_after(backend, probe, warm)  # ... and still it did not park


class TestRetirement:
    def test_a_parked_team_leaves_by_itself_and_is_reaped(self, probe):
        backend = DistributedBackend()  # the measured linger, and no call made after the region
        pids = _region(backend, probe)
        assert all(_exists(pid) for pid in pids)
        assert _eventually(lambda: not any(_exists(pid) for pid in pids))  # gone, zombies included
        assert backend._parked is None and backend.live_workers() == []
        assert _region(backend, probe) != pids  # and the next region simply starts a new team

    def test_shutdown_retires_at_once_and_is_idempotent(self, backend, probe):
        pids = _region(backend, probe)
        workers = backend.live_workers()
        backend.shutdown()  # on the heels of the region: the workers' result is barely acknowledged
        assert not any(_exists(pid) for pid in pids)  # reaped before shutdown() returned
        assert [proc.returncode for proc in workers] == [0, 0]  # sent home, not cut off
        assert backend._parked is None and backend.live_workers() == []
        backend.shutdown()
        assert all(_region(backend, probe)) and list(probe.owner.np) == _blocks(3)


class TestDescriptorReachesAParkedWorker:
    """The bug class PR 13 found on the pool: a long-lived worker must take
    its configuration from the region, not from when it was started."""

    def test_default_schedule(self, backend, probe):
        warm = _region(backend, probe)
        with config_override(default_schedule="static_cyclic"):
            assert _region(backend, probe) == warm
        assert list(probe.owner.np) == [1, 2, 3] * 4
        assert _region(backend, probe) == warm
        assert list(probe.owner.np) == _blocks(3)

    def test_metrics_toggled_on_after_warm_up(self, backend, probe):
        warm = _region(backend, probe)
        with config_override(metrics=True):
            obsreg.reset()
            assert _region(backend, probe) == warm
            counters = obsreg.get_registry().snapshot()["counters"]
        # One static block per member, the workers' two flushed over the wire.
        assert counters["aomp_chunks_total"]["static_block"] == 3
        assert counters["aomp_rpc_calls_total"] > 0
        teams = counters["aomp_distributed_teams_total"]
        assert (teams["spawned"], teams["reused"]) == (0, 1)

    def test_a_failing_body_after_warm_up(self, backend, probe):
        _region(backend, probe)
        with pytest.raises(BrokenTeamError) as excinfo:
            _region(backend, probe, body=raises(probe.run, member=2).run)
        assert any(member == 2 and isinstance(exc, InjectedFault) for member, exc in excinfo.value.failures)
