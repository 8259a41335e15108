"""One member lifecycle: the conformance table for :mod:`repro.runtime.member`.

Every execution tier runs the same three pieces — the core
:func:`~repro.runtime.member.run_member`, the
:func:`~repro.runtime.member.run_shipped_member` wrapper for members that
rebuild their world from a descriptor, and the master's
:func:`~repro.runtime.member.join_team` — so each obligation of the
lifecycle is asserted here *once*, against the shared function, instead of
once per tier against a private copy:

* **shipped members** — ``run_shipped_member`` is driven directly, in this
  process, over the sync bundle of every transport (fork/shm and the socket
  plane's proxies).
* **the join** — ``join_team`` against an in-memory tier.
* **regressions, end to end on real tiers** — un-waited tasks, which the
  drift between the copies had dropped on every shipped tier, and a failing
  body on a warm pool, which must cost its region and not the pool.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np
import pytest

import repro.obs.registry as obsreg
from faultkit import InjectedFault, raises
from repro.runtime import context as ctx
from repro.runtime import dataplane, distributed, shm
from repro.runtime import member as lifecycle
from repro.runtime.backend import ProcessBackend, shm_process_sync
from repro.runtime.config import config_override, get_config
from repro.runtime.exceptions import BrokenTeamError, WorkerProcessError
from repro.runtime.monitor import WorkerMonitor
from repro.runtime.tasks import spawn_task
from repro.runtime.team import Team, parallel_region
from repro.runtime.worksharing import run_for

#: what the probe body saw while it ran as a shipped member (same process).
_OBSERVED: "dict[str, Any]" = {}


class Probe:
    """Picklable ``process_safe`` owner whose bodies exercise the lifecycle."""

    process_safe = True

    def __init__(self) -> None:
        self.out = shm.shared_zeros(2)

    def run(self) -> str:
        team = ctx.current_team()
        config = get_config()
        _OBSERVED.update(
            schedule=config.default_schedule,
            tracing=config.tracing,
            metrics=team.metrics,
            backend=team.backend_name,
            region_id=team.region_id,
            name=team.name,
        )
        if team.metrics:
            obsreg.inc(obsreg.BARRIERS, 3)
        return "done"

    def mark(self, thread_id: int) -> None:
        self.out[thread_id] = 1.0

    def spawn_unwaited(self) -> None:
        spawn_task(self.mark, ctx.get_thread_id())

    def explode(self) -> None:
        raise ValueError("member exploded")

    def master_fails_before_an_auto_loop(self) -> None:
        if ctx.get_thread_id() == 0:
            raise RuntimeError("master failed before the loop")
        run_for(self.mark_range, 0, 2, 1, schedule="auto")

    def straggle(self) -> None:
        if ctx.get_thread_id() == 1:
            time.sleep(1.5)
        ctx.current_team().barrier(label="straggler")

    def mark_range(self, start: int, end: int, step: int) -> None:
        for index in range(start, end, step):
            self.mark(index)

    def unpicklable(self) -> Any:
        return threading.Lock()

    def close(self) -> None:
        self.out.close()


@pytest.fixture
def probe():
    _OBSERVED.clear()
    body = Probe()
    yield body
    body.close()


# ---------------------------------------------------------------------------
# Transports: the sync bundle a shipped member runs over, built in-process.
# ---------------------------------------------------------------------------


@dataclass
class Transport:
    #: the bundle the master's team is built over ...
    master_sync: shm.ProcessSync
    #: ... and what the worker rebuilt on its side of the boundary.
    worker_sync: shm.ProcessSync
    #: deliver ``reply`` the tier's way; returns the metric delta the master absorbs.
    flushed: Callable[[tuple], "dict[int, int]"]


def _shm_transport(monkeypatch):
    if not shm.fork_available():
        pytest.skip("the shm plane's primitives need the fork context")
    with config_override(metrics=True):
        sync = shm_process_sync(2)
    yield Transport(sync, sync, lambda reply: dict(sync.metrics.drain()))


def _socket_transport(monkeypatch):
    workers = distributed._WorkerTeam(2)  # the master's bundle; no worker process is spawned
    sync, coordinator = workers.sync, workers.coordinator
    session = dataplane.WorkerSession(
        dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, 1, install_hook=False
    )
    session.metrics = True
    absorbed: "list[tuple[int, int]]" = []
    monkeypatch.setattr(dataplane.obsreg, "absorb", absorbed.extend)

    def flushed(reply: tuple) -> "dict[int, int]":
        session.send_result(1, *reply)
        assert coordinator.results.get(timeout=5.0) == (1, reply)
        return dict(absorbed)

    try:
        yield Transport(sync, dataplane.worker_process_sync(session, 2), flushed)
    finally:
        session.close()
        coordinator.shutdown()


@pytest.fixture(params=["shm", "socket"])
def transport(request, monkeypatch):
    yield from {"shm": _shm_transport, "socket": _socket_transport}[request.param](monkeypatch)


def ship(transport: Transport, body: Callable[[], Any], **master_config: Any) -> tuple:
    """Describe a region on the master's side, run member 1 of it as shipped.

    ``master_config`` is in force only while the descriptor is built: the
    worker starts from this process's ambient configuration, as a long-lived
    worker starts from whatever it captured when it was created.
    """
    team = Team(2, region_id=7, name="lifecycle", process_sync=transport.master_sync)
    team.backend_name = "tier-under-test"
    with config_override(**master_config):
        descriptor = lifecycle.describe_region(team, lifecycle.body_payload(body))
    return run_once(descriptor, transport)


def run_once(descriptor: dict, transport: Transport) -> tuple:
    """Run member 1 as a worker that runs no further region."""
    state = lifecycle.WorkerState()
    try:
        return lifecycle.run_shipped_member(descriptor, 1, transport.worker_sync, state)
    finally:
        state.close()


class TestShippedMemberObligations:
    """One assertion site per obligation, on every transport."""

    def test_result_is_encoded_and_the_team_is_rebuilt_as_described(self, transport, probe):
        result, exc = ship(transport, probe.run)
        assert exc is None and lifecycle._decode_result(result) == "done"
        assert (_OBSERVED["name"], _OBSERVED["backend"], _OBSERVED["region_id"]) == (
            "lifecycle",
            "tier-under-test",
            7,
        )

    def test_heartbeat_cell_carries_the_workers_pid(self, transport, probe):
        ship(transport, probe.run)
        assert transport.master_sync.heartbeat.pid(1) == os.getpid()

    def test_shipped_spmd_config_is_applied_for_the_body_only(self, transport, probe):
        ambient = get_config()
        assert ambient.default_schedule != "dynamic,3" and not ambient.metrics
        ship(transport, probe.run, default_schedule="dynamic,3", metrics=True)
        assert _OBSERVED["schedule"] == "dynamic,3"
        assert _OBSERVED["metrics"] is True
        assert _OBSERVED["tracing"] is False  # a worker's events could not reach the master
        assert get_config() == ambient

    def test_shipped_member_fault_fires(self, transport, probe):
        result, exc = ship(transport, raises(probe.run, member=1).run)
        assert result is None
        assert isinstance(lifecycle._decode_exception(exc), InjectedFault)
        assert not _OBSERVED, "the failure precedes the body"

    def test_unwaited_tasks_are_drained(self, transport, probe):
        _result, exc = ship(transport, probe.spawn_unwaited)
        assert exc is None
        assert probe.out[1] == 1.0

    def test_metrics_delta_is_flushed_to_the_master(self, transport, probe):
        reply = ship(transport, probe.run, metrics=True)
        assert transport.flushed(reply).get(obsreg.BARRIERS) == 3

    def test_raising_body_aborts_the_barrier_and_is_encoded(self, transport, probe):
        result, exc = ship(transport, probe.explode)
        assert result is None
        decoded = lifecycle._decode_exception(exc)
        assert isinstance(decoded, ValueError) and "member exploded" in str(decoded)
        assert transport.master_sync.barrier.broken

    def test_context_stack_is_empty_afterwards(self, transport, probe):
        for body in (probe.run, probe.explode):
            ship(transport, body)
            assert ctx.current_context() is None

    def test_unpicklable_result_is_dropped_not_raised(self, transport, probe):
        assert ship(transport, probe.unpicklable) == (None, None)
        assert not transport.master_sync.barrier.broken

    def test_a_body_that_cannot_be_rebuilt_is_reported_and_breaks_the_barrier(self, transport, probe):
        team = Team(2, name="garbled", process_sync=transport.master_sync)
        descriptor = lifecycle.describe_region(team, b"not a pickle")
        result, exc = run_once(descriptor, transport)
        assert result is None and exc is not None
        assert transport.master_sync.barrier.broken


class TestWorkerState:
    """What a long-lived worker carries from one region to the next."""

    def test_unchanged_fields_reuse_the_configuration(self):
        state = lifecycle.WorkerState()
        fields = {"default_schedule": "dynamic", "metrics": False}
        built = state.config(fields)
        assert (built.default_schedule, built.tracing, built.backend) == ("dynamic", False, "threads")
        assert state.config(dict(fields)) is built
        assert state.config({**fields, "metrics": True}).metrics is True
        with config_override(num_threads=7):  # the worker's own configuration changed
            assert state.config(fields).num_threads == 7


def test_path_prelude_replays_sys_path():
    """A spawned worker imports this package from wherever the master did."""
    import sys

    namespace: dict = {}
    exec(lifecycle.path_prelude(), namespace)  # noqa: S102 - our own prelude
    replayed = namespace["sys"].path
    assert all(entry in replayed for entry in sys.path if entry)


# ---------------------------------------------------------------------------
# The master's side.
# ---------------------------------------------------------------------------


class TestJoinTeam:
    def _team(self, size: int = 3) -> Team:
        return Team(size, name="joined", process_sync=dataplane.Coordinator(size))  # barrier + heartbeat only

    def test_replies_are_applied_and_the_master_result_returned(self):
        team = self._team()
        replies: "queue.Queue" = queue.Queue()
        for thread_id in (2, 1):
            replies.put((thread_id, (lifecycle._encode_result(thread_id * 10), None)))
        reaped = []
        result = lifecycle.join_team(
            team,
            lambda thread_id: "master",
            receive=lambda wait: replies.get(timeout=wait),
            alive=lambda: True,
            dead_workers=lambda: [],
            reap=reaped.append,
        )
        assert result == "master"
        assert [member.result for member in team.members[1:]] == [10, 20]
        assert reaped == [False]
        assert not any(thread.name.startswith("aomp-monitor-") for thread in threading.enumerate())

    def test_a_dead_member_is_diagnosed_and_survivors_keep_their_replies(self, monkeypatch):
        monkeypatch.setenv("AOMP_HEARTBEAT_INTERVAL", "0.02")
        team = self._team()
        replies: "queue.Queue" = queue.Queue()
        replies.put((2, (None, lifecycle._encode_exception(RuntimeError("survivor saw the break")))))
        reaped = []

        def receive(wait: float) -> Any:
            return replies.get(timeout=wait)

        lifecycle.join_team(
            team,
            lambda thread_id: None,
            receive=receive,
            alive=lambda: True,
            dead_workers=lambda: [(1, 4242, -9)],
            reap=reaped.append,
        )
        lost, survivor = team.members[1].exception, team.members[2].exception
        assert isinstance(lost, WorkerProcessError)
        assert (lost.member, lost.pid, lost.exitcode) == (1, 4242, -9) and "SIGKILL" in str(lost)
        assert isinstance(survivor, RuntimeError)
        assert team.broken and reaped == [True]

    def test_a_raising_master_still_joins_and_reaps(self):
        team = self._team(2)
        replies: "queue.Queue" = queue.Queue()
        replies.put((1, (lifecycle._encode_result("fine"), None)))
        reaped = []

        def master(thread_id: int) -> None:
            team.members[0].exception = ValueError("master failed")
            raise team.members[0].exception

        assert (
            lifecycle.join_team(
                team,
                master,
                receive=lambda wait: replies.get(timeout=wait),
                alive=lambda: True,
                dead_workers=lambda: [],
                reap=reaped.append,
            )
            is None
        )
        assert team.members[1].result == "fine" and reaped == [True]

    def test_a_watcher_drives_the_monitor_instead_of_a_thread(self):
        team = self._team(2)
        replies: "queue.Queue" = queue.Queue()
        replies.put((1, (None, None)))
        calls = []
        monitor = WorkerMonitor(team, lambda: [])

        def watch(watched):
            calls.append(("watch", watched))
            return monitor

        watcher = SimpleNamespace(watch=watch, unwatch=lambda monitor: calls.append(("unwatch", monitor)))
        lifecycle.join_team(
            team,
            lambda thread_id: None,
            receive=lambda wait: replies.get(timeout=wait),
            alive=lambda: True,
            dead_workers=lambda: [],
            watcher=watcher,
        )
        assert calls == [("watch", team), ("unwatch", monitor)]


# ---------------------------------------------------------------------------
# Regressions, end to end on the real tiers.
# ---------------------------------------------------------------------------


def _tier(name: str):
    """``(backend, wrap)`` for a tier: ``wrap`` adapts the body to the tier's entry path."""
    if name in ("fork", "pool") and not shm.fork_available():
        pytest.skip("process tiers need fork")
    if name == "fork":
        # A closure is not shippable: it takes the fork-per-region path.
        return ProcessBackend(use_pool=False), lambda body: (lambda: body())
    if name == "pool":
        return ProcessBackend(), lambda body: body
    return name, lambda body: body


@pytest.mark.parametrize("tier", ["threads", "fork", "pool", "distributed"])
def test_unwaited_tasks_complete_on_every_tier(tier, probe):
    """One un-waited ``@Task`` per member: the end-of-region drain is part of
    the lifecycle, not of one tier's copy of it (the pool left ``[1, 0]``)."""
    backend, wrap = _tier(tier)
    try:
        parallel_region(wrap(probe.spawn_unwaited), num_threads=2, backend=backend, name=f"drain-{tier}")
        assert list(probe.out.np) == [1.0, 1.0]
    finally:
        if isinstance(backend, ProcessBackend):
            backend.shutdown()


@pytest.mark.parametrize("tier", ["threads", "fork", "pool", "distributed"])
def test_a_worker_waiting_for_a_tune_plan_learns_the_team_is_broken(tier, probe, monkeypatch):
    """The master publishes an ``auto`` loop's plan; one that fails before the
    loop aborts the team instead, and the wait for its plan must end on that
    break (it polled only the plan's tag, for a fixed 120 s — also under a
    shorter ``AOMP_BARRIER_TIMEOUT``)."""
    monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "60")
    backend, wrap = _tier(tier)
    try:
        if tier == "pool":
            parallel_region(probe.run, num_threads=2, backend=backend, name="tune-warm-up")
        began = time.monotonic()
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(
                wrap(probe.master_fails_before_an_auto_loop), num_threads=2, backend=backend, name=f"tune-{tier}"
            )
        assert time.monotonic() - began < 5.0
        assert isinstance(excinfo.value.__cause__, RuntimeError), excinfo.value
        assert "master failed before the loop" in str(excinfo.value.__cause__)
    finally:
        if isinstance(backend, ProcessBackend):
            backend.shutdown()


@pytest.mark.parametrize("tier", ["threads", "fork", "pool", "distributed"])
def test_a_team_barrier_gives_up_after_the_env_bound_on_every_tier(tier, probe, monkeypatch):
    """One timeout contract: a member that reaches the barrier later than
    ``AOMP_BARRIER_TIMEOUT`` breaks the team on every tier (fork and pool
    teams waited out a fixed 120 s and then ran on)."""
    monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "0.3")
    backend, wrap = _tier(tier)
    try:
        with pytest.raises(BrokenTeamError):
            parallel_region(wrap(probe.straggle), num_threads=2, backend=backend, name=f"bound-{tier}")
    finally:
        if isinstance(backend, ProcessBackend):
            backend.shutdown()


@pytest.mark.skipif(not shm.fork_available(), reason="the pool needs fork")
def test_a_failing_body_after_warm_up_costs_the_region_not_the_pool(probe):
    """A member that raises on a warm pool fails its region; the same
    workers run the next one clean, tasks drained."""
    backend = ProcessBackend()
    try:
        parallel_region(probe.run, num_threads=2, backend=backend, name="pool-warm")
        warm = backend._pool
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(raises(probe.run, member=1).run, num_threads=2, backend=backend, name="pool-failing")
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert backend._pool is warm and warm.healthy, "a raise costs the region, not the pool"

        parallel_region(probe.spawn_unwaited, num_threads=2, backend=backend, name="pool-clean")
        assert np.array_equal(probe.out.np, [1.0, 1.0])
    finally:
        backend.shutdown()
