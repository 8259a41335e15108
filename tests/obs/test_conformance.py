"""Trace↔metric conformance across execution tiers.

The metrics subsystem mirrors the tracing subsystem's event sites, so where
both views exist they must agree *exactly*:

* threads — every member shares the master's registry and recorder, so the
  chunk/barrier/task counters must equal the trace-event counts one for one;
* processes / distributed — worker trace events never cross the process
  boundary (traces are a per-process diagnostic), but worker *metrics* are
  aggregated team-wide through the arena / barrier-frame piggyback; the
  deterministic workload below pins the exact team-wide totals each backend
  must report, and the distributed run is additionally checked through a
  real Prometheus scrape of the master's endpoint (the acceptance bar:
  master + 2 socket workers, scrape == snapshot == expected).

The SIGKILL scenario covers the liveness satellite: a member killed
mid-region must appear in ``aomp.stats()`` as ``aomp_member_alive == 0``
with the death counted.
"""

from __future__ import annotations

import urllib.request

import numpy as np
import pytest

import aomp
import repro.obs.exposition as expo
import repro.obs.registry as obsreg
from repro.runtime import context as ctx
from repro.runtime import shm
from repro.runtime.backend import ProcessBackend
from repro.runtime.config import config_override
from repro.runtime.distributed import DistributedBackend
from repro.runtime.exceptions import BrokenTeamError
from repro.runtime.faults import parse_fault_spec, set_fault_plan
from repro.runtime.tasks import spawn_task, task_wait
from repro.runtime.team import parallel_region
from repro.runtime.trace import EventKind, TraceRecorder
from repro.runtime.worksharing import run_for

requires_fork = pytest.mark.skipif(not shm.fork_available(), reason="process scenarios need fork")

#: the deterministic workload: 24 iterations claimed in dynamic chunks of 4
#: (6 claims team-wide however they land), one explicit barrier per member.
N, CHUNK = 24, 4
EXPECTED_CHUNKS = N // CHUNK


class SharedConformanceBody:
    """Picklable ``process_safe`` SPMD body for the cross-process backends."""

    process_safe = True

    def __init__(self) -> None:
        self.out = shm.shared_zeros(N)

    def run(self) -> None:
        run_for(self.fill, 0, N, 1, schedule=f"dynamic,{CHUNK}", loop_name="conformance.fill")
        ctx.current_team().barrier(label="conformance")

    def fill(self, start: int, end: int, step: int) -> None:
        view = self.out.view()
        for i in range(start, end, step):
            view[i] = i + 1.0

    def expected(self) -> np.ndarray:
        return np.arange(N) + 1.0

    def close(self) -> None:
        self.out.close()


def team_counters() -> dict:
    return aomp.stats()["counters"]


class TestThreadsExactTraceEquality:
    """Where metrics and traces see the same process, they must agree 1:1."""

    def test_chunk_barrier_task_counters_match_trace_counts(self):
        recorder = TraceRecorder()
        acc = [0] * 3

        def loop(start, end, step):
            for i in range(start, end, step):
                acc[ctx.get_thread_id()] += 1

        def body():
            run_for(loop, 0, N, 1, schedule=f"dynamic,{CHUNK}", loop_name="threads.loop")
            run_for(loop, 0, 10, 1, schedule="staticBlock", loop_name="threads.static")
            team = ctx.current_team()
            if ctx.get_thread_id() == 0:
                for k in range(6):
                    spawn_task(lambda k=k: k, name=f"t{k}")
                task_wait()
            team.barrier(label="explicit")

        with config_override(metrics=True, num_threads=3):
            parallel_region(body, num_threads=3, backend="threads", recorder=recorder, name="conf-threads")

        counters = team_counters()
        chunks = counters["aomp_chunks_total"]
        assert sum(chunks.values()) == len(recorder.events(EventKind.CHUNK))
        assert chunks["dynamic"] == EXPECTED_CHUNKS
        assert counters["aomp_barriers_total"] == len(recorder.events(EventKind.BARRIER))
        tasks = counters["aomp_tasks_total"]
        assert tasks["spawned"] == len(recorder.events(EventKind.TASK_SPAWN))
        assert tasks["stolen"] == len(recorder.events(EventKind.TASK_STEAL))
        assert tasks["completed"] == len(recorder.events(EventKind.TASK_COMPLETE))
        assert counters["aomp_regions_total"]["entered"] == 1
        assert counters["aomp_regions_total"]["completed"] == 1

    @pytest.mark.parametrize("schedule", ["dynamic", "guided"])
    def test_chunk_counter_counts_scheduling_chunks_traced_or_not(self, schedule):
        """An untraced claim is one body call over several chunks; the
        counter still counts scheduling chunks, like a traced run's events."""
        total = 400

        def body():
            run_for(lambda s, e, st: None, 0, total, 1, schedule=schedule, loop_name="conf.claims")

        def chunks_counted(recorder) -> int:
            obsreg.reset()
            with config_override(metrics=True, num_threads=3):
                parallel_region(body, num_threads=3, backend="threads", recorder=recorder, name="conf-claims")
            return team_counters()["aomp_chunks_total"][schedule]

        recorder = TraceRecorder()
        traced = chunks_counted(recorder)
        assert traced == len(recorder.events(EventKind.CHUNK))
        assert chunks_counted(None) == traced
        if schedule == "dynamic":
            assert traced == total  # dynamic,1: one scheduling chunk per iteration

    def test_barrier_histogram_count_matches_the_counter(self):
        def body():
            ctx.current_team().barrier()

        with config_override(metrics=True, num_threads=4):
            parallel_region(body, num_threads=4, backend="threads", name="conf-hist")

        snap = aomp.stats()
        assert (
            snap["histograms"]["aomp_barrier_wait_seconds"]["count"]
            == snap["counters"]["aomp_barriers_total"]
        )

    def test_disabled_metrics_count_nothing(self):
        def body():
            run_for(lambda s, e, st: None, 0, N, 1, schedule=f"dynamic,{CHUNK}")
            ctx.current_team().barrier()

        parallel_region(body, num_threads=3, backend="threads", name="conf-off")
        counters = team_counters()
        assert sum(counters["aomp_chunks_total"].values()) == 0
        assert counters["aomp_barriers_total"] == 0
        assert counters["aomp_regions_total"]["entered"] == 0


@requires_fork
class TestProcessesTeamWideTotals:
    """Fork/pool workers flush through the arena; the master's snapshot is
    team-wide even though worker traces never leave their processes."""

    def test_pool_path_reports_the_whole_team(self):
        backend = ProcessBackend()
        body = SharedConformanceBody()
        try:
            with config_override(metrics=True, num_threads=3):
                parallel_region(body.run, num_threads=3, backend=backend, name="conf-pool")
            assert np.array_equal(body.out.view(), body.expected())
        finally:
            body.close()
            backend.shutdown()

        counters = team_counters()
        assert counters["aomp_chunks_total"]["dynamic"] == EXPECTED_CHUNKS
        # One implicit (end of run_for) plus one explicit barrier per member.
        assert counters["aomp_barriers_total"] == 2 * 3
        assert counters["aomp_regions_total"]["completed"] == 1

    def test_fork_path_reports_the_whole_team(self):
        backend = ProcessBackend()
        marker = object()  # closure capture forces fork-per-region
        acc = shm.shared_zeros(N)

        def loop(start, end, step):
            view = acc.view()
            for i in range(start, end, step):
                view[i] = 1.0

        def body():
            assert marker is not None
            run_for(loop, 0, N, 1, schedule=f"dynamic,{CHUNK}", loop_name="conf.fork")
            ctx.current_team().barrier()

        try:
            with config_override(metrics=True, num_threads=3):
                parallel_region(body, num_threads=3, backend=backend, name="conf-fork")
            assert acc.view().sum() == N
        finally:
            acc.close()
            backend.shutdown()

        counters = team_counters()
        assert counters["aomp_chunks_total"]["dynamic"] == EXPECTED_CHUNKS
        assert counters["aomp_barriers_total"] == 2 * 3


class TestDistributedScrapeConformance:
    """The acceptance bar: master + 2 socket workers, team-wide counters
    served over a real Prometheus scrape, matching the snapshot exactly."""

    def test_distributed_totals_via_piggyback_and_scrape(self):
        backend = DistributedBackend()
        body = SharedConformanceBody()
        try:
            with config_override(metrics=True, metrics_port=0, num_threads=3):
                parallel_region(body.run, num_threads=3, backend=backend, name="conf-dist")
                assert np.array_equal(body.out.view(), body.expected())

                port = expo.exporter_port()
                assert port, "region entry must have started the configured endpoint"
                with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10) as response:
                    scraped = response.read().decode("utf-8")
        finally:
            body.close()
            expo.stop_exporter()

        counters = team_counters()
        chunks = counters["aomp_chunks_total"]["dynamic"]
        barriers = counters["aomp_barriers_total"]
        assert chunks == EXPECTED_CHUNKS
        assert barriers == 2 * 3
        # Socket workers talk RPC; their piggybacked deltas carried the stats.
        assert counters["aomp_rpc_calls_total"] > 0
        assert counters["aomp_rpc_bytes_total"]["sent"] > 0
        assert aomp.stats()["histograms"]["aomp_rpc_rtt_seconds"]["count"] > 0
        # The scrape and the programmatic snapshot are the same numbers.
        assert f'aomp_chunks_total{{schedule="dynamic"}} {chunks}' in scraped
        assert f"aomp_barriers_total {barriers}" in scraped


@requires_fork
class TestLivenessInStats:
    """Satellite: heartbeat liveness must surface in ``aomp.stats()``."""

    @pytest.fixture(autouse=True)
    def _no_fault_leak(self):
        previous = set_fault_plan(None)
        yield
        set_fault_plan(previous)

    def test_sigkilled_member_appears_dead_in_the_snapshot(self):
        set_fault_plan(parse_fault_spec("kill:member=1,region=0"))
        backend = ProcessBackend()
        marker = object()

        def body():
            assert marker is not None
            import time

            time.sleep(0.05)

        try:
            with config_override(metrics=True, num_threads=3):
                with pytest.raises(BrokenTeamError):
                    parallel_region(body, num_threads=3, backend=backend, name="conf-kill")
        finally:
            backend.shutdown()

        snap = aomp.stats()
        assert snap["counters"]["aomp_worker_deaths_total"] >= 1
        # The loss gauge is pinned, outliving the monitor: post-mortem
        # snapshots still show which member died.
        assert snap["gauges"]["aomp_member_alive"]['{member="1"}'] == 0.0

    def test_monitor_exposes_last_beat_ages_while_running(self):
        from repro.runtime.faults import WorkerMonitor
        from repro.runtime.team import Team

        arena = shm.HeartbeatArena(capacity=4)
        with config_override(metrics=True):
            team = Team(3, region_id=0, name="beat-view")
            team.metrics = True
            for member in range(3):
                arena.register(member)
            monitor = WorkerMonitor(team, lambda: [], heartbeat=arena)
            monitor.start()
            try:
                gauges = aomp.stats()["gauges"]
                alive = gauges["aomp_member_alive"]
                assert [alive[f'{{member="{m}"}}'] for m in range(3)] == [1.0, 1.0, 1.0]
                ages = gauges["aomp_member_last_beat_age_seconds"]
                assert all(0 <= ages[f'{{member="{m}"}}'] < 60 for m in range(3))
            finally:
                monitor.stop()
        # Stopping unregisters the collector: the gauges disappear.
        assert "aomp_member_last_beat_age_seconds" not in aomp.stats()["gauges"]
