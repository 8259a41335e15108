"""Ablation: loop schedules on a triangular workload (DESIGN.md Section 5).

The paper picks cyclic scheduling for MolDyn/MonteCarlo/RayTracer because
their iteration costs are non-uniform.  This ablation quantifies that choice:
a triangular loop is distributed with each schedule and the modelled speedup
(load balance) is compared, while pytest-benchmark times the scheduling
machinery itself.
"""

from __future__ import annotations

import pytest

from repro.perf.cost import CostModel, LoopCost, triangular_weight
from repro.perf.machines import MachineModel
from repro.perf.model import MakespanModel
from repro.runtime.scheduler import make_scheduler, oracle_chunks
from repro.runtime.team import parallel_region
from repro.runtime.trace import TraceRecorder
from repro.runtime.worksharing import run_for

ITERATIONS = 256
THREADS = 8
SCHEDULES = ("staticBlock", "staticCyclic", "dynamic", "guided")


def _trace_schedule(schedule: str) -> TraceRecorder:
    recorder = TraceRecorder()
    weight = triangular_weight(ITERATIONS)

    def loop(start, end, step):
        pass

    def body():
        run_for(loop, 0, ITERATIONS, 1, schedule=schedule, chunk=4, loop_name="triangular", weight=weight)

    parallel_region(body, num_threads=THREADS, recorder=recorder)
    return recorder


def _modelled_speedup(recorder: TraceRecorder) -> float:
    machine = MachineModel("ablation", cores=THREADS, hardware_threads=THREADS, sync_overhead_us=0.0)
    cost_model = CostModel(loops={"triangular": LoopCost(seconds_per_unit=1e-6, weight_fn=triangular_weight(ITERATIONS))})
    return MakespanModel(cost_model, machine).estimate(recorder, THREADS).speedup


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_bench_schedule_partitioning(benchmark, schedule):
    """Time producing a full partition with each scheduler."""
    scheduler = make_scheduler(schedule, chunk=4)

    def partition():
        return [list(oracle_chunks(scheduler, t, THREADS, 0, ITERATIONS, 1)) for t in range(THREADS)]

    chunks = benchmark(partition)
    if schedule in ("staticBlock", "staticCyclic"):
        # Static schedules partition the range across threads exactly once.
        executed = sorted(i for per_thread in chunks for chunk in per_thread for i in chunk.indices())
        assert executed == list(range(ITERATIONS))
    else:
        # Dynamic/guided claims are per-consumer here (a fresh claim cursor
        # per call), so each consumer covers the whole range exactly once.
        for per_thread in chunks:
            executed = sorted(i for chunk in per_thread for i in chunk.indices())
            assert executed == list(range(ITERATIONS))


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_bench_schedule_end_to_end(benchmark, schedule):
    """Time a traced parallel region using each schedule."""
    recorder = benchmark(_trace_schedule, schedule)
    assert recorder.events()


def test_cyclic_balances_triangular_loops_better_than_block():
    """The design choice the paper makes for MolDyn: cyclic > block on triangular loops."""
    block = _modelled_speedup(_trace_schedule("staticBlock"))
    cyclic = _modelled_speedup(_trace_schedule("staticCyclic"))
    dynamic = _modelled_speedup(_trace_schedule("dynamic"))
    assert cyclic > block
    assert dynamic > block
