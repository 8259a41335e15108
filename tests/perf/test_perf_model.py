"""Tests for machine models, cost models and the makespan/speedup estimation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParallelRegion, ForCyclic, call, Weaver
from repro.experiments.harness import calibrate_cost_model_from_trace
from repro.jgf import BENCHMARKS
from repro.perf.calibrate import measure_critical_overhead, measure_lock_overhead, measure_reduction_cost
from repro.perf.cost import CostModel, LoopCost
from repro.perf.machines import MachineModel
from repro.perf.model import MakespanModel, phase_duration
from repro.runtime.config import config_override
from repro.runtime.tasks import run_taskloop
from repro.runtime.team import parallel_region
from repro.runtime.trace import EventKind, TraceRecorder
from repro.runtime.worksharing import run_for


def triangular_weight(total):
    """Iteration ``i`` touches ``total - i - 1`` pairs: the MolDyn/LUFact loop shape."""
    return lambda i: float(max(total - i - 1, 0))


class TestMachineModel:
    def test_linear_scaling_up_to_physical_cores(self):
        machine = MachineModel("m", cores=4, hardware_threads=8)
        assert machine.effective_parallelism(1) == 1
        assert machine.effective_parallelism(4) == 4

    def test_smt_threads_add_partial_throughput(self):
        machine = MachineModel("m", cores=4, hardware_threads=8, smt_yield=0.25)
        assert machine.effective_parallelism(8) == pytest.approx(4 + 4 * 0.25)

    def test_threads_beyond_hardware_clamp(self):
        machine = MachineModel("m", cores=4, hardware_threads=8, smt_yield=0.25)
        assert machine.effective_parallelism(64) == machine.effective_parallelism(8)

    def test_memory_bound_cap(self):
        machine = MachineModel("m", cores=12, hardware_threads=24, memory_bound_cap=4.0)
        compute_only = machine.effective_parallelism(12, memory_bound_fraction=0.0)
        fully_bound = machine.effective_parallelism(12, memory_bound_fraction=1.0)
        assert compute_only == 12
        assert fully_bound == 4.0
        half = machine.effective_parallelism(12, memory_bound_fraction=0.5)
        assert 4.0 < half < 12.0

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            MachineModel("m", cores=4, hardware_threads=8).effective_parallelism(0)

    def test_barrier_cost_grows_with_team(self):
        machine = MachineModel("m", cores=12, hardware_threads=24)
        assert machine.barrier_cost(1) == 0.0
        assert machine.barrier_cost(24) > machine.barrier_cost(2) > 0.0


class TestCostModel:
    def test_uniform_chunk_cost(self):
        cost = LoopCost(seconds_per_unit=2.0)
        assert cost.chunk_cost(0, 10, 1) == pytest.approx(20.0)

    def test_triangular_weight(self):
        weight = triangular_weight(10)
        assert weight(0) == 9
        assert weight(9) == 0
        cost = LoopCost(seconds_per_unit=1.0, weight_fn=weight)
        assert cost.chunk_cost(0, 10, 1) == pytest.approx(45.0)

    def test_recorded_weight_takes_precedence(self):
        cost = LoopCost(seconds_per_unit=1.0)
        assert cost.chunk_cost(0, 10, 1, recorded_weight=100.0) == pytest.approx(100.0)

    def test_loop_lookup_by_suffix(self):
        model = CostModel(loops={"compute_forces": LoopCost(seconds_per_unit=5.0)})
        assert model.loop_cost("MolDyn.compute_forces").seconds_per_unit == 5.0
        assert model.loop_cost("compute_forces").seconds_per_unit == 5.0
        assert model.loop_cost("unknown") is model.default_loop

    def test_loop_registered_after_first_lookup_takes_effect(self):
        """The loop_cost memo must not pin a default-loop fallback forever."""
        model = CostModel()
        assert model.loop_cost("MolDyn.compute_forces") is model.default_loop
        model.loops["compute_forces"] = LoopCost(seconds_per_unit=5.0)
        assert model.loop_cost("MolDyn.compute_forces").seconds_per_unit == 5.0

    def test_in_place_replacement_and_same_size_key_swap(self):
        model = CostModel(loops={"x": LoopCost(seconds_per_unit=1.0)})
        assert model.loop_cost("A.x").seconds_per_unit == 1.0
        # Value replacement under the same key takes effect...
        model.loops["x"] = LoopCost(seconds_per_unit=9.0)
        assert model.loop_cost("A.x").seconds_per_unit == 9.0
        # ...and a same-size key swap falls back instead of raising KeyError.
        del model.loops["x"]
        model.loops["y"] = LoopCost(seconds_per_unit=3.0)
        assert model.loop_cost("A.x") is model.default_loop
        assert model.loop_cost("B.y").seconds_per_unit == 3.0

    def test_same_size_key_swap_supersedes_suffix_match(self):
        """A key-set change must re-resolve names even when len() is unchanged."""
        model = CostModel(loops={"A.foo": LoopCost(seconds_per_unit=1.0), "x": LoopCost(seconds_per_unit=2.0)})
        assert model.loop_cost("foo").seconds_per_unit == 1.0  # suffix match memoised
        model.loops.pop("x")
        model.loops["foo"] = LoopCost(seconds_per_unit=3.0)  # exact match appears, same size
        assert model.loop_cost("foo").seconds_per_unit == 3.0

    def test_replace_copies_do_not_share_memos(self):
        import dataclasses

        cost = LoopCost(seconds_per_unit=1.0)
        assert cost.chunk_cost(0, 10, 1) == pytest.approx(10.0)
        heavier = dataclasses.replace(cost, weight_fn=lambda i: 2.0)
        assert heavier.chunk_cost(0, 10, 1) == pytest.approx(20.0)

    def test_repeated_chunk_cost_is_memoised_per_range(self):
        calls = []

        def weight(i):
            calls.append(i)
            return 1.0

        cost = LoopCost(seconds_per_unit=2.0, weight_fn=weight)
        assert cost.chunk_cost(0, 10, 1) == pytest.approx(20.0)
        first_pass = len(calls)
        assert cost.chunk_cost(0, 10, 1) == pytest.approx(20.0)
        assert len(calls) == first_pass  # second replay hits the memo


class TestPhaseDuration:
    def test_balanced_work_scales_with_cores(self):
        machine = MachineModel("m", cores=4, hardware_threads=4)
        duration = phase_duration({t: 1.0 for t in range(4)}, {}, machine, 4)
        assert duration == pytest.approx(1.0)

    def test_imbalance_dominates(self):
        machine = MachineModel("m", cores=8, hardware_threads=8)
        duration = phase_duration({0: 10.0, 1: 1.0}, {}, machine, 2)
        assert duration == pytest.approx(10.0)

    def test_serialisation_dominates(self):
        machine = MachineModel("m", cores=8, hardware_threads=8)
        duration = phase_duration({t: 0.1 for t in range(8)}, {t: 1.0 for t in range(8)}, machine, 8)
        assert duration >= 8.0

    def test_limited_cores_bound(self):
        machine = MachineModel("m", cores=2, hardware_threads=2)
        duration = phase_duration({t: 1.0 for t in range(8)}, {}, machine, 8)
        assert duration == pytest.approx(8.0 / 2.0)


class TestMakespanFromTraces:
    def _trace_loop(self, recorder, num_threads, schedule="staticBlock", weight=None, iterations=64):
        def loop(start, end, step):
            pass

        def body():
            run_for(loop, 0, iterations, 1, schedule=schedule, loop_name="work", weight=weight)

        parallel_region(body, num_threads=num_threads, recorder=recorder)

    def test_uniform_loop_speedup_matches_cores(self):
        recorder = TraceRecorder()
        self._trace_loop(recorder, num_threads=4)
        machine = MachineModel("m", cores=4, hardware_threads=4, sync_overhead_us=0.0)
        model = MakespanModel(CostModel(loops={"work": LoopCost(seconds_per_unit=1e-3)}), machine)
        estimate = model.estimate(recorder, 4, name="uniform")
        assert estimate.speedup == pytest.approx(4.0, rel=0.05)

    def test_triangular_loop_block_vs_cyclic(self):
        """Cyclic scheduling balances triangular loops better than block scheduling."""
        weight = triangular_weight(64)
        machine = MachineModel("m", cores=4, hardware_threads=4, sync_overhead_us=0.0)
        cost_model = CostModel(loops={"work": LoopCost(seconds_per_unit=1e-4, weight_fn=weight)})

        block_recorder = TraceRecorder()
        self._trace_loop(block_recorder, 4, schedule="staticBlock", weight=weight)
        cyclic_recorder = TraceRecorder()
        self._trace_loop(cyclic_recorder, 4, schedule="staticCyclic", weight=weight)

        block = MakespanModel(cost_model, machine).estimate(block_recorder, 4, name="block")
        cyclic = MakespanModel(cost_model, machine).estimate(cyclic_recorder, 4, name="cyclic")
        assert cyclic.speedup > block.speedup
        assert cyclic.speedup == pytest.approx(4.0, rel=0.1)

    def test_smt_threads_give_diminishing_returns(self):
        machine = MachineModel("m", cores=4, hardware_threads=8, smt_yield=0.3, sync_overhead_us=0.0)
        cost_model = CostModel(loops={"work": LoopCost(seconds_per_unit=1e-3)})
        recorder4 = TraceRecorder()
        self._trace_loop(recorder4, 4)
        recorder8 = TraceRecorder()
        self._trace_loop(recorder8, 8)
        s4 = MakespanModel(cost_model, machine).estimate(recorder4, 4).speedup
        s8 = MakespanModel(cost_model, machine).estimate(recorder8, 8).speedup
        assert s8 > s4
        assert s8 < 8.0
        assert s8 == pytest.approx(4 + 4 * 0.3, rel=0.1)

    def test_critical_serialisation_limits_speedup(self):
        from repro.runtime.critical import critical_call
        import time as _time

        recorder = TraceRecorder()

        def body():
            for _ in range(5):
                critical_call(lambda: _time.sleep(0.002), key="hot")

        parallel_region(body, num_threads=4, recorder=recorder)
        machine = MachineModel("m", cores=4, hardware_threads=4, sync_overhead_us=0.0)
        estimate = MakespanModel(CostModel(), machine).estimate(recorder, 4, name="critical")
        # All work is serialised: speedup must stay close to 1.
        assert estimate.speedup < 1.5

    def test_extra_sequential_time_reduces_speedup(self):
        recorder = TraceRecorder()
        self._trace_loop(recorder, 4)
        machine = MachineModel("m", cores=4, hardware_threads=4, sync_overhead_us=0.0)
        model = MakespanModel(CostModel(loops={"work": LoopCost(seconds_per_unit=1e-3)}), machine)
        pure = model.estimate(recorder, 4)
        with_serial = model.estimate(recorder, 4, extra_sequential_time=pure.sequential_time)
        assert with_serial.speedup < pure.speedup
        assert with_serial.speedup == pytest.approx(2 * 4 / 5, rel=0.1)  # Amdahl with 50% serial

    def test_estimate_from_woven_application(self):
        """End-to-end: weave aspects, run, estimate — the full modelling pipeline."""

        class App:
            def region(self):
                self.sweep(0, 48, 1)

            def sweep(self, start, end, step):
                pass

        recorder = TraceRecorder()
        weaver = Weaver()
        weaver.weave(ForCyclic(call("App.sweep")), App)
        weaver.weave(ParallelRegion(call("App.region"), threads=6, recorder=recorder), App)
        try:
            App().region()
        finally:
            weaver.unweave_all()
        machine = MachineModel("m", cores=6, hardware_threads=6, sync_overhead_us=0.0)
        estimate = MakespanModel(CostModel(loops={"App.sweep": LoopCost(seconds_per_unit=1e-3)}), machine).estimate(
            recorder, 6
        )
        assert estimate.speedup == pytest.approx(6.0, rel=0.05)

    def test_reduction_cost_is_parallel_only(self):
        machine = MachineModel("m", cores=4, hardware_threads=4, sync_overhead_us=0.0)
        recorder = TraceRecorder()
        self._trace_loop(recorder, 4)
        # Inject a reduction event manually.
        from repro.runtime.trace import EventKind

        recorder.record(EventKind.REDUCTION, 0, 0, elements=100000, count=4)
        cost_model = CostModel(loops={"work": LoopCost(seconds_per_unit=1e-3)}, reduction_cost_per_element=1e-6)
        estimate = MakespanModel(cost_model, machine).estimate(recorder, 4)
        # Reduction adds parallel time but no sequential time -> speedup < cores.
        assert estimate.speedup < 4.0


class TestTaskEventsInModel:
    """TASK_SPAWN/TASK_STEAL/TASK_COMPLETE events are priced by the replay."""

    def _machine(self):
        return MachineModel("m", cores=4, hardware_threads=4, sync_overhead_us=0.0)

    def test_spawn_and_steal_overheads_add_compute(self):
        recorder = TraceRecorder()
        region = recorder.new_region_id()
        recorder.record(EventKind.REGION_BEGIN, region, 0, name="r", size=2)
        recorder.record(EventKind.TASK_SPAWN, region, 0, loop="work", count=10)
        recorder.record(EventKind.TASK_STEAL, region, 1, loop="work", victim=0)
        recorder.record(EventKind.REGION_END, region, 0, name="r")

        cost_model = CostModel(task_spawn_overhead=1e-3, task_steal_overhead=5e-3)
        estimate = MakespanModel(cost_model, self._machine()).estimate(recorder, 2, name="tasks")
        # Thread 1's single steal (5 ms) dominates thread 0's 10 spawns (10 ms)... both priced.
        assert estimate.makespan == pytest.approx(10 * 1e-3, rel=0.01)
        phase = estimate.phases[0]
        assert phase.compute_per_thread[0] == pytest.approx(10 * 1e-3)
        assert phase.compute_per_thread[1] == pytest.approx(5e-3)
        # Overheads are parallel-only: sequential time is unaffected.
        assert estimate.sequential_time == 0.0

    def test_task_complete_counts_as_work_both_sides(self):
        recorder = TraceRecorder()
        region = recorder.new_region_id()
        recorder.record(EventKind.REGION_BEGIN, region, 0, name="r", size=2)
        recorder.record(EventKind.TASK_COMPLETE, region, 0, task="t0", elapsed=0.2)
        recorder.record(EventKind.TASK_COMPLETE, region, 1, task="t1", elapsed=0.2)
        recorder.record(EventKind.REGION_END, region, 0, name="r")

        estimate = MakespanModel(CostModel(), self._machine()).estimate(recorder, 2, name="tasks")
        assert estimate.sequential_time == pytest.approx(0.4)
        assert estimate.makespan == pytest.approx(0.2)
        assert estimate.speedup == pytest.approx(2.0)

    def test_taskloop_trace_replays_like_a_workshared_loop(self):
        """An executed taskloop yields CHUNK events the model prices normally."""
        recorder = TraceRecorder()

        def loop(start, end, step):
            pass

        def body():
            run_taskloop(loop, 0, 64, 1, grainsize=2, loop_name="work")

        parallel_region(body, num_threads=4, recorder=recorder)
        cost_model = CostModel(
            loops={"work": LoopCost(seconds_per_unit=1e-3)},
            task_spawn_overhead=0.0,
            task_steal_overhead=0.0,
        )
        estimate = MakespanModel(cost_model, self._machine()).estimate(recorder, 4, name="taskloop")
        assert estimate.sequential_time == pytest.approx(64 * 1e-3)
        # Work-stealing balances the uniform tiles across the team; the replay
        # cannot be worse than fully serialised nor better than perfect.
        assert 1.0 <= estimate.speedup <= 4.0 + 1e-9


class TestTuneEventsInModel:
    """TUNE_DECISION events are instant markers: replayed, never priced."""

    def _machine(self):
        return MachineModel("m", cores=4, hardware_threads=4, sync_overhead_us=0.0)

    def test_tune_decisions_add_no_cost(self):
        recorder = TraceRecorder()
        region = recorder.new_region_id()
        recorder.record(EventKind.REGION_BEGIN, region, 0, name="r", size=2)
        recorder.record(
            EventKind.TUNE_DECISION,
            region,
            0,
            loop="work",
            schedule="dynamic",
            chunk=4,
            serial=False,
            invocation=3,
            elapsed=0.01,
            converged=True,
        )
        recorder.record(EventKind.CHUNK, region, 0, loop="work", start=0, end=10, step=1, count=10)
        recorder.record(EventKind.REGION_END, region, 0, name="r")

        cost_model = CostModel(loops={"work": LoopCost(seconds_per_unit=1e-3)})
        estimate = MakespanModel(cost_model, self._machine()).estimate(recorder, 2, name="tuned")
        assert estimate.makespan == pytest.approx(10 * 1e-3)
        assert estimate.sequential_time == pytest.approx(10 * 1e-3)

    def test_adaptive_trace_replays_end_to_end(self):
        """A real schedule="auto" run replays like any workshared trace."""
        recorder = TraceRecorder()

        def loop(start, end, step):
            pass

        def body():
            for _ in range(3):
                run_for(loop, 0, 64, 1, schedule="auto", loop_name="work")

        parallel_region(body, num_threads=2, recorder=recorder)
        assert recorder.events(EventKind.TUNE_DECISION)

        cost_model = CostModel(loops={"work": LoopCost(seconds_per_unit=1e-3)})
        estimate = MakespanModel(cost_model, self._machine()).estimate(recorder, 2, name="auto")
        # Three invocations of 64 unit-cost iterations, however scheduled.
        assert estimate.sequential_time == pytest.approx(3 * 64 * 1e-3)
        assert 1.0 <= estimate.speedup <= 2.0 + 1e-9


class TestCalibration:
    def test_lock_overhead_is_small_but_positive(self):
        overhead = measure_lock_overhead(samples=2000)
        assert 0 < overhead < 1e-4

    def test_critical_overhead_is_small_but_positive(self):
        overhead = measure_critical_overhead(samples=2000)
        assert 0 < overhead < 1e-4

    def test_reduction_cost_per_element_is_small_but_positive(self):
        cost = measure_reduction_cost(elements=20000)
        assert 0 < cost < 1e-6

    def test_a_weight_function_prices_each_unit_of_weight(self):
        recorder = TraceRecorder()
        # Two chunks of kernel.sweep: iterations 0..3 and 4..7, weight i + 1 each.
        recorder.record(EventKind.CHUNK, 0, 0, loop="kernel.sweep", start=0, end=4, step=1, count=4, elapsed=0.010)
        recorder.record(EventKind.CHUNK, 0, 0, loop="kernel.sweep", start=4, end=8, step=1, count=4, elapsed=0.026)
        recorder.record(EventKind.CHUNK, 0, 0, loop="kernel.copy", start=0, end=5, step=1, count=5, elapsed=0.005)
        recorder.record(EventKind.CHUNK, 0, 0, loop="kernel.untimed", start=0, end=5, step=1, count=5)
        model = calibrate_cost_model_from_trace(
            recorder,
            weight_fns={"sweep": lambda i: float(i + 1)},
            memory_bound_fractions={"kernel.copy": 0.5},
            reduction_elements=3.0,
        )
        assert set(model.loops) == {"kernel.sweep", "kernel.copy"}
        sweep, copy = model.loops["kernel.sweep"], model.loops["kernel.copy"]
        assert sweep.seconds_per_unit == pytest.approx(0.036 / 36)
        assert sweep.weight_fn(7) == 8.0
        assert copy.seconds_per_unit == pytest.approx(0.001)
        assert copy.weight_fn(3) == 1.0
        assert (sweep.memory_bound_fraction, copy.memory_bound_fraction) == (0.0, 0.5)
        assert model.reduction_elements == 3.0
        assert min(model.critical_overhead, model.lock_overhead, model.reduction_cost_per_element) > 0

    def test_calibration_builds_loop_costs(self):
        recorder = TraceRecorder()
        with config_override(num_threads=1):
            BENCHMARKS["Series"].run_aomp("tiny", num_threads=1, recorder=recorder)
        model = calibrate_cost_model_from_trace(recorder)
        assert model.loops
        for cost in model.loops.values():
            assert cost.seconds_per_unit > 0


# -- property-based sanity on the phase algebra -------------------------------

@settings(max_examples=150, deadline=None)
@given(
    work=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=16),
    cores=st.integers(min_value=1, max_value=16),
)
def test_phase_duration_bounds(work, cores):
    """The phase duration always lies between max(work) and sum(work)."""
    machine = MachineModel("m", cores=cores, hardware_threads=cores)
    num_threads = len(work)
    duration = phase_duration({t: w for t, w in enumerate(work)}, {}, machine, num_threads)
    assert duration >= max(work) - 1e-9
    assert duration <= sum(work) + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    work=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=8),
)
def test_more_cores_never_slower(work):
    num_threads = len(work)
    small = MachineModel("s", cores=1, hardware_threads=1)
    big = MachineModel("b", cores=num_threads, hardware_threads=num_threads)
    compute = {t: w for t, w in enumerate(work)}
    assert phase_duration(compute, {}, big, num_threads) <= phase_duration(compute, {}, small, num_threads) + 1e-9


class TestNestedRegionsInModel:
    """Nested regions replay as per-level lanes, not as sibling regions."""

    def _nested_trace(self, recorder, *, outer_threads=2, inner_threads=2, iterations=32):
        def loop(start, end, step):
            pass

        def inner():
            run_for(loop, 0, iterations, 1, loop_name="inner_work")

        def outer():
            run_for(loop, 0, iterations, 1, loop_name="outer_work")
            parallel_region(inner, num_threads=inner_threads, recorder=recorder, name="inner")

        parallel_region(outer, num_threads=outer_threads, recorder=recorder, name="outer")

    def test_child_regions_fold_into_parent_lane(self):
        recorder = TraceRecorder()
        self._nested_trace(recorder)
        machine = MachineModel("m", cores=8, hardware_threads=8, sync_overhead_us=0.0)
        cost_model = CostModel(
            loops={
                "outer_work": LoopCost(seconds_per_unit=1e-3),
                "inner_work": LoopCost(seconds_per_unit=1e-3),
            }
        )
        estimate = MakespanModel(cost_model, machine).estimate(recorder, 2, name="nested")
        # All inner work (2 child regions x 32 iterations) plus the outer loop
        # must appear in the sequential total exactly once each.
        assert estimate.sequential_time == pytest.approx(3 * 32 * 1e-3)
        # The child regions' makespans land on the spawning members' lanes:
        # with 2 outer members each spawning one (2-wide) child, the estimate
        # is the outer loop phase plus the children running in parallel.
        child_makespan = (32 / 2) * 1e-3
        outer_phase = (32 / 2) * 1e-3
        assert estimate.makespan == pytest.approx(outer_phase + child_makespan, rel=0.05)
        assert estimate.speedup > 1.0

    def test_nested_not_double_counted_as_siblings(self):
        """Folding must yield a strictly smaller makespan than the old
        sibling-sum replay (which priced child regions a second time at top
        level *and* ignored their overlap)."""
        recorder = TraceRecorder()
        self._nested_trace(recorder)
        machine = MachineModel("m", cores=8, hardware_threads=8, sync_overhead_us=0.0)
        cost_model = CostModel(
            loops={
                "outer_work": LoopCost(seconds_per_unit=1e-3),
                "inner_work": LoopCost(seconds_per_unit=1e-3),
            }
        )
        estimate = MakespanModel(cost_model, machine).estimate(recorder, 2)
        sibling_sum = (32 / 2) * 1e-3 + 2 * (32 / 2) * 1e-3  # outer phase + both children serialised
        assert estimate.makespan < sibling_sum

    def test_flat_traces_unchanged(self):
        """Traces without nesting replay exactly as before (regression)."""
        recorder = TraceRecorder()

        def loop(start, end, step):
            pass

        def body():
            run_for(loop, 0, 64, 1, loop_name="work")

        parallel_region(body, num_threads=4, recorder=recorder)
        machine = MachineModel("m", cores=4, hardware_threads=4, sync_overhead_us=0.0)
        model = MakespanModel(CostModel(loops={"work": LoopCost(seconds_per_unit=1e-3)}), machine)
        assert model.estimate(recorder, 4).speedup == pytest.approx(4.0, rel=0.05)
