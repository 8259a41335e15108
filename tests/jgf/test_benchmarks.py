"""Cross-version correctness tests for the JGF benchmark ports.

The key property for the reproduction: for every benchmark, the sequential
base program, the invasive JGF-MT parallelisation and the AOmp (aspect)
parallelisation produce the same results — the paper's claim that aspects
preserve program semantics while adding parallelism.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.jgf import BENCHMARKS
from repro.runtime.trace import EventKind, TraceRecorder

TOLERANCE = 1e-6


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
class TestAllBenchmarks:
    def test_threaded_matches_sequential(self, name):
        module = BENCHMARKS[name]
        sequential = module.run_sequential("tiny")
        threaded = module.run_threaded("tiny", num_threads=3)
        assert sequential.validates_against(threaded, TOLERANCE)

    def test_aomp_matches_sequential(self, name):
        module = BENCHMARKS[name]
        sequential = module.run_sequential("tiny")
        aomp = module.run_aomp("tiny", num_threads=3)
        assert sequential.validates_against(aomp, TOLERANCE)

    def test_aomp_single_thread_matches_sequential(self, name):
        """Sequential semantics: a team of one reproduces the sequential result."""
        module = BENCHMARKS[name]
        sequential = module.run_sequential("tiny")
        aomp = module.run_aomp("tiny", num_threads=1)
        assert sequential.validates_against(aomp, TOLERANCE)

    def test_aomp_leaves_kernel_unwoven(self, name):
        """After the AOmp driver finishes, the kernel class is back to sequential."""
        module = BENCHMARKS[name]
        module.run_aomp("tiny", num_threads=2)
        sequential = module.run_sequential("tiny")
        again = module.run_sequential("tiny")
        assert sequential.validates_against(again, 0.0) or sequential.validates_against(again, 1e-12)

    def test_info_declares_refactorings_and_abstractions(self, name):
        info = BENCHMARKS[name].INFO
        assert info.name == name
        assert len(info.refactorings) >= 1
        assert any("PR" in a for a in info.abstractions)

    def test_sizes_include_tiny_and_small(self, name):
        sizes = BENCHMARKS[name].SIZES
        assert "tiny" in sizes and "small" in sizes and "a" in sizes

    def test_aomp_records_trace(self, name):
        recorder = TraceRecorder()
        BENCHMARKS[name].run_aomp("tiny", num_threads=3, recorder=recorder)
        assert recorder.events(EventKind.REGION_BEGIN)
        assert recorder.events(EventKind.CHUNK)


class TestAdaptiveScheduleDrivers:
    """``schedule="auto"`` modes of the sor/sparse/moldyn drivers.

    The adaptive tuner may run any candidate (including the serial fallback)
    on any invocation, so these are the strongest semantics checks the drivers
    have: whatever it picks, results must match sequential — on every
    backend.  (Kernels that need a shared heap are routed to the process
    backend's thread fallback by the weaver, exactly like their default
    parallelisations.)
    """

    BENCH_NAMES = ("SOR", "Sparse", "MolDyn")

    @pytest.mark.parametrize("name", BENCH_NAMES)
    @pytest.mark.parametrize("backend_name", ("serial", "threads", "processes"))
    def test_auto_matches_sequential_on_every_backend(self, name, backend_name):
        from repro.runtime.backend import backend_by_name, set_backend

        module = BENCHMARKS[name]
        sequential = module.run_sequential("tiny")
        previous = set_backend(backend_by_name(backend_name))
        try:
            auto = module.run_aomp("tiny", num_threads=3, schedule="auto")
        finally:
            set_backend(previous)
        assert sequential.validates_against(auto, TOLERANCE)

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_auto_single_thread_matches_sequential(self, name):
        module = BENCHMARKS[name]
        sequential = module.run_sequential("tiny")
        auto = module.run_aomp("tiny", num_threads=1, schedule="auto")
        assert sequential.validates_against(auto, TOLERANCE)

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_auto_records_tune_decisions(self, name):
        recorder = TraceRecorder()
        BENCHMARKS[name].run_aomp("tiny", num_threads=3, recorder=recorder, schedule="auto")
        decisions = recorder.events(EventKind.TUNE_DECISION)
        assert decisions
        assert all(e.data["schedule"] for e in decisions)

    def test_sparse_row_loop_matches_nonzero_loop(self):
        """The row-range for method computes exactly what multiply_range does."""
        from repro.jgf.sparse.kernel import SparseMatmult

        by_nonzeros = SparseMatmult(64, 320, iterations=3)
        by_rows = SparseMatmult(64, 320, iterations=3)
        value_nz = by_nonzeros.run()
        value_rows = by_rows.run_rows()
        assert value_rows == pytest.approx(value_nz, abs=1e-12)
        assert np.allclose(by_rows.y, by_nonzeros.y)

    def test_sparse_row_pointers_cover_all_nonzeros(self):
        from repro.jgf.sparse.kernel import SparseMatmult

        kernel = SparseMatmult(64, 320)
        assert kernel.row_ptr[0] == 0
        assert kernel.row_ptr[-1] == kernel.nz
        assert all(
            int(kernel.row[k]) == r
            for r in range(kernel.n)
            for k in range(int(kernel.row_ptr[r]), int(kernel.row_ptr[r + 1]))
        )


class TestTaskloopDrivers:
    """The irregular case studies ported to taskloop (work-stealing tasks)."""

    BENCH_NAMES = ("RayTracer", "MonteCarlo")

    @pytest.mark.parametrize("name", BENCH_NAMES)
    @pytest.mark.parametrize("backend_name", ("serial", "threads", "processes"))
    def test_taskloop_matches_sequential_on_every_backend(self, name, backend_name):
        from repro.runtime.backend import backend_by_name, set_backend

        module = BENCHMARKS[name]
        sequential = module.run_sequential("tiny")
        previous = set_backend(backend_by_name(backend_name))
        try:
            tasked = module.run_aomp_taskloop("tiny", num_threads=3)
        finally:
            set_backend(previous)
        assert sequential.validates_against(tasked, TOLERANCE)
        assert tasked.mode == "aomp-taskloop"

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_taskloop_single_thread_matches_sequential(self, name):
        module = BENCHMARKS[name]
        sequential = module.run_sequential("tiny")
        tasked = module.run_aomp_taskloop("tiny", num_threads=1)
        assert sequential.validates_against(tasked, TOLERANCE)

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_taskloop_records_task_spawns_and_chunks(self, name):
        module = BENCHMARKS[name]
        recorder = TraceRecorder()
        module.run_aomp_taskloop("tiny", num_threads=3, recorder=recorder, grainsize=1)
        assert recorder.events(EventKind.REGION_BEGIN)
        assert recorder.events(EventKind.TASK_SPAWN)
        chunks = recorder.events(EventKind.CHUNK)
        assert chunks
        # Every tile appears exactly once across members.
        starts = sorted(e.data["start"] for e in chunks)
        assert starts == sorted(set(starts))

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_taskloop_grainsize_controls_tile_count(self, name):
        module = BENCHMARKS[name]
        recorder = TraceRecorder()
        module.run_aomp_taskloop("tiny", num_threads=2, recorder=recorder, grainsize=2)
        chunks = recorder.events(EventKind.CHUNK)
        assert all(e.data["count"] <= 2 for e in chunks)


class TestSeriesDetails:
    def test_first_coefficients_are_stable(self):
        from repro.jgf.series.kernel import FourierSeries

        kernel = FourierSeries(8)
        kernel.run()
        pairs = kernel.reference_first_pairs()
        # a0 = (1/2) * integral of (x+1)^x over [0,2] = 2.88192 (scipy.quad reference).
        assert pairs[0][0] == pytest.approx(2.88192, rel=1e-3)
        assert pairs[0][1] == 0.0

    def test_invalid_size(self):
        from repro.jgf.series.kernel import FourierSeries

        with pytest.raises(ValueError):
            FourierSeries(1)


class TestCryptDetails:
    def test_round_trip_and_keys(self):
        from repro.jgf.crypt.kernel import CryptBenchmark, IDEACipher

        kernel = CryptBenchmark(8 * 16)
        kernel.run()
        assert kernel.validate()
        assert len(kernel.cipher.encrypt_keys) == IDEACipher.KEYS
        assert len(kernel.cipher.decrypt_keys) == IDEACipher.KEYS

    def test_encryption_changes_data(self):
        from repro.jgf.crypt.kernel import CryptBenchmark

        kernel = CryptBenchmark(8 * 16)
        kernel.run()
        assert not np.array_equal(kernel.plain, kernel.encrypted)

    def test_size_rounded_to_blocks(self):
        from repro.jgf.crypt.kernel import CryptBenchmark

        kernel = CryptBenchmark(13)
        assert kernel.size % 8 == 0

    def test_bad_key_rejected(self):
        from repro.jgf.crypt.kernel import IDEACipher

        with pytest.raises(ValueError):
            IDEACipher([1, 2, 3])


class TestLinpackDetails:
    def test_residual_small(self):
        from repro.jgf.lufact.kernel import Linpack

        kernel = Linpack(48)
        residual = kernel.run()
        assert residual < 20.0

    def test_solution_close_to_ones(self):
        from repro.jgf.lufact.kernel import Linpack

        kernel = Linpack(32)
        kernel.dgefa()
        solution = kernel.dgesl()
        assert np.allclose(solution, 1.0, atol=1e-6)

    def test_matches_numpy_solve(self):
        from repro.jgf.lufact.kernel import Linpack

        kernel = Linpack(24)
        dense = kernel.a_original.T.copy()
        rhs = kernel.b_original.copy()
        kernel.dgefa()
        solution = kernel.dgesl()
        assert np.allclose(solution, np.linalg.solve(dense, rhs), atol=1e-8)

    @pytest.mark.parametrize("num_threads", [3, 4])
    @pytest.mark.parametrize("backend_name", ("serial", "threads", "processes"))
    def test_woven_factorisation_is_bit_identical(self, backend_name, num_threads):
        """Columns are eliminated independently, so sharing them out over a
        team cannot change a single rounding."""
        from repro.jgf.lufact.parallel import run_aomp, run_sequential
        from repro.runtime.backend import backend_by_name, set_backend

        reference = run_sequential("tiny").value
        previous = set_backend(backend_by_name(backend_name))
        try:
            result = run_aomp("tiny", num_threads=num_threads)
        finally:
            set_backend(previous)
        assert result.value == reference


class TestSorDetails:
    def test_relaxation_reduces_residual_vs_initial(self):
        from repro.jgf.sor.kernel import SORBenchmark

        kernel = SORBenchmark(24, iterations=8)
        before = kernel.grid.copy()
        kernel.run()
        assert not np.allclose(before, kernel.grid)

    def test_grid_size_validation(self):
        from repro.jgf.sor.kernel import SORBenchmark

        with pytest.raises(ValueError):
            SORBenchmark(2)


class TestSparseDetails:
    def test_matches_dense_reference(self):
        from repro.jgf.sparse.kernel import SparseMatmult

        kernel = SparseMatmult(32, 200, iterations=3)
        dense = np.zeros((32, 32))
        np.add.at(dense, (kernel.row, kernel.col), kernel.values)
        expected = np.zeros(32)
        for _ in range(3):
            expected += dense @ kernel.x
        kernel.run()
        assert np.allclose(kernel.y, expected, atol=1e-9)

    def test_row_blocks_never_split_rows(self):
        from repro.jgf.sparse.kernel import SparseMatmult

        kernel = SparseMatmult(64, 400, iterations=1)
        bounds = kernel.row_block_bounds(5)
        assert bounds[0][0] == 0 and bounds[-1][1] == kernel.nz
        for (start_a, end_a), (start_b, end_b) in zip(bounds, bounds[1:]):
            assert end_a == start_b
            if end_a < kernel.nz and end_a > 0:
                assert kernel.row[end_a - 1] != kernel.row[end_a]

    def test_nz_validation(self):
        from repro.jgf.sparse.kernel import SparseMatmult

        with pytest.raises(ValueError):
            SparseMatmult(100, 50)


class TestMolDynDetails:
    def test_energy_is_finite_and_negative(self):
        from repro.jgf.moldyn.kernel import MolDyn, fcc_particle_count

        kernel = MolDyn(fcc_particle_count(3), moves=2)
        value = kernel.runiters()
        assert np.isfinite(value)

    def test_momentum_roughly_conserved(self):
        from repro.jgf.moldyn.kernel import MolDyn, fcc_particle_count

        kernel = MolDyn(fcc_particle_count(3), moves=3)
        kernel.runiters()
        momentum = kernel.velocities.sum(axis=0)
        assert np.allclose(momentum, 0.0, atol=1e-8)

    def test_strategies_agree(self):
        from repro.jgf.moldyn import run_variant
        from repro.jgf.moldyn.kernel import MolDyn, fcc_particle_count

        n = fcc_particle_count(3)
        reference = MolDyn(n, moves=2).runiters()
        for strategy in ("jgf", "critical", "locks"):
            _, value = run_variant(strategy, n, num_threads=3, moves=2, lock_mode="exact")
            assert value == pytest.approx(reference, rel=1e-6)

    @pytest.mark.parametrize("schedule", ["staticBlock", "staticCyclic", "dynamic", "guided", "auto"])
    def test_force_sweep_matches_sequential_under_every_schedule(self, schedule):
        from repro.jgf.moldyn.parallel import run_aomp, run_sequential

        reference = run_sequential("tiny")
        result = run_aomp("tiny", num_threads=3, schedule=schedule)
        assert reference.validates_against(result, TOLERANCE)

    def test_unknown_strategy_rejected(self):
        from repro.jgf.moldyn import build_aspects

        with pytest.raises(ValueError):
            build_aspects("magic", 4)

    def test_locks_modelled_records_aggregate_acquisitions(self):
        from repro.jgf.moldyn import run_variant
        from repro.jgf.moldyn.kernel import fcc_particle_count

        recorder = TraceRecorder()
        run_variant("locks", fcc_particle_count(3), num_threads=2, moves=1, recorder=recorder, lock_mode="modelled")
        lock_events = recorder.events(EventKind.LOCK_ACQUIRE)
        assert lock_events
        assert all(e.data["count"] >= 1 for e in lock_events)

    def test_critical_strategy_records_serialisation(self):
        from repro.jgf.moldyn import run_variant
        from repro.jgf.moldyn.kernel import fcc_particle_count

        recorder = TraceRecorder()
        run_variant("critical", fcc_particle_count(3), num_threads=2, moves=1, recorder=recorder)
        assert recorder.events(EventKind.CRITICAL)


class TestMonteCarloDetails:
    def test_deterministic_per_run(self):
        from repro.jgf.montecarlo.kernel import MonteCarloPaths

        a = MonteCarloPaths(10)
        b = MonteCarloPaths(10)
        a.run()
        b.run()
        assert np.allclose(a.results, b.results)

    def test_results_are_reasonable_returns(self):
        from repro.jgf.montecarlo.kernel import MonteCarloPaths

        kernel = MonteCarloPaths(50)
        kernel.run()
        assert np.all(np.isfinite(kernel.results))
        assert abs(kernel.aggregate()) < 5.0


class TestRayTracerDetails:
    def test_image_has_lit_pixels(self):
        from repro.jgf.raytracer.kernel import RayTracer

        kernel = RayTracer(32)
        kernel.render()
        assert kernel.image.max() > 0.0
        assert kernel.checksum == pytest.approx(kernel.image_checksum())

    def test_small_image_rejected(self):
        from repro.jgf.raytracer.kernel import RayTracer

        with pytest.raises(ValueError):
            RayTracer(2)
