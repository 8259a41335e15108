"""LUFact benchmark drivers: sequential, JGF-MT threaded and AOmp."""

from __future__ import annotations

from repro.core.annotation_weaver import weave_annotations
from repro.jgf.common import BenchmarkInfo, BenchmarkResult, block_range, resolve_size, spawn_jgf_threads, timed
from repro.jgf.lufact.kernel import Linpack
from repro.runtime.trace import TraceRecorder

#: Problem sizes (matrix order).  JGF size A is 500x500.
SIZES = {"tiny": 32, "small": 128, "a": 400}

INFO = BenchmarkInfo(
    name="LUFact",
    refactorings=("M2FOR", "M2M"),
    abstractions=("PR", "FOR(block)", "4xBR", "2xMA"),
    description="Linpack LU factorisation with partial pivoting (the paper's case study).",
)

#: Residual threshold below which the factorisation/solve is considered correct
#: (Linpack's own criterion is residual < O(10); the kernels here stay well below).
RESIDUAL_THRESHOLD = 20.0


def run_sequential(size: "str | int" = "small") -> BenchmarkResult:
    """Run the plain sequential base program."""
    n = resolve_size(SIZES, size)
    kernel = Linpack(n)
    residual, elapsed = timed(kernel.run)
    return BenchmarkResult("LUFact", "sequential", size, residual, elapsed, details={"valid": residual < RESIDUAL_THRESHOLD})


def run_threaded(size: "str | int" = "small", num_threads: int = 4) -> BenchmarkResult:
    """JGF-MT style: every thread runs the factorisation loop; thread 0 does the
    pivot handling; the column-update range is partitioned by hand; barriers are
    placed explicitly — the invasive structure of the JGF LUFact MT version."""
    n = resolve_size(SIZES, size)
    kernel = Linpack(n)

    def worker(thread_id: int, total_threads: int, barrier) -> None:
        for k in range(n - 1):
            col_k = kernel.a[k]
            pivot = kernel.idamax(col_k, k)
            kernel.ipvt[k] = pivot
            if col_k[pivot] == 0.0:
                continue
            barrier.wait()                       # everyone finished the pivot search
            if thread_id == 0:
                kernel.interchange(k, pivot)
                kernel.dscal_pivot(k)
            barrier.wait()                       # multipliers ready
            start, end = block_range(k + 1, n, 1, thread_id, total_threads)
            kernel.reduce_all_cols(start, end, 1, k, pivot)
            barrier.wait()                       # columns updated before next k

    def drive() -> float:
        spawn_jgf_threads(worker, num_threads)
        kernel.ipvt[n - 1] = n - 1
        solution = kernel.dgesl()
        return kernel.residual(solution)

    residual, elapsed = timed(drive)
    return BenchmarkResult(
        "LUFact", "threaded", size, residual, elapsed, num_threads=num_threads, details={"valid": residual < RESIDUAL_THRESHOLD}
    )


def run_aomp(size: "str | int" = "small", num_threads: int = 4, recorder: TraceRecorder | None = None) -> BenchmarkResult:
    """AOmp annotation style (paper Figure 8): weave the annotations already on the kernel."""
    n = resolve_size(SIZES, size)
    kernel = Linpack(n)
    weaver = weave_annotations(Linpack, threads=num_threads, recorder=recorder)
    try:
        residual, elapsed = timed(kernel.run)
    finally:
        weaver.unweave_all()
    return BenchmarkResult(
        "LUFact",
        "aomp",
        size,
        residual,
        elapsed,
        num_threads=num_threads,
        recorder=recorder,
        details={"valid": residual < RESIDUAL_THRESHOLD},
    )


def build_aspects(num_threads: int, recorder: TraceRecorder | None = None) -> list:
    """Aspects woven by the annotation session (used by the Table 2 accounting)."""
    from repro.core.annotation_weaver import AnnotationWeavingSession

    session = AnnotationWeavingSession(threads=num_threads, recorder=recorder)
    weaver = session.weave(Linpack)
    aspects = list(session.woven_aspects)
    weaver.unweave_all()
    return aspects
