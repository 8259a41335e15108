"""Series benchmark drivers: sequential, JGF-MT threaded, and AOmp versions."""

from __future__ import annotations

from repro.core import ForStatic, ParallelRegion, Weaver, call
from repro.jgf.common import BenchmarkInfo, BenchmarkResult, block_range, resolve_size, spawn_jgf_threads, timed
from repro.jgf.series.kernel import FourierSeries
from repro.runtime.backend import Backend, resolve_backend
from repro.runtime.team import parallel_region
from repro.runtime.trace import TraceRecorder

#: Problem sizes (number of coefficient pairs).  JGF size A is 10 000; the
#: default "small" size keeps a pure-Python run near one second.
SIZES = {"tiny": 16, "small": 128, "a": 2000}

INFO = BenchmarkInfo(
    name="Series",
    refactorings=("M2FOR", "M2M"),
    abstractions=("PR", "FOR(block)"),
    description="Fourier coefficients of (x+1)^x over [0,2]; embarrassingly parallel outer loop.",
)


def run_sequential(size: "str | int" = "small", *, kernel: str = "python") -> BenchmarkResult:
    """Run the plain sequential base program."""
    n = resolve_size(SIZES, size)
    bench = FourierSeries(n, kernel=kernel)
    _, elapsed = timed(bench.run)
    return BenchmarkResult("Series", "sequential", size, bench.checksum(), elapsed)


def run_threaded(size: "str | int" = "small", num_threads: int = 4) -> BenchmarkResult:
    """JGF-MT style: explicit threads, manual block partition of the loop."""
    n = resolve_size(SIZES, size)
    kernel = FourierSeries(n)

    def worker(thread_id: int, total_threads: int, barrier) -> None:
        start, end = block_range(0, n, 1, thread_id, total_threads)
        kernel.compute_coefficients(start, end, 1)
        barrier.wait()

    _, elapsed = timed(lambda: spawn_jgf_threads(worker, num_threads))
    return BenchmarkResult("Series", "threaded", size, kernel.checksum(), elapsed, num_threads=num_threads)


def build_aspects(
    num_threads: int, recorder: TraceRecorder | None = None, backend: "Backend | str | None" = None
) -> list:
    """The aspect modules composing the Series parallelisation (Table 2 row)."""
    return [
        ForStatic(call("FourierSeries.compute_coefficients")),
        ParallelRegion(call("FourierSeries.run"), threads=num_threads, recorder=recorder, backend=backend),
    ]


def run_aomp(
    size: "str | int" = "small",
    num_threads: int = 4,
    recorder: TraceRecorder | None = None,
    backend: "Backend | str | None" = None,
) -> BenchmarkResult:
    """AOmp style: weave the aspects onto the unchanged sequential kernel."""
    n = resolve_size(SIZES, size)
    backend_obj = resolve_backend(backend) if backend is not None else None
    # Shared memory whenever members do not share a Python heap — true for
    # process *and* distributed teams, so key off the capability flag
    # rather than is_process_based.
    shared = bool(backend_obj is not None and not backend_obj.supports_shared_locals)
    kernel = FourierSeries(n, shared=shared)
    try:
        weaver = Weaver()
        weaver.weave_all(build_aspects(num_threads, recorder, backend_obj), FourierSeries)
        try:
            _, elapsed = timed(kernel.run)
        finally:
            weaver.unweave_all()
        return BenchmarkResult(
            "Series", "aomp", size, kernel.checksum(), elapsed, num_threads=num_threads, recorder=recorder
        )
    finally:
        kernel.release_shared()


def run_backend(
    size: "str | int" = "small",
    num_threads: int = 4,
    backend: "Backend | str" = "threads",
    *,
    kernel: str = "python",
    on_failure: "str | None" = None,
) -> BenchmarkResult:
    """Runtime-API port: execute :meth:`FourierSeries.run_spmd` on ``backend``.

    ``kernel="vector"`` selects the numpy chunk body (GIL-releasing inner
    integration); results agree with the pure-Python body to ~1e-12 relative.
    ``on_failure`` forwards the recovery policy (the SPMD body recomputes its
    coefficient rows from scratch, so replaying the region is safe).
    """
    n = resolve_size(SIZES, size)
    backend_obj = resolve_backend(backend)
    bench = FourierSeries(n, shared=not backend_obj.supports_shared_locals, kernel=kernel)
    try:
        _, elapsed = timed(
            lambda: parallel_region(
                bench.run_spmd,
                num_threads=num_threads,
                backend=backend_obj,
                name="Series.spmd",
                on_failure=on_failure,
                retry_safe=True,
            )
        )
        return BenchmarkResult(
            "Series",
            f"backend:{backend_obj.name}",
            size,
            bench.checksum(),
            elapsed,
            num_threads=num_threads,
            details={"backend": backend_obj.name, "kernel": kernel},
        )
    finally:
        bench.release_shared()
