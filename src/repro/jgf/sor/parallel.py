"""SOR benchmark drivers: sequential, JGF-MT threaded, and AOmp versions."""

from __future__ import annotations

from repro.core import ForStatic, ForWorkSharing, ParallelRegion, Weaver, call
from repro.jgf.common import BenchmarkInfo, BenchmarkResult, block_range, resolve_size, spawn_jgf_threads, timed
from repro.jgf.sor.kernel import SORBenchmark
from repro.runtime.backend import Backend, resolve_backend
from repro.runtime.team import parallel_region
from repro.runtime.trace import TraceRecorder

#: Problem sizes (grid edge length).  JGF size A is 1000x1000, 100 iterations.
SIZES = {"tiny": 16, "small": 64, "a": 256}
ITERATIONS = {"tiny": 4, "small": 10, "a": 50}

INFO = BenchmarkInfo(
    name="SOR",
    refactorings=("M2FOR", "M2M"),
    abstractions=("PR", "FOR(block)", "BR"),
    description="Red/black successive over-relaxation; barrier between half-sweeps.",
)


def _iterations_for(size: "str | int") -> int:
    return ITERATIONS.get(size, 10) if isinstance(size, str) else 10


def run_sequential(size: "str | int" = "small", *, kernel: str = "python") -> BenchmarkResult:
    """Run the plain sequential base program."""
    n = resolve_size(SIZES, size)
    bench = SORBenchmark(n, iterations=_iterations_for(size), kernel=kernel)
    value, elapsed = timed(bench.run)
    return BenchmarkResult("SOR", "sequential", size, value, elapsed)


def run_threaded(size: "str | int" = "small", num_threads: int = 4) -> BenchmarkResult:
    """JGF-MT style: each thread relaxes a block of rows; barrier per half-sweep."""
    n = resolve_size(SIZES, size)
    iterations = _iterations_for(size)
    kernel = SORBenchmark(n, iterations=iterations)

    def worker(thread_id: int, total_threads: int, barrier) -> None:
        for _ in range(iterations):
            for colour_start in (1, 2):
                start, end = block_range(colour_start, kernel.n - 1, 2, thread_id, total_threads)
                kernel.relax_rows(start, end, 2)
                barrier.wait()

    _, elapsed = timed(lambda: spawn_jgf_threads(worker, num_threads))
    return BenchmarkResult("SOR", "threaded", size, kernel.total(), elapsed, num_threads=num_threads)


def build_aspects(
    num_threads: int,
    recorder: TraceRecorder | None = None,
    backend: "Backend | str | None" = None,
    schedule: str | None = None,
) -> list:
    """The aspect modules composing the SOR parallelisation (Table 2 row).

    The implicit end-of-loop barrier of the for aspect provides the
    half-sweep synchronisation the JGF version codes by hand (Table 2's BR).
    ``schedule`` overrides the Table 2 static-block choice — ``"auto"``
    hands the decision to the adaptive tuner (:mod:`repro.tune`).
    """
    if schedule is None:
        for_aspect = ForStatic(call("SORBenchmark.relax_rows"))
    else:
        for_aspect = ForWorkSharing(call("SORBenchmark.relax_rows"), schedule=schedule)
    return [
        for_aspect,
        ParallelRegion(call("SORBenchmark.run"), threads=num_threads, recorder=recorder, backend=backend),
    ]


def run_aomp(
    size: "str | int" = "small",
    num_threads: int = 4,
    recorder: TraceRecorder | None = None,
    backend: "Backend | str | None" = None,
    schedule: str | None = None,
) -> BenchmarkResult:
    """AOmp style: weave the aspects onto the unchanged sequential kernel."""
    n = resolve_size(SIZES, size)
    backend_obj = resolve_backend(backend) if backend is not None else None
    # Shared memory whenever members do not share a Python heap (process and
    # distributed teams alike).
    shared = bool(backend_obj is not None and not backend_obj.supports_shared_locals)
    kernel = SORBenchmark(n, iterations=_iterations_for(size), shared=shared)
    try:
        weaver = Weaver()
        weaver.weave_all(build_aspects(num_threads, recorder, backend_obj, schedule), SORBenchmark)
        try:
            value, elapsed = timed(kernel.run)
        finally:
            weaver.unweave_all()
        return BenchmarkResult("SOR", "aomp", size, value, elapsed, num_threads=num_threads, recorder=recorder)
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
    """Runtime-API port: execute :meth:`SORBenchmark.run_spmd` on ``backend``.

    ``kernel="vector"`` relaxes whole row blocks per chunk in one numpy
    expression (bit-identical results, GIL released inside the update).
    ``on_failure`` forwards the recovery policy; the relaxation mutates the
    grid in place across sweeps, so the body is not marked ``retry_safe`` —
    a replay request is refused rather than over-relaxing the grid.
    """
    n = resolve_size(SIZES, size)
    backend_obj = resolve_backend(backend)
    bench = SORBenchmark(
        n, iterations=_iterations_for(size), shared=not backend_obj.supports_shared_locals, kernel=kernel
    )
    try:
        value, elapsed = timed(
            lambda: parallel_region(
                bench.run_spmd,
                num_threads=num_threads,
                backend=backend_obj,
                name="SOR.spmd",
                on_failure=on_failure,
            )
        )
        return BenchmarkResult(
            "SOR",
            f"backend:{backend_obj.name}",
            size,
            bench.total(),
            elapsed,
            num_threads=num_threads,
            details={"backend": backend_obj.name, "kernel": kernel},
        )
    finally:
        bench.release_shared()
