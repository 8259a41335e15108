"""Crypt benchmark drivers: sequential, JGF-MT threaded, and AOmp versions."""

from __future__ import annotations

from repro.core import ForStatic, ParallelRegion, Weaver, call
from repro.jgf.common import BenchmarkInfo, BenchmarkResult, block_range, resolve_size, spawn_jgf_threads, timed
from repro.jgf.crypt.kernel import CryptBenchmark
from repro.runtime.backend import Backend, resolve_backend
from repro.runtime.team import parallel_region
from repro.runtime.trace import TraceRecorder

#: Problem sizes (bytes of plaintext).  JGF size A is 3 000 000 bytes; the
#: pure-Python IDEA implementation is ~1000x slower per byte, so the default
#: sizes are scaled down accordingly (recorded in EXPERIMENTS.md).
SIZES = {"tiny": 8 * 32, "small": 8 * 512, "a": 8 * 8192}

INFO = BenchmarkInfo(
    name="Crypt",
    refactorings=("M2FOR", "M2M"),
    abstractions=("PR", "FOR(block)"),
    description="IDEA encryption/decryption over independent 8-byte blocks.",
)


def run_sequential(size: "str | int" = "small") -> BenchmarkResult:
    """Run the plain sequential base program."""
    n = resolve_size(SIZES, size)
    kernel = CryptBenchmark(n)
    _, elapsed = timed(kernel.run)
    return BenchmarkResult("Crypt", "sequential", size, kernel.checksum(), elapsed, details={"valid": kernel.validate()})


def run_threaded(size: "str | int" = "small", num_threads: int = 4) -> BenchmarkResult:
    """JGF-MT style: explicit threads, block partition over 8-byte blocks.

    A barrier separates the encryption and decryption sweeps because every
    thread's decryption may read ciphertext produced by other threads.
    """
    n = resolve_size(SIZES, size)
    kernel = CryptBenchmark(n)

    def worker(thread_id: int, total_threads: int, barrier) -> None:
        start, end = block_range(0, kernel.size, 8, thread_id, total_threads)
        kernel.encrypt_blocks(start, end, 8)
        barrier.wait()
        kernel.decrypt_blocks(start, end, 8)
        barrier.wait()

    _, elapsed = timed(lambda: spawn_jgf_threads(worker, num_threads))
    return BenchmarkResult(
        "Crypt", "threaded", size, kernel.checksum(), elapsed, num_threads=num_threads, details={"valid": kernel.validate()}
    )


def build_aspects(
    num_threads: int, recorder: TraceRecorder | None = None, backend: "Backend | str | None" = None
) -> list:
    """The aspect modules composing the Crypt parallelisation (Table 2 row)."""
    return [
        ForStatic(call("CryptBenchmark.encrypt_blocks")),
        ForStatic(call("CryptBenchmark.decrypt_blocks")),
        ParallelRegion(call("CryptBenchmark.run"), threads=num_threads, recorder=recorder, backend=backend),
    ]


def run_aomp(
    size: "str | int" = "small",
    num_threads: int = 4,
    recorder: TraceRecorder | None = None,
    backend: "Backend | str | None" = None,
) -> BenchmarkResult:
    """AOmp style: weave the aspects onto the unchanged sequential kernel.

    With a process backend the kernel's arrays are allocated in shared
    memory so worker processes mutate the data the master validates.
    """
    n = resolve_size(SIZES, size)
    backend_obj = resolve_backend(backend) if backend is not None else None
    shared = bool(backend_obj is not None and not backend_obj.supports_shared_locals)
    kernel = CryptBenchmark(n, shared=shared)
    try:
        weaver = Weaver()
        weaver.weave_all(build_aspects(num_threads, recorder, backend_obj), CryptBenchmark)
        try:
            _, elapsed = timed(kernel.run)
        finally:
            weaver.unweave_all()
        return BenchmarkResult(
            "Crypt",
            "aomp",
            size,
            kernel.checksum(),
            elapsed,
            num_threads=num_threads,
            recorder=recorder,
            details={"valid": kernel.validate(), "backend": backend_obj.name if backend_obj else None},
        )
    finally:
        kernel.release_shared()


def run_backend(
    size: "str | int" = "small",
    num_threads: int = 4,
    backend: "Backend | str" = "threads",
    *,
    on_failure: "str | None" = None,
) -> BenchmarkResult:
    """Runtime-API port: execute :meth:`CryptBenchmark.run_spmd` on ``backend``.

    This is the entry point ``bench/``'s ``jgf_coarse`` and ``socket_plane``
    workloads and the compute service run; the body is picklable (all mutable state in
    shared memory under the process backend), so the persistent worker pool
    path is exercised.  ``on_failure`` forwards the recovery policy (each
    block is encrypted/decrypted by pure assignment, so replay is safe).
    """
    n = resolve_size(SIZES, size)
    backend_obj = resolve_backend(backend)
    kernel = CryptBenchmark(n, shared=not backend_obj.supports_shared_locals)
    try:
        _, elapsed = timed(
            lambda: parallel_region(
                kernel.run_spmd,
                num_threads=num_threads,
                backend=backend_obj,
                name="Crypt.spmd",
                on_failure=on_failure,
                retry_safe=True,
            )
        )
        return BenchmarkResult(
            "Crypt",
            f"backend:{backend_obj.name}",
            size,
            kernel.checksum(),
            elapsed,
            num_threads=num_threads,
            details={"valid": kernel.validate(), "backend": backend_obj.name},
        )
    finally:
        kernel.release_shared()
