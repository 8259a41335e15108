"""Backend comparison: serial vs threads vs processes vs subinterp wall-clock.

Runs the shared-memory-ported JGF kernels (Series, Crypt, SOR, Sparse)
through ``parallel_region`` on each execution backend and reports wall-clock
times and speedups over the serial backend — the repo's *hardware-true*
numbers, as opposed to the calibrated :mod:`repro.perf` model.

Two knobs shape the comparison:

* **backend** — ``serial`` / ``threads`` / ``processes`` / ``subinterp``.
  Rows for backends that cannot run here (no fork, no usable interpreters
  module) are reported as unavailable rather than silently dropped.
* **kernel path** — ``python`` (the paper-faithful pure-Python chunk bodies)
  or ``vector`` (numpy chunk bodies that release the GIL; Series, SOR and
  Sparse only).  ``--mode full`` measures both paths.

How to read the numbers honestly:

* ``threads`` — on a regular GIL build, little to no speedup for the
  pure-Python bodies (the GIL serialises the bytecode); the *vector* bodies
  can scale because numpy releases the GIL inside the chunk.  On a
  free-threaded build (PEP 703) the python bodies scale too — the report
  prints the live GIL state rather than assuming.
* ``processes`` / ``subinterp`` — genuine multi-core execution, *bounded by
  the cores the OS grants this process*.  On a 1-core container no backend
  can beat serial no matter how many workers are configured; the detected
  core count is printed with every report.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py
    PYTHONPATH=src python benchmarks/bench_backends.py --mode full --size small --workers 4 --json

The per-kernel validation column compares each run's checksum against the
sequential kernel *on the same kernel path*; a mismatch is reported and the
exit code is non-zero.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import asdict, dataclass

from repro.jgf.common import values_match
from repro.jgf.crypt import parallel as crypt
from repro.jgf.series import parallel as series
from repro.jgf.sor import parallel as sor
from repro.jgf.sparse import parallel as sparse
from repro.runtime import shm
from repro.runtime.backend import backend_by_name, free_threaded_build, gil_enabled
from repro.runtime.config import usable_cpus

#: bumped whenever the JSON payload shape changes (scripts/check_bench.py
#: validates against this).
SCHEMA_VERSION = 2

KERNELS = {
    "series": series,
    "crypt": crypt,
    "sor": sor,
    "sparse": sparse,
}

#: kernels whose drivers accept a ``kernel="vector"`` path
VECTOR_KERNELS = frozenset({"series", "sor", "sparse"})

BACKENDS = ("serial", "threads", "processes", "subinterp")


@dataclass
class Measurement:
    kernel: str
    backend: str
    kernel_path: str
    workers: int
    seconds: float
    speedup_vs_serial: float
    value: float
    valid: bool


def _backend_available(name: str) -> bool:
    if name == "processes":
        return shm.fork_available()
    if name == "subinterp":
        from repro.runtime.subinterp import subinterpreters_available

        return subinterpreters_available()
    return True


def backend_rows() -> dict[str, dict]:
    """Availability and capability facts per backend (for the JSON payload)."""
    rows: dict[str, dict] = {}
    for name in BACKENDS:
        backend = backend_by_name(name)
        rows[name] = {
            "available": _backend_available(name),
            "true_parallel": bool(backend.true_parallel),
            "spinup_cost_scale": float(backend.spinup_cost_scale),
        }
    return rows


def run_kernel(name: str, size: str, workers: int, repeat: int, kernel_path: str) -> list[Measurement]:
    """Measure one kernel × kernel-path across all available backends.

    Best-of-``repeat`` wall clock; speedups are relative to the *serial
    backend on the same kernel path*, so a vector speedup never hides behind
    the vector-vs-python sequential gain.
    """
    module = KERNELS[name]
    path_kwargs = {"kernel": kernel_path} if name in VECTOR_KERNELS else {}
    reference = module.run_sequential(size, **path_kwargs)
    measurements: list[Measurement] = []
    serial_time: float | None = None
    for backend in BACKENDS:
        if not _backend_available(backend):
            continue
        best: float | None = None
        value = None
        valid = True
        for _ in range(repeat):
            result = module.run_backend(size, num_threads=workers, backend=backend, **path_kwargs)
            value = result.value
            valid = valid and values_match(result.value, reference.value, tolerance=1e-8)
            best = result.elapsed if best is None else min(best, result.elapsed)
        assert best is not None
        if backend == "serial":
            serial_time = best
        speedup = (serial_time / best) if serial_time else float("nan")
        measurements.append(
            Measurement(
                kernel=module.INFO.name,
                backend=backend,
                kernel_path=kernel_path if name in VECTOR_KERNELS else "python",
                workers=workers if backend != "serial" else 1,
                seconds=best,
                speedup_vs_serial=speedup,
                value=float(value),
                valid=valid,
            )
        )
    return measurements


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--size", default="small", help="problem size name (tiny|small|a)")
    parser.add_argument("--workers", type=int, default=4, help="team size for parallel backends")
    parser.add_argument("--repeat", type=int, default=3, help="repetitions per cell (best is kept)")
    parser.add_argument("--kernels", nargs="*", default=list(KERNELS), choices=list(KERNELS))
    parser.add_argument(
        "--mode",
        choices=("smoke", "full"),
        default="smoke",
        help="smoke: python kernel path only; full: python and vector paths",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    args = parser.parse_args(argv)

    cores = usable_cpus()
    paths = ("python", "vector") if args.mode == "full" else ("python",)
    rows: list[Measurement] = []
    started = time.perf_counter()
    for name in args.kernels:
        for path in paths:
            if path == "vector" and name not in VECTOR_KERNELS:
                continue
            rows.extend(run_kernel(name, args.size, args.workers, args.repeat, path))
    total = time.perf_counter() - started

    # Keep the persistent pool from outliving the report.
    backend_by_name("processes").shutdown()

    backends = backend_rows()
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": args.mode,
            "size": args.size,
            "workers": args.workers,
            "repeat": args.repeat,
            "available_cores": cores,
            "free_threaded_build": free_threaded_build(),
            "gil_enabled": gil_enabled(),
            "backends": backends,
            "measurements": [asdict(row) for row in rows],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"Backend comparison — size={args.size}, workers={args.workers}, mode={args.mode}, "
            f"best of {args.repeat}, {cores} core(s) available to this process"
        )
        print(f"free-threaded build: {free_threaded_build()}, GIL enabled: {gil_enabled()}")
        unavailable = [name for name, info in backends.items() if not info["available"]]
        if unavailable:
            print(f"unavailable backends (skipped): {', '.join(unavailable)}")
        print(
            f"{'kernel':<8} {'path':<7} {'backend':<10} {'workers':>7} "
            f"{'seconds':>10} {'speedup':>9} {'valid':>6}"
        )
        for row in rows:
            print(
                f"{row.kernel:<8} {row.kernel_path:<7} {row.backend:<10} {row.workers:>7} "
                f"{row.seconds:>10.4f} {row.speedup_vs_serial:>8.2f}x {str(row.valid):>6}"
            )
        print(f"total benchmark time: {total:.1f}s")
        if cores < 2:
            print(
                "note: only one core is available; no parallel backend can "
                "outrun serial here — run on a multi-core host for real speedups."
            )

    return 0 if all(row.valid for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
