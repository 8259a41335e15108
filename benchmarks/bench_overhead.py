"""Per-construct runtime overhead benchmark — the repo's perf baseline.

The paper's central claim is that aspect-woven parallel constructs can match
hand-parallelised code, which makes the runtime's *dispatch overhead* the
reproduction's figure of merit.  This benchmark measures, with tracing
disabled, what each construct costs **on top of** a hand-written baseline:

* ``woven_call``       — calling a woven-but-sequential method vs a plain call;
* ``chunk_dispatch.*`` — per-chunk cost of a workshared loop under each
  schedule (``static_block``, ``static_cyclic``, ``dynamic``, ``guided``)
  vs calling the loop body directly the same number of times.  The divisor
  is *scheduling chunks* (``chunks``); a dynamic/guided claim runs its
  adjacent chunks as one body call, so ``body_calls`` is recorded beside it;
* ``barrier``          — one team barrier round (2 threads);
* ``critical``         — one uncontended named critical section;
* ``region_spawn``     — entering+leaving an empty 2-thread parallel region;
* ``pooled_region``    — the same on the warm process pool (2 members).

The chunk-dispatch harness pushes an :class:`ExecutionContext` for a 2-member
team and runs ``run_for`` with ``nowait=True`` on the calling thread only:
member 0 claims its chunks (for dynamic/guided: *every* chunk, as the other
member never runs) deterministically, free of thread-scheduling noise.

Usage::

    PYTHONPATH=src python benchmarks/bench_overhead.py                # table
    PYTHONPATH=src python benchmarks/bench_overhead.py --json        # JSON to stdout
    PYTHONPATH=src python benchmarks/bench_overhead.py --quick \
        --output BENCH_overhead.json                                 # CI mode

``--output`` writes ``{"baseline": ..., "current": ...}``: the fresh run
becomes ``current``; a ``baseline`` section already present in the output
file is preserved (that section holds the pre-optimisation numbers this PR
measured, the trajectory anchor for future PRs).  ``--rebaseline`` replaces
it with the fresh run.
"""

from __future__ import annotations

import argparse
import atexit
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.core import MethodAspect, Weaver, call
from repro.runtime import context as ctx
from repro.runtime.backend import ProcessBackend
from repro.runtime.config import config_override
from repro.runtime.critical import critical_call
from repro.runtime.scheduler import make_scheduler, oracle_chunks
from repro.runtime.team import Team, parallel_region
from repro.runtime.worksharing import run_for

SCHEMA_VERSION = 1

SCHEDULES = ("static_block", "static_cyclic", "dynamic", "guided")


def _best_of(repeats: int, fn: Callable[[], float]) -> float:
    """Run ``fn`` (returning elapsed seconds) ``repeats`` times, keep the minimum."""
    return min(fn() for _ in range(max(1, repeats)))


# ---------------------------------------------------------------------------
# woven call
# ---------------------------------------------------------------------------


class _Probe:
    def poke(self) -> int:
        return 1


def measure_woven_call(samples: int, repeats: int) -> dict[str, float]:
    """Plain method call vs the same method behind a pass-through aspect."""
    obj = _Probe()

    def plain() -> float:
        poke = obj.poke
        start = time.perf_counter()
        for _ in range(samples):
            poke()
        return time.perf_counter() - start

    baseline = _best_of(repeats, plain)

    weaver = Weaver()
    weaver.weave(MethodAspect(call("_Probe.poke")), _Probe)
    try:
        woven = _best_of(repeats, plain)
    finally:
        weaver.unweave_all()

    return {
        "samples": samples,
        "baseline_seconds_per_call": baseline / samples,
        "woven_seconds_per_call": woven / samples,
        "overhead_seconds_per_call": max(0.0, (woven - baseline) / samples),
    }


# ---------------------------------------------------------------------------
# per-chunk dispatch
# ---------------------------------------------------------------------------


class _CountingBody:
    """Loop body that only counts invocations (one per static chunk or dynamic/guided claim)."""

    __slots__ = ("calls",)

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, start: int, end: int, step: int) -> None:
        self.calls += 1


def _run_for_on_fake_team(
    schedule: str, iterations: int, chunk: int
) -> tuple[float, int]:
    """Execute ``run_for`` as member 0 of a 2-member team; return (elapsed, body calls)."""
    team = Team(2, name="bench-overhead")
    frame = ctx.ExecutionContext(team=team, thread_id=0, nesting_level=0)
    body = _CountingBody()
    ctx.push_context(frame)
    try:
        start = time.perf_counter()
        run_for(body, 0, iterations, 1, schedule=schedule, chunk=chunk, nowait=True)
        elapsed = time.perf_counter() - start
    finally:
        ctx.pop_context()
    return elapsed, body.calls


def _member_zero_chunks(schedule: str, iterations: int) -> int:
    """Member 0's scheduling chunks in a 2-member team where only it claims,
    from the scheduler's per-chunk boundary oracle."""
    return sum(1 for _ in oracle_chunks(make_scheduler(schedule, 1), 0, 2, 0, iterations, 1))


def measure_chunk_dispatch(iterations: int, repeats: int) -> dict[str, dict[str, float]]:
    """Per-chunk dispatch overhead per schedule, against direct body calls."""
    results: dict[str, dict[str, float]] = {}
    for schedule in SCHEDULES:
        best: float | None = None
        body_calls = 0
        for _ in range(max(1, repeats)):
            elapsed, body_calls = _run_for_on_fake_team(schedule, iterations, chunk=1)
            best = elapsed if best is None else min(best, elapsed)
        chunks = _member_zero_chunks(schedule, iterations)
        assert best is not None and 0 < body_calls <= chunks

        # Hand-written baseline: call the body directly the same number of times.
        body = _CountingBody()

        def bare(calls: int = body_calls, body: _CountingBody = body) -> float:
            start = time.perf_counter()
            for i in range(calls):
                body(i, i + 1, 1)
            return time.perf_counter() - start

        baseline = _best_of(repeats, bare)
        results[schedule] = {
            "iterations": iterations,
            "chunks": chunks,
            "body_calls": body_calls,
            "seconds_total": best,
            "baseline_seconds_total": baseline,
            "overhead_seconds_per_chunk": max(0.0, (best - baseline) / chunks),
        }
    return results


# ---------------------------------------------------------------------------
# barrier / critical / region spawn
# ---------------------------------------------------------------------------


def measure_barrier(rounds: int, repeats: int) -> dict[str, float]:
    """One barrier round of a 2-thread team (threads backend)."""

    def once() -> float:
        def body() -> None:
            team = ctx.current_team()
            for _ in range(rounds):
                team.barrier()

        start = time.perf_counter()
        parallel_region(body, num_threads=2, backend="threads", name="bench-barrier")
        return time.perf_counter() - start

    best = _best_of(repeats, once)
    return {"rounds": rounds, "seconds_per_barrier": best / rounds}


def measure_critical(samples: int, repeats: int) -> dict[str, float]:
    """One uncontended named critical section (lock registry + bookkeeping)."""

    def once() -> float:
        noop = lambda: None  # noqa: E731
        start = time.perf_counter()
        for _ in range(samples):
            critical_call(noop, key="bench-critical")
        return time.perf_counter() - start

    best = _best_of(repeats, once)
    return {"samples": samples, "seconds_per_call": best / samples}


def measure_region_spawn(regions: int, repeats: int) -> dict[str, float]:
    """Spawn+join of an empty 2-thread parallel region."""

    def noop() -> None:
        return None

    def once() -> float:
        start = time.perf_counter()
        for _ in range(regions):
            parallel_region(noop, num_threads=2, backend="threads", name="bench-region")
        return time.perf_counter() - start

    best = _best_of(repeats, once)
    return {"regions": regions, "seconds_per_region": best / regions}


class _PooledProbe:
    """``process_safe`` owner, so the process backend ships ``noop`` to its pool."""

    process_safe = True

    def noop(self) -> None:
        return None


_pool_backend: "ProcessBackend | None" = None


def _warm_pool() -> ProcessBackend:
    """The process pool every suite run by this process shares, forked on first use.

    ``run_suite`` calls this before its first case.  A process that has
    forked takes a copy-on-write fault on each page it next writes; forked
    between two suites, a pool would put ~45 us of them on the one cold
    sample the chunk-dispatch cases keep in smoke mode.
    """
    global _pool_backend
    if _pool_backend is None:
        _pool_backend = ProcessBackend()
        _pool_backend.prewarm(1)
        atexit.register(_pool_backend.shutdown)
    return _pool_backend


def measure_pooled_region(regions: int, repeats: int) -> dict[str, float]:
    """Hand-off+collect of an empty 2-member region on the warm process pool."""
    backend = _warm_pool()
    noop = _PooledProbe().noop

    def once() -> float:
        start = time.perf_counter()
        for _ in range(regions):
            parallel_region(noop, num_threads=2, backend=backend, name="bench-pooled")
        return time.perf_counter() - start

    once()  # first unpickle of the body in each worker: not what a warm pool costs
    best = _best_of(repeats, once)
    return {"regions": regions, "seconds_per_region": best / regions}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


#: measurement sizes per mode: (call samples, loop iterations, barrier
#: rounds, regions, repeats).  All fixed — runs are deterministic in shape.
MODES = {
    "full": (100_000, 20_000, 1_000, 200, 5),
    "quick": (20_000, 4_000, 200, 40, 2),
    "smoke": (2_000, 400, 20, 5, 1),  # schema/plumbing check only
}


def run_suite(*, mode: str = "full", metrics: bool = False) -> dict[str, Any]:
    """Run every measurement with tracing disabled; return the metrics payload.

    ``metrics=True`` runs the identical measurements with the observability
    registry enabled (``AOMP_METRICS``), so the delta against a default run
    is the per-construct cost of the counter/histogram guard sites.  The
    committed baseline document is always measured with ``metrics=False``.
    """
    call_samples, iters, rounds, regions, repeats = MODES[mode]
    _warm_pool()

    with config_override(tracing=False, metrics=metrics):
        payload_metrics = {
            "woven_call": measure_woven_call(call_samples, repeats),
            "chunk_dispatch": measure_chunk_dispatch(iters, repeats),
            "barrier": measure_barrier(rounds, repeats),
            "critical": measure_critical(call_samples // 4, repeats),
            "region_spawn": measure_region_spawn(regions, repeats),
            "pooled_region": measure_pooled_region(regions, repeats),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_overhead.py",
        "mode": mode,
        "python": platform.python_version(),
        "tracing": False,
        "metrics_enabled": metrics,
        "metrics": payload_metrics,
    }


#: the headline numbers the metrics-on/off comparison reports deltas for —
#: every construct with a counter or histogram guard site on its hot path.
METRICS_DELTA_KEYS = tuple(f"chunk_dispatch.{schedule}" for schedule in SCHEDULES) + (
    "barrier",
    "region_spawn",
)


def _headline(metrics: dict[str, Any], key: str) -> float:
    if key.startswith("chunk_dispatch."):
        return float(metrics["chunk_dispatch"][key.split(".", 1)[1]]["overhead_seconds_per_chunk"])
    if key == "barrier":
        return float(metrics["barrier"]["seconds_per_barrier"])
    return float(metrics["region_spawn"]["seconds_per_region"])


def metrics_overhead(off: dict[str, Any], on: dict[str, Any]) -> dict[str, float]:
    """Seconds each construct gains when metrics are enabled (clamped at 0)."""
    return {
        key: max(0.0, _headline(on["metrics"], key) - _headline(off["metrics"], key))
        for key in METRICS_DELTA_KEYS
    }


def _ratio(baseline: float, current: float) -> float:
    # Overheads are clamped at 0.0, so noise can produce an exact zero;
    # flooring both sides at timer resolution keeps ratios finite (JSON has
    # no standard Infinity) without distorting any measurable value.
    floor = 1e-9
    return max(baseline, floor) / max(current, floor)


def compare(baseline: dict[str, Any], current: dict[str, Any]) -> dict[str, float]:
    """Baseline/current speedup ratios for the headline per-construct numbers."""
    ratios: dict[str, float] = {}
    b, c = baseline["metrics"], current["metrics"]
    ratios["woven_call_overhead"] = _ratio(
        b["woven_call"]["overhead_seconds_per_call"], c["woven_call"]["overhead_seconds_per_call"]
    )
    for schedule in SCHEDULES:
        ratios[f"chunk_dispatch.{schedule}"] = _ratio(
            b["chunk_dispatch"][schedule]["overhead_seconds_per_chunk"],
            c["chunk_dispatch"][schedule]["overhead_seconds_per_chunk"],
        )
    ratios["barrier"] = _ratio(b["barrier"]["seconds_per_barrier"], c["barrier"]["seconds_per_barrier"])
    ratios["critical"] = _ratio(b["critical"]["seconds_per_call"], c["critical"]["seconds_per_call"])
    ratios["region_spawn"] = _ratio(
        b["region_spawn"]["seconds_per_region"], c["region_spawn"]["seconds_per_region"]
    )
    if "pooled_region" in b:  # baselines recorded before the case existed lack it
        ratios["pooled_region"] = _ratio(
            b["pooled_region"]["seconds_per_region"], c["pooled_region"]["seconds_per_region"]
        )
    return ratios


def _format_table(payload: dict[str, Any]) -> str:
    m = payload["metrics"]
    lines = [
        f"Per-construct overhead — mode={payload['mode']}, tracing off, Python {payload['python']}",
        f"{'construct':<28} {'overhead':>14}",
        f"{'woven call':<28} {m['woven_call']['overhead_seconds_per_call'] * 1e6:>11.3f} us",
    ]
    for schedule in SCHEDULES:
        row = m["chunk_dispatch"][schedule]
        lines.append(
            f"{'chunk ' + schedule:<28} {row['overhead_seconds_per_chunk'] * 1e6:>11.3f} us"
            f"   ({row['chunks']} chunks, {row['body_calls']} body calls)"
        )
    lines.append(f"{'barrier (2 threads)':<28} {m['barrier']['seconds_per_barrier'] * 1e6:>11.3f} us")
    lines.append(f"{'critical (uncontended)':<28} {m['critical']['seconds_per_call'] * 1e6:>11.3f} us")
    lines.append(f"{'region spawn (2 threads)':<28} {m['region_spawn']['seconds_per_region'] * 1e6:>11.3f} us")
    lines.append(f"{'pooled region (2 members)':<28} {m['pooled_region']['seconds_per_region'] * 1e6:>11.3f} us")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--mode",
        choices=sorted(MODES),
        default=None,
        help="measurement sizes: full (default), quick (CI), smoke (plumbing check)",
    )
    parser.add_argument("--quick", action="store_true", help="alias for --mode quick")
    parser.add_argument("--smoke", action="store_true", help="alias for --mode smoke")
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON to stdout")
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="also run the suite with the metrics registry enabled and report "
        "the per-construct cost of the guard sites (metrics-on vs metrics-off)",
    )
    parser.add_argument("--output", type=Path, default=None, help="write/update a BENCH_overhead.json file")
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="with --output: replace the stored baseline section with this run",
    )
    args = parser.parse_args(argv)

    mode = args.mode or ("smoke" if args.smoke else ("quick" if args.quick else "full"))
    current = run_suite(mode=mode)
    metrics_on = run_suite(mode=mode, metrics=True) if args.metrics else None

    if args.output is not None:
        baseline = None
        existing: dict[str, Any] = {}
        if args.output.exists():
            try:
                existing = json.loads(args.output.read_text())
            except (json.JSONDecodeError, OSError):
                existing = {}
            if not args.rebaseline:
                baseline = existing.get("baseline")
        if baseline is None:
            baseline = current
        document = {
            "schema_version": SCHEMA_VERSION,
            "baseline": baseline,
            "current": current,
            "speedup_vs_baseline": compare(baseline, current),
        }
        # The metrics-overhead section (the documented bound check_bench.py
        # gates against) survives re-measurement; a --metrics run refreshes
        # its measured deltas while keeping the bound and its rationale.
        overhead_section = existing.get("metrics_overhead")
        if metrics_on is not None:
            overhead_section = dict(overhead_section or {"bound_seconds_per_chunk": 1e-06})
            overhead_section["measured_seconds_added"] = metrics_overhead(current, metrics_on)
        if overhead_section is not None:
            document["metrics_overhead"] = overhead_section
        args.output.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {args.output}", file=sys.stderr)

    if args.json:
        if metrics_on is not None:
            print(
                json.dumps(
                    {
                        "metrics_off": current,
                        "metrics_on": metrics_on,
                        "metrics_added_seconds": metrics_overhead(current, metrics_on),
                    },
                    indent=2,
                )
            )
        else:
            print(json.dumps(current, indent=2))
    else:
        print(_format_table(current))
        if metrics_on is not None:
            added = metrics_overhead(current, metrics_on)
            print(f"\nCost of enabled metrics (AOMP_METRICS=1) — mode={mode}")
            print(f"{'construct':<28} {'added':>14}")
            for key in METRICS_DELTA_KEYS:
                print(f"{key:<28} {added[key] * 1e6:>11.3f} us")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
