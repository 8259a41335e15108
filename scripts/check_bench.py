#!/usr/bin/env python
"""Benchmark regression gate: fresh run vs the committed BENCH_overhead.json.

Runs the per-construct overhead suite (``benchmarks/bench_overhead.py``) in a
fast mode and compares each headline metric against the committed reference,
exiting non-zero when a construct regressed.  Also runs the
adaptive-scheduling benchmark (``benchmarks/bench_tune.py``) in smoke mode as
a plumbing check (``schedule="auto"`` converges, cache round-trips; disable
with ``--skip-tune``) and the backend-comparison benchmark
(``benchmarks/bench_backends.py``) as a schema/validity check (disable with
``--skip-backends``).  Called from CI's benchmark job and from
``scripts/bench.sh``.

A metric counts as regressed only when **both** hold:

* ``fresh > reference * tolerance``   (default 2x — CI machines vary), and
* ``fresh > reference + floor``       (mode-dependent default; smoke-mode
  measurements resolve single-digit microseconds at best, so sub-microsecond
  reference values would otherwise flag pure timer noise).

This deliberately catches order-of-magnitude regressions (reintroducing a
per-event lock, un-batching scheduler claims, quadratic bookkeeping) while
staying green across hardware generations and noisy shared runners.  The
suite is run several times and the per-metric minimum is kept, which
removes most cold-start noise; finer-grained gating is available by running
``--mode quick``/``--mode full`` with a smaller ``--floor-us``.

Usage::

    PYTHONPATH=src python scripts/check_bench.py --mode smoke
    PYTHONPATH=src python scripts/check_bench.py --mode quick --tolerance 1.5
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))

import bench_backends  # noqa: E402  (path set up above)
import bench_dataplane  # noqa: E402
import bench_overhead  # noqa: E402
import bench_service  # noqa: E402
import bench_tune  # noqa: E402

#: default absolute-increase floor (seconds) per measurement mode: what one
#: best-of-N timing in that mode can actually resolve.
DEFAULT_FLOORS = {"smoke": 50e-6, "quick": 10e-6, "full": 5e-6}

#: (metric label, path into the metrics payload) for every gated number.
GATED_METRICS = [
    ("woven_call", ("woven_call", "overhead_seconds_per_call")),
    ("chunk_dispatch.static_block", ("chunk_dispatch", "static_block", "overhead_seconds_per_chunk")),
    ("chunk_dispatch.static_cyclic", ("chunk_dispatch", "static_cyclic", "overhead_seconds_per_chunk")),
    ("chunk_dispatch.dynamic", ("chunk_dispatch", "dynamic", "overhead_seconds_per_chunk")),
    ("chunk_dispatch.guided", ("chunk_dispatch", "guided", "overhead_seconds_per_chunk")),
    ("barrier", ("barrier", "seconds_per_barrier")),
    ("critical", ("critical", "seconds_per_call")),
    ("region_spawn", ("region_spawn", "seconds_per_region")),
    ("pooled_region", ("pooled_region", "seconds_per_region")),
]


#: rows whose cost is thread/process wake-ups rather than interpreter work.
HANDOFF_ROWS = frozenset({"barrier", "region_spawn", "pooled_region"})

#: one thread wake-up (seconds) on the host BENCH_overhead.json was recorded
#: on, with both CPUs awake — the state its best-of-5 full-mode rows kept.
REFERENCE_WAKEUP = 5e-6


def host_wakeup_seconds(rounds: int = 50) -> float:
    """What this host charges right now for waking a thread parked on a lock.

    Two threads hand two bare locks back and forth; a round trip is two
    wake-ups.
    """
    ping, pong = threading.Lock(), threading.Lock()
    ping.acquire()
    pong.acquire()

    def echo() -> None:
        for _ in range(rounds):
            ping.acquire()
            pong.release()

    partner = threading.Thread(target=echo, daemon=True)
    partner.start()
    start = time.perf_counter()
    for _ in range(rounds):
        ping.release()
        pong.acquire()
    elapsed = time.perf_counter() - start
    partner.join()
    return elapsed / (2 * rounds)


def _lookup(metrics: dict, path: tuple) -> float:
    node = metrics
    for key in path:
        node = node[key]
    return float(node)


def _reference_metrics(document: dict) -> dict:
    """The committed reference: the file's ``current`` section (the state the
    repo claims), falling back to ``baseline`` for minimal documents."""
    section = document.get("current") or document.get("baseline") or document
    return section["metrics"]


def run_gate(
    baseline_path: Path,
    *,
    mode: str = "smoke",
    tolerance: float = 2.0,
    floor_seconds: float | None = None,
    runs: int = 3,
) -> int:
    if floor_seconds is None:
        floor_seconds = DEFAULT_FLOORS[mode]
    document = json.loads(baseline_path.read_text())
    reference = _reference_metrics(document)

    # (metrics, how many times slower than the reference host a wake-up was
    # right after them) per fresh run.
    fresh_runs = []
    for _ in range(max(1, runs)):
        metrics = bench_overhead.run_suite(mode=mode)["metrics"]
        fresh_runs.append((metrics, max(1.0, host_wakeup_seconds() / REFERENCE_WAKEUP)))

    failures: list[str] = []
    print(f"benchmark gate: mode={mode}, tolerance={tolerance}x, floor={floor_seconds * 1e6:.0f}us, runs={runs}")
    print(
        "host wake-up vs reference: "
        + ", ".join(f"{slowdown:.1f}x" for _, slowdown in fresh_runs)
        + f" (hand-off rows are read at {REFERENCE_WAKEUP * 1e6:.0f}us/wake-up: {', '.join(sorted(HANDOFF_ROWS))})"
    )
    print(f"{'metric':<30} {'reference':>12} {'fresh':>12}  verdict")
    for label, path in GATED_METRICS:
        ref = _lookup(reference, path)
        fresh = min(
            _lookup(metrics, path) / (slowdown if label in HANDOFF_ROWS else 1.0)
            for metrics, slowdown in fresh_runs
        )
        regressed = fresh > ref * tolerance and fresh > ref + floor_seconds
        verdict = "REGRESSED" if regressed else "ok"
        print(f"{label:<30} {ref * 1e6:>10.3f}us {fresh * 1e6:>10.3f}us  {verdict}")
        if regressed:
            failures.append(label)

    if failures:
        print(f"\nFAIL: {len(failures)} construct(s) regressed past the gate: {', '.join(failures)}")
        return 1
    print("\nOK: no construct regressed past the gate")
    return 0


def run_metrics_overhead_gate(
    baseline_path: Path,
    *,
    mode: str = "smoke",
    floor_seconds: float | None = None,
    runs: int = 3,
) -> int:
    """Gate the cost of *enabled* metrics (the observability guard sites).

    Two claims are enforced:

    * metrics **off** (the default every other gate and the committed
      baseline measure) must cost nothing — that is already covered by
      :func:`run_gate`, whose fresh runs execute with metrics disabled
      against the committed reference;
    * metrics **on** may add at most the bound documented in the reference
      document's ``metrics_overhead`` section per dispatched chunk (plus the
      mode's noise floor).  The delta is measured pairwise — each fresh
      metrics-on run is compared against its own back-to-back metrics-off
      run — and the per-key minimum over ``runs`` pairs is gated, mirroring
      the best-of-N discipline of the main gate.
    """
    if floor_seconds is None:
        floor_seconds = DEFAULT_FLOORS[mode]
    document = json.loads(baseline_path.read_text())
    section = document.get("metrics_overhead")
    if not section:
        print(f"FAIL: {baseline_path} has no metrics_overhead section (bound undocumented)")
        return 1
    bound = float(section["bound_seconds_per_chunk"])

    deltas: dict[str, float] = {}
    for _ in range(max(1, runs)):
        off = bench_overhead.run_suite(mode=mode)
        on = bench_overhead.run_suite(mode=mode, metrics=True)
        for key, value in bench_overhead.metrics_overhead(off, on).items():
            deltas[key] = min(deltas.get(key, float("inf")), value)

    failures: list[str] = []
    print(
        f"metrics-overhead gate: mode={mode}, bound={bound * 1e6:.1f}us/chunk, "
        f"floor={floor_seconds * 1e6:.0f}us, runs={runs}"
    )
    print(f"{'construct':<30} {'added':>12}  verdict")
    for key in bench_overhead.METRICS_DELTA_KEYS:
        added = deltas[key]
        gated = key.startswith("chunk_dispatch.")
        regressed = gated and added > bound + floor_seconds
        verdict = "REGRESSED" if regressed else ("ok" if gated else "report-only")
        print(f"{key:<30} {added * 1e6:>10.3f}us  {verdict}")
        if regressed:
            failures.append(key)

    if failures:
        print(f"\nFAIL: enabled metrics exceed the documented bound on: {', '.join(failures)}")
        return 1
    print("\nOK: enabled metrics stay within the documented per-chunk bound")
    return 0


def run_tune_smoke() -> int:
    """Plumbing check of the adaptive-scheduling benchmark (smoke sizes).

    Verifies that ``schedule="auto"`` explores, converges and round-trips its
    cache end-to-end; performance *targets* are not gated here (smoke-mode
    loops are milliseconds and resolve nothing) — they are asserted by
    ``bench_tune.py --mode full --check-targets``.
    """
    payload = bench_tune.run_suite(mode="smoke")
    metrics = payload["metrics"]
    problems: list[str] = []
    if payload.get("schema_version") != bench_tune.SCHEMA_VERSION:
        problems.append("schema_version mismatch")
    for kind in ("uniform", "triangular", "random"):
        workload = metrics["workloads"].get(kind)
        if not workload:
            problems.append(f"missing workload {kind}")
            continue
        if not workload["auto"]["converged"]:
            problems.append(f"{kind}: auto never converged")
        if not workload["auto"]["seconds"] > 0:
            problems.append(f"{kind}: bogus auto timing")
    cache = metrics["cache"]
    if not cache["cache_file_written"]:
        problems.append("tune cache file was not written")
    if cache["warm_invocations"] > 2:
        problems.append(f"warm tuner needed {cache['warm_invocations']} invocations (> 2)")

    if problems:
        print(f"FAIL: adaptive-scheduling smoke: {'; '.join(problems)}")
        return 1
    print(
        "OK: adaptive-scheduling smoke (auto converged on all workloads, cache warm "
        f"reconvergence in {cache['warm_invocations']} invocation(s))"
    )
    return 0


def check_backends_payload(payload: dict) -> list[str]:
    """Validate a ``bench_backends.py --json`` payload against its schema.

    Returns a list of problems (empty when the payload is well-formed).
    Pure structural validation — no performance targets — so it holds on
    1-core runners and interpreters where only a subset of backends exists.
    """
    problems: list[str] = []
    if payload.get("schema_version") != bench_backends.SCHEMA_VERSION:
        problems.append(
            f"schema_version {payload.get('schema_version')!r} != {bench_backends.SCHEMA_VERSION}"
        )
    for field in ("mode", "size", "workers", "available_cores", "free_threaded_build", "gil_enabled"):
        if field not in payload:
            problems.append(f"missing field {field!r}")
    backends = payload.get("backends")
    if not isinstance(backends, dict):
        problems.append("missing backends capability table")
        backends = {}
    for name in bench_backends.BACKENDS:
        info = backends.get(name)
        if not isinstance(info, dict) or not {"available", "true_parallel", "spinup_cost_scale"} <= set(info):
            problems.append(f"backend row {name!r} missing or incomplete")
    measurements = payload.get("measurements")
    if not isinstance(measurements, list) or not measurements:
        problems.append("no measurements")
        measurements = []
    for index, row in enumerate(measurements):
        missing = {
            "kernel", "backend", "kernel_path", "workers", "seconds", "speedup_vs_serial", "value", "valid"
        } - set(row)
        if missing:
            problems.append(f"measurement[{index}] missing {sorted(missing)}")
            continue
        if row["backend"] in backends and not backends[row["backend"]].get("available", True):
            problems.append(f"measurement[{index}] reports unavailable backend {row['backend']!r}")
        if not row["valid"]:
            problems.append(f"measurement[{index}] {row['kernel']}/{row['backend']}: checksum mismatch")
    return problems


def run_backends_smoke() -> int:
    """Plumbing check of the backend-comparison benchmark (smoke sizes).

    Runs ``bench_backends`` on the tiny size with every kernel and validates
    the JSON payload shape; speedup *targets* are not gated (they depend on
    cores granted to the runner) — the honest numbers live in the report.
    """
    payload = {
        "schema_version": bench_backends.SCHEMA_VERSION,
        "mode": "smoke",
        "size": "tiny",
        "workers": 2,
        "repeat": 1,
        "available_cores": bench_backends.usable_cpus(),
        "free_threaded_build": False,
        "gil_enabled": True,
        "backends": bench_backends.backend_rows(),
        "measurements": [],
    }
    from repro.runtime.backend import free_threaded_build, gil_enabled

    payload["free_threaded_build"] = free_threaded_build()
    payload["gil_enabled"] = gil_enabled()
    for name in bench_backends.KERNELS:
        payload["measurements"].extend(
            vars(row) for row in bench_backends.run_kernel(name, "tiny", 2, 1, "python")
        )
    problems = check_backends_payload(payload)
    if problems:
        print(f"FAIL: backend-comparison smoke: {'; '.join(problems)}")
        return 1
    ran = sorted({row["backend"] for row in payload["measurements"]})
    print(f"OK: backend-comparison smoke (schema v{bench_backends.SCHEMA_VERSION}, backends: {', '.join(ran)})")
    return 0


def run_dataplane_smoke() -> int:
    """Plumbing check of the socket data-plane benchmark (smoke sizes).

    Exercises the production coordinator/worker-session wire path end to end
    and validates the payload shape plus one structural invariant: a batched
    claim's per-chunk cost must undercut a lone proxy round-trip (that
    amortisation is the design premise of distributed dynamic/guided loops;
    the ~``batch``x headroom makes the comparison robust to runner noise).
    Absolute round-trip *targets* are not gated — loopback latency varies
    wildly across runners — the honest numbers live in the benchmark output.
    """
    payload = bench_dataplane.run_suite(mode="smoke")
    metrics = payload["metrics"]
    problems: list[str] = []
    if payload.get("schema_version") != bench_dataplane.SCHEMA_VERSION:
        problems.append("schema_version mismatch")
    for op, key in (("ping", "rtt_seconds"), ("barrier", "seconds_per_barrier")):
        if not metrics.get(op, {}).get(key, 0) > 0:
            problems.append(f"bogus {op} timing")
    fetch = metrics.get("fetch_add", {})
    if not fetch.get("proxy_rtt_seconds", 0) > 0 or not fetch.get("direct_seconds", 0) > 0:
        problems.append("bogus fetch_add timings")
    batch = metrics.get("claim_batch", {})
    if not batch.get("seconds_per_chunk", float("inf")) < fetch.get("proxy_rtt_seconds", 0):
        problems.append(
            "batched claims do not amortise the round-trip "
            f"({batch.get('seconds_per_chunk')}s/chunk vs {fetch.get('proxy_rtt_seconds')}s/claim)"
        )
    arrays = metrics.get("arrays", {})
    if not arrays.get("gather_seconds_per_element", 0) > 0 or not arrays.get("publish_seconds_per_element", 0) > 0:
        problems.append("bogus array movement timings")

    if problems:
        print(f"FAIL: data-plane smoke: {'; '.join(problems)}")
        return 1
    rtt_us = metrics["ping"]["rtt_seconds"] * 1e6
    per_chunk_us = metrics["claim_batch"]["seconds_per_chunk"] * 1e6
    print(
        f"OK: data-plane smoke (schema v{bench_dataplane.SCHEMA_VERSION}, ping {rtt_us:.0f}us, "
        f"batched claim {per_chunk_us:.1f}us/chunk)"
    )
    return 0


def run_service_smoke() -> int:
    """Plumbing check of the compute-service benchmark (smoke sizes).

    Drives a real in-process service with concurrent socket clients and
    validates the payload shape plus the structural invariants: every
    submitted request completed with its reference value (the bench records
    mismatches as failures), latencies are real timings, and the drain left
    no workers behind.  Absolute throughput/latency *targets* are not gated
    — they depend on cores granted to the runner — the honest numbers live
    in the benchmark output.
    """
    payload = bench_service.run_suite(mode="smoke")
    problems: list[str] = []
    if payload.get("schema_version") != bench_service.SCHEMA_VERSION:
        problems.append("schema_version mismatch")
    expected = payload["clients"] * payload["requests_per_client"]
    for label in ("cold", "warm"):
        section = payload["metrics"][label]
        problems.extend(f"{label}: {failure}" for failure in section["failures"])
        if section["completed"] != expected:
            problems.append(f"{label}: {section['completed']}/{expected} requests completed")
        if not section["throughput_rps"] > 0:
            problems.append(f"{label}: bogus throughput")
        for kernel, row in section["kernels"].items():
            if not 0 < row["p50_seconds"] <= row["p99_seconds"]:
                problems.append(f"{label}/{kernel}: bogus latency quantiles")
    if not payload.get("drained", {}).get("drained"):
        problems.append("service did not drain cleanly")

    if problems:
        print(f"FAIL: service smoke: {'; '.join(problems)}")
        return 1
    warm = payload["metrics"]["warm"]
    print(
        f"OK: service smoke (schema v{bench_service.SCHEMA_VERSION}, "
        f"{payload['clients']} clients, warm {warm['throughput_rps']:.1f} req/s, "
        f"warm p99 {max(row['p99_seconds'] for row in warm['kernels'].values()) * 1e3:.0f}ms)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_overhead.json",
        help="committed reference document (default: BENCH_overhead.json)",
    )
    parser.add_argument(
        "--mode",
        choices=sorted(bench_overhead.MODES),
        default="smoke",
        help="measurement size of the fresh run (default: smoke)",
    )
    parser.add_argument("--tolerance", type=float, default=2.0, help="allowed slowdown factor (default: 2.0)")
    parser.add_argument(
        "--floor-us",
        type=float,
        default=None,
        help="minimum absolute increase (microseconds) before a ratio counts "
        "(default: per-mode — smoke 50, quick 10, full 5)",
    )
    parser.add_argument("--runs", type=int, default=3, help="fresh runs to take the per-metric minimum over")
    parser.add_argument(
        "--skip-tune",
        action="store_true",
        help="skip the adaptive-scheduling smoke check (bench_tune.py plumbing)",
    )
    parser.add_argument(
        "--skip-backends",
        action="store_true",
        help="skip the backend-comparison smoke check (bench_backends.py plumbing)",
    )
    parser.add_argument(
        "--skip-dataplane",
        action="store_true",
        help="skip the socket data-plane smoke check (bench_dataplane.py plumbing)",
    )
    parser.add_argument(
        "--skip-metrics",
        action="store_true",
        help="skip the metrics-overhead gate (cost of enabled observability guard sites)",
    )
    parser.add_argument(
        "--skip-service",
        action="store_true",
        help="skip the compute-service smoke check (bench_service.py plumbing)",
    )
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(f"error: reference file {args.baseline} not found", file=sys.stderr)
        return 2
    status = run_gate(
        args.baseline,
        mode=args.mode,
        tolerance=args.tolerance,
        floor_seconds=args.floor_us * 1e-6 if args.floor_us is not None else None,
        runs=args.runs,
    )
    if not args.skip_metrics:
        print()
        status = status or run_metrics_overhead_gate(
            args.baseline,
            mode=args.mode,
            floor_seconds=args.floor_us * 1e-6 if args.floor_us is not None else None,
            runs=args.runs,
        )
    if not args.skip_tune:
        print()
        status = status or run_tune_smoke()
    if not args.skip_backends:
        print()
        status = status or run_backends_smoke()
    if not args.skip_dataplane:
        print()
        status = status or run_dataplane_smoke()
    if not args.skip_service:
        print()
        status = status or run_service_smoke()
    return status


if __name__ == "__main__":
    raise SystemExit(main())
