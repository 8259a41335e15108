"""One command for the whole benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in this process; the last line of stdout is the JSON
        object BENCHMARK.json describes (end-to-end metrics with --trace 0,
        per-layer metrics with --trace 1)
    python3 bench/run.py [--workload NAME ...] [--seed N] [--traced] [--sets K] [--smoke] [--out FILE]
        a set: every selected workload (default all six), each in a fresh
        child process; --traced adds the --trace 1 run of each, --sets 2
        takes two sets and compares them, --smoke is a <20 s plumbing check

See bench/README.md for what each number means and how they interact.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # setup_s counts the imports below too

import argparse  # noqa: E402
import concurrent.futures  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

#: fresh processes whose set-up is timed per --trace 0 run (this one included)
SETUP_SAMPLES = 3
#: measured rounds after which peak_rss_mb is read
RSS_ROUNDS = 3


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> "dict[str, Any]":
    """Set up, measure, tear down and leak-check one workload; returns its record."""
    from repro.runtime.config import config_override

    from bench import harness, metrics, probes
    from bench.workloads import WORKLOADS

    import aomp

    tally, tracer = harness.Tally(), harness.Tracer(name)
    segments_before = harness.shm_segments()
    workload = WORKLOADS[name](seed, tracer, tally, smoke=smoke)
    with config_override(tracing=False, metrics=False):
        workload.setup()
        setup_wall = time.perf_counter() - PROCESS_START
        setup_samples = [harness.at_reference_speed(setup_wall)]
        workload.phases.clear()  # the warm-up sweep is part of set-up, not a sample

        layer: "dict[str, dict[str, Any]]" = {}
        sides = {"baseline": workload.baseline, "system": workload.system}
        if trace:
            aomp.reset()

            def traced_sweep() -> float:
                tracer.enabled, tracer.sweep = True, tracer.sweep + 1
                try:
                    with config_override(metrics=True):
                        return workload.system("traced")
                finally:
                    tracer.enabled = False

            sides["traced"] = traced_sweep
            sides.update(workload.extra_sides())

        # Memory is read after a fixed amount of work (set-up and RSS_ROUNDS
        # rounds), not at the end of a timed run: a faster program fits more
        # rounds into the run and must not read as a bigger one for it.
        rss_rounds = 1 if smoke else RSS_ROUNDS
        rss: "list[float]" = []

        def after_round(done: int) -> None:
            if done == rss_rounds:
                rss.append(harness.peak_rss_mb())

        samples = harness.interleave(sides, seconds, min_rounds=rss_rounds, after_round=after_round)
        rounds = len(samples["system"])
        speedup = workload.speedup(samples)
        if trace:
            growth = (harness.peak_rss_mb() - rss[0]) * 1024.0 / max(1, rounds - rss_rounds)
            layer["mem.growth_kb_per_round"] = harness.metric(growth, "kB")
            counters = aomp.stats()
            layer.update(workload.observe(seconds, samples))
        leaked = workload.teardown()
        if trace:
            # The layer probes run once the workload is gone, so no pool,
            # service thread or tuner of its is around to disturb them.
            tracer.enabled = True
            layer.update(probes.run_all(tracer, smoke=smoke))
            tracer.enabled = False
            layer.update(_observations(workload, samples, speedup, counters, layer))
    harness.leak_check(tally, segments_before, leaked)
    if not trace and not smoke:
        setup_samples += [_setup_in_fresh_process(name, seed) for _ in range(SETUP_SAMPLES - 1)]

    end_to_end = {
        "setup_s": harness.median_metric(setup_samples, "s"),
        "speedup_vs_baseline": speedup,
        "peak_rss_mb": harness.metric(rss[0], "MB"),
    }
    flags = []
    if trace:
        layer["setup_wall_s"] = harness.metric(setup_wall, "s")
        layer["failed_share"] = harness.metric(tally.failed_share, "fraction")
        late = layer.get("service.generator_late_ms_p95", {}).get("value", 0.0)
        if late > 5.0:
            flags.append(f"load generator ran {late:.1f} ms late at p95 (> 5 ms)")
        unknown = set(layer) - {row[0] for row in metrics.PER_LAYER}
        assert not unknown, f"per-layer metrics missing from bench/metrics.py: {sorted(unknown)}"
        # In the table's order; 0 = this workload bypasses the layer.
        layer = {row[0]: layer.get(row[0], harness.metric(0.0, row[1])) for row in metrics.PER_LAYER}
        tracer.write(os.path.join(OUT_DIR, f"trace-{name}.json"))
    return {
        "workload": name,
        "baseline": workload.baseline_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "flags": flags,
        "rounds": rounds,
        "end_to_end": end_to_end,
        "per_layer": layer,
    }


def _setup_in_fresh_process(name: str, seed: int) -> float:
    """Set-up time of the same workload in another fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _setup_only(name: str, seed: int) -> int:
    from repro.runtime.config import config_override

    from bench import harness
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, harness.Tracer(name), harness.Tally())
    with config_override(tracing=False, metrics=False):
        workload.setup()
        seconds = harness.at_reference_speed(time.perf_counter() - PROCESS_START)
        workload.teardown()
    print(json.dumps({"setup_s": seconds}))
    return 0


def _observations(
    workload: Any,
    samples: "dict[str, list[float]]",
    speedup: "dict[str, Any]",
    counters: "dict[str, Any]",
    layer: "dict[str, dict[str, Any]]",
) -> "dict[str, dict[str, Any]]":
    """What the traced sweeps counted, and the layer report built from it."""
    from bench import harness, metrics
    from bench.harness import TEAM, metric

    untraced = workload.solve_samples(samples, "system")
    traced = workload.solve_samples(samples, "traced")
    solve = statistics.median(untraced)
    sweeps = max(1, len(samples["traced"]))
    count, histogram = counters["counters"], counters["histograms"]
    # explicit tasks complete as tasks; taskloop tiles are counted as chunks of schedule "other"
    tasks_done = count["aomp_tasks_total"]["completed"] + count["aomp_chunks_total"]["other"]
    out = {
        "solve_s": harness.median_metric(untraced, "s"),
        "obs.traced_over_untraced": metric(statistics.median(traced) / solve, "ratio"),
        "team.regions": metric(count["aomp_regions_total"]["entered"] / sweeps, "count"),
        "dataplane.rpc_calls": metric(count["aomp_rpc_calls_total"] / sweeps, "count"),
        "dataplane.rpc_bytes": metric(sum(count["aomp_rpc_bytes_total"].values()) / sweeps, "count"),
        "tasks.count": metric(tasks_done / sweeps, "count"),
        "tasks.steal_share": metric(count["aomp_tasks_total"]["stolen"] / max(1, tasks_done), "fraction"),
        "tune.decisions": metric(count["aomp_tune_decisions_total"] / sweeps, "count"),
    }
    chunks = count["aomp_chunks_total"]
    for schedule in ("static_block", "static_cyclic", "dynamic", "guided"):
        out[f"worksharing.chunks.{schedule}"] = metric(chunks[schedule] / sweeps, "count")
    loop_rows = {row[0] for row in metrics.PER_LAYER if row[0].startswith("worksharing.loop_ms.")}
    for side in ("extra", "system"):
        for phase, walls in workload.phases.get(side, {}).items():
            if f"worksharing.loop_ms.{phase}" in loop_rows:
                out[f"worksharing.loop_ms.{phase}"] = harness.median_metric(walls, "ms", 1e3)
    barrier_wait = histogram["aomp_barrier_wait_seconds"]["sum"]
    traced_wall = sum(traced) if workload.sweep_is_solve else sum(samples["traced"])
    out["barrier.wait_share"] = metric(barrier_wait / (TEAM * traced_wall) if traced_wall else 0.0, "fraction")
    vs_serial = speedup if workload.serial_baseline else layer.get("speedup_vs_serial")
    if vs_serial is not None:
        out["speedup_vs_serial"] = vs_serial
        if workload.sweep_is_solve:
            out["jgf.parallel_efficiency"] = metric(vs_serial["value"] / TEAM, "fraction")

    if workload.sweep_is_solve:  # the layer report of a compute workload
        region_us = {
            "threads": layer["team.region_us.threads"]["value"],
            "processes": layer["team.region_us.processes_pool"]["value"],
            "distributed": layer["team.region_us.distributed"]["value"],
        }
        spawn = sum(
            workload.phase_regions.get(phase, 0) * region_us[phase.split(".")[0]] * 1e-6
            for phase in workload.phases.get("system", {})
        )
        dispatch = sum(
            chunks[schedule] / sweeps * layer[f"worksharing.chunk_us.{schedule}"]["value"] * 1e-6
            for schedule in ("static_block", "static_cyclic", "dynamic", "guided")
        ) / TEAM
        shares = {
            "share.spawn": spawn / solve,
            "share.dispatch": dispatch / solve,
            "share.barrier_wait": barrier_wait / sweeps / TEAM / solve,
            "share.body": workload.body_seconds(layer) / solve,
        }
        shares["share.unattributed"] = 1.0 - sum(shares.values())
        out.update({name: metric(value, "fraction") for name, value in shares.items()})
    return out


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _format(name: str, entry: "dict[str, Any]") -> str:
    line = f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}"
    if "n" in entry:
        line += f"   (n={entry['n']}, q1={entry['q1']:.4g}, q3={entry['q3']:.4g}, p{entry['tail_pct']:g}={entry['tail']:.4g})"
    return line


def print_record(record: "dict[str, Any]") -> None:
    print(
        f"{record['workload']}  seed={record['seed']}  trace={record['trace']}  rounds={record['rounds']}  "
        f"attempted={record['attempted']}  failed={record['failed']}"
    )
    print(f"  (speedup_vs_baseline is relative to: {record['baseline']})")
    for name, entry in record["end_to_end"].items():
        print(_format(name, entry))
    for name, entry in record["per_layer"].items():
        print(_format(name, entry))
    for note in record["notes"]:
        print(f"  FAILED: {note}")
    for flag in record["flags"]:
        print(f"  FLAG: {flag}")


def contract_line(record: "dict[str, Any]") -> str:
    """The last line of stdout, exactly as BENCHMARK.json's contract words it."""
    chosen = record["per_layer"] if record["trace"] else record["end_to_end"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": entry["value"], "unit": entry["unit"]} for name, entry in chosen.items()},
        }
    )


# ---------------------------------------------------------------------------
# a set: every workload in its own fresh child
# ---------------------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> "dict[str, Any]":
    """Run one workload in a fresh interpreter; returns its record."""
    record_path = os.path.join(OUT_DIR, f".record-{name}-{trace}-{os.getpid()}.json")
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", record_path,
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    try:
        with open(record_path, encoding="utf-8") as handle:
            return json.load(handle)["runs"][0]
    except (OSError, ValueError, LookupError, TypeError):
        raise RuntimeError(f"{name} (trace {trace}) exited {done.returncode} without a record:\n{done.stderr[-2000:]}")
    finally:
        if os.path.exists(record_path):
            os.remove(record_path)


def run_set(names: "list[str]", seed: int, seconds: float, traced: bool, smoke: bool) -> "dict[str, Any]":
    from bench import harness

    os.makedirs(OUT_DIR, exist_ok=True)
    env = harness.environment()
    jobs = [(name, trace) for name in names for trace in ((1,) if smoke else (0, 1) if traced else (0,))]
    # A measurement owns the machine: one child at a time.  The smoke check
    # measures nothing, so it may use both cores.
    with concurrent.futures.ThreadPoolExecutor(max_workers=2 if smoke else 1) as executor:
        runs = list(executor.map(lambda job: _child(job[0], seed, seconds, job[1], smoke), jobs))
    for record in runs:
        print_record(record)
        env["flags"] += [f"{record['workload']}: {flag}" for flag in record["flags"] if flag not in env["flags"]]
    for flag in env["flags"]:
        print(f"FLAG: {flag}")
    return {"env": env, "seed": seed, "seconds": seconds, "smoke": smoke, "runs": runs}


def write_json(path: str, document: "dict[str, Any]") -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", default=None, help="workload name (repeatable; default all six)")
    parser.add_argument("--seed", type=int, default=1, help="drives every generated input")
    parser.add_argument("--seconds", type=float, default=None, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: spans, counters and layer probes")
    parser.add_argument("--traced", action="store_true", help="a set takes the --trace 1 run of each workload too")
    parser.add_argument("--sets", type=int, default=1, help="take K sets and compare the first with each other")
    parser.add_argument("--smoke", action="store_true", help="plumbing check: every name, no measurement")
    parser.add_argument("--out", default=None, help="write the set (or the single run) to this JSON file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench/run.py: {ROOT}/src/repro is missing: there is no program to measure", file=sys.stderr)
        return 2
    from bench import metrics
    from bench.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown}; expected one of {list(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else (0.5 if args.smoke else float(metrics.RUN_SECONDS))
    if not (seconds > 0 and math.isfinite(seconds)):
        parser.error("--seconds must be a positive number")

    # Pool workers keep a descriptor per shared array per region they ever ran
    # (bench/KNOWN_FAILURES.md #2); give them the room the host allows.
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if hard == resource.RLIM_INFINITY or soft < hard:
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard if hard != resource.RLIM_INFINITY else max(soft, 65536), hard))

    if args.setup_only:
        return _setup_only(names[0], args.seed)

    single = args.workload is not None and len(names) == 1 and args.sets == 1 and not args.traced
    if single:
        record = run_workload(names[0], args.seed, seconds, bool(args.trace), args.smoke)
        if args.out:
            write_json(args.out, {"seed": args.seed, "seconds": seconds, "smoke": args.smoke, "runs": [record]})
        print_record(record)
        print(contract_line(record))
        return 0 if record["correct"] else 1

    from bench import compare

    sets = []
    for index in range(1, args.sets + 1):
        print(f"== set {index} of {args.sets} (seed {args.seed}) ==")
        document = run_set(names, args.seed, seconds, args.traced or bool(args.trace), args.smoke)
        path = args.out if (args.out and args.sets == 1) else os.path.join(OUT_DIR, f"set-{index}.json")
        write_json(path, document)
        print(f"wrote {os.path.relpath(path)}")
        sets.append((path, document))
    for path, document in sets[1:]:
        print(f"== {os.path.relpath(sets[0][0])} vs {os.path.relpath(path)} ==")
        print(compare.format_rows(compare.compare(sets[0][1], document)))
    correct = all(record["correct"] for _path, document in sets for record in document["runs"])
    if not correct:
        print("FAILED: at least one operation failed, was refused, differed from its reference or leaked")
    return 0 if correct else 1


def _main_then_stop_children() -> None:
    """``main``, and on every path out of it no process of ours is left."""
    import signal
    import traceback

    from bench import harness

    def terminated(signum: int, _frame: Any) -> None:
        raise SystemExit(128 + signum)

    harness.adopt_orphans()
    signal.signal(signal.SIGTERM, terminated)
    code = 1
    try:
        code = main()
    except SystemExit as exit_:  # argparse, or SIGTERM
        code = exit_.code if isinstance(exit_.code, int) else 0 if exit_.code is None else 1
    except BaseException:
        traceback.print_exc()
    finally:
        harness.leave(code)


if __name__ == "__main__":
    _main_then_stop_children()
