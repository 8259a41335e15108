"""Self-test of the benchmark: ``python -m pytest bench/tests``.

Outside ``pytest.ini``'s ``testpaths``, so tier-1 does not collect it.  It
checks the plumbing, never a timing: ``--smoke`` emits every workload and
every metric name ``BENCHMARK.json`` lists, with a finite value and a unit;
the committed ``BENCHMARK.json`` is the table in ``bench/metrics.py``; a
fixed seed reproduces the arrival schedule and request mix; ``compare.py``
finds a file the same as itself.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import compare, metrics  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402
from bench.workloads.service_open import window_schedule  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke", "--seed", "5", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    seconds = time.perf_counter() - began
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), seconds


def test_benchmark_json_is_the_metrics_table(benchmark_json):
    assert benchmark_json == metrics.benchmark_document()


def test_benchmark_json_names_and_limits(benchmark_json):
    names = (
        [w["name"] for w in benchmark_json["workloads"]]
        + [m["name"] for m in benchmark_json["end_to_end"]]
        + [m["name"] for m in benchmark_json["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    assert list(WORKLOADS) == [w["name"] for w in benchmark_json["workloads"]]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in benchmark_json["workloads"])
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]} for m in benchmark_json["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    assert benchmark_json["paths"] == ["bench"]


def test_smoke_is_quick_and_emits_every_name(smoke_set, benchmark_json):
    document, seconds = smoke_set
    assert seconds < 20, f"--smoke took {seconds:.1f} s"
    runs = {run["workload"]: run for run in document["runs"]}
    assert list(runs) == [w["name"] for w in benchmark_json["workloads"]]
    for name, run in runs.items():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, (name, run["notes"])
        for group in ("end_to_end", "per_layer"):
            assert list(run[group]) == [m["name"] for m in benchmark_json[group]], (name, group)
            for metric_name, declared in zip(run[group], benchmark_json[group]):
                entry = run[group][metric_name]
                assert math.isfinite(entry["value"]), (name, metric_name)
                assert entry["unit"] == declared["unit"], (name, metric_name)
        assert all(run["end_to_end"][m["name"]]["value"] > 0 for m in benchmark_json["end_to_end"]), name


def test_smoke_bypass_predictions(smoke_set):
    document, _seconds = smoke_set
    for run in document["runs"]:
        rpc_calls = run["per_layer"]["dataplane.rpc_calls"]["value"]
        assert (rpc_calls > 0) == (run["workload"] == "socket_plane"), (run["workload"], rpc_calls)
        if run["workload"] == "fine_regions":
            assert run["per_layer"]["worksharing.chunks.dynamic"]["value"] == 0


def test_smoke_environment_is_recorded(smoke_set):
    env = smoke_set[0]["env"]
    for key in ("nproc", "affinity", "python", "numpy", "gil_enabled", "fork_available",
                "subinterpreters_available", "loadavg_1m_at_start", "calib_mops", "flags"):  # fmt: skip
        assert key in env


#: runs argv under a child subreaper and prints the processes that outlive it
_ORPHAN_WATCH = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
done = subprocess.run(sys.argv[1:], capture_output=True, text=True)
sys.path.insert(0, os.getcwd())
from bench import harness
print(done.stdout.strip().splitlines()[-1] if done.returncode == 0 else done.stderr[-2000:])
print(harness._children())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs PR_SET_CHILD_SUBREAPER and /proc")
def test_a_run_leaves_no_process_behind():
    # a contract run: pool workers, two --setup-only children, a resource tracker each
    run = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", "jgf_coarse"]
    done = subprocess.run(
        [sys.executable, "-c", _ORPHAN_WATCH, *run, "--seed", "2", "--seconds", "0.3", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    result, left = done.stdout.strip().splitlines()[-2:]
    assert json.loads(result)["correct"], done.stdout + done.stderr
    assert left == "[]", f"processes (or zombies) left behind: {left}"


def test_fixed_seed_reproduces_schedule_and_mix():
    first = [window_schedule(random.Random(11)) for _ in range(3)]
    again = [window_schedule(random.Random(11)) for _ in range(3)]
    other = [window_schedule(random.Random(12)) for _ in range(3)]
    assert first == again
    assert first != other
    arrivals = first[0]
    assert 20 <= len(arrivals) <= 70  # ~40 per one-second window
    assert all(0 <= a[0] < 1.0 for a in arrivals) and arrivals == sorted(arrivals)


def test_compare_finds_a_set_the_same_as_itself(smoke_set):
    document, _seconds = smoke_set
    rows = compare.compare(document, document)
    assert len(rows) == len(WORKLOADS) * len(metrics.END_TO_END)
    assert {row["verdict"] for row in rows} == {"same"}
    assert "verdict" in compare.format_rows(rows)
