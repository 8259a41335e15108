"""Tier-1 smoke test: the task benchmark runs end-to-end and its JSON is schema-valid."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _validate_payload(payload: dict) -> None:
    assert payload["schema_version"] == 1
    assert payload["generated_by"] == "benchmarks/bench_tasks.py"
    assert payload["mode"] in ("smoke", "quick", "full")
    assert payload["tracing"] is False
    metrics = payload["metrics"]

    spawn = metrics["task_spawn"]
    assert spawn["tasks"] >= 1
    assert spawn["overhead_seconds_per_task"] >= 0.0

    loop = metrics["taskloop_dispatch"]
    # grainsize=1: exactly one task per iteration — the headline metric.
    assert loop["tasks"] == loop["iterations"]
    assert loop["overhead_seconds_per_task"] >= 0.0

    claims = metrics["steal_claim"]
    assert claims["seconds_per_local_claim"] > 0.0
    assert claims["seconds_per_steal"] > 0.0


def test_benchmark_runs_and_emits_schema_valid_json(tmp_path):
    output = tmp_path / "BENCH_tasks.json"
    result = subprocess.run(
        [sys.executable, "benchmarks/bench_tasks.py", "--mode", "smoke", "--json", "--output", str(output)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert result.returncode == 0, f"benchmark failed:\n{result.stderr}"
    _validate_payload(json.loads(result.stdout))
    _validate_payload(json.loads(output.read_text()))


#: every row scripts/check_bench.py gates against BENCH_overhead.json.
GATED_ROWS = {
    "woven_call",
    "chunk_dispatch.static_block",
    "chunk_dispatch.static_cyclic",
    "chunk_dispatch.dynamic",
    "chunk_dispatch.guided",
    "barrier",
    "critical",
    "region_spawn",
    "pooled_region",
}


def test_check_bench_gate_passes_against_committed_reference():
    """The smoke gate runs end to end against the committed BENCH_overhead.json.

    Tier-1 checks that the gate *works*: it ran, printed a verdict for every
    gated row and exited 0 or 1 without crashing.  Whether live smoke timings
    pass is not a tier-1 verdict — one cold ``static_block`` sample on a busy
    host flips it — and stays where it already runs, the CI ``benchmarks``
    job's ``check_bench.py --mode smoke`` step.  The gate's arithmetic is
    covered on fabricated measurements in ``test_check_bench.py``.
    """
    result = subprocess.run(
        [sys.executable, "scripts/check_bench.py", "--mode", "smoke", "--runs", "2"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    report = f"{result.stdout}\n{result.stderr}"
    assert result.returncode in (0, 1) and "Traceback" not in result.stderr, f"gate crashed:\n{report}"
    verdicts = dict(re.findall(r"^(\S+) +[\d.]+us +[\d.]+us  (ok|REGRESSED)$", result.stdout, re.MULTILINE))
    assert set(verdicts) == GATED_ROWS, f"gate did not print every row:\n{report}"
    if result.returncode == 0:
        assert "no construct regressed" in result.stdout
    else:
        assert "FAIL" in result.stdout, f"exit 1 without a verdict:\n{report}"
