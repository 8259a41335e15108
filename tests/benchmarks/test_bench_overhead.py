"""Tier-1 smoke test: the overhead benchmark runs end-to-end and its JSON is schema-valid."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

REQUIRED_CHUNK_FIELDS = {
    "iterations",
    "chunks",
    "seconds_total",
    "baseline_seconds_total",
    "overhead_seconds_per_chunk",
}


def _validate_run_payload(payload: dict) -> None:
    assert payload["schema_version"] == 1
    assert payload["generated_by"] == "benchmarks/bench_overhead.py"
    assert payload["mode"] in ("smoke", "quick", "full")
    assert payload["tracing"] is False
    metrics = payload["metrics"]

    woven = metrics["woven_call"]
    for field in ("baseline_seconds_per_call", "woven_seconds_per_call", "overhead_seconds_per_call"):
        assert isinstance(woven[field], float) and woven[field] >= 0.0

    dispatch = metrics["chunk_dispatch"]
    assert set(dispatch) == {"static_block", "static_cyclic", "dynamic", "guided"}
    for schedule, row in dispatch.items():
        assert REQUIRED_CHUNK_FIELDS <= set(row), f"{schedule} missing fields"
        assert row["chunks"] >= 1
        assert row["overhead_seconds_per_chunk"] >= 0.0
    # Dynamic with chunk=1 schedules one chunk per iteration — the headline
    # metric's divisor — however few body calls (claims) carried them.
    assert dispatch["dynamic"]["chunks"] == dispatch["dynamic"]["iterations"]
    for schedule in ("dynamic", "guided"):
        # Rows recorded before a claim became one call lack ``body_calls``.
        assert 1 <= dispatch[schedule].get("body_calls", 1) <= dispatch[schedule]["chunks"]

    assert metrics["barrier"]["seconds_per_barrier"] > 0.0
    assert metrics["critical"]["seconds_per_call"] > 0.0
    assert metrics["region_spawn"]["seconds_per_region"] > 0.0
    pooled = metrics.get("pooled_region")  # baselines recorded before the case existed lack it
    assert pooled is None or pooled["seconds_per_region"] > 0.0


def test_benchmark_runs_and_emits_schema_valid_json(tmp_path):
    output = tmp_path / "BENCH_overhead.json"
    result = subprocess.run(
        [sys.executable, "benchmarks/bench_overhead.py", "--smoke", "--json", "--output", str(output)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert result.returncode == 0, f"benchmark failed:\n{result.stderr}"

    fresh = json.loads(result.stdout)
    _validate_run_payload(fresh)
    assert "pooled_region" in fresh["metrics"]
    dynamic = fresh["metrics"]["chunk_dispatch"]["dynamic"]
    assert dynamic["body_calls"] < dynamic["chunks"]  # a claim is one call over several chunks

    document = json.loads(output.read_text())
    assert set(document) == {"schema_version", "baseline", "current", "speedup_vs_baseline"}
    _validate_run_payload(document["current"])
    _validate_run_payload(document["baseline"])
    ratios = document["speedup_vs_baseline"]
    assert {"woven_call_overhead", "barrier", "critical", "region_spawn", "pooled_region"} <= set(ratios)
    assert {f"chunk_dispatch.{s}" for s in ("static_block", "static_cyclic", "dynamic", "guided")} <= set(ratios)


def test_metrics_mode_measures_the_guard_site_cost():
    """``--metrics`` emits paired metrics-off/metrics-on suites plus deltas."""
    result = subprocess.run(
        [sys.executable, "benchmarks/bench_overhead.py", "--smoke", "--json", "--metrics"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert result.returncode == 0, f"benchmark failed:\n{result.stderr}"
    payload = json.loads(result.stdout)
    assert set(payload) == {"metrics_off", "metrics_on", "metrics_added_seconds"}
    _validate_run_payload(payload["metrics_off"])
    _validate_run_payload(payload["metrics_on"])
    assert payload["metrics_off"]["metrics_enabled"] is False
    assert payload["metrics_on"]["metrics_enabled"] is True
    added = payload["metrics_added_seconds"]
    expected_keys = {f"chunk_dispatch.{s}" for s in ("static_block", "static_cyclic", "dynamic", "guided")}
    expected_keys |= {"barrier", "region_spawn"}
    assert set(added) == expected_keys
    assert all(isinstance(v, float) and v >= 0.0 for v in added.values())


def test_committed_document_carries_the_metrics_overhead_bound():
    """check_bench.py gates metrics-on cost against this documented bound."""
    document = json.loads((REPO_ROOT / "BENCH_overhead.json").read_text())
    section = document["metrics_overhead"]
    bound = section["bound_seconds_per_chunk"]
    assert isinstance(bound, float) and 0.0 < bound <= 1e-5
    measured = section["measured_seconds_added"]
    for key in ("static_block", "static_cyclic", "dynamic", "guided"):
        assert measured[f"chunk_dispatch.{key}"] <= bound


def test_committed_baseline_document_is_schema_valid():
    """The committed BENCH_overhead.json must stay loadable and well-formed.

    The ratios divide a preserved ``baseline`` section by a refreshable
    ``current`` section, which may have been measured on different hardware —
    so this test checks structure and sanity (finite, positive, not a trivial
    self-comparison), not a specific speedup.  The >= 3x dynamic-dispatch
    reduction this file originally recorded is documented in README.md.
    """
    committed = REPO_ROOT / "BENCH_overhead.json"
    assert committed.exists(), "BENCH_overhead.json missing from repo root"
    document = json.loads(committed.read_text())
    _validate_run_payload(document["baseline"])
    _validate_run_payload(document["current"])
    # check_bench.py gates the pooled-region floor against this row.
    assert "pooled_region" in document["current"]["metrics"]
    ratios = document["speedup_vs_baseline"]
    assert ratios, "speedup_vs_baseline section empty"
    for name, ratio in ratios.items():
        assert ratio > 0.0 and ratio != float("inf"), f"ratio {name} not sane: {ratio}"
    # Baseline must be a real measurement, not a copy of current.
    assert document["baseline"]["metrics"] != document["current"]["metrics"]
