"""The overhead gate's verdict logic, on fabricated measurements.

The hand-off rows (barrier, region spawn, pooled region) are read at the
reference host's wake-up speed; every other row, and a host at least as
fast as the reference, is gated on the raw number.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
REFERENCE = REPO_ROOT / "BENCH_overhead.json"


@pytest.fixture(scope="module")
def check_bench():
    spec = importlib.util.spec_from_file_location("check_bench", REPO_ROOT / "scripts" / "check_bench.py")
    module = importlib.util.module_from_spec(spec)
    saved_path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
    return module


def _gate(check_bench, monkeypatch, *, wakeup: float, scale: "dict[str, float]") -> int:
    """Run the gate on the committed reference's own numbers, some rows scaled."""
    metrics = copy.deepcopy(json.loads(REFERENCE.read_text())["current"]["metrics"])
    for label, path in check_bench.GATED_METRICS:
        node = metrics
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] *= scale.get(label, 1.0)
    monkeypatch.setattr(check_bench.bench_overhead, "run_suite", lambda mode: {"metrics": metrics})
    monkeypatch.setattr(check_bench, "host_wakeup_seconds", lambda: wakeup)
    # floor 0: the ratio rule alone decides, whatever the row's magnitude.
    return check_bench.run_gate(REFERENCE, mode="smoke", floor_seconds=0.0, runs=2)


def test_reference_numbers_pass(check_bench, monkeypatch):
    assert _gate(check_bench, monkeypatch, wakeup=check_bench.REFERENCE_WAKEUP, scale={}) == 0


def test_a_slow_handoff_on_a_reference_speed_host_regresses(check_bench, monkeypatch, capsys):
    wakeup = check_bench.REFERENCE_WAKEUP
    assert _gate(check_bench, monkeypatch, wakeup=wakeup, scale={"region_spawn": 3.0}) == 1
    assert "region_spawn" in capsys.readouterr().out.split("FAIL")[-1]


def test_slow_wakeups_excuse_handoff_rows_only(check_bench, monkeypatch, capsys):
    slow = 5 * check_bench.REFERENCE_WAKEUP
    handoffs = {"barrier": 4.0, "region_spawn": 4.0, "pooled_region": 4.0}
    assert _gate(check_bench, monkeypatch, wakeup=slow, scale=handoffs) == 0
    # ...but not more than the host is slower by,
    assert _gate(check_bench, monkeypatch, wakeup=slow, scale={"region_spawn": 12.0}) == 1
    # and a row that is interpreter work is not excused at all.
    capsys.readouterr()
    assert _gate(check_bench, monkeypatch, wakeup=slow, scale={"chunk_dispatch.dynamic": 3.0}) == 1
    assert "chunk_dispatch.dynamic" in capsys.readouterr().out.split("FAIL")[-1]


def test_a_fast_host_does_not_tighten_the_gate(check_bench, monkeypatch):
    fast = check_bench.REFERENCE_WAKEUP / 10
    assert _gate(check_bench, monkeypatch, wakeup=fast, scale={"barrier": 1.9}) == 0


def test_host_wakeup_is_a_plausible_duration(check_bench):
    assert 1e-7 < check_bench.host_wakeup_seconds(rounds=20) < 1e-2
