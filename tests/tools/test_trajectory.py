"""The committed end-to-end trajectory (``BENCH_e2e.json``): its schema, its
commit order, and the rows ``scripts/trajectory.py`` builds from
``bench/run.py`` sets."""

from __future__ import annotations

import datetime
import json
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import trajectory  # noqa: E402

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
SHORT_HASH = re.compile(r"[0-9a-f]{7,40}")


def committed_rows() -> "list[dict]":
    return json.loads((REPO_ROOT / "BENCH_e2e.json").read_text(encoding="utf-8"))["rows"]


def a_set(values: "dict[str, list[float]]", *, smoke: bool = False) -> dict:
    """A ``bench/run.py --out`` set: per workload one untraced run per value of
    its ``peak_rss_mb``, and one traced run that must not count.  A smoke set's
    runs are all traced, one per value."""
    traced = [] if smoke else [(1, 1e9)]
    runs = [
        {"workload": workload, "trace": trace, "end_to_end": {"peak_rss_mb": {"value": value, "unit": "MB"}}}
        for workload, samples in values.items()
        for trace, value in [*((int(smoke), sample) for sample in samples), *traced]
    ]
    return {"env": {"nproc": 2, "python": "3.11.7"}, "seed": 1, "seconds": 12, "smoke": smoke, "runs": runs}


class TestTheCommittedFile:
    def test_every_row_has_the_schema(self):
        rows = committed_rows()
        assert len(rows) >= 3
        for row in rows:
            assert set(row) == {"commit", "parent", "date", "source", "host", "metrics"}, row
            assert row["source"] in ("measured", "backfilled", "driver")
            assert row["commit"] is None or SHORT_HASH.fullmatch(row["commit"])
            assert row["parent"] is None or SHORT_HASH.fullmatch(row["parent"])
            assert datetime.datetime.fromisoformat(row["date"]).tzinfo is not None
            assert row["metrics"] and set(row["metrics"]) <= WORKLOADS
            measured = row["source"] == "measured"
            assert isinstance(row["host"], dict) if measured else row["host"] is None
            for metrics in row["metrics"].values():
                assert metrics and set(metrics) <= END_TO_END
                for entry in metrics.values():
                    assert set(entry) == {"median", "q1", "q3", "n"}
                    assert isinstance(entry["median"], float)
                    assert entry["n"] is None or (isinstance(entry["n"], int) and entry["n"] >= 1)
                    if measured or entry["q1"] is not None or entry["q3"] is not None:
                        assert entry["q1"] <= entry["median"] <= entry["q3"]

    def test_rows_are_in_commit_order(self):
        rows = committed_rows()
        trajectory.check(rows)
        for index, row in enumerate(rows):  # no row comes before a row of its parent
            assert row["parent"] not in {later["commit"] for later in rows[index + 1 :]}

    def test_the_check_refuses_rows_out_of_order(self):
        rows = committed_rows()
        with pytest.raises(ValueError, match="dated before"):
            trajectory.check(rows[::-1])
        first, second = rows[0], {**rows[0], "commit": "fffffff"}
        with pytest.raises(ValueError, match="not adjacent"):
            trajectory.check([first, second, first])


class TestTheScript:
    @pytest.fixture
    def path(self, tmp_path, monkeypatch):
        """A copy of the committed trajectory, and every ``--commit`` names one
        commit dated after every row."""
        path = tmp_path / "e2e.json"
        path.write_text(json.dumps({"rows": committed_rows()}), encoding="utf-8")
        monkeypatch.setattr(trajectory, "TRAJECTORY", path)
        monkeypatch.setattr(trajectory, "_git_commit", lambda rev: ("abc1234", "def5678", "2100-01-01T00:00:00+00:00"))
        return path

    def test_a_row_pools_the_untraced_runs_of_every_set(self):
        summary = trajectory.summarise([a_set({"fine_regions": [3.0, 1.0]}), a_set({"fine_regions": [2.0, 4.0]})])
        assert summary == {"fine_regions": {"peak_rss_mb": {"median": 2.5, "q1": 1.25, "q3": 3.75, "n": 4}}}

    def test_a_row_is_appended_in_order(self, tmp_path, path):
        sets = tmp_path / "set.json"
        sets.write_text(json.dumps(a_set({"service_open": [95.0, 96.0, 94.0]})), encoding="utf-8")
        assert trajectory.main([str(sets)]) == 0
        *_, row = json.loads(path.read_text(encoding="utf-8"))["rows"]
        assert row["commit"] == "abc1234" and row["parent"] == "def5678" and row["source"] == "measured"
        assert row["host"] == {"nproc": 2, "python": "3.11.7"}
        assert row["metrics"] == {"service_open": {"peak_rss_mb": {"median": 95.0, "q1": 94.0, "q3": 96.0, "n": 3}}}
        later = {**row, "commit": "fffffff", "date": "2200-01-01T00:00:00+00:00"}
        path.write_text(json.dumps({"rows": [*committed_rows(), later]}), encoding="utf-8")
        with pytest.raises(SystemExit):  # dated before the last row: refused
            trajectory.main([str(sets)])

    def test_a_smoke_set_is_only_ever_a_dry_run(self, tmp_path, path, capsys):
        before = path.read_text(encoding="utf-8")
        smoke = tmp_path / "smoke.json"
        smoke.write_text(json.dumps(a_set({"jgf_coarse": [70.0, 71.0]}, smoke=True)), encoding="utf-8")
        with pytest.raises(SystemExit):
            trajectory.main([str(smoke)])
        capsys.readouterr()
        assert trajectory.main([str(smoke), "--dry-run"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["metrics"]["jgf_coarse"]["peak_rss_mb"]["n"] == 2  # no untraced run: the traced ones count
        assert path.read_text(encoding="utf-8") == before
