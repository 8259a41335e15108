"""Compare two sets: ``python3 bench/compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B / A (base A), the metric's bound, and a verdict:

``better``      B is better than A by more than the bound
``same``        the medians differ by no more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the run-to-run spread of either side exceeds the bound, so
                the difference cannot be told from noise (unless every run of
                B reads better than every run of A)

A set file may hold several runs of a workload (``bench/run.py`` appends one
per ``--trace 0`` child); the median and quartiles are taken across those
runs.  With a single run per side the spread is the within-run spread of the
metric's own samples.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench.harness import quartiles
from bench.metrics import END_TO_END


def _side(document: "dict[str, Any]", workload: str, name: str) -> "dict[str, Any] | None":
    """Median, quartiles and the single values of one metric on one side."""
    entries = [
        run["end_to_end"][name]
        for run in document["runs"]
        if run["workload"] == workload and not run["trace"] and name in run["end_to_end"]
    ] or [
        run["end_to_end"][name]
        for run in document["runs"]
        if run["workload"] == workload and name in run["end_to_end"]
    ]
    if not entries:
        return None
    values = [entry["value"] for entry in entries]
    if len(values) > 1:
        q1, median, q3 = quartiles(values)
    else:
        median = values[0]
        q1, q3 = entries[0].get("q1", median), entries[0].get("q3", median)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(a: "dict[str, Any]", b: "dict[str, Any]") -> "list[dict[str, Any]]":
    workloads = list(dict.fromkeys(run["workload"] for run in a["runs"]))
    rows = []
    for workload in workloads:
        for name, unit, better, bound in END_TO_END:
            left, right = _side(a, workload, name), _side(b, workload, name)
            if left is None or right is None:
                continue
            ratio = right["median"] / left["median"] if left["median"] else float("inf")
            # > 0: B is better, as a share of A
            gain = (ratio - 1.0) if better == "higher" else (1.0 - ratio)
            spread = max(
                (side["q3"] - side["q1"]) / abs(side["median"]) if side["median"] else 0.0 for side in (left, right)
            )
            if better == "higher":
                separated = min(right["values"]) > max(left["values"])
            else:
                separated = max(right["values"]) < min(left["values"])
            if abs(gain) <= bound:
                verdict = "same"
            elif spread > bound and not (gain > 0 and separated):
                verdict = "unresolved"
            else:
                verdict = "better" if gain > 0 else "worse"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": unit,
                    "better": better,
                    "a": left,
                    "b": right,
                    "ratio_b_over_a": ratio,
                    "bound": bound,
                    "spread": spread,
                    "verdict": verdict,
                }
            )
    return rows


def format_rows(rows: "list[dict[str, Any]]") -> str:
    lines = [
        f"{'workload':<17} {'metric':<20} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32} "
        f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict"
    ]
    for row in rows:
        a, b = row["a"], row["b"]
        lines.append(
            f"{row['workload']:<17} {row['metric']:<20} "
            f"{a['median']:>10.4g} [{a['q1']:>8.4g}, {a['q3']:>8.4g}] "
            f"{b['median']:>10.4g} [{b['q1']:>8.4g}, {b['q3']:>8.4g}] "
            f"{row['ratio_b_over_a']:>7.3f} {row['bound']:>6.2f} {row['spread']:>7.3f}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in args:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    print(f"A = {args[0]}   B = {args[1]}   (ratio base: A)")
    print(format_rows(rows))
    return 0 if all(row["verdict"] != "worse" for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
