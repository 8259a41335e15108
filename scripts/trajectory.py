#!/usr/bin/env python
"""Append one row per measured commit to the committed end-to-end trajectory.

    python3 bench/run.py --out set-1.json          # one or more sets of one tree
    python3 scripts/trajectory.py set-1.json [set-2.json ...] [--commit REV | --uncommitted REV] [--dry-run]

A row of ``BENCH_e2e.json`` holds the commit measured, its parent and the
commit's date; the host record of the first set; and, per workload and
end-to-end metric, the median, the quartiles and the run count over every
``--trace 0`` run in the files (over the traced runs when there are none),
as ``bench/compare.py`` takes them.  ``--commit``
(default ``HEAD``) names a committed tree; ``--uncommitted REV`` a working
tree on top of ``REV``, whose row has no commit yet and today's date.
``--dry-run`` prints the row and writes nothing (nor checks the order); it
is the only use of a ``--smoke`` set, which measures nothing.

Rows are in commit order: dates never go back, and the rows of one commit
are adjacent.  Rows from sets are ``"source": "measured"``; the file also
keeps medians carried over from the change log (``"backfilled"``) and from
the paired benchmark run on each landed change (``"driver"``).
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.compare import _side  # noqa: E402  (path set up above)
from bench.metrics import END_TO_END  # noqa: E402

TRAJECTORY = ROOT / "BENCH_e2e.json"


def summarise(documents: "list[dict[str, Any]]") -> "dict[str, dict[str, dict[str, Any]]]":
    """Per workload and end-to-end metric: median, quartiles and run count,
    taken over the runs of every set the way ``bench/compare.py`` takes them."""
    pooled = {"runs": [run for document in documents for run in document["runs"]]}
    summary: "dict[str, dict[str, dict[str, Any]]]" = {}
    for workload in dict.fromkeys(run["workload"] for run in pooled["runs"]):
        for name, _unit, _better, _bound in END_TO_END:
            side = _side(pooled, workload, name)
            if side is not None:
                summary.setdefault(workload, {})[name] = {
                    "median": round(side["median"], 4), "q1": round(side["q1"], 4),
                    "q3": round(side["q3"], 4), "n": len(side["values"]),
                }
    return summary


def check(rows: "list[dict[str, Any]]") -> None:
    """Raise ``ValueError`` unless ``rows`` are in commit order (see above)."""
    finished: "set[str]" = set()
    for before, row in zip(rows, rows[1:]):
        if datetime.datetime.fromisoformat(row["date"]) < datetime.datetime.fromisoformat(before["date"]):
            raise ValueError(f"row {row['commit']} ({row['date']}) is dated before its predecessor ({before['date']})")
        if before["commit"] is not None and before["commit"] != row["commit"]:
            finished.add(before["commit"])
        if row["commit"] in finished:
            raise ValueError(f"the rows of commit {row['commit']} are not adjacent")


def _git_commit(rev: str) -> "tuple[str, str | None, str]":
    """``(short hash, short parent hash or None, ISO commit date)`` of ``rev``."""
    out = subprocess.run(
        ["git", "log", "-1", "--format=%h %cI %p", rev], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.split()
    return out[0], (out[2] if len(out) > 2 else None), out[1]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sets", nargs="+", help="bench/run.py --out files, all of one tree")
    where = parser.add_mutually_exclusive_group()
    where.add_argument("--commit", default="HEAD", help="the commit the sets measured (default: %(default)s)")
    where.add_argument("--uncommitted", metavar="REV", help="the sets measured a working tree on top of REV")
    parser.add_argument("--dry-run", action="store_true", help="print the row; write nothing")
    args = parser.parse_args(argv)

    documents = [json.loads(Path(path).read_text(encoding="utf-8")) for path in args.sets]
    if any(document.get("smoke") for document in documents) and not args.dry_run:
        parser.error("a --smoke set measures nothing: it may only be used with --dry-run")
    if args.uncommitted:
        commit, parent = None, _git_commit(args.uncommitted)[0]
        date = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    else:
        commit, parent, date = _git_commit(args.commit)
    row = {
        "commit": commit,
        "parent": parent,
        "date": date,
        "source": "measured",
        "host": documents[0].get("env"),
        "metrics": summarise(documents),
    }
    if args.dry_run:
        print(json.dumps(row, indent=1))
        return 0
    trajectory = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else {"rows": []}
    try:
        check([*trajectory["rows"], row])
    except ValueError as exc:
        parser.error(f"{TRAJECTORY.name}: {exc}")
    trajectory["rows"].append(row)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    print(f"{TRAJECTORY.name}: row {len(trajectory['rows'])} ({commit or 'uncommitted'} on {parent})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
