#!/usr/bin/env python3
"""Reach audit: which functions under ``src/repro`` do the benchmark workloads enter?

    python scripts/reach.py                       # all six workloads, 2 s each
    python scripts/reach.py --workload fine_regions --seconds 4

Each workload runs as ``bench/run.py --workload W --seed 7 --seconds S
--trace 1`` with a generated ``sitecustomize`` first on ``PYTHONPATH``.  The
hook profiles every thread (``sys.setprofile`` / ``threading.setprofile``),
re-arms itself in forked children (``os.register_at_fork``) and is imported
by every spawned interpreter that inherits the path, so pool workers, forked
members that leave through ``os._exit`` and spawned ``distributed`` workers
all count.  Each process appends every function it enters for the first time
to a file of its own, one write per function, so nothing waits for an exit
hook.

The report is reached/total, then the unreached functions by module with
their raw line counts (decorators to last line), largest module first.
Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("jgf_coarse", "paper_woven", "fine_regions", "irregular_claims", "socket_plane", "service_open")

#: the hook, with the audited root and the output directory filled in.
HOOK = '''\
import os, sys, threading

_ROOT, _OUT = {root!r}, {out!r}
_seen, _file = set(), None


def _arm():
    global _file
    _seen.clear()
    _file = open(os.path.join(_OUT, "%d.reach" % os.getpid()), "a", buffering=1)
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_ROOT):
                _file.write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))


_arm()
os.register_at_fork(after_in_child=_arm)
'''


def functions(root: Path) -> "dict[tuple[str, int], tuple[str, int]]":
    """Every function and method under ``root``: ``(file, first line)`` ->
    ``(qualified name, raw lines)``.  The first line is the first decorator's,
    as a code object's ``co_firstlineno`` is."""
    found = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(path, first)] = (name, child.end_lineno - first + 1)
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), str(path.resolve()), "")
    return found


def trace(command: "list[str]", root: Path, out: Path, cwd: Path = REPO) -> int:
    """Run ``command`` with the hook armed in it and in every Python process it
    starts, its output discarded; each process leaves an ``<pid>.reach`` file
    in ``out``.  Returns the command's exit status."""
    hook_dir = out / "hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(HOOK.format(root=str(root.resolve()) + os.sep, out=str(out)))
    path = os.pathsep.join(filter(None, [str(hook_dir), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL, check=False).returncode


def reached(out: Path) -> "dict[int, set[tuple[str, int]]]":
    """What each process entered: pid -> ``{(file, first line)}``."""
    seen = {}
    for record in out.glob("*.reach"):
        lines = (line.rpartition(":") for line in record.read_text().splitlines())
        seen[int(record.stem)] = {(path, int(first)) for path, _, first in lines}
    return seen


def report(found: dict, hit: "set[tuple[str, int]]", root: Path) -> str:
    """reached/total, then the unreached functions grouped by module."""
    missed: "dict[str, list[tuple[int, str, int]]]" = {}
    for (path, first), (name, raw) in found.items():
        if (path, first) not in hit:
            missed.setdefault(os.path.relpath(path, root.resolve().parent), []).append((first, name, raw))
    total = len(found)
    lines = [f"reached {total - sum(map(len, missed.values()))} of {total} functions under {root}"]
    for module, rows in sorted(missed.items(), key=lambda item: -sum(raw for *_, raw in item[1])):
        lines.append(f"{module}: {len(rows)} unreached, {sum(raw for *_, raw in rows)} raw lines")
        lines += [f"    {name} (line {first}, {raw} lines)" for first, name, raw in sorted(rows)]
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default all six")
    parser.add_argument("--seconds", type=float, default=2.0, help="bench/run.py --seconds per workload")
    args = parser.parse_args(argv)
    root = REPO / "src" / "repro"
    found = functions(root)
    hit: "set[tuple[str, int]]" = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        for workload in args.workload or WORKLOADS:
            command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7"]
            status = trace([*command, "--seconds", str(args.seconds), "--trace", "1"], root, Path(scratch) / workload)
            per_pid = reached(Path(scratch) / workload)
            mine = set().union(*per_pid.values()) & found.keys()
            hit |= mine
            processes = f"{len(per_pid)} processes, exit {status}"
            print(f"{workload}: {len(mine)} of {len(found)} functions, {processes}", flush=True)
    print(report(found, hit, root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
