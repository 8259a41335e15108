"""Task-runtime overhead benchmark — spawn, steal and taskloop dispatch.

Companion to ``bench_overhead.py`` for the task subsystem: measures, with
tracing disabled, what the work-stealing runtime costs **on top of** a
hand-rolled baseline:

* ``task_spawn``        — ``TaskPool.spawn`` + ``task_wait`` of no-op tasks on
  a team pool, vs a hand-rolled executor (append closures to a list, run
  them in a loop — the cheapest possible deferred execution);
* ``taskloop_dispatch`` — per-task cost of ``run_taskloop`` with
  ``grainsize=1``, vs calling the loop body directly the same number of
  times.  The harness runs as member 0 of a 2-member team, so half the
  tiles are claimed locally and half are *stolen* from the absent member's
  deck — the reported overhead therefore prices spawn **and** steal, which
  is the repo's headline number for the task runtime (target: ≤ 2 µs/task
  on the threads backend);
* ``steal_claim``       — the raw claim paths of the taskloop deck (local
  pop vs cross-member steal), isolating the stealing cost itself.

Usage::

    PYTHONPATH=src python benchmarks/bench_tasks.py                    # table
    PYTHONPATH=src python benchmarks/bench_tasks.py --mode smoke       # CI smoke
    PYTHONPATH=src python benchmarks/bench_tasks.py --json             # JSON
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.runtime import context as ctx
from repro.runtime.config import config_override
from repro.runtime.shm import TaskStealArena, heap_slot
from repro.runtime.tasks import TaskPool, run_taskloop
from repro.runtime.team import Team

SCHEMA_VERSION = 1


def _best_of(repeats: int, fn: Callable[[], float]) -> float:
    """Run ``fn`` (returning elapsed seconds) ``repeats`` times, keep the minimum."""
    return min(fn() for _ in range(max(1, repeats)))


class _CountingBody:
    """Loop body that only counts invocations (one call per executed tile)."""

    __slots__ = ("calls",)

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, start: int, end: int, step: int) -> None:
        self.calls += 1


def _noop() -> None:
    return None


# ---------------------------------------------------------------------------
# task spawn + wait (team pool, deterministic single-member execution)
# ---------------------------------------------------------------------------


def measure_task_spawn(tasks: int, repeats: int) -> dict[str, float]:
    """``spawn``+``task_wait`` per no-op task vs a hand-rolled deferred list."""

    def aomp() -> float:
        team = Team(2, name="bench-tasks")
        frame = ctx.ExecutionContext(team=team, thread_id=0, nesting_level=0)
        ctx.push_context(frame)
        try:
            pool = TaskPool.for_team(team)
            start = time.perf_counter()
            for _ in range(tasks):
                pool.spawn(_noop)
            pool.wait_all()
            return time.perf_counter() - start
        finally:
            ctx.pop_context()

    def baseline() -> float:
        start = time.perf_counter()
        queued: list[Callable[[], None]] = []
        for _ in range(tasks):
            queued.append(_noop)
        for fn in queued:
            fn()
        return time.perf_counter() - start

    best = _best_of(repeats, aomp)
    base = _best_of(repeats, baseline)
    return {
        "tasks": tasks,
        "seconds_total": best,
        "baseline_seconds_total": base,
        "overhead_seconds_per_task": max(0.0, (best - base) / tasks),
    }


# ---------------------------------------------------------------------------
# taskloop dispatch (the headline spawn+steal number)
# ---------------------------------------------------------------------------


def measure_taskloop_dispatch(iterations: int, repeats: int) -> dict[str, float]:
    """Per-task cost of a grainsize-1 taskloop where half the tiles are stolen."""

    def once() -> tuple[float, int]:
        team = Team(2, name="bench-taskloop")
        frame = ctx.ExecutionContext(team=team, thread_id=0, nesting_level=0)
        body = _CountingBody()
        ctx.push_context(frame)
        try:
            start = time.perf_counter()
            run_taskloop(body, 0, iterations, 1, grainsize=1, nowait=True)
            return time.perf_counter() - start, body.calls
        finally:
            ctx.pop_context()

    best: float | None = None
    ntasks = 0
    for _ in range(max(1, repeats)):
        elapsed, ntasks = once()
        best = elapsed if best is None else min(best, elapsed)
    assert best is not None and ntasks == iterations

    body = _CountingBody()

    def bare() -> float:
        start = time.perf_counter()
        for i in range(iterations):
            body(i, i + 1, 1)
        return time.perf_counter() - start

    base = _best_of(repeats, bare)
    return {
        "iterations": iterations,
        "tasks": ntasks,
        "seconds_total": best,
        "baseline_seconds_total": base,
        "overhead_seconds_per_task": max(0.0, (best - base) / ntasks),
    }


def measure_steal_claim(tiles: int, repeats: int) -> dict[str, float]:
    """Raw deck claims: local pops vs cross-member steals, per claim."""

    def local() -> float:
        deck = heap_slot(TaskStealArena, 0, 1, tiles, max_workers=1)
        start = time.perf_counter()
        while deck.claim_local(0) is not None:
            pass
        return time.perf_counter() - start

    def steal() -> float:
        # Two-member deck, the claimer owns nothing: every claim is a steal.
        deck = heap_slot(TaskStealArena, 0, 2, 2 * tiles, max_workers=2)
        while deck.claim_local(0) is not None:
            pass
        start = time.perf_counter()
        while deck.claim_steal(0) is not None:
            pass
        return time.perf_counter() - start

    local_best = _best_of(repeats, local)
    steal_best = _best_of(repeats, steal)
    return {
        "tiles": tiles,
        "seconds_per_local_claim": local_best / tiles,
        "seconds_per_steal": steal_best / tiles,
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


#: measurement sizes per mode: (spawned tasks, taskloop iterations, steal
#: tiles, repeats).  Fixed — runs are deterministic in shape.
MODES = {
    "full": (20_000, 20_000, 20_000, 5),
    "quick": (4_000, 4_000, 4_000, 2),
    "smoke": (400, 400, 400, 1),  # schema/plumbing check only
}


def run_suite(*, mode: str = "full") -> dict[str, Any]:
    """Run every measurement with tracing disabled; return the metrics payload."""
    tasks, iters, tiles, repeats = MODES[mode]

    with config_override(tracing=False):
        metrics = {
            "task_spawn": measure_task_spawn(tasks, repeats),
            "taskloop_dispatch": measure_taskloop_dispatch(iters, repeats),
            "steal_claim": measure_steal_claim(tiles, repeats),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_tasks.py",
        "mode": mode,
        "python": platform.python_version(),
        "tracing": False,
        "metrics": metrics,
    }


def _format_table(payload: dict[str, Any]) -> str:
    m = payload["metrics"]
    spawn = m["task_spawn"]
    loop = m["taskloop_dispatch"]
    claims = m["steal_claim"]
    return "\n".join(
        [
            f"Task-runtime overhead — mode={payload['mode']}, tracing off, Python {payload['python']}",
            f"{'measurement':<34} {'overhead':>14}",
            f"{'task spawn+wait':<34} {spawn['overhead_seconds_per_task'] * 1e6:>11.3f} us/task",
            f"{'taskloop dispatch (incl. steal)':<34} {loop['overhead_seconds_per_task'] * 1e6:>11.3f} us/task"
            f"   ({loop['tasks']} tasks)",
            f"{'deck local claim':<34} {claims['seconds_per_local_claim'] * 1e6:>11.3f} us",
            f"{'deck steal':<34} {claims['seconds_per_steal'] * 1e6:>11.3f} us",
        ]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--mode",
        choices=sorted(MODES),
        default="full",
        help="measurement sizes: full (default), quick (CI), smoke (plumbing check)",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON to stdout")
    parser.add_argument("--output", type=Path, default=None, help="write the payload to a JSON file")
    args = parser.parse_args(argv)

    current = run_suite(mode=args.mode)

    if args.output is not None:
        args.output.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {args.output}", file=sys.stderr)

    if args.json:
        print(json.dumps(current, indent=2))
    else:
        print(_format_table(current))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
