#!/usr/bin/env python
"""Export a TraceRecorder dump to Chrome trace-viewer JSON.

The runtime's trace events carry durations (``elapsed``) but no absolute
timestamps — recording wall-clock stamps per event would put a clock read on
the hot path for data only a visualiser needs.  This exporter reconstructs a
*synthetic* timeline instead: per (region, thread) a running clock advances
by each timed event's duration, and untimed events become instant markers at
the current clock.  Relative lane lengths (load imbalance, serialised
sections, steal bursts) are faithful; absolute alignment between lanes is
approximate.

Mapping:

* ``CHUNK`` / ``CRITICAL`` / ``PHASE_WORK`` / ``TASK_COMPLETE`` → duration
  events (``ph: "X"``) on the emitting member's lane;
* ``TASK_SPAWN`` / ``TASK_STEAL`` / ``BARRIER`` / ``TUNE_DECISION`` /
  ``SINGLE`` / ``MASTER`` / ``ORDERED`` / ``REDUCTION`` → instant events
  (``ph: "i"``), tune decisions carrying the decided schedule in ``args``;
* regions → Chrome "processes" (``pid``), team members → "threads" (``tid``).

Usage::

    # dump a trace from your program
    json.dump(recorder.to_dicts(), open("trace.json", "w"))
    # convert it
    python scripts/trace2chrome.py trace.json chrome_trace.json
    # then load chrome_trace.json in chrome://tracing or https://ui.perfetto.dev
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runtime.trace import EventKind, TraceEvent, events_from_dicts  # noqa: E402

#: event kinds rendered as duration slices (they carry ``elapsed`` payloads).
DURATION_KINDS = {
    EventKind.CHUNK,
    EventKind.PHASE_WORK,
    EventKind.TASK_COMPLETE,
}

#: payload keys shown in the trace viewer's argument pane, per kind.
_ARG_KEYS = {
    EventKind.CHUNK: ("loop", "start", "end", "step", "count", "weight"),
    EventKind.CRITICAL: ("key", "waited", "held"),
    EventKind.TASK_SPAWN: ("count",),
    EventKind.TASK_STEAL: ("victim", "count"),
    EventKind.TUNE_DECISION: (
        "loop",
        "schedule",
        "chunk",
        "serial",
        "transition",
        "invocation",
        "elapsed",
        "converged",
        "best_schedule",
        "best_chunk",
        "best_seconds",
    ),
    EventKind.BARRIER: ("label",),
    EventKind.REDUCTION: ("field", "count"),
    EventKind.WORKER_DEAD: ("member", "pid", "exitcode", "signal"),
    EventKind.REGION_RETRY: ("name", "action", "attempt", "backend", "from_backend", "delay"),
}


def _name_of(event: TraceEvent) -> str:
    if event.kind is EventKind.CHUNK:
        return str(event.data.get("loop", "chunk"))
    if event.kind is EventKind.TUNE_DECISION:
        schedule = "serial" if event.data.get("serial") else event.data.get("schedule", "?")
        return f"tune: {event.data.get('loop', '?')} -> {schedule}"
    if event.kind is EventKind.CRITICAL:
        return f"critical:{event.data.get('key', '?')}"
    if event.kind is EventKind.BARRIER:
        label = event.data.get("label")
        return f"barrier:{label}" if label else "barrier"
    return event.kind.value


def _args_of(event: TraceEvent) -> dict[str, Any]:
    keys = _ARG_KEYS.get(event.kind, ())
    return {key: event.data[key] for key in keys if event.data.get(key) is not None}


def events_to_chrome(events: Iterable[TraceEvent]) -> dict[str, Any]:
    """Convert runtime trace events to a Chrome trace-viewer document."""
    clocks: dict[tuple[int, int], float] = {}  # (region, thread) -> µs cursor
    trace_events: list[dict[str, Any]] = []
    seen_lanes: set[tuple[int, int]] = set()

    for event in sorted(events, key=lambda e: e.seq):
        lane = (event.region, event.thread_id)
        if lane not in seen_lanes:
            seen_lanes.add(lane)
            trace_events.append(
                {
                    "ph": "M",
                    "pid": event.region,
                    "tid": event.thread_id,
                    "name": "thread_name",
                    "args": {"name": f"member {event.thread_id}"},
                }
            )
        cursor = clocks.get(lane, 0.0)
        common = {"pid": event.region, "tid": event.thread_id, "cat": event.kind.value}

        elapsed = event.data.get("elapsed")
        if event.kind is EventKind.CRITICAL:
            # waited + held, rendered as one slice with the wait in args.
            elapsed = float(event.data.get("waited", 0.0)) + float(event.data.get("held", 0.0))
        if event.kind in DURATION_KINDS or (event.kind is EventKind.CRITICAL and elapsed):
            duration_us = float(elapsed or 0.0) * 1e6
            trace_events.append(
                {
                    **common,
                    "ph": "X",
                    "name": _name_of(event),
                    "ts": cursor,
                    "dur": duration_us,
                    "args": _args_of(event),
                }
            )
            clocks[lane] = cursor + duration_us
        else:
            trace_events.append(
                {
                    **common,
                    "ph": "i",
                    "s": "t",  # thread-scoped instant
                    "name": _name_of(event),
                    "ts": cursor,
                    "args": _args_of(event),
                }
            )

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generated_by": "scripts/trace2chrome.py",
            "note": "synthetic timeline: per-lane clocks accumulate recorded durations",
        },
    }


def load_events(path: Path) -> list[TraceEvent]:
    """Read a trace dump (a list of event dicts, or {\"events\": [...]})."""
    document = json.loads(path.read_text())
    if isinstance(document, dict):
        document = document.get("events", [])
    return events_from_dicts(document)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("input", type=Path, help="trace dump (TraceRecorder.to_dicts() JSON)")
    parser.add_argument(
        "output",
        type=Path,
        nargs="?",
        default=None,
        help="Chrome trace JSON to write (default: <input>.chrome.json)",
    )
    args = parser.parse_args(argv)

    output = args.output if args.output is not None else args.input.with_suffix(".chrome.json")
    document = events_to_chrome(load_events(args.input))
    output.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {output} ({len(document['traceEvents'])} events)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
