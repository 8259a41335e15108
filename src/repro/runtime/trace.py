"""Execution tracing.

The runtime emits trace events describing *what the parallel execution did*:
which team ran which region, which iterations each member executed for each
work-shared loop, where barriers fell, how much time was spent inside named
critical sections, which reductions were performed, and so on.

These traces are the bridge between the real (GIL-bound) execution and the
calibrated performance model in :mod:`repro.perf`: the model replays a trace
against per-benchmark cost models to estimate the makespan a real multi-core
machine would achieve.  (See DESIGN.md, substitution table.)

Recording is on the runtime's hot path (one ``CHUNK`` event per dispatched
loop chunk), so the recorder is built for cheap appends: every recording
thread owns a private append-only buffer and events carry a global sequence
number; readers merge the buffers by that number on demand.  No lock is taken
per event — only on the first event of each thread and on reads.
"""

from __future__ import annotations

import itertools
import threading
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping


class EventKind(str, Enum):
    """Kinds of trace events recorded by the runtime."""

    REGION_BEGIN = "region_begin"
    REGION_END = "region_end"
    CHUNK = "chunk"                  # a member executed iterations [start, end) of a loop
    BARRIER = "barrier"
    CRITICAL = "critical"            # a member spent `elapsed` seconds serialised in a named lock
    LOCK_ACQUIRE = "lock_acquire"    # fine-grained lock acquisition (per-object locks)
    REDUCTION = "reduction"          # a reduction over `count` thread-local copies
    SINGLE = "single"
    MASTER = "master"
    ORDERED = "ordered"
    TASK_SPAWN = "task_spawn"
    TASK_STEAL = "task_steal"        # a member executed a task stolen from another member's deque
    TASK_COMPLETE = "task_complete"
    PHASE_WORK = "phase_work"        # generic replicated (non-loop) work performed by a member
    TUNE_DECISION = "tune_decision"  # the adaptive tuner picked a schedule for a loop invocation
    WORKER_DEAD = "worker_dead"      # the heartbeat monitor saw a team member's process die
    FAULT_INJECTED = "fault_injected"  # a deterministic AOMP_FAULTS rule fired on this member
    REGION_RETRY = "region_retry"    # the on_failure policy re-ran (or degraded) a failed region


#: ``region`` value of events recorded outside any parallel region (e.g. the
#: sequential fast path of ``run_for`` with a global recorder installed).
NO_REGION = -1


class TraceEvent:
    """A single trace event.

    Attributes
    ----------
    kind:
        The :class:`EventKind`.
    region:
        Identifier of the parallel region (monotonically increasing per
        recorder), or :data:`NO_REGION` for events emitted outside regions.
    thread_id:
        Team-relative id of the member that emitted the event (0 = master).
    seq:
        Recorder-wide sequence number (total order of emission *within one
        recorder*; see :func:`merge_traces` for cross-recorder ordering).
    data:
        Event-specific payload, e.g. ``{"loop": "compute_forces", "start": 0,
        "end": 128, "step": 1, "count": 128}`` for ``CHUNK`` events.  Built
        lazily: eventless payloads share no allocation until first access.
    """

    __slots__ = ("kind", "region", "thread_id", "seq", "_data")

    def __init__(
        self,
        kind: EventKind,
        region: int,
        thread_id: int,
        seq: int,
        data: "dict[str, Any] | None" = None,
    ) -> None:
        self.kind = kind
        self.region = region
        self.thread_id = thread_id
        self.seq = seq
        self._data = data

    @property
    def data(self) -> dict[str, Any]:
        """Event payload (lazily materialised for payload-free events)."""
        payload = self._data
        if payload is None:
            payload = self._data = {}
        return payload

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.region == other.region
            and self.thread_id == other.thread_id
            and self.seq == other.seq
            and self.data == other.data
        )

    def __hash__(self) -> int:
        # Consistent with __eq__ (equal events share these fields); the
        # payload dict is deliberately excluded, as dicts are unhashable.
        return hash((self.kind, self.region, self.thread_id, self.seq))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TraceEvent(kind={self.kind!r}, region={self.region}, "
            f"thread_id={self.thread_id}, seq={self.seq}, data={self.data!r})"
        )


#: Process-wide ordering of recorder creation, used as the primary merge key
#: by :func:`merge_traces` (per-recorder ``seq`` counters are independent).
_recorder_ids = itertools.count()


class TraceRecorder:
    """Collector of :class:`TraceEvent` objects with per-thread buffers.

    A recorder is attached to a :class:`~repro.runtime.team.Team` (or installed
    globally through :func:`set_global_recorder`) and later handed to
    :class:`repro.perf.model.MakespanModel`.

    Each recording thread appends to its own buffer, so :meth:`record` is
    lock-free (``itertools.count`` increments atomically under the GIL); the
    recorder's lock is only taken when a thread records its first event and
    when readers snapshot/clear the buffers.  Events are globally ordered by
    their ``seq`` stamp, which :meth:`events` uses as merge key.
    """

    def __init__(self) -> None:
        self.recorder_id = next(_recorder_ids)
        self._lock = threading.Lock()
        #: per-thread buffers keyed by thread ident.  Idents are recycled by
        #: the OS, so a fresh thread may adopt a dead thread's buffer — safe,
        #: because the global seq counter keeps any single buffer monotone —
        #: which bounds the registry by the *concurrent* thread count instead
        #: of growing with every thread that ever recorded.
        self._buffers: dict[int, list[TraceEvent]] = {}
        self._local = threading.local()
        self._seq = itertools.count()
        self._region_counter = itertools.count()

    def new_region_id(self) -> int:
        """Allocate a fresh region identifier."""
        return next(self._region_counter)

    def _buffer(self) -> list[TraceEvent]:
        """Register and return the calling thread's private event buffer."""
        ident = threading.get_ident()
        with self._lock:
            buffer = self._buffers.get(ident)
            if buffer is None:
                buffer = self._buffers[ident] = []
        self._local.buffer = buffer
        return buffer

    def record(self, kind: EventKind, region: int, thread_id: int, **data: Any) -> TraceEvent:
        """Record a new event and return it."""
        event = TraceEvent(kind, region, thread_id, next(self._seq), data if data else None)
        try:
            buffer = self._local.buffer
        except AttributeError:
            buffer = self._buffer()
        buffer.append(event)
        return event

    def _snapshot(self) -> list[TraceEvent]:
        """Merged snapshot of every thread's buffer, ordered by ``seq``."""
        with self._lock:
            copies = [list(buffer) for buffer in self._buffers.values()]
        if len(copies) == 1:
            return copies[0]
        merged = [event for buffer in copies for event in buffer]
        merged.sort(key=lambda e: e.seq)
        return merged

    def events(self, kind: EventKind | None = None, region: int | None = None) -> list[TraceEvent]:
        """Return a snapshot of recorded events, optionally filtered."""
        snapshot = self._snapshot()
        if kind is not None:
            snapshot = [e for e in snapshot if e.kind is kind]
        if region is not None:
            snapshot = [e for e in snapshot if e.region == region]
        return snapshot

    def clear(self) -> None:
        """Drop all recorded events (region/sequence counters keep increasing).

        Buffers themselves are kept: live threads hold direct references to
        them through their thread-local fast path.
        """
        with self._lock:
            for buffer in self._buffers.values():
                buffer.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(buffer) for buffer in self._buffers.values())

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    # -- convenience accessors used by the perf model and tests ------------

    def chunks_by_thread(self, region: int | None = None, loop: str | None = None) -> dict[int, list[TraceEvent]]:
        """Group ``CHUNK`` events by executing thread id."""
        grouped: dict[int, list[TraceEvent]] = {}
        for event in self.events(EventKind.CHUNK, region):
            if loop is not None and event.data.get("loop") != loop:
                continue
            grouped.setdefault(event.thread_id, []).append(event)
        return grouped

    def iterations_by_thread(self, region: int | None = None, loop: str | None = None) -> dict[int, list[int]]:
        """Expand ``CHUNK`` events into the explicit iteration indices per thread."""
        expanded: dict[int, list[int]] = {}
        for thread_id, events in self.chunks_by_thread(region, loop).items():
            indices: list[int] = []
            for event in events:
                start = event.data["start"]
                end = event.data["end"]
                step = event.data.get("step", 1)
                indices.extend(range(start, end, step))
            expanded[thread_id] = indices
        return expanded

    def loops(self, region: int | None = None) -> list[str]:
        """Names of work-shared loops seen in the trace, in first-seen order."""
        seen: dict[str, None] = {}
        for event in self.events(EventKind.CHUNK, region):
            seen.setdefault(event.data.get("loop", "<anonymous>"), None)
        return list(seen)

    def tune_decisions(self, region: int | None = None) -> list[TraceEvent]:
        """``TUNE_DECISION`` events (emitted by the adaptive scheduler)."""
        return self.events(EventKind.TUNE_DECISION, region)

    def to_dicts(self, kind: EventKind | None = None, region: int | None = None) -> list[dict]:
        """Snapshot the recorded events as JSON-serialisable dicts.

        The inverse of :func:`events_from_dicts`; used to dump a trace to disk
        for offline tooling (``scripts/trace2chrome.py``).
        """
        return [event_to_dict(event) for event in self.events(kind, region)]


_global_recorder: TraceRecorder | None = None
_global_lock = threading.Lock()
#: Module-level fast flag mirroring ``_global_recorder is not None``: the
#: hot paths that may record outside any team (sequential ``run_for``) check
#: this single global load before touching anything else.
_global_active = False


def get_global_recorder() -> TraceRecorder | None:
    """Return the process-wide recorder, if one is installed."""
    return _global_recorder


def global_tracing_active() -> bool:
    """Cheap predicate: is a process-wide recorder installed?"""
    return _global_active


def set_global_recorder(recorder: TraceRecorder | None) -> TraceRecorder | None:
    """Install (or clear, with ``None``) the process-wide recorder."""
    global _global_recorder, _global_active
    with _global_lock:
        previous, _global_recorder = _global_recorder, recorder
        _global_active = recorder is not None
    return previous


def event_to_dict(event: TraceEvent) -> dict:
    """One event as a JSON-serialisable dict (see :meth:`TraceRecorder.to_dicts`)."""
    return {
        "kind": event.kind.value,
        "region": event.region,
        "thread_id": event.thread_id,
        "seq": event.seq,
        "data": dict(event.data),
    }


def events_from_dicts(dicts: Iterable[Mapping]) -> list[TraceEvent]:
    """Rebuild :class:`TraceEvent` objects from a :meth:`TraceRecorder.to_dicts` dump."""
    return [
        TraceEvent(
            EventKind(item["kind"]),
            int(item["region"]),
            int(item["thread_id"]),
            int(item.get("seq", index)),
            dict(item.get("data") or {}) or None,
        )
        for index, item in enumerate(dicts)
    ]


def merge_traces(traces: Iterable[TraceRecorder]) -> list[TraceEvent]:
    """Merge events from several recorders into one list.

    Per-recorder ``seq`` counters are independent (each recorder starts at
    zero), so sorting a cross-recorder merge by ``seq`` alone would interleave
    unrelated events.  The merge key is ``(recorder_id, seq)``: recorders in
    creation order — however the caller collected them (dict values, pool
    results, ...) — with each recorder's own emission order preserved.
    """
    merged: list[TraceEvent] = []
    for trace in sorted(traces, key=lambda t: t.recorder_id):
        merged.extend(trace.events())
    return merged
