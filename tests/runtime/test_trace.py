"""Tests for the buffered trace recorder.

Covers the hot-path rewrite of :mod:`repro.runtime.trace`:

* per-thread append buffers must be observationally equivalent to the seed's
  single global-locked list (the ``LockedTraceRecorder`` reference below) —
  same kinds, same payloads, same per-thread order — on every backend;
* ``merge_traces`` must not interleave events of unrelated recorders (their
  ``seq`` counters are independent);
* the recorder API surface (events/clear/len/iter, filters, lazy payloads).
"""

from __future__ import annotations

import threading

import pytest

from repro.runtime import context as ctx
from repro.runtime.critical import critical_call
from repro.runtime.team import parallel_region
from repro.runtime.trace import (
    EventKind,
    TraceEvent,
    TraceRecorder,
    event_to_dict,
    events_from_dicts,
    merge_traces,
    set_global_recorder,
)
from repro.runtime.worksharing import run_for

CONFORMANCE_BACKENDS = ("serial", "threads", "processes", "distributed")

#: trace payload fields that carry wall-clock measurements (non-deterministic).
_TIMING_FIELDS = ("elapsed", "waited", "held")


class LockedTraceRecorder(TraceRecorder):
    """Reference recorder: the seed's single list guarded by a global lock.

    Kept here (not in the library) as the behavioural yardstick for the
    buffered recorder's conformance suite.
    """

    def __init__(self) -> None:
        super().__init__()
        self._ref_events: list[TraceEvent] = []
        self._ref_lock = threading.Lock()

    def record(self, kind: EventKind, region: int, thread_id: int, **data):
        event = TraceEvent(kind, region, thread_id, next(self._seq), dict(data) if data else None)
        with self._ref_lock:
            self._ref_events.append(event)
        return event

    def _snapshot(self) -> list[TraceEvent]:
        with self._ref_lock:
            return list(self._ref_events)

    def clear(self) -> None:
        with self._ref_lock:
            self._ref_events.clear()

    def __len__(self) -> int:
        with self._ref_lock:
            return len(self._ref_events)


def _normalise(event: TraceEvent) -> tuple:
    """Project an event onto its deterministic content."""
    data = {k: v for k, v in event.data.items() if k not in _TIMING_FIELDS}
    return (event.kind, event.region, event.thread_id, tuple(sorted(data.items())))


def _per_thread_streams(recorder: TraceRecorder) -> dict[int, list[tuple]]:
    streams: dict[int, list[tuple]] = {}
    for event in recorder.events():
        streams.setdefault(event.thread_id, []).append(_normalise(event))
    return streams


def _workload(recorder: TraceRecorder, backend: str) -> None:
    """A deterministic region exercising chunks, barriers and criticals."""

    def loop(start, end, step):
        total = 0
        for i in range(start, end, step):
            total += i
        return total

    def body():
        run_for(loop, 0, 24, 1, schedule="staticBlock", loop_name="block")
        run_for(loop, 0, 17, 2, schedule="staticCyclic", chunk=2, loop_name="cyclic")
        team = ctx.current_team()
        team.barrier(label="explicit")
        if backend != "processes":
            critical_call(lambda: None, key="trace-conformance")

    parallel_region(body, num_threads=3, backend=backend, recorder=recorder, name="trace-conf")


class TestBufferedRecorderConformance:
    """Buffered recorder ≡ seed's locked recorder, per backend."""

    @pytest.mark.parametrize("backend", CONFORMANCE_BACKENDS)
    def test_event_for_event_equivalence(self, backend):
        reference = LockedTraceRecorder()
        buffered = TraceRecorder()
        _workload(reference, backend)
        _workload(buffered, backend)

        ref_streams = _per_thread_streams(reference)
        buf_streams = _per_thread_streams(buffered)
        assert set(ref_streams) == set(buf_streams)
        for thread_id, ref_stream in ref_streams.items():
            assert buf_streams[thread_id] == ref_stream, (
                f"backend {backend}: thread {thread_id} event stream diverged"
            )

    def test_threaded_static_trace_is_complete_and_ordered(self):
        """Every member's chunks land in the buffers with seq strictly increasing."""
        recorder = TraceRecorder()

        def loop(start, end, step):
            return None

        def body():
            run_for(loop, 0, 40, 1, schedule="staticCyclic", loop_name="work")

        parallel_region(body, num_threads=4, backend="threads", recorder=recorder)

        chunks = recorder.events(EventKind.CHUNK)
        covered = sorted(i for e in chunks for i in range(e.data["start"], e.data["end"], e.data["step"]))
        assert covered == list(range(40))
        by_thread: dict[int, list[int]] = {}
        for event in recorder.events():
            by_thread.setdefault(event.thread_id, []).append(event.seq)
        for thread_id, seqs in by_thread.items():
            assert seqs == sorted(seqs), f"thread {thread_id} events out of emission order"

    def test_concurrent_recording_loses_no_events(self):
        recorder = TraceRecorder()
        per_thread = 500

        def hammer(thread_id: int) -> None:
            for i in range(per_thread):
                recorder.record(EventKind.PHASE_WORK, 0, thread_id, index=i)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(recorder) == 6 * per_thread
        events = recorder.events()
        assert [e.seq for e in events] == sorted(e.seq for e in events)
        for thread_id in range(6):
            indices = [e.data["index"] for e in events if e.thread_id == thread_id]
            assert indices == list(range(per_thread))


class TestRecorderSurface:
    def test_filters_clear_len_iter(self):
        recorder = TraceRecorder()
        recorder.record(EventKind.REGION_BEGIN, 0, 0, name="r")
        recorder.record(EventKind.CHUNK, 0, 1, loop="l", start=0, end=4, step=1, count=4)
        recorder.record(EventKind.CHUNK, 1, 0, loop="l", start=4, end=8, step=1, count=4)

        assert len(recorder) == 3
        assert len(recorder.events(EventKind.CHUNK)) == 2
        assert len(recorder.events(EventKind.CHUNK, region=1)) == 1
        assert len(list(iter(recorder))) == 3
        recorder.clear()
        assert len(recorder) == 0
        # Sequence numbers keep increasing after a clear.
        event = recorder.record(EventKind.BARRIER, 2, 0)
        assert event.seq >= 3

    def test_payload_is_lazy_but_usable(self):
        recorder = TraceRecorder()
        bare = recorder.record(EventKind.BARRIER, 0, 0)
        assert bare._data is None  # no allocation until accessed
        assert bare.data == {}
        rich = recorder.record(EventKind.CHUNK, 0, 0, loop="l", start=0, end=2, step=1, count=2)
        assert rich.data["loop"] == "l"

    def test_global_recorder_install_and_clear(self):
        recorder = TraceRecorder()
        previous = set_global_recorder(recorder)
        try:
            from repro.runtime.trace import get_global_recorder, global_tracing_active

            assert get_global_recorder() is recorder
            assert global_tracing_active()
        finally:
            set_global_recorder(previous)


#: A representative payload per event kind, mirroring what the runtime
#: actually records at each site.  ``test_every_kind_has_a_payload_sample``
#: fails when a new :class:`EventKind` lands without a row here, so the
#: round-trip suite below stays exhaustive by construction.
_ROUND_TRIP_PAYLOADS: dict[EventKind, dict] = {
    EventKind.REGION_BEGIN: {"name": "r", "size": 4, "backend": "threads"},
    EventKind.REGION_END: {"name": "r", "elapsed": 0.25},
    EventKind.CHUNK: {"loop": "l", "start": 0, "end": 8, "step": 1, "count": 8, "elapsed": 0.01},
    EventKind.BARRIER: {"label": "explicit", "waited": 0.002},
    EventKind.CRITICAL: {"key": "k", "waited": 0.001, "held": 0.003},
    EventKind.LOCK_ACQUIRE: {"key": "obj-7", "waited": 0.0},
    EventKind.REDUCTION: {"count": 4, "op": "sum"},
    EventKind.SINGLE: {"winner": 2},
    EventKind.MASTER: {},
    EventKind.ORDERED: {"index": 5, "waited": 0.004},
    EventKind.TASK_SPAWN: {"count": 3},
    EventKind.TASK_STEAL: {"victim": 1, "count": 2},
    EventKind.TASK_COMPLETE: {"elapsed": 0.006},
    EventKind.PHASE_WORK: {"index": 9},
    EventKind.TUNE_DECISION: {"loop": "l", "schedule": "dynamic", "chunk": 8, "source": "measured"},
    EventKind.WORKER_DEAD: {"member": 2, "pid": 12345, "exitcode": -9, "signal": "SIGKILL"},
    EventKind.REGION_RETRY: {
        "name": "r",
        "action": "retry",
        "attempt": 2,
        "backend": "threads",
        "delay": 0.0,
    },
}


class TestEventDictRoundTrip:
    """``events_from_dicts`` must invert ``to_dicts`` for *every* kind.

    The dump/reload path backs offline tooling (``trace2chrome``) and the
    distributed backend's cross-process trace shipping; a kind added to the
    runtime but not round-trippable would silently vanish from merged traces.
    """

    def test_every_kind_has_a_payload_sample(self):
        assert set(_ROUND_TRIP_PAYLOADS) == set(EventKind), (
            "new EventKind members need a _ROUND_TRIP_PAYLOADS row "
            "(and thereby round-trip coverage)"
        )

    @pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.value)
    def test_kind_round_trips(self, kind):
        recorder = TraceRecorder()
        recorder.record(kind, 3, 1, **_ROUND_TRIP_PAYLOADS[kind])

        [rebuilt] = events_from_dicts(recorder.to_dicts())
        [original] = recorder.events()
        assert rebuilt.kind is kind
        assert rebuilt.region == original.region
        assert rebuilt.thread_id == original.thread_id
        assert rebuilt.seq == original.seq
        assert rebuilt.data == original.data

    def test_full_trace_round_trips_in_order(self):
        recorder = TraceRecorder()
        for kind in EventKind:
            recorder.record(kind, 0, 0, **_ROUND_TRIP_PAYLOADS[kind])

        rebuilt = events_from_dicts(recorder.to_dicts())
        assert [e.kind for e in rebuilt] == list(EventKind)
        assert [e.seq for e in rebuilt] == [e.seq for e in recorder.events()]
        # A second dump of the rebuilt events is byte-identical: the dict
        # form is a fixed point, so tooling can re-save without drift.
        assert [event_to_dict(e) for e in rebuilt] == recorder.to_dicts()

    def test_json_round_trip_survives_serialisation(self):
        import json

        recorder = TraceRecorder()
        for kind in EventKind:
            recorder.record(kind, 1, 2, **_ROUND_TRIP_PAYLOADS[kind])
        rebuilt = events_from_dicts(json.loads(json.dumps(recorder.to_dicts())))
        assert [(e.kind, e.data) for e in rebuilt] == [
            (e.kind, e.data) for e in recorder.events()
        ]


class TestMergeTraces:
    def test_independent_seq_counters_do_not_interleave(self):
        """Regression: two recorders' events must stay contiguous after merge.

        Per-recorder ``seq`` starts at zero, so the seed's sort-by-seq merge
        interleaved unrelated traces; the merge key is now (recorder, seq).
        """
        first = TraceRecorder()
        second = TraceRecorder()
        for i in range(3):
            first.record(EventKind.PHASE_WORK, 0, 0, origin="first", index=i)
        for i in range(3):
            second.record(EventKind.PHASE_WORK, 0, 0, origin="second", index=i)

        merged = merge_traces([first, second])
        origins = [e.data["origin"] for e in merged]
        assert origins == ["first"] * 3 + ["second"] * 3
        assert [e.data["index"] for e in merged] == [0, 1, 2, 0, 1, 2]

    def test_merge_uses_creation_order_not_argument_order(self):
        """The recorder_id stamp makes creation order canonical, however the
        caller collected the recorders."""
        first = TraceRecorder()
        second = TraceRecorder()
        second.record(EventKind.BARRIER, 0, 0, origin="second")
        first.record(EventKind.BARRIER, 0, 0, origin="first")
        merged = merge_traces([second, first])
        assert [e.data["origin"] for e in merged] == ["first", "second"]

    def test_recorder_ids_are_unique_and_monotone(self):
        a, b = TraceRecorder(), TraceRecorder()
        assert b.recorder_id > a.recorder_id
