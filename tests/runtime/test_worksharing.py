"""Tests for the work-sharing executor (run_for) inside parallel regions."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.runtime import context as ctx
from repro.runtime import shm
from repro.runtime.exceptions import BackendCapabilityError
from repro.runtime.scheduler import make_scheduler
from repro.runtime.single import MasterRegion, SingleRegion
from repro.runtime.team import parallel_region
from repro.runtime.trace import EventKind, TraceRecorder
from repro.runtime.worksharing import run_for

CONFORMANCE_BACKENDS = ("serial", "threads", "processes", "distributed")


def make_accumulating_loop(results, lock):
    """A for-method appending (thread_id, index) for each executed iteration."""

    def loop(start, end, step):
        tid = ctx.get_thread_id()
        for i in range(start, end, step):
            with lock:
                results.append((tid, i))

    return loop


@pytest.mark.parametrize("schedule", ["staticBlock", "staticCyclic", "dynamic", "guided"])
def test_all_iterations_executed_exactly_once(schedule):
    results = []
    lock = threading.Lock()
    loop = make_accumulating_loop(results, lock)

    def body():
        run_for(loop, 0, 40, 1, schedule=schedule)

    parallel_region(body, num_threads=4)
    indices = sorted(i for _, i in results)
    assert indices == list(range(40))


def test_static_block_assigns_contiguous_ranges():
    results = []
    lock = threading.Lock()
    loop = make_accumulating_loop(results, lock)

    def body():
        run_for(loop, 0, 8, 1, schedule="staticBlock")

    parallel_region(body, num_threads=4)
    per_thread = {}
    for tid, i in results:
        per_thread.setdefault(tid, []).append(i)
    assert sorted(per_thread.keys()) == [0, 1, 2, 3]
    assert sorted(per_thread[0]) == [0, 1]
    assert sorted(per_thread[3]) == [6, 7]


def test_cyclic_distribution_matches_paper_pattern():
    results = []
    lock = threading.Lock()
    loop = make_accumulating_loop(results, lock)

    def body():
        run_for(loop, 0, 9, 1, schedule="staticCyclic")

    parallel_region(body, num_threads=3)
    per_thread = {tid: sorted(i for t, i in results if t == tid) for tid in range(3)}
    assert per_thread[0] == [0, 3, 6]
    assert per_thread[1] == [1, 4, 7]
    assert per_thread[2] == [2, 5, 8]


def test_sequential_semantics_outside_region():
    results = []
    lock = threading.Lock()
    loop = make_accumulating_loop(results, lock)
    run_for(loop, 0, 10, 1, schedule="dynamic")
    assert sorted(i for _, i in results) == list(range(10))
    assert {tid for tid, _ in results} == {0}


def test_strided_range_distributed_correctly():
    results = []
    lock = threading.Lock()
    loop = make_accumulating_loop(results, lock)

    def body():
        run_for(loop, 1, 30, 3, schedule="staticBlock")

    parallel_region(body, num_threads=3)
    assert sorted(i for _, i in results) == list(range(1, 30, 3))


def test_extra_positional_args_forwarded():
    sums = []
    lock = threading.Lock()

    def loop(start, end, step, scale, offset=0):
        total = sum(i * scale + offset for i in range(start, end, step))
        with lock:
            sums.append(total)

    def body():
        run_for(loop, 0, 10, 1, 2, schedule="staticBlock", offset=1)

    parallel_region(body, num_threads=2)
    # Total over all threads must equal the sequential result.
    assert sum(sums) == sum(i * 2 + 1 for i in range(10))


def test_dynamic_schedule_with_shared_state_covers_range():
    executed = []
    lock = threading.Lock()

    def loop(start, end, step):
        tid = ctx.get_thread_id()
        for i in range(start, end, step):
            with lock:
                executed.append((tid, i))

    def body():
        run_for(loop, 0, 101, 1, schedule="dynamic", chunk=7)

    parallel_region(body, num_threads=5)
    assert sorted(i for _, i in executed) == list(range(101))
    # With 101 iterations in chunks of 7 across 5 threads at least two threads
    # should have claimed something (probabilistically certain; the claim
    # counter guarantees no duplicates which is the key invariant).
    assert len({tid for tid, _ in executed}) >= 1


def test_chunk_trace_events_record_assignments(recorder):
    def loop(start, end, step):
        for _ in range(start, end, step):
            pass

    def body():
        run_for(loop, 0, 12, 1, schedule="staticBlock", loop_name="work")

    parallel_region(body, num_threads=3)
    chunks = recorder.events(EventKind.CHUNK)
    assert len(chunks) == 3
    assert {e.data["loop"] for e in chunks} == {"work"}
    assert sum(e.data["count"] for e in chunks) == 12


def test_weight_function_recorded(recorder):
    def loop(start, end, step):
        pass

    def body():
        run_for(loop, 0, 10, 1, schedule="staticBlock", loop_name="tri", weight=lambda i: 10 - i)

    parallel_region(body, num_threads=2)
    chunks = recorder.events(EventKind.CHUNK)
    total_weight = sum(e.data["weight"] for e in chunks)
    assert total_weight == sum(10 - i for i in range(10))


def test_implicit_barrier_can_be_skipped(recorder):
    def loop(start, end, step):
        pass

    def body():
        run_for(loop, 0, 4, 1, nowait=True)
        run_for(loop, 0, 4, 1, nowait=False)

    parallel_region(body, num_threads=2)
    barriers = recorder.events(EventKind.BARRIER)
    # Only the second loop emits the implicit barrier: one event per member.
    assert len(barriers) == 2


def test_loop_return_value_last_chunk():
    def loop(start, end, step):
        return sum(range(start, end, step))

    result = run_for(loop, 0, 10, 1)
    assert result == sum(range(10))


def assert_claim_contract(calls, chunks, start, end, step):
    """The body-call contract of a dynamic/guided loop.

    ``calls`` are the ``(start, end, step)`` ranges bodies received, ``chunks``
    the loop's scheduling chunks in loop order (the scheduler oracle's, or a
    traced run's ``CHUNK`` events).  Every call must start on a chunk
    boundary and cover a whole number of consecutive chunks (the last chunk
    of the loop may be short — it is in ``chunks`` as such), and the calls
    must tile the iteration space exactly once.
    """
    starts = {piece[0]: index for index, piece in enumerate(chunks)}
    covered: list[int] = []
    for call_start, call_end, call_step in calls:
        assert call_step == step
        assert call_start in starts, f"call {(call_start, call_end)} starts off the chunk grid"
        index = starts[call_start]
        cursor = call_start
        while cursor != call_end:
            assert index < len(chunks) and chunks[index][0] == cursor, (
                f"call {(call_start, call_end)} is not a whole number of chunks"
            )
            cursor = chunks[index][1]
            index += 1
        covered.extend(range(call_start, call_end, step))
    assert sorted(covered) == sorted(range(start, end, step))


@pytest.mark.parametrize("schedule", ["dynamic", "guided"])
def test_untraced_and_traced_paths_execute_identical_chunk_boundaries(schedule):
    """Untraced body calls are whole claims; traced runs keep per-chunk boundaries.

    A traced run splits every claim back into its scheduling chunks — one
    body call and one ``CHUNK`` event each, on the scheduler oracle's
    boundaries.  An untraced run makes one call per claim, and each call
    must be a run of those same chunks.
    """
    from repro.runtime.scheduler import make_scheduler, oracle_chunks
    from repro.runtime.team import Team

    start, end, step, chunk = 3, 120, 2, 3

    def boundaries(recorder) -> list[tuple[int, int, int]]:
        seen: list[tuple[int, int, int]] = []

        def loop(start, end, step):
            seen.append((start, end, step))

        team = Team(2, recorder=recorder)
        frame = ctx.ExecutionContext(team=team, thread_id=0, nesting_level=0)
        ctx.push_context(frame)
        try:
            # Single consumer on a 2-member team: member 0 claims every chunk
            # deterministically (the other member never runs).
            run_for(loop, start, end, step, schedule=schedule, chunk=chunk, nowait=True)
        finally:
            ctx.pop_context()
        return seen

    oracle = [(c.start, c.end, c.step) for c in oracle_chunks(make_scheduler(schedule, chunk), 0, 2, start, end, step)]
    recorder = TraceRecorder()
    assert boundaries(recorder) == oracle
    events = [(e.data["start"], e.data["end"], e.data["step"]) for e in recorder.events(EventKind.CHUNK)]
    assert events == oracle

    untraced = boundaries(None)
    assert_claim_contract(untraced, oracle, start, end, step)
    if schedule == "dynamic":
        assert len(untraced) < len(oracle)  # claims, not chunks: fewer calls


def test_sequential_run_for_records_to_global_recorder(recorder):
    """Outside any region, an installed global recorder still sees the chunk.

    Regression: the ``context is None`` branch used to consult only
    ``context.team`` and silently skipped recording.
    """
    from repro.runtime.trace import NO_REGION

    def loop(start, end, step):
        pass

    run_for(loop, 0, 8, 1, loop_name="outside", weight=lambda i: 2.0)

    chunks = recorder.events(EventKind.CHUNK)
    assert len(chunks) == 1
    event = chunks[0]
    assert event.region == NO_REGION
    assert event.data["loop"] == "outside"
    assert (event.data["start"], event.data["end"], event.data["step"]) == (0, 8, 1)
    assert event.data["count"] == 8
    assert event.data["weight"] == 16.0
    assert event.data["elapsed"] is not None


def test_sequential_run_for_honours_tracing_config(recorder):
    """The global tracing switch gates the sequential recording path too."""
    from repro.runtime.config import config_override

    def loop(start, end, step):
        pass

    with config_override(tracing=False):
        run_for(loop, 0, 8, 1, loop_name="silent")
    assert recorder.events(EventKind.CHUNK) == []


def test_static_block_partition_covers_the_range():
    parts = make_scheduler("staticBlock").partition(4, 0, 16, 1)
    assert len(parts) == 4
    assert sum(len(list(c.indices())) for p in parts for c in p) == 16


@pytest.mark.parametrize("schedule", ["staticBlock", "staticCyclic", "dynamic", "guided"])
@pytest.mark.parametrize("chunk", [0, -1])
def test_make_scheduler_rejects_a_chunk_below_one(schedule, chunk):
    """A scheduling error, never a ``ZeroDivisionError`` or an empty plan."""
    from repro.runtime.exceptions import SchedulingError

    with pytest.raises(SchedulingError, match="chunk must be >= 1"):
        make_scheduler(schedule, chunk)


def test_zero_step_rejected():
    def loop(start, end, step):
        pass

    def body():
        run_for(loop, 0, 10, 0)

    with pytest.raises(Exception):
        parallel_region(body, num_threads=2)


@pytest.mark.parametrize("schedule", ["static_block", "static_cyclic", "dynamic", "guided"])
@pytest.mark.parametrize("chunk", [0, -1])
def test_a_chunk_below_one_is_rejected_in_a_team(schedule, chunk):
    """Never an empty share: a static member computes its share without a
    scheduler object, so it checks the chunk itself."""
    from repro.runtime.exceptions import SchedulingError
    from repro.runtime.team import Team

    calls = []
    ctx.push_context(ctx.ExecutionContext(team=Team(2), thread_id=1))
    try:
        with pytest.raises(SchedulingError, match="chunk must be >= 1"):
            run_for(lambda *r: calls.append(r), 0, 10, 1, schedule=schedule, chunk=chunk, nowait=True)
    finally:
        ctx.pop_context()
    assert calls == []


@pytest.mark.parametrize("backend_name", CONFORMANCE_BACKENDS)
class TestWorksharingConformance:
    """Every schedule must partition identically-observably on every backend.

    Coverage counters live in shared memory, so the assertions are the same
    whether members are the calling thread (serial), OS threads, or worker
    processes: each iteration executed exactly once, loop results identical.
    """

    @pytest.mark.parametrize("schedule", ["staticBlock", "staticCyclic", "dynamic", "guided"])
    def test_every_iteration_executed_exactly_once(self, backend_name, schedule):
        with shm.SharedArray.zeros(101, np.int64) as counts:

            def loop(start, end, step, bump):
                for i in range(start, end, step):
                    counts[i] += bump

            def body():
                run_for(loop, 0, 101, 1, 5, schedule=schedule, chunk=3)

            parallel_region(body, num_threads=4, backend=backend_name)
            assert counts.np.tolist() == [5] * 101

    @pytest.mark.parametrize("schedule", ["staticBlock", "staticCyclic", "dynamic", "guided", "auto"])
    def test_row_loop_covers_grid_once(self, backend_name, schedule):
        """A loop over the rows of a 2-D shared array, each body call
        sweeping whole rows: every cell is written exactly once."""
        rows, cols = 5, 7
        with shm.SharedArray.zeros((rows, cols), np.int64) as hits:

            def row_loop(start, end, step):
                for r in range(start, end, step):
                    for c in range(cols):
                        hits[r, c] += 1

            def body():
                run_for(row_loop, 0, rows, 1, schedule=schedule, chunk=2)

            parallel_region(body, num_threads=3, backend=backend_name)
            assert (np.asarray(hits) == 1).all()

    @pytest.mark.parametrize("schedule", ["staticBlock", "staticCyclic", "dynamic", "guided"])
    def test_more_members_than_iterations(self, backend_name, schedule):
        """Four members share three outer iterations.  Every iteration runs
        once with the extra argument, and a member left without work still
        waits at the loop's barrier for the others' writes."""
        shape = (3, 4, 2)
        with shm.SharedArray.zeros(shape, np.int64) as hits, shm.SharedArray.zeros(4, np.int64) as seen:

            def block(start, end, step, bump):
                for a in range(start, end, step):
                    for b in range(shape[1]):
                        for c in range(shape[2]):
                            hits[a, b, c] += bump

            def body():
                run_for(block, 0, shape[0], 1, 5, schedule=schedule)
                seen[ctx.get_thread_id()] = int(hits.np.sum())

            parallel_region(body, num_threads=4, backend=backend_name)
            assert (np.asarray(hits) == 5).all()
            total = 5 * shape[0] * shape[1] * shape[2]
            members = 1 if backend_name == "serial" else 4
            assert seen.np.tolist() == [total] * members + [0] * (4 - members)

    @pytest.mark.parametrize("rng", [(1, 30, 3), (10, 0, -2), (5, 5, 1), (0, 7, 10)])
    def test_strided_and_degenerate_ranges(self, backend_name, rng):
        start, end, step = rng
        expected = sorted(range(start, end, step))
        with shm.SharedArray.zeros(64, np.int64) as counts:

            def loop(s, e, st):
                for i in range(s, e, st):
                    counts[i] += 1

            def body():
                run_for(loop, start, end, step, schedule="staticBlock")

            parallel_region(body, num_threads=3, backend=backend_name)
            hit = sorted(int(i) for i in np.nonzero(counts.np)[0])
            assert hit == expected
            assert counts.np.max() <= 1

    def test_static_block_ownership_matches_partition(self, backend_name):
        """Static assignment is a function of (thread_id, team size) only —
        identical for threads and processes; serial owns everything (team of 1)."""
        n = 12
        with shm.SharedArray.zeros(n, np.int64) as owner:
            owner.np[:] = -1

            def loop(start, end, step):
                for i in range(start, end, step):
                    owner[i] = ctx.get_thread_id()

            def body():
                run_for(loop, 0, n, 1, schedule="staticBlock")

            parallel_region(body, num_threads=4, backend=backend_name)
            if backend_name == "serial":
                assert owner.np.tolist() == [0] * n
            else:
                assert owner.np.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]

    def test_cyclic_ownership_matches_partition(self, backend_name):
        n = 9
        with shm.SharedArray.zeros(n, np.int64) as owner:

            def loop(start, end, step):
                for i in range(start, end, step):
                    owner[i] = ctx.get_thread_id()

            def body():
                run_for(loop, 0, n, 1, schedule="staticCyclic")

            parallel_region(body, num_threads=3, backend=backend_name)
            if backend_name == "serial":
                assert owner.np.tolist() == [0] * n
            else:
                assert owner.np.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_consecutive_loops_are_barrier_separated(self, backend_name):
        """The second loop reads what the first produced: needs the implicit barrier."""
        n = 24
        with shm.SharedArray.zeros(n, np.int64) as first, shm.SharedArray.zeros(n, np.int64) as second:

            def produce(start, end, step):
                for i in range(start, end, step):
                    first[i] = i + 1

            def consume(start, end, step):
                total = int(first.np.sum())  # must observe every produce write
                for i in range(start, end, step):
                    second[i] = total

            def body():
                run_for(produce, 0, n, 1, schedule="staticCyclic")
                run_for(consume, 0, n, 1, schedule="staticBlock")

            parallel_region(body, num_threads=4, backend=backend_name)
            expected_total = sum(range(1, n + 1))
            assert second.np.tolist() == [expected_total] * n

    def test_loop_result_returned_to_master(self, backend_name):
        def loop(start, end, step):
            return sum(range(start, end, step))

        def body():
            return run_for(loop, 0, 10, 1, schedule="staticBlock")

        result = parallel_region(body, num_threads=2, backend=backend_name)
        # The master's last chunk: full range for serial, first half otherwise.
        assert result == (sum(range(10)) if backend_name == "serial" else sum(range(5)))

    def test_dynamic_chunk_sizes_respected(self, backend_name):
        """The claim contract holds on every backend (claim order differs).

        A body call is one claim: it starts on the ``chunk`` grid, is a whole
        number of chunks (short only at the loop's end) and the calls tile
        the range exactly once.
        """
        spans = shm.SharedArray.zeros(64, np.int64)
        try:

            def loop(start, end, step):
                spans[start] = end - start

            def body():
                run_for(loop, 0, 64, 1, schedule="dynamic", chunk=5)

            parallel_region(body, num_threads=4, backend=backend_name)
            calls = [(int(i), int(i + spans[i]), 1) for i in np.nonzero(spans.np)[0]]
            if backend_name == "serial":
                # Sequential semantics: a team of one executes the untouched range.
                assert calls == [(0, 64, 1)]
            else:
                grid = [(i, min(i + 5, 64), 1) for i in range(0, 64, 5)]
                assert_claim_contract(calls, grid, 0, 64, 1)
        finally:
            spans.close()


@pytest.mark.parametrize("backend_name", CONFORMANCE_BACKENDS)
def test_single_and_master_conform_or_fail_loudly(backend_name):
    """single/master broadcast needs a shared heap: identical values on
    serial/threads, a BackendCapabilityError surfaced as the BrokenTeamError
    cause on raw process teams (the weaver's fallback avoids this for woven
    programs)."""
    def body():
        single_value = SingleRegion(key="probe").run(lambda: 41)
        master_value = MasterRegion(key="probe").run(lambda: ctx.get_thread_id() + 100)
        return single_value, master_value

    if backend_name == "processes":
        from repro.runtime.exceptions import BrokenTeamError

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=3, backend=backend_name)
        assert isinstance(excinfo.value.__cause__, BackendCapabilityError)
    else:
        assert parallel_region(body, num_threads=3, backend=backend_name) == (41, 100)


def test_critical_rejected_on_process_team():
    """In-process locks can't span a process team; critical_call fails loudly
    instead of silently losing mutual exclusion."""
    from repro.runtime.critical import critical_call
    from repro.runtime.exceptions import BrokenTeamError

    def body():
        return critical_call(lambda: 1, key="probe")

    with pytest.raises(BrokenTeamError) as excinfo:
        parallel_region(body, num_threads=2, backend="processes")
    assert isinstance(excinfo.value.__cause__, BackendCapabilityError)
    # Outside a region (and on thread teams) it still works.
    assert critical_call(lambda: 2, key="probe") == 2
    assert parallel_region(body, num_threads=2, backend="threads") == 1


def test_ordered_loop_rejected_on_process_team():
    from repro.runtime.exceptions import BrokenTeamError

    def loop(start, end, step):
        pass

    def body():
        run_for(loop, 0, 8, 1, ordered=True)

    with pytest.raises(BrokenTeamError) as excinfo:
        parallel_region(body, num_threads=2, backend="processes")
    assert isinstance(excinfo.value.__cause__, BackendCapabilityError)


@pytest.mark.parametrize("backend_name", CONFORMANCE_BACKENDS)
class TestAutoScheduleConformance:
    """``schedule="auto"`` must stay correct on every backend while it tunes.

    Whatever candidate the tuner picks per invocation (including the serial
    fallback), every iteration executes exactly once and loops stay
    barrier-separated — on in-process teams (ticket shared through a team
    slot) and process teams (plan published through the shm tune arena).
    """

    def test_every_iteration_executed_exactly_once_across_invocations(self, backend_name):
        invocations = 8
        with shm.SharedArray.zeros(101, np.int64) as counts:

            def loop(start, end, step):
                for i in range(start, end, step):
                    counts[i] += 1

            def body():
                for _ in range(invocations):
                    run_for(loop, 0, 101, 1, schedule="auto")

            parallel_region(body, num_threads=4, backend=backend_name)
            assert counts.np.tolist() == [invocations] * 101

    def test_a_member_many_nowait_auto_loops_behind_still_reads_its_plans(self, backend_name):
        """Tune-plan slots recycle every 32 loop ordinals: member 0, racing
        100 ``nowait`` auto loops ahead of a late member, must not overwrite a
        plan that member has yet to read."""
        import time

        loops, n = 100, 16
        with shm.SharedArray.zeros((loops, n), np.int64) as counts:

            def body():
                if ctx.current_context().thread_id != 0:
                    time.sleep(0.3)  # member 0 publishes far ahead meanwhile
                for index in range(loops):

                    def loop(start, end, step, row=index):
                        counts.np[row, start:end:step] += 1

                    run_for(loop, 0, n, 1, schedule="auto", loop_name="nowait-race", nowait=True)

            parallel_region(body, num_threads=2, backend=backend_name)
            assert counts.np.tolist() == [[1] * n] * loops

    def test_auto_loops_are_barrier_separated(self, backend_name):
        n = 24
        with shm.SharedArray.zeros(n, np.int64) as first, shm.SharedArray.zeros(n, np.int64) as second:

            def produce(start, end, step):
                for i in range(start, end, step):
                    first[i] = i + 1

            def consume(start, end, step):
                total = int(first.np.sum())  # must observe every produce write
                for i in range(start, end, step):
                    second[i] = total

            def body():
                run_for(produce, 0, n, 1, schedule="auto")
                run_for(consume, 0, n, 1, schedule="auto")

            parallel_region(body, num_threads=4, backend=backend_name)
            expected_total = sum(range(1, n + 1))
            assert second.np.tolist() == [expected_total] * n


class TestAutoScheduleTuning:
    """Tuner integration details that need an in-process team to observe."""

    def _forced_serial_tuner(self):
        """A tuner whose serial cutoff is huge: every probe converges serial."""
        from repro.tune import LoopTuner, TunerConfig

        return LoopTuner(TunerConfig(serial_margin=1e9), cache_path=None)

    def test_serial_fallback_runs_on_the_master_only(self):
        from repro.tune import tuner_override

        n = 12
        with shm.SharedArray.zeros(n, np.int64) as owner, shm.SharedArray.zeros(n, np.int64) as counts:
            owner.np[:] = -1

            def loop(start, end, step):
                for i in range(start, end, step):
                    owner[i] = ctx.get_thread_id()
                    counts[i] += 1

            def body():
                for _ in range(3):
                    run_for(loop, 0, n, 1, schedule="auto")

            with tuner_override(self._forced_serial_tuner()) as tuner:
                parallel_region(body, num_threads=4, backend="threads")
                site = tuner.sites()[0]
            # Invocation 1 probes static_block; from invocation 2 on the site
            # is converged serial, so the master owns every iteration.
            assert site.converged and site.choice.serial
            assert counts.np.tolist() == [3] * n
            assert owner.np.tolist() == [0] * n

    def test_tune_decisions_recorded_in_trace(self, recorder):
        def loop(start, end, step):
            pass

        def body():
            for _ in range(4):
                run_for(loop, 0, 64, 1, schedule="auto", loop_name="tuned")

        parallel_region(body, num_threads=2)
        decisions = recorder.events(EventKind.TUNE_DECISION)
        assert len(decisions) == 4
        assert {e.data["loop"] for e in decisions} == {"tuned"}
        assert [e.data["invocation"] for e in decisions] == [1, 2, 3, 4]
        # Decisions are recorded by the observing master only.
        assert {e.thread_id for e in decisions} == {0}
        for event in decisions:
            assert event.data["schedule"] in (
                "serial",
                "static_block",
                "static_cyclic",
                "dynamic",
                "guided",
            )
            assert event.data["elapsed"] >= 0.0

    def test_auto_converges_toward_best_candidate_under_synthetic_load(self):
        """End-to-end: a triangular sleep loop converges off the master's
        real measurements (any non-serial balanced candidate is acceptable)."""
        import time as _time

        from repro.tune import tuner_override, LoopTuner, TunerConfig

        n = 16

        def tri(start, end, step):
            for i in range(start, end, step):
                _time.sleep(0.002 * (n - i) / n)

        def body():
            for _ in range(14):
                run_for(tri, 0, n, 1, schedule="auto", loop_name="tri")

        with tuner_override(LoopTuner(TunerConfig(), cache_path=None)) as tuner:
            parallel_region(body, num_threads=4, backend="threads")
            site = tuner.sites()[0]
        assert site.converged
        assert not site.choice.serial
        assert len(site.samples) > 1  # its static probes were imbalanced: it searched

    def test_nowait_auto_loop_keeps_the_full_search(self, recorder):
        """A nowait loop has no barrier to collect member times behind."""
        from repro.tune import LoopTuner, TunerConfig, candidates_for, tuner_override

        n = 64

        def loop(start, end, step):
            for i in range(start, end, step):
                sum(range(2000))

        def body():
            for _ in range(3):
                run_for(loop, 0, n, 1, schedule="auto", loop_name="nowait", nowait=True)
                ctx.current_context().team.barrier()  # the master has observed

        with tuner_override(LoopTuner(TunerConfig(serial_margin=0.0), cache_path=None)):
            parallel_region(body, num_threads=2, backend="threads")
        decisions = [event.data for event in recorder.events(EventKind.TUNE_DECISION)]
        expected = candidates_for(n, 2)[:3]
        assert [(d["schedule"], d["chunk"]) for d in decisions] == [(c.schedule.value, c.chunk) for c in expected]
        assert not any("imbalance" in d or d.get("transition") == "balanced" for d in decisions)


    def test_auto_outside_any_region_runs_sequentially(self):
        executed = []

        def loop(start, end, step):
            executed.extend(range(start, end, step))

        run_for(loop, 0, 10, 1, schedule="auto")
        assert executed == list(range(10))

    def test_default_schedule_spec_from_config(self):
        """run_for without schedule= honours AOMP_SCHEDULE-style config specs."""
        from repro.runtime.config import config_override

        spans = []
        lock = threading.Lock()

        def loop(start, end, step):
            with lock:
                spans.append((start, end))

        def body():
            run_for(loop, 0, 20, 1)

        with config_override(default_schedule="dynamic,5"):
            parallel_region(body, num_threads=2)
        # dynamic,5: every body call is a run of whole 5-iteration chunks.
        grid = [(i, i + 5, 1) for i in range(0, 20, 5)]
        assert_claim_contract([(s, e, 1) for s, e in spans], grid, 0, 20, 1)


@pytest.mark.parametrize("backend_name", ("threads", "processes", "distributed"))
def test_uniform_cpu_loop_commits_static_block_in_two_invocations(backend_name, recorder):
    """The static probes read a balanced loop: no search, on every tier."""
    from repro.runtime.scheduler import Schedule
    from repro.tune import Candidate, LoopTuner, TunerConfig, tuner_override

    n = 400
    with shm.SharedArray.zeros(n, np.int64) as out:

        def loop(start, end, step):
            for i in range(start, end, step):
                out[i] = sum(range(3000))

        def body():
            for _ in range(2):
                run_for(loop, 0, n, 1, schedule="auto", loop_name="uniform")

        with tuner_override(LoopTuner(TunerConfig(), cache_path=None)) as tuner:
            parallel_region(body, num_threads=2, backend=backend_name)
            (site,) = tuner.sites()
        assert out.np.tolist() == [sum(range(3000))] * n
    decisions = [event.data for event in recorder.events(EventKind.TUNE_DECISION)]
    assert [d["schedule"] for d in decisions] == ["static_block", "static_block"]
    assert decisions[-1]["transition"] == "balanced"
    assert all(0.0 <= d["imbalance"] < 1.0 for d in decisions)
    assert site.converged and not site.probation
    assert site.choice == Candidate(Schedule.STATIC_BLOCK)


def test_thread_local_field_rejected_on_process_team():
    """Per-thread copies silently vanish in workers; fail loudly instead."""
    from repro.core.aspects.data import ThreadLocalFieldAspect
    from repro.runtime.exceptions import BrokenTeamError

    class Holder:
        pass

    aspect = ThreadLocalFieldAspect("value", classes=[Holder])
    undo = aspect.apply(Holder)
    try:
        holder = Holder()
        holder.value = 1.25  # outside a region: the shared slot

        def body():
            return holder.value

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=2, backend="processes")
        assert isinstance(excinfo.value.__cause__, BackendCapabilityError)
        # Thread teams (and teams of one) still honour the construct.
        assert parallel_region(body, num_threads=2, backend="threads") == 1.25
        assert parallel_region(body, num_threads=1, backend="processes") == 1.25
    finally:
        undo()


def test_reduce_rejected_on_process_team():
    from repro.core import ReduceAspect, ThreadLocalFieldAspect, Weaver, call
    from repro.runtime.exceptions import BrokenTeamError
    from repro.runtime.threadlocal import CallableReducer

    class Accumulator:
        def __init__(self):
            self.total = 0.0

        def work(self):
            self.total = self.total + 1.0

    field_aspect = ThreadLocalFieldAspect("total", classes=[Accumulator])
    reduce_aspect = ReduceAspect(
        call("Accumulator.work"),
        field_aspect=field_aspect,
        reducer=CallableReducer(lambda a, b: a + b),
        include_shared=False,
    )
    weaver = Weaver()
    weaver.weave(field_aspect, Accumulator)
    weaver.weave(reduce_aspect, Accumulator)
    try:
        accumulator = Accumulator()

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(accumulator.work, num_threads=2, backend="processes")
        assert isinstance(excinfo.value.__cause__, BackendCapabilityError)

        # The same woven program reduces correctly on a thread team.
        parallel_region(accumulator.work, num_threads=2, backend="threads")
        assert accumulator.total == 2.0
    finally:
        weaver.unweave_all()


def test_multiple_loops_in_one_region():
    order = []
    lock = threading.Lock()

    def loop_a(start, end, step):
        with lock:
            order.extend(("a", i) for i in range(start, end, step))

    def loop_b(start, end, step):
        with lock:
            order.extend(("b", i) for i in range(start, end, step))

    def body():
        run_for(loop_a, 0, 6, 1)
        run_for(loop_b, 0, 6, 1)

    parallel_region(body, num_threads=3)
    a_indices = sorted(i for tag, i in order if tag == "a")
    b_indices = sorted(i for tag, i in order if tag == "b")
    assert a_indices == list(range(6))
    assert b_indices == list(range(6))


# ---------------------------------------------------------------------------
# zero-trip fast path
# ---------------------------------------------------------------------------


class TestZeroTripFastPath:
    """A zero-trip loop must not dispatch a scheduler, trace, or tune."""

    @pytest.mark.parametrize("schedule", ["staticBlock", "dynamic", "guided", "auto"])
    def test_no_chunk_events_inside_a_team(self, schedule, recorder):
        calls = []

        def loop(start, end, step):
            calls.append((start, end, step))

        def body():
            run_for(loop, 5, 5, 1, schedule=schedule)
            run_for(loop, 10, 0, 1, schedule=schedule)

        parallel_region(body, num_threads=3)
        assert calls == []
        assert recorder.events(EventKind.CHUNK) == []
        assert recorder.events(EventKind.TUNE_DECISION) == []

    def test_no_tuner_observation(self):
        from repro.tune.tuner import get_tuner

        def body():
            run_for(lambda s, e, st: None, 3, 3, 1, schedule="auto", loop_name="empty")

        parallel_region(body, num_threads=2)
        assert get_tuner().sites() == []

    def test_sequential_zero_trip_records_nothing(self, recorder):
        calls = []
        run_for(lambda s, e, st: calls.append(1), 7, 7, 1)
        assert calls == []
        assert recorder.events(EventKind.CHUNK) == []

    def test_implicit_barrier_still_synchronises(self):
        """Members must still meet at the zero-trip loop's implicit barrier."""
        with shm.SharedArray.zeros(4, np.int64) as stamps:

            def body():
                stamps[ctx.get_thread_id()] = 1
                run_for(lambda s, e, st: None, 0, 0, 1)
                assert int(np.asarray(stamps)[: ctx.get_num_team_threads()].sum()) == ctx.get_num_team_threads()

            parallel_region(body, num_threads=4)

    def test_zero_trip_keeps_ordinals_aligned(self):
        """A zero-trip loop still consumes a loop ordinal on every member, so
        a following dynamic loop uses matching claim slots."""
        total = 24
        with shm.SharedArray.zeros(total, np.int64) as counts:

            def loop(start, end, step):
                for i in range(start, end, step):
                    counts[i] += 1

            def body():
                run_for(loop, 0, 0, 1, schedule="dynamic")
                run_for(loop, 0, total, 1, schedule="dynamic")

            parallel_region(body, num_threads=4, backend="processes")
            assert np.asarray(counts).tolist() == [1] * total


def test_thread_members_claim_every_unit_once_under_preemption():
    """A thread team's dynamic/guided cursors and taskloop deck are cells of
    one heap arena.  With more members than processors and a thread switch
    every microsecond, a lost update would run a unit twice or never."""
    import sys

    from repro.runtime.tasks import run_taskloop

    total = 1500
    runs = {label: np.zeros(total, dtype=np.int64) for label in ("dynamic,1", "guided", "taskloop")}

    def marker(label):
        def loop(start, end, step):
            for index in range(start, end, step):
                runs[label][index] += 1

        return loop

    def body():
        run_for(marker("dynamic,1"), 0, total, 1, schedule="dynamic,1")
        run_for(marker("guided"), 0, total, 1, schedule="guided")
        run_taskloop(marker("taskloop"), 0, total, 1, grainsize=3)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel_region(body, num_threads=6, backend="threads")
    finally:
        sys.setswitchinterval(previous)
    for label, counts in runs.items():
        assert (counts == 1).all(), f"{label}: units run {sorted(set(counts.tolist()))} times"
