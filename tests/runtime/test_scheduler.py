"""Unit and property-based tests for the loop schedulers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.exceptions import SchedulingError
from repro.runtime.scheduler import (
    DynamicScheduler,
    GuidedScheduler,
    LoopChunk,
    Schedule,
    StaticBlockScheduler,
    StaticCyclicScheduler,
    make_scheduler,
    parse_schedule_spec,
)
from repro.runtime.shm import SyncArena, heap_slot


def expand(chunks):
    """Expand a list of LoopChunk into the explicit iteration indices."""
    indices = []
    for chunk in chunks:
        indices.extend(chunk.indices())
    return indices


class TestLoopChunk:
    def test_count_simple(self):
        assert LoopChunk(0, 10, 1).count == 10
        assert LoopChunk(0, 10, 3).count == 4
        assert LoopChunk(5, 5, 1).count == 0
        assert LoopChunk(10, 0, 1).count == 0

    def test_count_negative_step(self):
        assert LoopChunk(10, 0, -1).count == 10
        assert LoopChunk(10, 0, -3).count == 4

    def test_zero_step_rejected(self):
        with pytest.raises(SchedulingError):
            LoopChunk(0, 10, 0).count

    def test_indices_match_range(self):
        chunk = LoopChunk(3, 17, 2)
        assert list(chunk.indices()) == list(range(3, 17, 2))
        assert chunk.count == len(list(chunk.indices()))

    def test_is_empty(self):
        assert LoopChunk(4, 4, 1).is_empty()
        assert not LoopChunk(4, 5, 1).is_empty()


class TestSchedule:
    @pytest.mark.parametrize(
        "alias, expected",
        [
            ("staticBlock", Schedule.STATIC_BLOCK),
            ("static", Schedule.STATIC_BLOCK),
            ("block", Schedule.STATIC_BLOCK),
            ("staticCyclic", Schedule.STATIC_CYCLIC),
            ("cyclic", Schedule.STATIC_CYCLIC),
            ("dynamic", Schedule.DYNAMIC),
            ("guided", Schedule.GUIDED),
            (Schedule.DYNAMIC, Schedule.DYNAMIC),
        ],
    )
    def test_parse_aliases(self, alias, expected):
        assert Schedule.parse(alias) is expected

    def test_parse_unknown(self):
        with pytest.raises(SchedulingError):
            Schedule.parse("round-robin")

    def test_parse_unknown_lists_valid_names(self):
        """The error must name every valid schedule so the fix is self-evident."""
        with pytest.raises(SchedulingError) as excinfo:
            Schedule.parse("round-robin")
        message = str(excinfo.value)
        assert "'round-robin'" in message
        for member in Schedule:
            assert member.value in message
        assert "staticblock" in message  # aliases are listed too

    def test_parse_non_string_rejected_with_valid_names(self):
        with pytest.raises(SchedulingError) as excinfo:
            Schedule.parse(42)
        message = str(excinfo.value)
        assert "int" in message
        for member in Schedule:
            assert member.value in message

    def test_factory_returns_right_types(self):
        assert isinstance(make_scheduler("staticBlock"), StaticBlockScheduler)
        assert isinstance(make_scheduler("staticCyclic"), StaticCyclicScheduler)
        assert isinstance(make_scheduler("dynamic"), DynamicScheduler)
        assert isinstance(make_scheduler("guided"), GuidedScheduler)

    @pytest.mark.parametrize("alias", ["auto", "AUTO", "adaptive"])
    def test_parse_auto_aliases(self, alias):
        assert Schedule.parse(alias) is Schedule.AUTO

    def test_make_scheduler_auto_raises_pointed_error(self):
        """'auto' has no standalone scheduler; the error must say where it lives."""
        with pytest.raises(SchedulingError) as excinfo:
            make_scheduler("auto")
        message = str(excinfo.value)
        assert "auto" in message
        assert "tuner" in message
        # Every concrete alternative is named so the fix is self-evident.
        for member in Schedule:
            if member is not Schedule.AUTO:
                assert member.value in message

    def test_parse_schedule_spec_with_chunk(self):
        assert parse_schedule_spec("dynamic,4") == (Schedule.DYNAMIC, 4)
        assert parse_schedule_spec("guided") == (Schedule.GUIDED, None)
        assert parse_schedule_spec("auto") == (Schedule.AUTO, None)
        assert parse_schedule_spec(Schedule.STATIC_CYCLIC) == (Schedule.STATIC_CYCLIC, None)
        with pytest.raises(SchedulingError):
            parse_schedule_spec("dynamic,zero")
        with pytest.raises(SchedulingError):
            parse_schedule_spec("dynamic,0")


class TestScheduleSpecHardening:
    """Environment-shaped specs (``OMP_SCHEDULE`` style) parse leniently on
    form, strictly on content — malformed specs fail naming the valid forms
    instead of half-applying."""

    def test_whitespace_and_case_accepted(self):
        assert parse_schedule_spec("  DYNAMIC , 4 ") == (Schedule.DYNAMIC, 4)
        assert parse_schedule_spec("Guided") == (Schedule.GUIDED, None)
        assert parse_schedule_spec("STATIC-BLOCK") == (Schedule.STATIC_BLOCK, None)
        assert parse_schedule_spec("\tcyclic,8\n") == (Schedule.STATIC_CYCLIC, 8)

    @pytest.mark.parametrize(
        "spec,detail",
        [
            ("dynamic,", "trailing comma"),
            ("dynamic,4,8", "too many comma-separated fields"),
            ("dynamic,four", "chunk must be an integer"),
            ("dynamic,0", "chunk must be >= 1"),
            ("dynamic,-3", "chunk must be >= 1"),
        ],
    )
    def test_malformed_specs_name_the_valid_forms(self, spec, detail):
        with pytest.raises(SchedulingError) as excinfo:
            parse_schedule_spec(spec)
        message = str(excinfo.value)
        assert detail in message
        # Every error teaches the fix: the spec grammar and the valid kinds.
        assert 'expected "kind" or "kind,chunk"' in message
        assert "valid kinds" in message

    @settings(max_examples=200, deadline=None)
    @given(
        member=st.sampled_from(list(Schedule)),
        chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
        pads=st.lists(st.sampled_from(["", " ", "  ", "\t"]), min_size=4, max_size=4),
        upper=st.booleans(),
    )
    def test_round_trip_property(self, member, chunk, pads, upper):
        kind = member.value.upper() if upper else member.value
        if chunk is None:
            spec = f"{pads[0]}{kind}{pads[1]}"
        else:
            spec = f"{pads[0]}{kind}{pads[1]},{pads[2]}{chunk}{pads[3]}"
        assert parse_schedule_spec(spec) == (member, chunk)


class TestStaticBlock:
    def test_even_split(self):
        sched = StaticBlockScheduler()
        parts = sched.partition(4, 0, 8, 1)
        assert [expand(p) for p in parts] == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_uneven_split_assigns_extras_to_first_threads(self):
        sched = StaticBlockScheduler()
        parts = sched.partition(3, 0, 10, 1)
        sizes = [len(expand(p)) for p in parts]
        assert sizes == [4, 3, 3]
        assert expand(parts[0]) == [0, 1, 2, 3]

    def test_strided_loop(self):
        sched = StaticBlockScheduler()
        parts = sched.partition(2, 1, 20, 3)
        all_indices = sorted(i for p in parts for i in expand(p))
        assert all_indices == list(range(1, 20, 3))

    def test_more_threads_than_iterations(self):
        sched = StaticBlockScheduler()
        parts = sched.partition(8, 0, 3, 1)
        sizes = [len(expand(p)) for p in parts]
        assert sum(sizes) == 3
        assert sizes[:3] == [1, 1, 1]
        assert all(s == 0 for s in sizes[3:])

    def test_empty_range(self):
        sched = StaticBlockScheduler()
        assert expand(list(sched.chunks_for(0, 4, 5, 5, 1))) == []

    def test_bad_thread_id(self):
        sched = StaticBlockScheduler()
        with pytest.raises(SchedulingError):
            list(sched.chunks_for(4, 4, 0, 10, 1))
        with pytest.raises(SchedulingError):
            list(sched.chunks_for(-1, 4, 0, 10, 1))


class TestStaticCyclic:
    def test_cyclic_unit_chunk(self):
        sched = StaticCyclicScheduler()
        parts = sched.partition(3, 0, 7, 1)
        assert expand(parts[0]) == [0, 3, 6]
        assert expand(parts[1]) == [1, 4]
        assert expand(parts[2]) == [2, 5]

    def test_block_cyclic(self):
        sched = StaticCyclicScheduler(chunk=2)
        parts = sched.partition(2, 0, 10, 1)
        assert expand(parts[0]) == [0, 1, 4, 5, 8, 9]
        assert expand(parts[1]) == [2, 3, 6, 7]

    def test_strided(self):
        sched = StaticCyclicScheduler()
        parts = sched.partition(2, 0, 20, 2)
        assert expand(parts[0]) == [0, 4, 8, 12, 16]
        assert expand(parts[1]) == [2, 6, 10, 14, 18]

    def test_invalid_chunk(self):
        with pytest.raises(SchedulingError):
            StaticCyclicScheduler(chunk=0)


class TestDynamic:
    def test_covers_all_iterations_once(self):
        sched = DynamicScheduler(chunk=3)
        slot = heap_slot(SyncArena, 0)
        claimed = []
        claimed.extend(expand(list(sched.chunks_from(slot, 0, 10, 1))))
        assert sorted(claimed) == list(range(10))

    def test_shared_state_splits_work(self):
        sched = DynamicScheduler(chunk=2)
        slot = heap_slot(SyncArena, 0)
        gen_a = sched.chunks_from(slot, 0, 10, 1)
        gen_b = sched.chunks_from(slot, 0, 10, 1)
        # Interleave claims from two logical consumers.
        chunks = [next(gen_a), next(gen_b), next(gen_a), next(gen_b), next(gen_a)]
        assert sorted(expand(chunks)) == list(range(10))
        assert list(gen_a) == [] and list(gen_b) == []

    def test_partition_is_refused(self):
        with pytest.raises(SchedulingError):
            DynamicScheduler().partition(4, 0, 10, 1)

    def test_fallback_single_consumer(self):
        sched = DynamicScheduler(chunk=4)
        assert sorted(expand(list(sched.chunks_from(heap_slot(SyncArena, 0), 0, 11, 1, 4)))) == list(range(11))


class TestGuided:
    def test_covers_all_iterations(self):
        sched = GuidedScheduler(min_chunk=2)
        chunks = list(sched.chunks_from(heap_slot(SyncArena, 0), 0, 100, 1, 4))
        assert sorted(expand(chunks)) == list(range(100))

    def test_chunk_sizes_decay(self):
        sched = GuidedScheduler(min_chunk=1)
        chunks = list(sched.chunks_from(heap_slot(SyncArena, 0), 0, 64, 1, 4))
        counts = [c.count for c in chunks]
        assert counts[0] >= counts[-1]
        assert counts[0] == 16  # 64 / 4 threads


# -- property-based tests ----------------------------------------------------

range_strategy = st.tuples(
    st.integers(min_value=-50, max_value=50),   # start
    st.integers(min_value=0, max_value=200),    # trip count
    st.integers(min_value=1, max_value=7),      # step magnitude
).map(lambda t: (t[0], t[0] + t[1] * t[2], t[2]))


@settings(max_examples=200, deadline=None)
@given(rng=range_strategy, num_threads=st.integers(min_value=1, max_value=9),
       schedule=st.sampled_from(["staticBlock", "staticCyclic"]),
       chunk=st.integers(min_value=1, max_value=5))
def test_static_schedules_partition_exactly(rng, num_threads, schedule, chunk):
    """Every iteration is executed exactly once, by exactly one thread."""
    start, end, step = rng
    sched = make_scheduler(schedule, chunk=chunk)
    parts = sched.partition(num_threads, start, end, step)
    expected = list(range(start, end, step))
    combined = sorted(i for p in parts for i in expand(p))
    assert combined == sorted(expected)
    # No overlap between threads.
    seen = set()
    for part in parts:
        for index in expand(part):
            assert index not in seen
            seen.add(index)


@settings(max_examples=100, deadline=None)
@given(rng=range_strategy, chunk=st.integers(min_value=1, max_value=5))
def test_dynamic_schedule_claims_every_iteration_once(rng, chunk):
    start, end, step = rng
    sched = DynamicScheduler(chunk=chunk)
    claimed = expand(list(sched.chunks_from(heap_slot(SyncArena, 0), start, end, step)))
    assert sorted(claimed) == sorted(range(start, end, step))


@settings(max_examples=100, deadline=None)
@given(rng=range_strategy, num_threads=st.integers(min_value=1, max_value=8))
def test_block_schedule_is_balanced(rng, num_threads):
    """Static block assigns between floor and ceil of total/threads iterations."""
    start, end, step = rng
    sched = StaticBlockScheduler()
    parts = sched.partition(num_threads, start, end, step)
    total = len(range(start, end, step))
    low, high = total // num_threads, -(-total // num_threads)
    for part in parts:
        assert low <= len(expand(part)) <= high
