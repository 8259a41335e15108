"""Property tests for batched dynamic/guided claim states.

Dynamic and guided schedules claim **batches** of chunks per lock (or shm
arena) round-trip.  Whatever the range, chunk size, batch size and number of
interleaved consumers, the batched claims must still cover every iteration
exactly once, preserve chunk boundaries, and leave work for other consumers
until the range is exhausted (tail fallback).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.runtime.scheduler import (
    DynamicScheduler,
    GuidedScheduler,
    _DynamicLoopState,
)
from repro.runtime.shm import ProcessDynamicState, ProcessGuidedState, SyncArena

CASES = 40


def _random_cases(seed: int):
    rng = random.Random(seed)
    for _ in range(CASES):
        start = rng.randint(-40, 40)
        step = rng.choice([-5, -3, -2, -1, 1, 2, 3, 7])
        span = rng.randint(0, 150)
        end = start + (span if step > 0 else -span)
        num_threads = rng.randint(1, 8)
        chunk = rng.randint(1, 9)
        batch = rng.randint(1, 32)
        yield start, end, step, num_threads, chunk, batch


def _drain_interleaved(generators, rng: random.Random) -> list:
    """Round-robin-ish drain of several claim generators (random order)."""
    produced = []
    live = list(generators)
    while live:
        gen = rng.choice(live)
        piece = next(gen, None)
        if piece is None:
            live.remove(gen)
        else:
            produced.append(piece)
    return produced


def _assert_exact_coverage(pieces, start, end, step, label):
    indices = sorted(i for piece in pieces for i in piece.indices())
    assert indices == sorted(range(start, end, step)), f"{label}: coverage broken"


class TestBatchedDynamicClaims:
    def test_random_ranges_chunks_batches_cover_exactly_once(self):
        rng = random.Random(99)
        for start, end, step, num_threads, chunk, batch in _random_cases(seed=20260730):
            scheduler = DynamicScheduler(chunk=chunk, batch=batch)
            state = scheduler.new_state(start, end, step, num_threads)
            generators = [
                scheduler.chunks_from(state, start, end, step) for _ in range(num_threads)
            ]
            pieces = _drain_interleaved(generators, rng)
            label = f"dynamic[range=({start},{end},{step}) chunk={chunk} batch={batch} nt={num_threads}]"
            _assert_exact_coverage(pieces, start, end, step, label)
            # Chunk boundaries must be unchanged by batching: every chunk
            # starts on a multiple of `chunk` logical iterations and is full
            # sized except possibly the last.
            total = len(range(start, end, step))
            for piece in pieces:
                begin = (piece.start - start) // step
                assert begin % chunk == 0, f"{label}: misaligned chunk {piece}"
                assert piece.count == min(chunk, total - begin), f"{label}: resized chunk {piece}"

    def test_tail_fallback_leaves_work_for_other_consumers(self):
        """A single huge batch may not strip a shared state bare."""
        state = _DynamicLoopState(total_chunks=10, num_threads=2)
        first = state.next_chunks(limit=1000)
        assert first is not None
        _, count = first
        assert count <= 5  # at most remaining // 2
        assert state.next_chunks(1) is not None

    def test_batched_claims_are_consecutive_and_monotone(self):
        state = _DynamicLoopState(total_chunks=100, num_threads=1)
        cursor = 0
        while True:
            claim = state.next_chunks(7)
            if claim is None:
                break
            first, count = claim
            assert first == cursor
            assert 1 <= count <= 7
            cursor += count
        assert cursor == 100


class TestMemoisedSchedulers:
    def test_make_scheduler_returns_shared_instance(self):
        from repro.runtime.scheduler import make_scheduler

        assert make_scheduler("dynamic", chunk=3) is make_scheduler("dynamic", chunk=3)
        assert make_scheduler("dynamic", chunk=3) is not make_scheduler("dynamic", chunk=4)

    def test_shared_instances_refuse_mutation(self):
        from repro.runtime.scheduler import make_scheduler

        shared = make_scheduler("dynamic", chunk=3)
        with pytest.raises(AttributeError, match="shared and immutable"):
            shared.chunk = 8
        assert shared.chunk == 3
        # Directly constructed schedulers stay user-configurable.
        own = DynamicScheduler(chunk=3)
        own.chunk = 8
        assert own.chunk == 8


class TestBatchedGuidedClaims:
    def test_random_ranges_cover_exactly_once(self):
        rng = random.Random(7)
        for start, end, step, num_threads, chunk, batch in _random_cases(seed=424242):
            scheduler = GuidedScheduler(min_chunk=chunk, batch=batch)
            state = scheduler.new_guided_state(start, end, step, num_threads)
            generators = [
                scheduler.chunks_from_guided(state, start, end, step) for _ in range(num_threads)
            ]
            pieces = _drain_interleaved(generators, rng)
            label = f"guided[range=({start},{end},{step}) min={chunk} batch={batch} nt={num_threads}]"
            _assert_exact_coverage(pieces, start, end, step, label)

    def test_tail_fallback_leaves_blocks_for_other_consumers(self):
        """One batch may not strip the min_chunk tail bare (mirrors dynamic)."""
        from repro.runtime.scheduler import _GuidedLoopState

        # 8 threads, min_chunk=64, 511 iterations left: decay has bottomed
        # out, the tail holds ~8 blocks — a huge batch must leave some.
        state = _GuidedLoopState(total=511, min_chunk=64, num_threads=8)
        blocks = state.next_ranges(limit=1000)
        assert blocks is not None
        assert len(blocks) <= 3  # at most remaining_blocks // num_threads-ish
        assert state.next_ranges(1) is not None

    def test_block_boundaries_match_unbatched_claiming(self):
        """Batching must not change the guided decay sequence."""
        total, min_chunk, num_threads = 137, 3, 4
        unbatched = GuidedScheduler(min_chunk=min_chunk, batch=1)
        batched = GuidedScheduler(min_chunk=min_chunk, batch=8)
        seq_a = [
            (piece.start, piece.end)
            for piece in unbatched.chunks_for(0, num_threads, 0, total, 1)
        ]
        seq_b = [
            (piece.start, piece.end)
            for piece in batched.chunks_for(0, num_threads, 0, total, 1)
        ]
        assert seq_a == seq_b


class TestArenaBatchedClaims:
    """The shm arena states must behave exactly like the in-process ones."""

    @pytest.fixture(scope="class")
    def arena(self):
        return SyncArena(capacity=64)

    _ordinals = itertools.count()

    def test_dynamic_arena_matches_in_process_coverage(self, arena):
        rng = random.Random(5)
        for start, end, step, num_threads, chunk, batch in _random_cases(seed=31337):
            scheduler = DynamicScheduler(chunk=chunk, batch=batch)
            total = len(range(start, end, step))
            total_chunks = (total + chunk - 1) // chunk
            state = ProcessDynamicState(arena.slot(next(self._ordinals)), total_chunks, num_threads)
            generators = [
                scheduler.chunks_from(state, start, end, step) for _ in range(num_threads)
            ]
            pieces = _drain_interleaved(generators, rng)
            _assert_exact_coverage(
                pieces, start, end, step, f"arena-dynamic[({start},{end},{step})x{chunk}b{batch}]"
            )

    def test_guided_arena_matches_in_process_boundaries(self, arena):
        rng = random.Random(6)
        for start, end, step, num_threads, chunk, batch in _random_cases(seed=2718):
            scheduler = GuidedScheduler(min_chunk=chunk, batch=batch)
            total = len(range(start, end, step))
            state = ProcessGuidedState(arena.slot(next(self._ordinals)), total, chunk, num_threads)
            generators = [
                scheduler.chunks_from_guided(state, start, end, step) for _ in range(num_threads)
            ]
            pieces = _drain_interleaved(generators, rng)
            _assert_exact_coverage(
                pieces, start, end, step, f"arena-guided[({start},{end},{step})x{chunk}b{batch}]"
            )

    def test_arena_single_consumer_sequence_equals_lock_state(self, arena):
        """Same claims from the arena and the threading.Lock state."""
        total_chunks, num_threads, batch = 53, 3, 8
        lock_state = _DynamicLoopState(total_chunks, num_threads)
        arena_state = ProcessDynamicState(arena.slot(next(self._ordinals)), total_chunks, num_threads)
        while True:
            a = lock_state.next_chunks(batch)
            b = arena_state.next_chunks(batch)
            assert a == b
            if a is None:
                break
