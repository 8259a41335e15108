"""Property tests for batched dynamic/guided claims.

Dynamic and guided schedules claim **batches** of chunks per claim-slot
round-trip (an in-heap or shm arena slot).  Whatever the range, chunk size, batch size and number of
interleaved consumers, the batched claims must still cover every iteration
exactly once, preserve chunk boundaries, and leave work for other consumers
until the range is exhausted (tail fallback).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.runtime.scheduler import DynamicScheduler, GuidedScheduler
from repro.runtime.shm import SyncArena, heap_slot

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
            slot = heap_slot(SyncArena, 0)
            generators = [
                scheduler.chunks_from(slot, start, end, step, num_threads) for _ in range(num_threads)
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
        """A single huge batch may not strip a shared counter bare."""
        slot = heap_slot(SyncArena, 0)
        first = slot.claim_batch(1000, 2, 10)
        assert first is not None
        _, count = first
        assert count <= 5  # at most remaining // 2
        assert slot.claim_batch(1, 2, 10) is not None

    def test_batched_claims_are_consecutive_and_monotone(self):
        slot = heap_slot(SyncArena, 0)
        cursor = 0
        while True:
            claim = slot.claim_batch(7, 1, 100)
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
            slot = heap_slot(SyncArena, 0)
            generators = [
                scheduler.chunks_from(slot, start, end, step, num_threads) for _ in range(num_threads)
            ]
            pieces = _drain_interleaved(generators, rng)
            label = f"guided[range=({start},{end},{step}) min={chunk} batch={batch} nt={num_threads}]"
            _assert_exact_coverage(pieces, start, end, step, label)

    def test_tail_fallback_leaves_blocks_for_other_consumers(self):
        """One batch may not strip the min_chunk tail bare (mirrors dynamic)."""
        # 8 threads, min_chunk=64, 511 iterations left: decay has bottomed
        # out, the tail holds ~8 blocks — a huge batch must leave some.
        slot = heap_slot(SyncArena, 0)
        blocks = slot.claim_guided_batch(511, 64, 8, 1000)
        assert blocks is not None
        assert len(blocks) <= 3  # at most remaining_blocks // num_threads-ish
        assert slot.claim_guided_batch(511, 64, 8, 1) is not None

    def test_block_boundaries_match_unbatched_claiming(self):
        """Batching must not change the guided decay sequence."""
        total, min_chunk, num_threads = 137, 3, 4
        unbatched = GuidedScheduler(min_chunk=min_chunk, batch=1)
        batched = GuidedScheduler(min_chunk=min_chunk, batch=8)
        seq_a = [
            (piece.start, piece.end)
            for piece in unbatched.chunks_from(heap_slot(SyncArena, 0), 0, total, 1, num_threads)
        ]
        seq_b = [
            (piece.start, piece.end)
            for piece in batched.chunks_from(heap_slot(SyncArena, 0), 0, total, 1, num_threads)
        ]
        assert seq_a == seq_b


class TestArenaBatchedClaims:
    """The fork-inherited shm arena claims cover like the in-heap one."""

    @pytest.fixture(scope="class")
    def arena(self):
        return SyncArena(capacity=64)

    _ordinals = itertools.count()

    def test_dynamic_arena_matches_in_process_coverage(self, arena):
        rng = random.Random(5)
        for start, end, step, num_threads, chunk, batch in _random_cases(seed=31337):
            scheduler = DynamicScheduler(chunk=chunk, batch=batch)
            slot = arena.slot(next(self._ordinals))
            generators = [
                scheduler.chunks_from(slot, start, end, step, num_threads) for _ in range(num_threads)
            ]
            pieces = _drain_interleaved(generators, rng)
            _assert_exact_coverage(
                pieces, start, end, step, f"arena-dynamic[({start},{end},{step})x{chunk}b{batch}]"
            )

    def test_guided_arena_matches_in_process_boundaries(self, arena):
        rng = random.Random(6)
        for start, end, step, num_threads, chunk, batch in _random_cases(seed=2718):
            scheduler = GuidedScheduler(min_chunk=chunk, batch=batch)
            slot = arena.slot(next(self._ordinals))
            generators = [
                scheduler.chunks_from(slot, start, end, step, num_threads) for _ in range(num_threads)
            ]
            pieces = _drain_interleaved(generators, rng)
            _assert_exact_coverage(
                pieces, start, end, step, f"arena-guided[({start},{end},{step})x{chunk}b{batch}]"
            )
