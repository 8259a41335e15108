"""Property-based scheduler tests.

For randomly generated ``(start, end, step, num_threads, chunk)`` tuples,
every schedule must partition ``range(start, end, step)`` into chunks that
are *disjoint* (no iteration assigned twice) and *exhaustive* (no iteration
dropped) — the invariant every backend relies on.  A seeded ``random.Random``
keeps the cases reproducible without external property-testing dependencies.
"""

from __future__ import annotations

import contextlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import dataplane
from repro.runtime.scheduler import (
    DynamicScheduler,
    GuidedScheduler,
    Schedule,
    StaticBlockScheduler,
    StaticCyclicScheduler,
    make_scheduler,
    oracle_chunks,
)
from repro.runtime.shm import SyncArena, heap_cells, heap_slot
from repro.runtime.team import Team

CASES = 150


def _random_cases(seed: int):
    rng = random.Random(seed)
    for _ in range(CASES):
        start = rng.randint(-50, 50)
        step = rng.choice([-7, -3, -2, -1, 1, 2, 3, 5, 8])
        span = rng.randint(0, 120)
        end = start + (span if step > 0 else -span)
        num_threads = rng.randint(1, 9)
        chunk = rng.randint(1, 10)
        yield start, end, step, num_threads, chunk


def _expected(start, end, step):
    return sorted(range(start, end, step))


def _assert_disjoint_exhaustive(per_thread_chunks, start, end, step, label):
    seen: list[int] = []
    for chunks in per_thread_chunks:
        for piece in chunks:
            indices = list(piece.indices())
            assert len(indices) == piece.count, f"{label}: count mismatch on {piece}"
            seen.extend(indices)
    assert sorted(seen) == _expected(start, end, step), (
        f"{label}: partition of range({start}, {end}, {step}) not disjoint+exhaustive"
    )


@pytest.mark.parametrize("schedule", [Schedule.STATIC_BLOCK, Schedule.STATIC_CYCLIC])
def test_static_schedules_partition_any_range(schedule):
    for start, end, step, num_threads, chunk in _random_cases(seed=20260729):
        scheduler = make_scheduler(schedule, chunk=chunk)
        per_thread = [
            list(scheduler.chunks_for(t, num_threads, start, end, step)) for t in range(num_threads)
        ]
        _assert_disjoint_exhaustive(per_thread, start, end, step, f"{schedule.value}[chunk={chunk}]")


def test_dynamic_schedule_partitions_under_interleaved_claims():
    """Simulate team members draining one shared claim counter round-robin."""
    for start, end, step, num_threads, chunk in _random_cases(seed=1357):
        scheduler = DynamicScheduler(chunk=chunk)
        slot = heap_slot(SyncArena, 0)
        iterators = [scheduler.chunks_from(slot, start, end, step) for _ in range(num_threads)]
        per_thread = [[] for _ in range(num_threads)]
        live = set(range(num_threads))
        while live:
            for t in sorted(live):
                piece = next(iterators[t], None)
                if piece is None:
                    live.discard(t)
                else:
                    per_thread[t].append(piece)
        _assert_disjoint_exhaustive(per_thread, start, end, step, f"dynamic[chunk={chunk}]")


def test_guided_schedule_partitions_under_interleaved_claims():
    for start, end, step, num_threads, chunk in _random_cases(seed=2468):
        scheduler = GuidedScheduler(min_chunk=chunk)
        slot = heap_slot(SyncArena, 0)
        iterators = [scheduler.chunks_from(slot, start, end, step, num_threads) for _ in range(num_threads)]
        per_thread = [[] for _ in range(num_threads)]
        live = set(range(num_threads))
        while live:
            for t in sorted(live):
                piece = next(iterators[t], None)
                if piece is None:
                    live.discard(t)
                else:
                    per_thread[t].append(piece)
        _assert_disjoint_exhaustive(per_thread, start, end, step, f"guided[min_chunk={chunk}]")


def test_static_block_is_contiguous_and_balanced():
    for start, end, step, num_threads, _ in _random_cases(seed=8642):
        scheduler = StaticBlockScheduler()
        sizes = []
        cursor = start
        for t in range(num_threads):
            chunks = list(scheduler.chunks_for(t, num_threads, start, end, step))
            assert len(chunks) <= 1
            count = chunks[0].count if chunks else 0
            sizes.append(count)
            if chunks:
                assert chunks[0].start == cursor  # blocks are contiguous and ordered
                cursor = chunks[0].end
        if sizes:
            assert max(sizes) - min(sizes) <= 1  # balanced to within one iteration


def test_cyclic_stride_matches_team_size():
    for start, end, step, num_threads, chunk in _random_cases(seed=11223):
        scheduler = StaticCyclicScheduler(chunk=chunk)
        for t in range(num_threads):
            blocks = list(scheduler.chunks_for(t, num_threads, start, end, step))
            for first, second in zip(blocks, blocks[1:]):
                logical_gap = (second.start - first.start) // step
                assert logical_gap == num_threads * chunk


# ---------------------------------------------------------------------------
# the claim contract (hypothesis): what one body call of a dynamic/guided
# loop may be, on every home a claim cursor has
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _heap_slots():
    # An in-process team's own arena, built on its first claim.
    yield Team(2).proc_loop_slot


@contextlib.contextmanager
def _list_cell_arena_slots():
    # The coordinator's flavour of SyncArena: plain list cells, a thread lock.
    arena = SyncArena(cells=heap_cells)
    yield arena.slot


@contextlib.contextmanager
def _socket_proxy_slots():
    coordinator = dataplane.Coordinator(2)
    coordinator.start()
    session = dataplane.WorkerSession(
        dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, 1, install_hook=False
    )
    try:
        yield dataplane.RemoteArena(session, "arena").slot
    finally:
        session.close()
        coordinator.shutdown()


@pytest.mark.parametrize("slots", [_heap_slots, _list_cell_arena_slots, _socket_proxy_slots])
def test_every_claim_is_a_run_of_whole_chunks_and_claims_tile_the_loop(slots):
    """A claim is what one untraced body call receives.  It must start on a
    chunk boundary, be ``chunks <= batch`` consecutive scheduling chunks
    (short only at the loop's end), and the team's claims must tile the
    iteration space exactly once — with the chunk boundaries ``split``
    recovers being the per-chunk oracle's (:func:`oracle_chunks`)."""
    ordinals = itertools.count()

    with slots() as slot_for:

        @settings(max_examples=60, deadline=None)
        @given(
            total=st.integers(0, 150),
            start=st.integers(-30, 30),
            step=st.sampled_from([-3, -1, 1, 2, 5]),
            chunk=st.integers(1, 7),
            batch=st.integers(1, 20),
            team=st.integers(1, 6),
            guided=st.booleans(),
        )
        def check(total, start, step, chunk, batch, team, guided):
            end = start + total * step
            if guided:
                scheduler = GuidedScheduler(min_chunk=chunk, batch=batch)
            else:
                scheduler = DynamicScheduler(chunk=chunk, batch=batch)
            oracle = list(oracle_chunks(scheduler, 0, team, start, end, step))
            assert sum(piece.count for piece in oracle) == total

            # The team drains one shared cursor, one claim per member per turn.
            cursor = slot_for(next(ordinals))
            claimers = [scheduler.claims_from(cursor, start, end, step, team) for _ in range(team)]
            claims = []
            while claimers:
                for claimer in list(claimers):
                    claim = next(claimer, None)
                    if claim is None:
                        claimers.remove(claimer)
                    else:
                        claims.append(claim)

            index_of = {piece.start: index for index, piece in enumerate(oracle)}
            covered = []
            for run_start, run_end, chunks in claims:
                assert 1 <= chunks <= batch
                first = index_of[run_start]  # a claim starts on a chunk boundary
                pieces = oracle[first : first + chunks]
                assert list(scheduler.split(run_start, run_end, step, chunks)) == pieces
                assert pieces[-1].end == run_end
                covered.extend(range(first, first + chunks))
            assert sorted(covered) == list(range(len(oracle)))

        check()
