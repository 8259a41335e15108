"""Unit coverage of :class:`repro.obs.arena.MetricsArena`.

The arena is the fork/subinterp aggregation plane: disjoint per-member int64
cell ranges over pluggable storage, flushed by workers and drained by the
master.  The fork round-trip test exercises the real cross-process path the
process backend uses.
"""

from __future__ import annotations

import pytest

import repro.obs.registry as obsreg
from repro.obs.arena import MetricsArena
from repro.runtime import shm

requires_fork = pytest.mark.skipif(not shm.fork_available(), reason="needs fork")


def _over(cells):
    """The allocator that hands an arena ``cells`` (these arenas take no lock)."""
    return lambda count, locked: (cells, None)


class TestArenaBasics:
    def test_the_arena_asks_for_the_registry_layout(self):
        """The cell count is the arena's to know: capacity x registry slots."""
        asked = []

        def counting(count, locked):
            asked.append((count, locked))
            return shm.heap_cells(count, locked)

        MetricsArena(4, cells=counting)
        MetricsArena(4, slots=10, cells=counting)
        assert asked == [(4 * obsreg.get_registry().num_slots, False), (40, False)]

    def test_flush_and_drain_round_trip(self):
        arena = MetricsArena(4, cells=shm.heap_cells)
        arena.flush_member(0, [(2, 5)])
        arena.flush_member(3, [(2, 1), (7, 2)])
        assert arena.drain() == [(2, 6), (7, 2)]
        assert arena.drain() == []  # drain zeroes the cells

    def test_flush_adds_across_regions(self):
        """Pooled workers flush once per region into the same range."""
        arena = MetricsArena(2, cells=shm.heap_cells)
        arena.flush_member(1, [(0, 1)])
        arena.flush_member(1, [(0, 2)])
        assert arena.drain() == [(0, 3)]

    def test_out_of_range_member_and_slot_are_dropped_silently(self):
        arena = MetricsArena(2, slots=4, cells=shm.heap_cells)
        arena.flush_member(5, [(0, 1)])       # no such member
        arena.flush_member(-1, [(0, 1)])
        arena.flush_member(1, [(9, 1)])       # no such slot
        arena.flush_member(1, [(-2, 1)])
        assert arena.drain() == []

    def test_members_use_disjoint_ranges(self):
        cells = [0] * 8
        arena = MetricsArena(2, slots=4, cells=_over(cells))
        arena.flush_member(0, [(0, 1)])
        arena.flush_member(1, [(0, 10)])
        assert cells[0] == 1 and cells[4] == 10

    def test_reset_zeroes_everything(self):
        arena = MetricsArena(2, slots=3, cells=shm.heap_cells)
        arena.flush_member(0, [(1, 9)])
        arena.reset()
        assert arena.drain() == []

    def test_attach_shares_the_storage(self):
        """``fresh=False`` attaches a second view without clearing."""
        cells = [0] * 6
        owner = MetricsArena(2, slots=3, cells=_over(cells))
        owner.flush_member(0, [(2, 4)])
        attached = MetricsArena(2, slots=3, cells=_over(cells), fresh=False)
        assert attached.drain() == [(2, 4)]


@requires_fork
class TestArenaAcrossFork:
    def test_fork_child_flush_is_visible_to_the_parent(self):
        arena = MetricsArena(2)  # default mp shared Array storage
        ctx = shm._mp_context()

        def child() -> None:
            arena.flush_member(1, [(0, 7), (3, 2)])

        proc = ctx.Process(target=child)
        proc.start()
        proc.join(timeout=10)
        assert proc.exitcode == 0
        assert arena.drain() == [(0, 7), (3, 2)]

    def test_registry_flush_to_arena_to_master_registry(self):
        """The full aggregation chain the process backend runs per region."""
        arena = MetricsArena(2)
        ctx = shm._mp_context()

        def child() -> None:
            # The at-fork hook gave this child a fresh registry; counts
            # accumulated here exist nowhere else until flushed.
            obsreg.inc(obsreg.CHUNK_SLOTS["dynamic"], 3)
            obsreg.observe("aomp_barrier_wait_seconds", 0.0002)
            arena.flush_member(1, obsreg.flush_delta())

        proc = ctx.Process(target=child)
        proc.start()
        proc.join(timeout=10)
        assert proc.exitcode == 0
        obsreg.absorb(arena.drain())
        snap = obsreg.get_registry().snapshot()
        assert snap["counters"]["aomp_chunks_total"]["dynamic"] == 3
        assert snap["histograms"]["aomp_barrier_wait_seconds"]["count"] == 1
