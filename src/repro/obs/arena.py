"""Cross-process metrics aggregation over pluggable int64 cell storage.

A :class:`MetricsArena` gives every team member a disjoint range of int64
cells — one per registry slot — in whatever storage its allocator provides
(see :class:`~repro.runtime.shm.CellArena`: ``multiprocessing`` shared
memory for fork teams, a named ``SharedArray`` for subinterpreters).
Because ranges are disjoint and each is written only by its own member's
process, no lock is needed: the same design as
:class:`~repro.runtime.shm.HeartbeatArena`.

Workers *flush* their registry deltas into their range (adds, so a pooled
worker can flush once per region); the master *drains* the whole arena into
its registry at region end, zeroing the cells.  Both sides size their view
from their own registry, whose layout is a pure function of the inherited
``AOMP_METRICS_BUCKETS`` environment — so master and workers agree on the
slot order by construction.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.runtime.shm import CellArena, mp_cells

#: matches ``HeartbeatArena.DEFAULT_CAPACITY`` — the largest team any one
#: region is expected to field.
DEFAULT_CAPACITY = 64


def _registry_slots() -> int:
    from repro.obs.registry import get_registry

    return get_registry().num_slots


class MetricsArena(CellArena):
    """Per-member int64 slot ranges for team-wide metric aggregation."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        slots: "int | None" = None,
        cells: Any = mp_cells,
        fresh: bool = True,
    ) -> None:
        self.capacity = int(capacity)
        self.slots = int(slots) if slots is not None else _registry_slots()
        super().__init__(self.capacity * self.slots, cells, fresh)

    def flush_member(self, member: int, pairs: "Iterable[tuple[int, int]]") -> None:
        """Add a flushed registry delta into ``member``'s cell range.

        Only ``member``'s own process calls this, so the adds are race-free.
        Out-of-range members and slots are dropped silently: a mis-sized
        arena must degrade to missing metrics, never corrupt a neighbour.
        """
        if not 0 <= member < self.capacity:
            return
        base = member * self.slots
        cells = self._cells
        for slot, value in pairs:
            if 0 <= slot < self.slots:
                cells[base + slot] += value

    def drain(self) -> "list[tuple[int, int]]":
        """Move every member's counts out as sparse ``(slot, value)`` pairs."""
        cells = self._cells
        totals: "dict[int, int]" = {}
        for member in range(self.capacity):
            base = member * self.slots
            for slot in range(self.slots):
                value = cells[base + slot]
                if value:
                    totals[slot] = totals.get(slot, 0) + value
                    cells[base + slot] = 0
        return sorted(totals.items())
