"""The team barrier: one reusable cyclic barrier for every tier.

A from-scratch implementation (the paper implements its own barrier aspect on
top of Java primitives).  The barrier is *cyclic*: it can be reused for an
arbitrary number of synchronisation rounds, which is what the team barrier in
a parallel region needs (OpenMP semantics: barriers have the scope of the
team, and the same barrier object is reached repeatedly).

A round's state is four cells of a :class:`~repro.runtime.shm.CellArena`, so
the generation protocol is written once and the storage is the allocator's
choice: :func:`~repro.runtime.shm.heap_cells` for a thread team and the socket
plane's coordinator, :func:`~repro.runtime.shm.mp_cells` for fork and pool
teams.  Only the way a sleeping party is woken differs by storage.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.runtime.config import env
from repro.runtime.exceptions import BrokenBarrierError
from repro.runtime.shm import CellArena, _mp_context, heap_cells

#: default of every timeout argument: the barrier's construction-time bound
#: (``AOMP_BARRIER_TIMEOUT``), as opposed to an explicit ``None``, which waits
#: forever.
_UNSET = object()

_COUNT, _GENERATION, _BROKEN, _PARTIES = range(4)


class _PartyLocks:
    """Heap wake-ups: a sleeper waits on a held lock of its own, released once
    by whoever ends its round.  No condition variable, whose waits and
    notifies cost a reentrant lock's save/restore on both sides, and nothing
    to construct but a list: thread teams build a barrier per region."""

    def __init__(self) -> None:
        self._held: "list[threading.Lock]" = []

    def enrol(self, generation: int) -> "threading.Lock":
        lock = threading.Lock()
        lock.acquire()
        self._held.append(lock)
        return lock

    def wake(self, generation: int, sleepers: int) -> None:
        held, self._held = self._held, []
        for lock in held:
            lock.release()


class _ParitySemaphores:
    """Fork-inherited wake-ups: one semaphore per generation parity, so a party
    asleep in round *g + 1* never takes a wake-up meant for round *g*.  A
    wake-up posted for a party that died asleep is never taken; whoever takes
    it in a later round finds that round still open and sleeps on."""

    def __init__(self) -> None:
        ctx = _mp_context()
        self._semaphores = (ctx.Semaphore(0), ctx.Semaphore(0))

    def enrol(self, generation: int) -> Any:
        return self._semaphores[generation & 1]

    def wake(self, generation: int, sleepers: int) -> None:
        semaphore = self._semaphores[generation & 1]
        for _ in range(sleepers):
            semaphore.release()


class CyclicBarrier(CellArena):
    """A reusable barrier for ``parties`` parties, on allocator-chosen cells.

    Arrivals, generation, broken flag and parties are four cells under the
    arena's lock.  A party that has to wait sleeps on a wake-up, and whoever
    ends the round (its last arrival, an abort, a timeout, a reset) posts one
    per sleeper and carries on: nobody waits for a sleeper to say it woke.
    The broken cell holds ``±(g + 1)`` for the first round *g* since the last
    completed one (0 right after a round completes): positive while the
    barrier is broken, negative once a reset mended it.  A party woken late
    therefore still learns how its own round ended.

    Parameters
    ----------
    parties:
        Number of parties that must call :meth:`wait` before any of them is
        released; :meth:`reset` can change it.
    action:
        Optional callable invoked exactly once per round, by the last party
        to arrive, before the others are released (mirrors
        ``java.util.concurrent.CyclicBarrier``'s barrier action).  It runs
        under the barrier's (non-reentrant) lock and must not call back into
        the barrier.  If it raises, the barrier breaks.
    cells:
        The cell allocator: :func:`~repro.runtime.shm.heap_cells` when every
        party is a thread of this process, :func:`~repro.runtime.shm.mp_cells`
        when parties are forked processes (created before they fork).
    timeout:
        Default per-round wait bound; when omitted, ``AOMP_BARRIER_TIMEOUT``
        read now (falling back to
        :data:`~repro.runtime.config.DEFAULT_BARRIER_TIMEOUT`).  ``None``
        waits forever.
    transport:
        Optional label naming the data plane this barrier synchronises,
        appended to timeout messages so that a stall names its tier.
    """

    LOCKED = True

    def __init__(
        self,
        parties: int,
        action: Optional[Callable[[], None]] = None,
        *,
        cells: Any = heap_cells,
        timeout: "float | None | object" = _UNSET,
        transport: Optional[str] = None,
    ) -> None:
        super().__init__(4, cells, fresh=False)
        self._wakes = _PartyLocks() if cells is heap_cells else _ParitySemaphores()
        self._action = action
        self._timeout = env("AOMP_BARRIER_TIMEOUT") if timeout is _UNSET else timeout
        self.transport = transport
        self.reset(parties)

    @property
    def parties(self) -> int:
        """Number of parties that meet in each round."""
        return self._cells[_PARTIES]

    @property
    def broken(self) -> bool:
        """Whether the barrier is broken.

        A plain read of the cell, no lock: the claim loops poll it once per
        claim, and a stale answer only delays the poller by one claim.
        """
        return self._cells[_BROKEN] > 0

    def wait(
        self, timeout: "float | None | object" = _UNSET, arrived: "Callable[[int], None] | None" = None
    ) -> int:
        """Block until all parties have arrived.

        Returns the arrival index for this round (``parties - 1`` for the first
        arrival down to ``0`` for the last, as in ``threading.Barrier``).
        Raises :class:`BrokenBarrierError` if the barrier is, or becomes,
        broken while waiting, if a reset ends the round, or if ``timeout`` —
        by default the construction-time bound; ``None`` waits forever —
        expires, which breaks the barrier for every party.  ``arrived(index)``
        is called as this party is counted, before the round's ``action`` can
        run: a party that wants the action to act for it says so here.
        """
        limit = self._timeout if timeout is _UNSET else timeout
        cells = self._cells
        with self._lock:
            if cells[_BROKEN] > 0:
                raise BrokenBarrierError("barrier is broken")
            generation = cells[_GENERATION]
            index = cells[_PARTIES] - 1 - cells[_COUNT]
            if arrived is not None:
                arrived(index)
            if index == 0:
                try:
                    if self._action is not None:
                        self._action()
                except BaseException:
                    self._end_round(1)
                    raise
                self._end_round(0)
                return 0
            cells[_COUNT] += 1
            wake = self._wakes.enrol(generation)
        remaining = threading.TIMEOUT_MAX if limit is None else limit
        deadline = time.monotonic() + remaining
        while wake.acquire(True, remaining):
            if cells[_GENERATION] != generation:
                break
            remaining = max(0.0, deadline - time.monotonic())
        else:
            with self._lock:
                wake.acquire(False)  # the wake-up of a round that ended as the wait expired
                if cells[_GENERATION] == generation:  # nobody ended the round: this wait ends it
                    count = f"{cells[_COUNT]} of {cells[_PARTIES]} parties arrived"
                    where = f" [{self.transport}]" if self.transport else ""
                    self._end_round(1)
                    raise BrokenBarrierError(f"barrier wait timed out after {limit:g}s ({count}){where}")
        broken = cells[_BROKEN]
        if broken and abs(broken) <= generation + 1:
            raise BrokenBarrierError("barrier is broken")
        return index

    def _end_round(self, broken: int) -> None:
        """Close the open round and wake its sleepers (lock held).  ``broken``
        is 0 for a completed round, 1 to break the barrier, -1 to break only
        this round (a reset)."""
        cells = self._cells
        generation = cells[_GENERATION]
        cells[_BROKEN] = broken and broken * (abs(cells[_BROKEN]) or generation + 1)
        sleepers, cells[_COUNT] = cells[_COUNT], 0
        cells[_GENERATION] = generation + 1
        self._wakes.wake(generation, sleepers)

    def abort(self) -> None:
        """Break the barrier: every sleeper, and every later :meth:`wait` until
        a :meth:`reset`, gets :class:`BrokenBarrierError`."""
        with self._lock:
            self._end_round(1)

    def reset(self, parties: Optional[int] = None) -> None:
        """Mend the barrier, optionally for a new party count.  Parties asleep
        in the open round are released with :class:`BrokenBarrierError`."""
        if parties is not None and parties < 1:
            raise ValueError(f"barrier needs at least 1 party, got {parties}")
        with self._lock:
            self._end_round(-1)
            if parties is not None:
                self._cells[_PARTIES] = parties
