"""Reusable cyclic barrier.

A from-scratch implementation (the paper implements its own barrier aspect on
top of Java primitives).  The barrier is *cyclic*: it can be reused for an
arbitrary number of synchronisation rounds, which is what the team barrier in
a parallel region needs (OpenMP semantics: barriers have the scope of the
team, and the same barrier object is reached repeatedly).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.runtime.config import env


class BrokenBarrierError(RuntimeError):
    """Raised when a barrier is broken because a participant failed or the barrier was aborted."""


#: sentinel distinguishing "use the default bound" from an explicit None
#: (= wait forever) in CyclicBarrier timeouts.
_UNSET = object()


class CyclicBarrier:
    """A reusable barrier for a fixed number of parties.

    A party that has to wait sleeps on a lock of its own, and the round's
    last arrival releases each such lock once: one wake-up per waiting
    party, and no condition variable (whose waits and notifies cost a
    reentrant lock's save/restore on both sides).

    Parameters
    ----------
    parties:
        Number of threads that must call :meth:`wait` before any of them is
        released.
    action:
        Optional callable invoked exactly once per round, by the last thread
        to arrive, before the others are released (mirrors
        ``java.util.concurrent.CyclicBarrier``'s barrier action).  It runs
        under the barrier's (non-reentrant) lock and must not call back into
        the barrier.
    timeout:
        Default per-round wait bound; when omitted, resolved from the
        ``AOMP_BARRIER_TIMEOUT`` environment variable at construction time
        (falling back to
        :data:`~repro.runtime.config.DEFAULT_BARRIER_TIMEOUT`).  Pass ``None``
        explicitly to wait forever (not recommended outside tests).
    transport:
        Optional label naming the data plane/transport this barrier
        synchronises (e.g. the socket data plane's coordinator barrier).
        Appended to timeout messages so a distributed-mode stall does not
        misreport itself as an in-process problem.
    """

    def __init__(
        self,
        parties: int,
        action: Optional[Callable[[], None]] = None,
        *,
        timeout: "float | None | object" = _UNSET,
        transport: Optional[str] = None,
    ) -> None:
        if parties < 1:
            raise ValueError(f"barrier needs at least 1 party, got {parties}")
        self._parties = parties
        self._action = action
        self._timeout = env("AOMP_BARRIER_TIMEOUT") if timeout is _UNSET else timeout
        self.transport = transport
        self._lock = threading.Lock()
        #: one held lock per party waiting in the current round
        self._sleepers: "list[threading.Lock]" = []
        self._generation = 0
        self._waiting = 0
        self._broken = False
        self._broken_generations: set[int] = set()

    @property
    def parties(self) -> int:
        """Number of threads that participate in each round."""
        return self._parties

    @property
    def n_waiting(self) -> int:
        """Number of threads currently blocked in :meth:`wait`."""
        with self._lock:
            return self._waiting

    @property
    def broken(self) -> bool:
        """Whether the barrier is currently broken (aborted).

        A plain read of the flag — no lock: the claim loops poll it once per
        claim, and a stale answer only delays the poller by one claim.
        """
        return self._broken

    def wait(
        self, timeout: "float | None | object" = _UNSET, arrived: "Callable[[int], None] | None" = None
    ) -> int:
        """Block until all parties have arrived.

        Returns the arrival index for this round (``parties - 1`` for the first
        arrival down to ``0`` for the last, as in ``threading.Barrier``).
        Raises :class:`BrokenBarrierError` if the barrier is, or becomes,
        broken while waiting, or if ``timeout`` — defaulting to the barrier's
        construction-time bound; pass ``None`` explicitly to wait forever —
        expires.  ``arrived(index)`` is called as this party is counted,
        before the round's ``action`` can run: a party that wants the action
        to act for it says so here.
        """
        if timeout is _UNSET:
            timeout = self._timeout
        with self._lock:
            if self._broken:
                raise BrokenBarrierError("barrier is broken")
            generation = self._generation
            index = self._parties - 1 - self._waiting
            self._waiting += 1
            if arrived is not None:
                arrived(index)
            if self._waiting == self._parties:
                # Last arrival: run the action, then open the next generation.
                try:
                    if self._action is not None:
                        self._action()
                except BaseException:
                    self._break(generation)
                    raise
                self._next_generation()
                return index
            sleeper = threading.Lock()
            sleeper.acquire()
            self._sleepers.append(sleeper)
        if not sleeper.acquire(True, -1 if timeout is None else timeout):
            with self._lock:
                if sleeper in self._sleepers:
                    # Nobody released this round: it timed out, here first.
                    arrived = self._waiting
                    self._break(generation)
                    where = f" [{self.transport}]" if self.transport else ""
                    raise BrokenBarrierError(
                        f"barrier wait timed out after {timeout:g}s "
                        f"({arrived} of {self._parties} parties arrived){where}"
                    )
        # Released: whoever did it set the round's outcome first.
        if self._broken or generation in self._broken_generations:
            raise BrokenBarrierError("barrier is broken")
        return index

    def _wake_sleepers(self) -> None:
        """Release every party asleep in the current round (lock held)."""
        sleepers, self._sleepers = self._sleepers, []
        for sleeper in sleepers:
            sleeper.release()

    def _next_generation(self) -> None:
        """Close the current round and wake its sleepers (lock held)."""
        self._waiting = 0
        self._generation += 1
        self._wake_sleepers()

    def _break(self, generation: int) -> None:
        """Break round ``generation`` and every later one (lock held)."""
        self._broken = True
        self._broken_generations.add(generation)
        self._next_generation()

    def abort(self) -> None:
        """Break the barrier permanently, waking all waiters with an error."""
        with self._lock:
            self._broken = True
            self._broken_generations.add(self._generation)
            self._wake_sleepers()

    def reset(self) -> None:
        """Reset the barrier to a fresh, unbroken state.

        Threads currently waiting are released with :class:`BrokenBarrierError`;
        subsequent rounds proceed normally.
        """
        with self._lock:
            if self._waiting:
                self._broken_generations.add(self._generation)
            self._broken = False
            self._next_generation()
