"""Reusable cyclic barrier.

A from-scratch implementation (the paper implements its own barrier aspect on
top of Java primitives).  The barrier is *cyclic*: it can be reused for an
arbitrary number of synchronisation rounds, which is what the team barrier in
a parallel region needs (OpenMP semantics: barriers have the scope of the
team, and the same barrier object is reached repeatedly).
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Callable, Optional


class BrokenBarrierError(RuntimeError):
    """Raised when a barrier is broken because a participant failed or the barrier was aborted."""


#: Upper bound on how long any member waits in a team barrier by default.
#: Mirrors the shm barrier's timeout: a deadlocked team (e.g. a nested inner
#: team whose sibling died) breaks the barrier with an error instead of
#: hanging the process — the test-tier watchdogs rely on this backstop.
#: Raise (or disable, with ``<= 0``) via ``AOMP_BARRIER_TIMEOUT`` when a
#: legitimately serialised phase (e.g. an ``auto`` loop's serial fallback
#: over a huge range) keeps siblings waiting longer than the default.
DEFAULT_BARRIER_TIMEOUT = 120.0


def _default_barrier_timeout() -> "float | None":
    """Barrier wait bound from ``AOMP_BARRIER_TIMEOUT`` (seconds).

    Read at *barrier construction* time (not import time), so setting the
    variable mid-process affects teams created afterwards.  ``0`` or a
    negative value disables the bound (wait forever); unset falls back to
    :data:`DEFAULT_BARRIER_TIMEOUT`, anything unparsable is rejected loudly
    (a typo here must not silently re-enable a two-minute hang bound).
    Every team constructs a barrier, so each distinct raw value is parsed
    once.
    """
    return _parse_barrier_timeout(os.environ.get("AOMP_BARRIER_TIMEOUT"))


@functools.lru_cache(maxsize=8)
def _parse_barrier_timeout(raw: "str | None") -> "float | None":
    env = (raw or "").strip()
    if env:
        try:
            value = float(env)
        except ValueError:
            raise ValueError(
                f"AOMP_BARRIER_TIMEOUT must be a number of seconds (<= 0 disables the bound); got {env!r}"
            ) from None
        return None if value <= 0 else value
    return DEFAULT_BARRIER_TIMEOUT


#: sentinel distinguishing "use the default bound" from an explicit None
#: (= wait forever) in CyclicBarrier timeouts.
_UNSET = object()


class CyclicBarrier:
    """A reusable barrier for a fixed number of parties.

    Parameters
    ----------
    parties:
        Number of threads that must call :meth:`wait` before any of them is
        released.
    action:
        Optional callable invoked exactly once per round, by the last thread
        to arrive, before the others are released (mirrors
        ``java.util.concurrent.CyclicBarrier``'s barrier action).
    timeout:
        Default per-round wait bound; when omitted, resolved from the
        ``AOMP_BARRIER_TIMEOUT`` environment variable at construction time
        (falling back to :data:`DEFAULT_BARRIER_TIMEOUT`).  Pass ``None``
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
        self._timeout = _default_barrier_timeout() if timeout is _UNSET else timeout
        self.transport = transport
        self._cond = threading.Condition()
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
        with self._cond:
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
        with self._cond:
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
                    self._broken = True
                    self._broken_generations.add(generation)
                    self._waiting = 0
                    self._generation += 1
                    self._cond.notify_all()
                    raise
                self._waiting = 0
                self._generation += 1
                self._cond.notify_all()
                return index
            while generation == self._generation:
                if self._broken:
                    break
                if not self._cond.wait(timeout):
                    arrived = self._waiting
                    self._broken = True
                    self._broken_generations.add(generation)
                    self._waiting = 0
                    self._generation += 1
                    self._cond.notify_all()
                    where = f" [{self.transport}]" if self.transport else ""
                    raise BrokenBarrierError(
                        f"barrier wait timed out after {timeout:g}s "
                        f"({arrived} of {self._parties} parties arrived){where}"
                    )
            if self._broken or generation in self._broken_generations:
                raise BrokenBarrierError("barrier is broken")
            return index

    def abort(self) -> None:
        """Break the barrier permanently, waking all waiters with an error."""
        with self._cond:
            self._broken = True
            self._broken_generations.add(self._generation)
            self._cond.notify_all()

    def reset(self) -> None:
        """Reset the barrier to a fresh, unbroken state.

        Threads currently waiting are released with :class:`BrokenBarrierError`;
        subsequent rounds proceed normally.
        """
        with self._cond:
            if self._waiting:
                self._broken_generations.add(self._generation)
            self._generation += 1
            self._waiting = 0
            self._broken = False
            self._cond.notify_all()
