"""Ordered execution inside work-shared loops.

The paper's ``@Ordered`` construct is only supported within the calling
context of a *for method*: executions of the ordered method must happen in the
original (sequential) iteration order even though the iterations themselves
are distributed across the team.

Semantics implemented here (matching OpenMP's ``ordered`` clause):

* the work-sharing construct creates an :class:`OrderedRegion` describing the
  loop's full iteration sequence and installs it as the thread's *current*
  ordered region;
* each iteration executes the ordered method at most once, passing its
  iteration index; the region blocks the caller until all preceding
  iterations' ordered parts have completed or their iterations finished
  without one.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.runtime import context as ctx
from repro.runtime.config import env
from repro.runtime.exceptions import BrokenBarrierError, SchedulingError
from repro.runtime.trace import EventKind

#: seconds between an ordered waiter's checks that its team is still whole.
_POLL = 0.05


class OrderedRegion:
    """Ticket dispenser enforcing sequential order over a loop's iterations.

    The ticket is the position of the next iteration allowed to run its
    ordered part.  An iteration that finishes without an ordered call moves
    the ticket past it (:meth:`wrap`), so a loop whose iterations run their
    ordered part *at most* once still completes.  A wait ends with
    :class:`BrokenBarrierError` once ``broken()`` reports a failed team or
    after ``AOMP_BARRIER_TIMEOUT`` seconds, the team barrier's bound.
    """

    def __init__(self, start: int, end: int, step: int, *, broken: Callable[[], bool] | None = None) -> None:
        if step == 0:
            raise SchedulingError("ordered region needs a non-zero step")
        self.start = start
        self.end = end
        self.step = step
        self._order = range(start, end, step)
        self._cond = threading.Condition()
        self._position = 0  # index into self._order of the next iteration allowed to run
        #: runs ``[first, end)`` of positions finished with no ordered call
        #: while the ticket was still behind them, keyed by ``first``.
        self._passed: dict[int, int] = {}
        #: the calling member's chunk, as ``[next position, end position)``.
        self._chunk = threading.local()
        self._broken = broken
        self._timeout = env("AOMP_BARRIER_TIMEOUT")

    @property
    def total(self) -> int:
        """Total number of iterations the region will sequence."""
        return len(self._order)

    def _index_of(self, iteration: int) -> int:
        offset = iteration - self.start
        if self.step > 0:
            if offset < 0 or offset % self.step != 0 or iteration >= self.end:
                raise SchedulingError(f"iteration {iteration} is not part of the ordered range")
        else:
            if offset > 0 or offset % self.step != 0 or iteration <= self.end:
                raise SchedulingError(f"iteration {iteration} is not part of the ordered range")
        return offset // self.step

    def wrap(self, body: Callable[..., Any]) -> Callable[..., Any]:
        """``body`` (a for method) with each call's iterations tracked as the
        calling member's chunk: the iterations of the chunk that made no
        ordered call are passed when a later one makes it and when the call
        returns.  A chunk runs its iterations in ascending order."""
        chunk = self._chunk

        def ordered_chunk(lo: int, hi: int, step: int, *args: Any, **kwargs: Any) -> Any:
            chunk.next = first = self._index_of(lo)
            chunk.end = first + len(range(lo, hi, step))
            result = body(lo, hi, step, *args, **kwargs)
            self._pass(chunk.next, chunk.end)
            return result

        return ordered_chunk

    def run(self, iteration: int, fn: Callable[[], Any]) -> Any:
        """Execute ``fn`` when ``iteration`` becomes the next one in order."""
        position = self._index_of(iteration)
        chunk = self._chunk
        first = getattr(chunk, "next", None)
        if first is not None:
            if not first <= position < chunk.end:
                raise SchedulingError(
                    f"iteration {iteration}: an ordered call must belong to the member's chunk and "
                    "come after the chunk's earlier ordered calls"
                )
            self._pass(first, position)
            chunk.next = position + 1
        with self._cond:
            deadline = None if self._timeout is None else time.monotonic() + self._timeout
            while self._position != position:
                if self._broken is not None and self._broken():
                    raise BrokenBarrierError(f"ordered wait at iteration {iteration}: the team is broken")
                remaining = _POLL if deadline is None else min(_POLL, deadline - time.monotonic())
                if remaining <= 0:
                    raise BrokenBarrierError(
                        f"ordered wait at iteration {iteration} timed out after {self._timeout:g}s"
                    )
                self._cond.wait(remaining)
        try:
            return fn()
        finally:
            self._pass(position, position + 1)

    def skip(self, iteration: int) -> None:
        """Mark ``iteration`` as not executing an ordered part (advance the ticket)."""
        position = self._index_of(iteration)
        self._pass(position, position + 1)

    def _pass(self, first: int, end: int) -> None:
        """Positions ``[first, end)`` are done: move the ticket past them, and
        past the runs recorded ahead of them, once it reaches ``first``."""
        if first >= end:
            return
        with self._cond:
            if self._position != first:
                self._passed[first] = end
                return
            while end in self._passed:
                end = self._passed.pop(end)
            self._position = end
            self._cond.notify_all()


_CURRENT_KEY = "current_ordered_region"


def install_ordered_region(region: OrderedRegion | None) -> OrderedRegion | None:
    """Install ``region`` as the calling thread's current ordered region.

    Returns the previously installed region so callers can restore it (for
    nested loops).  Used by the for-work-sharing aspect when the target loop
    declares an ordered part.
    """
    context = ctx.current_context()
    if context is None:
        return None
    previous = context.scratch.get(_CURRENT_KEY)
    context.scratch[_CURRENT_KEY] = region
    return previous


def current_ordered_region() -> OrderedRegion | None:
    """Return the ordered region installed for the calling thread, if any."""
    context = ctx.current_context()
    if context is None:
        return None
    return context.scratch.get(_CURRENT_KEY)


def ordered_call(iteration: int, fn: Callable[[], Any]) -> Any:
    """Run ``fn`` in iteration order if an ordered region is active, else directly.

    This is the entry point used by the ``@Ordered`` aspect: outside a
    work-shared loop (or outside a parallel region) the call degrades to a
    plain invocation — sequential semantics again.
    """
    region = current_ordered_region()
    context = ctx.current_context()
    if region is None or context is None:
        return fn()
    context.team.record(EventKind.ORDERED, iteration=iteration)
    return region.run(iteration, fn)
