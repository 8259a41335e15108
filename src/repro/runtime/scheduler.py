"""Loop schedulers for the ``@For`` work-sharing construct.

The paper exposes loops as *for methods* whose first three integer parameters
are the iteration range ``(start, end, step)``.  A scheduler decides which
part of that range each team member executes.  Three schedules are provided
by AOmpLib (Table 1): static by blocks, static cyclic and dynamic; a guided
schedule is added as a natural extension (OpenMP has it, and it is used by an
ablation benchmark).

Schedulers are deliberately independent from threading: given a loop range and
``(thread_id, num_threads)`` they produce :class:`LoopChunk` objects.  The
aspects/threaded code execute those chunks; the trace layer records them.

Hot-path design (this module sits under every workshared loop):

* :func:`make_scheduler` memoises scheduler instances per
  ``(schedule, chunk)`` — schedulers are stateless, per-execution claim state
  lives in the ``new_state``/``new_guided_state`` objects;
* a team member's static share is arithmetic in its id
  (:func:`block_span`, :func:`cyclic_spans`): ``run_for`` builds no plan;
* dynamic/guided claim states hand out **batches** of chunks per lock
  round-trip (:meth:`_DynamicLoopState.next_chunks`,
  :meth:`_GuidedLoopState.next_ranges`), with a tail fallback that shrinks
  claims near the end of the range to preserve load balance;
* a batch is adjacent chunks, so :meth:`DynamicScheduler.claims_from` hands
  the executor one contiguous run per claim and :meth:`DynamicScheduler.split`
  recovers the chunk boundaries where something observes chunks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

from repro.runtime.exceptions import SchedulingError


class Schedule(str, Enum):
    """Supported loop schedules (names follow the paper's Table 1)."""

    STATIC_BLOCK = "static_block"
    STATIC_CYCLIC = "static_cyclic"
    DYNAMIC = "dynamic"
    GUIDED = "guided"
    #: resolved per loop site by the adaptive tuner (:mod:`repro.tune`) at
    #: execution time; has no standalone scheduler instance.
    AUTO = "auto"

    @classmethod
    def parse(cls, value: "str | Schedule") -> "Schedule":
        """Parse a schedule name; accepts the paper's camelCase spellings too."""
        if isinstance(value, Schedule):
            return value
        if not isinstance(value, str):
            raise SchedulingError(
                f"schedule must be a Schedule or a name, got {type(value).__name__}; "
                f"valid names: {', '.join(member.value for member in cls)}"
            )
        normalised = value.strip().lower().replace("-", "_")
        try:
            return _SCHEDULE_ALIASES[normalised]
        except KeyError as exc:
            raise SchedulingError(
                f"unknown schedule {value!r}; valid names: "
                f"{', '.join(member.value for member in cls)} "
                f"(also accepted: {', '.join(sorted(set(_SCHEDULE_ALIASES) - {m.value for m in cls}))})"
            ) from exc


#: Alias table for :meth:`Schedule.parse`, built once at import time (parse
#: runs once per loop execution; rebuilding the dict there was pure waste).
_SCHEDULE_ALIASES: dict[str, Schedule] = {
    "staticblock": Schedule.STATIC_BLOCK,
    "static": Schedule.STATIC_BLOCK,
    "block": Schedule.STATIC_BLOCK,
    "static_block": Schedule.STATIC_BLOCK,
    "staticcyclic": Schedule.STATIC_CYCLIC,
    "cyclic": Schedule.STATIC_CYCLIC,
    "static_cyclic": Schedule.STATIC_CYCLIC,
    "dynamic": Schedule.DYNAMIC,
    "guided": Schedule.GUIDED,
    "auto": Schedule.AUTO,
    "adaptive": Schedule.AUTO,
}


def _spec_forms() -> str:
    """The valid spec forms, for error messages (OpenMP's ``kind[,chunk]``)."""
    return (
        'expected "kind" or "kind,chunk" (e.g. "dynamic,4"); valid kinds: '
        f"{', '.join(member.value for member in Schedule)}"
    )


@lru_cache(maxsize=32)
def parse_schedule_spec(spec: "str | Schedule") -> "tuple[Schedule, int | None]":
    """Parse an OpenMP-style schedule spec ``"kind[,chunk]"``.

    ``OMP_SCHEDULE`` (and this runtime's ``AOMP_SCHEDULE``) allow a chunk size
    after the schedule name, e.g. ``"dynamic,4"``; surrounding whitespace and
    uppercase kinds (``"DYNAMIC, 4"``) are accepted, as environments tend to
    produce both.  Returns ``(schedule, chunk)`` with ``chunk=None`` when the
    spec does not carry one.  Malformed specs — a trailing comma, extra
    fields, a non-integer or non-positive chunk — raise
    :class:`SchedulingError` naming the valid forms.
    """
    if isinstance(spec, Schedule):
        return spec, None
    if isinstance(spec, str) and "," in spec:
        name, _, chunk_text = spec.partition(",")
        chunk_text = chunk_text.strip()
        if not chunk_text:
            raise SchedulingError(
                f"malformed schedule spec {spec!r}: trailing comma with no chunk; {_spec_forms()}"
            )
        if "," in chunk_text:
            raise SchedulingError(
                f"malformed schedule spec {spec!r}: too many comma-separated fields; {_spec_forms()}"
            )
        try:
            chunk = int(chunk_text)
        except ValueError:
            raise SchedulingError(
                f"malformed schedule spec {spec!r}: chunk must be an integer; {_spec_forms()}"
            ) from None
        if chunk < 1:
            raise SchedulingError(
                f"malformed schedule spec {spec!r}: chunk must be >= 1; {_spec_forms()}"
            )
        return Schedule.parse(name), chunk
    return Schedule.parse(spec), None


#: Default number of chunks claimed per dynamic/guided lock round-trip.
#: Batching trades a bounded amount of scheduling freedom for lock traffic:
#: mid-loop, a claimer may sit on up to ``batch - 1`` chunks another thread
#: could have stolen, so per-claim imbalance is bounded by ``batch`` chunks;
#: near the tail the claim-cap decay shrinks claims back towards one chunk,
#: where balance matters most.  A claim's chunks are adjacent, and the
#: executor runs them as **one body call** (:meth:`DynamicScheduler.claims_from`),
#: so this is also the most chunks a single call of a for method can span.
#: Construct ``DynamicScheduler``/``GuidedScheduler`` directly with
#: ``batch=1`` for strict one-chunk claims, and therefore one chunk per call.
DEFAULT_CLAIM_BATCH = 16


@dataclass(frozen=True, slots=True)
class LoopChunk:
    """A contiguous (in the strided sense) sub-range assigned to one thread.

    ``range(start, end, step)`` gives the iteration indices of the chunk.
    """

    start: int
    end: int
    step: int

    @property
    def count(self) -> int:
        """Number of iterations in the chunk."""
        return trip_count(self.start, self.end, self.step)

    def indices(self) -> range:
        """Return the iteration indices as a :class:`range`."""
        return range(self.start, self.end, self.step)

    def is_empty(self) -> bool:
        """Whether the chunk contains no iterations."""
        return self.count == 0


def trip_count(start: int, end: int, step: int) -> int:
    """Number of iterations of ``range(start, end, step)``; a zero step is an error."""
    if step > 0:
        span = end - start
    elif step < 0:
        span, step = start - end, -step
    else:
        raise SchedulingError("loop step must be non-zero")
    return (span + step - 1) // step if span > 0 else 0


def block_span(total: int, parts: int, index: int) -> "tuple[int, int]":
    """``(first, count)`` of block ``index`` when ``total`` units are cut into
    ``parts`` contiguous blocks, the first ``total % parts`` one unit longer.

    The static-block schedule (paper Figure 10, with the rounding fixed so
    every iteration is assigned exactly once) is this one arithmetic step.
    """
    base, extra = divmod(total, parts)
    return index * base + (index if index < extra else extra), base + (index < extra)


def cyclic_spans(total: int, parts: int, index: int, chunk: int) -> "Iterator[tuple[int, int]]":
    """``(first, count)`` of each block of ``chunk`` units part ``index`` of
    ``parts`` takes when ``total`` units are dealt out round-robin: blocks
    from ``index * chunk``, every ``parts * chunk`` (the static-cyclic
    schedule)."""
    for first in range(index * chunk, total, parts * chunk):
        yield first, min(chunk, total - first)


class CollapsedRange:
    """``collapse(n)`` linearisation of ``n`` perfectly nested loop ranges.

    OpenMP's ``collapse`` clause turns the iteration space of ``n`` nested
    loops into one flat space so the scheduler can balance across *all*
    dimensions — the lever for 2D kernels whose outer trip count alone would
    starve a wide team.  This class is that linearisation: the flat index
    space is ``range(total)`` in row-major order (first range slowest), every
    existing scheduler runs over it untouched, and the executor maps each
    claimed flat chunk back to index tuples with :meth:`segments`.

    Two scheduling granularities:

    * **tuple mode** (default) — the schedulable unit is one index tuple;
      a chunk may start or end mid-row and :meth:`segments` splits it into
      maximal per-row runs of the innermost dimension.
    * **row-pinned mode** — the schedulable unit is one *row* (a full
      innermost range with the outer indices fixed); chunks are expressed in
      ``range(outer_total)`` and :meth:`row_segments` decodes them.  Rows are
      never split across chunks, which is what ``ordered`` collapsed loops
      (and callers whose rows must stay whole, like CSR row scatters) need.
    """

    __slots__ = ("ranges", "counts", "total", "inner_count", "outer_total")

    def __init__(self, ranges: "tuple[tuple[int, int, int], ...]") -> None:
        if len(ranges) < 2:
            raise SchedulingError(f"collapse needs at least 2 loop ranges, got {len(ranges)}")
        self.ranges = tuple((int(s), int(e), int(st)) for s, e, st in ranges)
        self.counts = tuple(trip_count(*r) for r in self.ranges)
        total = 1
        for count in self.counts:
            total *= count
        self.total = total
        self.inner_count = self.counts[-1]
        self.outer_total = total // self.inner_count if self.inner_count else 0

    @property
    def ndim(self) -> int:
        """Number of collapsed dimensions."""
        return len(self.ranges)

    def index_at(self, dim: int, ordinal: int) -> int:
        """Original index of the ``ordinal``-th iteration of dimension ``dim``."""
        start, _, step = self.ranges[dim]
        return start + ordinal * step

    def tuple_at(self, flat: int) -> "tuple[int, ...]":
        """Original index tuple of flat iteration ``flat`` (row-major order)."""
        if not (0 <= flat < self.total):
            raise SchedulingError(f"flat index {flat} outside [0, {self.total})")
        ordinals: list[int] = []
        for count in reversed(self.counts):
            flat, ordinal = divmod(flat, count)
            ordinals.append(ordinal)
        ordinals.reverse()
        return tuple(self.index_at(dim, ordinal) for dim, ordinal in enumerate(ordinals))

    def _pinned(self, dim: int, ordinal: int) -> "tuple[int, int, int]":
        """A single-iteration ``(start, end, step)`` range pinning dimension ``dim``."""
        index = self.index_at(dim, ordinal)
        step = self.ranges[dim][2]
        return (index, index + step, step)

    def _sub_range(self, dim: int, lo: int, hi: int) -> "tuple[int, int, int]":
        """The ``(start, end, step)`` range covering ordinals ``[lo, hi)`` of ``dim``."""
        start, _, step = self.ranges[dim]
        return (start + lo * step, start + hi * step, step)

    def segments(self, flat_start: int, flat_end: int):
        """Decode flat chunk ``[flat_start, flat_end)`` into body-call ranges.

        Yields one ``3 * ndim``-tuple of range parameters per maximal run of
        the innermost dimension: every outer dimension pinned to a single
        index, the innermost covering the run.  The executor calls the
        original (un-collapsed) for method once per yielded tuple.
        """
        inner = self.inner_count
        flat = flat_start
        while flat < flat_end:
            outer, offset = divmod(flat, inner)
            run = min(flat_end - flat, inner - offset)
            params: list[int] = []
            remaining = outer
            ordinals: list[int] = []
            for count in reversed(self.counts[:-1]):
                remaining, ordinal = divmod(remaining, count)
                ordinals.append(ordinal)
            ordinals.reverse()
            for dim, ordinal in enumerate(ordinals):
                params.extend(self._pinned(dim, ordinal))
            params.extend(self._sub_range(self.ndim - 1, offset, offset + run))
            yield tuple(params)
            flat += run

    def row_segments(self, unit_start: int, unit_end: int):
        """Decode a row-pinned chunk ``[unit_start, unit_end)`` of whole rows.

        Units index the outer product space (``range(outer_total)``).  Yields
        ``3 * ndim``-tuples whose first ``ndim - 2`` dimensions are pinned,
        whose ``ndim - 2``-th dimension covers a maximal run of consecutive
        rows, and whose innermost dimension is always the *full* inner range
        — rows are never split.
        """
        last_outer = self.counts[-2]
        unit = unit_start
        while unit < unit_end:
            prefix, offset = divmod(unit, last_outer)
            run = min(unit_end - unit, last_outer - offset)
            params: list[int] = []
            remaining = prefix
            ordinals: list[int] = []
            for count in reversed(self.counts[:-2]):
                remaining, ordinal = divmod(remaining, count)
                ordinals.append(ordinal)
            ordinals.reverse()
            for dim, ordinal in enumerate(ordinals):
                params.extend(self._pinned(dim, ordinal))
            params.extend(self._sub_range(self.ndim - 2, offset, offset + run))
            params.extend(self.ranges[-1])
            yield tuple(params)
            unit += run

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        spec = " x ".join(f"range({s}, {e}, {st})" for s, e, st in self.ranges)
        return f"CollapsedRange({spec}, total={self.total})"


class LoopScheduler:
    """Base class for loop schedulers."""

    #: schedule identifier; overridden by subclasses
    schedule: Schedule

    def __setattr__(self, name: str, value) -> None:
        # Instances handed out by make_scheduler are shared process-wide;
        # a caller mutating chunk/batch on one would silently reconfigure
        # every loop using that (schedule, chunk) key.
        if getattr(self, "_shared_frozen", False):
            raise AttributeError(
                f"cannot set {name!r}: scheduler instances returned by make_scheduler are "
                "shared and immutable; construct the scheduler class directly to customise one"
            )
        object.__setattr__(self, name, value)

    def chunks_for(self, thread_id: int, num_threads: int, start: int, end: int, step: int) -> Iterator[LoopChunk]:
        """Yield the chunks that ``thread_id`` (of ``num_threads``) must execute."""
        raise NotImplementedError

    def partition(self, num_threads: int, start: int, end: int, step: int) -> list[list[LoopChunk]]:
        """Return every thread's chunk list (static schedules only).

        Dynamic schedulers raise :class:`SchedulingError` because their
        assignment depends on execution order.
        """
        return [list(self.chunks_for(t, num_threads, start, end, step)) for t in range(num_threads)]


class StaticBlockScheduler(LoopScheduler):
    """Static block distribution: thread *t* gets the *t*-th contiguous block.

    This matches the paper's Figure 10 implementation (lower/upper limit
    computed from the thread id), with the rounding fixed so that every
    iteration is assigned exactly once even when the trip count does not
    divide evenly.
    """

    schedule = Schedule.STATIC_BLOCK

    def chunks_for(self, thread_id: int, num_threads: int, start: int, end: int, step: int) -> Iterator[LoopChunk]:
        total = trip_count(start, end, step)
        if num_threads < 1:
            raise SchedulingError("num_threads must be >= 1")
        if not (0 <= thread_id < num_threads):
            raise SchedulingError(f"thread_id {thread_id} outside team of {num_threads}")
        begin_index, count = block_span(total, num_threads, thread_id)
        if count == 0:
            return
        chunk_start = start + begin_index * step
        chunk_end = chunk_start + count * step
        yield LoopChunk(chunk_start, chunk_end, step)


class StaticCyclicScheduler(LoopScheduler):
    """Static cyclic distribution: thread *t* executes iterations t, t+N, t+2N, ...

    With ``chunk > 1`` the distribution is block-cyclic.  Cyclic scheduling is
    the paper's choice for triangular workloads (MolDyn, MonteCarlo,
    RayTracer in Table 2) because it balances non-uniform iteration costs.
    """

    schedule = Schedule.STATIC_CYCLIC

    def __init__(self, chunk: int = 1) -> None:
        if chunk < 1:
            raise SchedulingError("chunk must be >= 1")
        self.chunk = chunk

    def chunks_for(self, thread_id: int, num_threads: int, start: int, end: int, step: int) -> Iterator[LoopChunk]:
        total = trip_count(start, end, step)
        if num_threads < 1:
            raise SchedulingError("num_threads must be >= 1")
        if not (0 <= thread_id < num_threads):
            raise SchedulingError(f"thread_id {thread_id} outside team of {num_threads}")
        for first, count in cyclic_spans(total, num_threads, thread_id, self.chunk):
            chunk_start = start + first * step
            yield LoopChunk(chunk_start, chunk_start + count * step, step)


class _DynamicLoopState:
    """Shared iteration counter for one execution of a dynamic loop."""

    __slots__ = ("total_chunks", "num_threads", "_next", "_lock")

    def __init__(self, total_chunks: int, num_threads: int = 1) -> None:
        self.total_chunks = total_chunks
        self.num_threads = max(1, num_threads)
        self._next = 0
        self._lock = threading.Lock()

    def next_chunk(self) -> int | None:
        """Atomically claim the next chunk index, or ``None`` when exhausted."""
        claim = self.next_chunks(1)
        return None if claim is None else claim[0]

    def next_chunks(self, limit: int = 1) -> "tuple[int, int] | None":
        """Atomically claim up to ``limit`` consecutive chunk indices.

        Returns ``(first_index, count)`` or ``None`` when exhausted.  Near the
        tail the claim shrinks to a fraction of the remaining chunks (at
        least one), so one claimer can never strip the counter bare while
        other consumers of the same state still want work.
        """
        with self._lock:
            remaining = self.total_chunks - self._next
            if remaining <= 0:
                return None
            count = claim_cap(remaining, self.num_threads, limit)
            first = self._next
            self._next = first + count
            return first, count


class DynamicScheduler(LoopScheduler):
    """Dynamic (self-scheduling) distribution.

    Matches the paper's Figure 11: threads repeatedly claim the next chunk of
    ``chunk`` logical iterations from a shared counter (``getTask()``) until
    the loop is exhausted.  The shared state must be created once per loop
    execution with :meth:`new_state` and passed to :meth:`chunks_from`.
    Claims are batched (:data:`DEFAULT_CLAIM_BATCH` chunk indices per lock
    round-trip) — chunk *boundaries* are unchanged, only the lock traffic is.
    :meth:`claims_from` is what the executor runs (one contiguous run per
    claim); :meth:`chunks_from` is the per-chunk boundary oracle.
    """

    schedule = Schedule.DYNAMIC

    def __init__(self, chunk: int = 1, *, batch: int | None = None) -> None:
        if chunk < 1:
            raise SchedulingError("chunk must be >= 1")
        if batch is not None and batch < 1:
            raise SchedulingError("claim batch must be >= 1")
        self.chunk = chunk
        self.batch = batch if batch is not None else DEFAULT_CLAIM_BATCH

    def new_state(self, start: int, end: int, step: int, num_threads: int = 1) -> _DynamicLoopState:
        """Create the shared claim counter for one loop execution."""
        total = trip_count(start, end, step)
        total_chunks = (total + self.chunk - 1) // self.chunk
        return _DynamicLoopState(total_chunks, num_threads)

    def chunks_from(self, state, start: int, end: int, step: int) -> Iterator[LoopChunk]:
        """Yield chunks claimed by the calling thread from ``state``.

        ``state`` is anything with ``next_chunks(limit)`` —
        :class:`_DynamicLoopState` or the process arena's
        :class:`~repro.runtime.shm.ProcessDynamicState`.
        """
        total = trip_count(start, end, step)
        chunk = self.chunk
        batch = self.batch
        while True:
            claim = state.next_chunks(batch)
            if claim is None:
                return
            first, count = claim
            for index in range(first, first + count):
                begin = index * chunk
                size = total - begin
                if size > chunk:
                    size = chunk
                chunk_start = start + begin * step
                yield LoopChunk(chunk_start, chunk_start + size * step, step)

    def claims_from(self, state, start: int, end: int, step: int) -> "Iterator[tuple[int, int, int]]":
        """Yield ``(run_start, run_end, chunks)`` per claim round-trip on ``state``.

        The chunks one claim hands out are adjacent by construction, so a
        claim is one contiguous run ``range(run_start, run_end, step)`` of
        ``chunks`` scheduling chunks.  The executor runs it as one body call
        and asks :meth:`split` for the chunk boundaries only when something
        observes chunks (tracing, an armed fault plan).
        """
        total = trip_count(start, end, step)
        chunk = self.chunk
        batch = self.batch
        while True:
            claim = state.next_chunks(batch)
            if claim is None:
                return
            first, count = claim
            begin = first * chunk
            span = min(count * chunk, total - begin)
            run_start = start + begin * step
            yield run_start, run_start + span * step, count

    def split(self, run_start: int, run_end: int, step: int, chunks: int) -> Iterator[LoopChunk]:
        """The ``chunks`` scheduling chunks of one claimed run, in order.

        A multi-chunk claim is whole ``chunk``-sized pieces plus, at the
        loop's end, a shorter last one; a single-chunk claim (a guided block
        still decaying, or any ``batch=1`` claim) is the run itself.
        """
        if chunks == 1:
            yield LoopChunk(run_start, run_end, step)
            return
        size = self.chunk
        span = (run_end - run_start) // step
        for offset in range(0, span, size):
            chunk_start = run_start + offset * step
            yield LoopChunk(chunk_start, chunk_start + min(size, span - offset) * step, step)

    def chunks_for(self, thread_id: int, num_threads: int, start: int, end: int, step: int) -> Iterator[LoopChunk]:
        """Single-threaded fallback: the calling thread claims every chunk.

        Used when the construct runs outside a parallel region (sequential
        semantics) or in tests.  In a real team, use :meth:`new_state` +
        :meth:`chunks_from` so that claims are shared.
        """
        state = self.new_state(start, end, step)
        yield from self.chunks_from(state, start, end, step)

    def partition(self, num_threads: int, start: int, end: int, step: int) -> list[list[LoopChunk]]:
        raise SchedulingError("dynamic schedules have no static partition")


class GuidedScheduler(DynamicScheduler):
    """Guided self-scheduling: chunk sizes decay exponentially.

    Each claim takes ``max(min_chunk, remaining / num_threads)`` iterations,
    reducing scheduling overhead at the start while keeping good load balance
    at the tail.  Extension over the paper's three schedules, used by the
    scheduling ablation benchmark.  In the ``min_chunk`` tail several blocks
    are claimed per lock round-trip (block boundaries are unchanged).
    """

    schedule = Schedule.GUIDED

    def __init__(self, min_chunk: int = 1, *, batch: int | None = None) -> None:
        super().__init__(chunk=min_chunk, batch=batch)
        self.min_chunk = min_chunk

    def new_guided_state(self, start: int, end: int, step: int, num_threads: int) -> "_GuidedLoopState":
        """Create the shared claim state for one guided loop execution."""
        total = trip_count(start, end, step)
        return _GuidedLoopState(total, self.min_chunk, max(1, num_threads))

    def chunks_from_guided(self, state, start: int, end: int, step: int) -> Iterator[LoopChunk]:
        """Yield chunks claimed by the calling thread from guided ``state``.

        ``state`` is anything with ``next_ranges(limit)`` —
        :class:`_GuidedLoopState` or the process arena's
        :class:`~repro.runtime.shm.ProcessGuidedState`.
        """
        batch = self.batch
        while True:
            blocks = state.next_ranges(batch)
            if not blocks:
                return
            for begin, count in blocks:
                chunk_start = start + begin * step
                yield LoopChunk(chunk_start, chunk_start + count * step, step)

    def claims_from(self, state, start: int, end: int, step: int) -> "Iterator[tuple[int, int, int]]":
        """Guided twin of :meth:`DynamicScheduler.claims_from` over ``next_ranges``."""
        batch = self.batch
        while True:
            blocks = state.next_ranges(batch)
            if not blocks:
                return
            last_begin, last_count = blocks[-1]
            yield start + blocks[0][0] * step, start + (last_begin + last_count) * step, len(blocks)

    def chunks_for(self, thread_id: int, num_threads: int, start: int, end: int, step: int) -> Iterator[LoopChunk]:
        state = self.new_guided_state(start, end, step, num_threads)
        yield from self.chunks_from_guided(state, start, end, step)


def guided_claim(next_: int, total: int, min_chunk: int, num_threads: int) -> tuple[int, int]:
    """One guided claim at cursor ``next_``: returns ``(begin, count)``.

    Shared by the in-process state and the shm arena so block boundaries are
    bit-identical across backends.
    """
    remaining = total - next_
    count = remaining // num_threads
    if count < min_chunk:
        count = min_chunk
    if count > remaining:
        count = remaining
    return next_, count


def block_counts(total: int, parts: int) -> "list[int]":
    """Sizes of ``parts`` contiguous blocks covering ``total`` units.

    The first ``total % parts`` blocks get one extra unit.  Shared by the
    task runtime's in-heap taskloop deck, the shm
    :class:`~repro.runtime.shm.TaskStealArena` seeding and the taskloop
    trace payload, so tile ownership is identical on every backend by
    construction.
    """
    per, extra = divmod(total, parts)
    return [per + (1 if index < extra else 0) for index in range(parts)]


def claim_cap(remaining: int, num_threads: int, limit: int) -> int:
    """Units one batched claim may take: the shared tail-fallback policy.

    At most a fraction of the ``remaining`` units (and never more than
    ``limit``), at least one — so one claimer can never strip a shared
    counter bare while other consumers still want work.  Shared by the
    in-process states and the shm arena so claims are identical on every
    backend.
    """
    cap = remaining // (num_threads if num_threads > 2 else 2)
    if cap > limit:
        cap = limit
    elif cap < 1:
        cap = 1
    return cap


def guided_batch_cap(remaining: int, min_chunk: int, num_threads: int, limit: int) -> int:
    """Blocks one guided batch may claim: :func:`claim_cap` over the
    remaining ``min_chunk``-sized tail blocks."""
    return claim_cap(remaining // max(1, min_chunk), num_threads, limit)


def guided_claim_batch(
    cursor: int, total: int, min_chunk: int, num_threads: int, limit: int
) -> "tuple[list[tuple[int, int]], int]":
    """One guided batched claim: ``(blocks, new_cursor)`` from ``cursor``.

    The single shared implementation of the batched guided claim loop —
    callers (:class:`_GuidedLoopState` and the shm arena) only supply cursor
    storage and locking, so thread- and process-backend block boundaries can
    never drift apart.  Block boundaries follow the standard guided decay;
    batching only kicks in once the decay has bottomed out at ``min_chunk``
    (a larger block is plenty of work for one round-trip already), and
    :func:`guided_batch_cap` keeps one batch from claiming more than a
    fraction of the remaining tail blocks.
    """
    cap = guided_batch_cap(total - cursor, min_chunk, num_threads, limit)
    blocks: list[tuple[int, int]] = []
    for _ in range(cap):
        if cursor >= total:
            break
        begin, count = guided_claim(cursor, total, min_chunk, num_threads)
        blocks.append((begin, count))
        cursor = begin + count
        if count > min_chunk:
            break
    return blocks, cursor


class _GuidedLoopState:
    """Shared claim state for guided scheduling."""

    __slots__ = ("total", "min_chunk", "num_threads", "_next", "_lock")

    def __init__(self, total: int, min_chunk: int, num_threads: int) -> None:
        self.total = total
        self.min_chunk = min_chunk
        self.num_threads = num_threads
        self._next = 0
        self._lock = threading.Lock()

    def next_range(self) -> tuple[int, int] | None:
        """Atomically claim the next (begin, count) block, or ``None`` when done."""
        blocks = self.next_ranges(1)
        return None if blocks is None else blocks[0]

    def next_ranges(self, limit: int = 1) -> "list[tuple[int, int]] | None":
        """Atomically claim up to ``limit`` blocks in one lock round-trip.

        Blocks follow the standard guided decay; batching only kicks in once
        the decay has bottomed out at ``min_chunk`` (a larger block is plenty
        of work for one round-trip already), so the produced block boundaries
        are identical to unbatched claiming.  As with the dynamic state, a
        batch never claims more than a fraction of the remaining tail blocks,
        so one claimer cannot strip the counter bare while other consumers
        still want work.
        """
        with self._lock:
            blocks, self._next = guided_claim_batch(
                self._next, self.total, self.min_chunk, self.num_threads, limit
            )
            return blocks or None


@lru_cache(maxsize=64)
def _scheduler_instance(schedule: Schedule, chunk: int) -> LoopScheduler:
    if schedule is Schedule.STATIC_BLOCK:
        instance: LoopScheduler = StaticBlockScheduler()
    elif schedule is Schedule.STATIC_CYCLIC:
        instance = StaticCyclicScheduler(chunk=chunk)
    elif schedule is Schedule.DYNAMIC:
        instance = DynamicScheduler(chunk=chunk)
    elif schedule is Schedule.GUIDED:
        instance = GuidedScheduler(min_chunk=chunk)
    else:
        raise SchedulingError(f"unhandled schedule {schedule!r}")  # pragma: no cover
    object.__setattr__(instance, "_shared_frozen", True)
    return instance


def make_scheduler(schedule: "str | Schedule", chunk: int = 1) -> LoopScheduler:
    """Factory returning the (memoised) scheduler instance for ``schedule``.

    Schedulers hold no per-execution state — dynamic/guided claim cursors live
    in the objects returned by ``new_state``/``new_guided_state`` — so one
    instance per ``(schedule, chunk)`` is shared by all loops and teams.
    """
    if chunk < 1:
        raise SchedulingError("chunk must be >= 1")
    parsed = Schedule.parse(schedule)
    if parsed is Schedule.AUTO:
        raise SchedulingError(
            "schedule 'auto' has no standalone scheduler: it is resolved per loop "
            "site by the adaptive tuner (repro.tune) at loop-execution time.  Run "
            "the loop through run_for(schedule='auto') / the AdaptiveSchedule "
            "aspect, or pick a concrete schedule: "
            f"{', '.join(m.value for m in Schedule if m is not Schedule.AUTO)}"
        )
    return _scheduler_instance(parsed, chunk)


def partition_chunk_count(schedule: Schedule, chunk: int, num_threads: int, total: int) -> int:
    """Number of chunks a plan of ``schedule`` cuts ``total`` iterations into."""
    if chunk < 1:
        raise SchedulingError("chunk must be >= 1")
    if schedule is Schedule.STATIC_BLOCK:
        return min(num_threads, total)
    return (total + chunk - 1) // chunk
