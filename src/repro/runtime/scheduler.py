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
  ``(schedule, chunk)`` — schedulers are stateless; a loop execution's claim
  cursor is a slot of the team's :class:`~repro.runtime.shm.SyncArena`;
* a team member's static share is arithmetic in its id
  (:func:`block_span`, :func:`cyclic_spans`): ``run_for`` builds no plan;
* dynamic/guided claims hand out **batches** of chunks per slot round-trip
  (:meth:`~repro.runtime.shm.ArenaSlot.claim_batch`,
  :meth:`~repro.runtime.shm.ArenaSlot.claim_guided_batch`), with a tail
  fallback that shrinks claims near the end of the range to preserve load
  balance;
* a batch is adjacent chunks, so :meth:`DynamicScheduler.claims_from` hands
  the executor one contiguous run per claim and :meth:`DynamicScheduler.split`
  recovers the chunk boundaries where something observes chunks.
"""

from __future__ import annotations

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
        """Yield the chunks that ``thread_id`` (of ``num_threads``) must execute.

        Static schedules only: a dynamic/guided assignment depends on
        execution order, so those schedulers raise :class:`SchedulingError`.
        """
        raise SchedulingError(f"{self.schedule.value} schedules have no static partition")

    def partition(self, num_threads: int, start: int, end: int, step: int) -> list[list[LoopChunk]]:
        """Return every thread's chunk list (static schedules only)."""
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


class DynamicScheduler(LoopScheduler):
    """Dynamic (self-scheduling) distribution.

    Matches the paper's Figure 11: threads repeatedly claim the next chunk of
    ``chunk`` logical iterations from a shared counter (``getTask()``) until
    the loop is exhausted.  The counter is a :class:`~repro.runtime.shm.ArenaSlot`
    — one per loop execution, from the team's :class:`~repro.runtime.shm.SyncArena`
    — passed to :meth:`claims_from`.  Claims are batched
    (:data:`DEFAULT_CLAIM_BATCH` chunk indices per slot round-trip) — chunk
    *boundaries* are unchanged, only the lock traffic is.
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

    def chunks_from(self, slot, start: int, end: int, step: int, num_threads: int = 1) -> Iterator[LoopChunk]:
        """Yield the chunks the calling member claims from the counter ``slot``,
        one :class:`LoopChunk` per scheduling chunk (``num_threads`` members
        share the counter)."""
        total = trip_count(start, end, step)
        chunk = self.chunk
        total_chunks = -(-total // chunk)
        while (claim := slot.claim_batch(self.batch, num_threads, total_chunks)) is not None:
            first, count = claim
            for index in range(first, first + count):
                begin = index * chunk
                chunk_start = start + begin * step
                yield LoopChunk(chunk_start, chunk_start + min(chunk, total - begin) * step, step)

    def claims_from(self, slot, start: int, end: int, step: int, num_threads: int) -> "Iterator[tuple[int, int, int]]":
        """Yield ``(run_start, run_end, chunks)`` per claim round-trip on ``slot``.

        The chunks one claim hands out are adjacent by construction, so a
        claim is one contiguous run ``range(run_start, run_end, step)`` of
        ``chunks`` scheduling chunks.  The executor runs it as one body call
        and asks :meth:`split` for the chunk boundaries only when something
        observes chunks (tracing, an armed fault plan).
        """
        total = trip_count(start, end, step)
        chunk = self.chunk
        total_chunks = -(-total // chunk)
        while (claim := slot.claim_batch(self.batch, num_threads, total_chunks)) is not None:
            first, count = claim
            begin = first * chunk
            run_start = start + begin * step
            yield run_start, run_start + min(count * chunk, total - begin) * step, count

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


class GuidedScheduler(DynamicScheduler):
    """Guided self-scheduling: chunk sizes decay exponentially.

    Each claim takes ``max(min_chunk, remaining / num_threads)`` iterations,
    reducing scheduling overhead at the start while keeping good load balance
    at the tail.  Extension over the paper's three schedules, used by the
    scheduling ablation benchmark.  In the ``min_chunk`` tail several blocks
    are claimed per slot round-trip (block boundaries are unchanged).
    """

    schedule = Schedule.GUIDED

    def __init__(self, min_chunk: int = 1, *, batch: int | None = None) -> None:
        super().__init__(chunk=min_chunk, batch=batch)
        self.min_chunk = min_chunk

    def chunks_from(self, slot, start: int, end: int, step: int, num_threads: int = 1) -> Iterator[LoopChunk]:
        """Yield the guided blocks the calling member claims from the cursor ``slot``."""
        total = trip_count(start, end, step)
        while blocks := slot.claim_guided_batch(total, self.min_chunk, num_threads, self.batch):
            for begin, count in blocks:
                chunk_start = start + begin * step
                yield LoopChunk(chunk_start, chunk_start + count * step, step)

    def claims_from(self, slot, start: int, end: int, step: int, num_threads: int) -> "Iterator[tuple[int, int, int]]":
        """Guided twin of :meth:`DynamicScheduler.claims_from` over ``claim_guided_batch``."""
        total = trip_count(start, end, step)
        while blocks := slot.claim_guided_batch(total, self.min_chunk, num_threads, self.batch):
            last_begin, last_count = blocks[-1]
            yield start + blocks[0][0] * step, start + (last_begin + last_count) * step, len(blocks)


def oracle_chunks(
    scheduler: LoopScheduler, thread_id: int, num_threads: int, start: int, end: int, step: int, cursor=None
) -> Iterator[LoopChunk]:
    """Member ``thread_id``'s scheduling chunks under ``scheduler``, one
    :class:`LoopChunk` each: the reference the executor's paths are checked
    against.

    A static share is :meth:`~LoopScheduler.chunks_for`; a claiming member
    drains ``cursor`` (:meth:`DynamicScheduler.chunks_from`) — by default a
    fresh heap slot, so it claims alone.
    """
    if not isinstance(scheduler, DynamicScheduler):
        return scheduler.chunks_for(thread_id, num_threads, start, end, step)
    if cursor is None:
        from repro.runtime.shm import SyncArena, heap_slot  # shm imports this module

        cursor = heap_slot(SyncArena, 0)
    return scheduler.chunks_from(cursor, start, end, step, num_threads)


def block_counts(total: int, parts: int) -> "list[int]":
    """Sizes of ``parts`` contiguous blocks covering ``total`` units.

    The first ``total % parts`` blocks get one extra unit.  Shared by the
    :class:`~repro.runtime.shm.TaskStealArena` deck seeding and the
    taskloop trace payload, so a taskloop's traced tile counts are the
    deck's by construction.
    """
    per, extra = divmod(total, parts)
    return [per + (1 if index < extra else 0) for index in range(parts)]


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

    Schedulers hold no per-execution state — a dynamic/guided claim cursor is
    a slot of the team's :class:`~repro.runtime.shm.SyncArena` — so one
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

