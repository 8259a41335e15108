"""Work-sharing executor for *for methods*.

A *for method* exposes a loop's iteration range as its first three integer
parameters ``(start, end, step)`` (paper Section III.A).  The executor in this
module rewrites that range according to the calling thread's position in the
team and the selected schedule, then invokes the original method once per
assigned static chunk or per dynamic/guided *claim* — the behaviour of the
``around`` advice in the paper's Figures 10 (static) and 11 (dynamic), with
Figure 11's ``getTask()`` handing out up to ``batch`` adjacent chunks at a
time and the member running them as one call.

The executor also:

* records one ``CHUNK`` trace event per scheduling chunk (consumed by
  :mod:`repro.perf`),
* optionally installs an :class:`~repro.runtime.ordered.OrderedRegion`,
* optionally performs the implicit end-of-loop barrier (``nowait=False``).

Outside a parallel region the full range is executed directly — the paper's
sequential-semantics guarantee.

Hot-path design: per-chunk dispatch is the cost the paper's claim lives or
dies by.  A static member's chunks are arithmetic in its id: a
``static_block`` loop is one step and one body call per member, a
``static_cyclic`` one step and one call per chunk (:func:`_run_spans`), with
no plan built or looked up.  Dynamic/guided loops run through one claim loop
(:func:`_run_claims`): per claim it pays one lock-free abort read, one lock,
arena or RPC round-trip and one body call over the claimed run; the run is
split back into its chunks (boundaries from :mod:`~repro.runtime.scheduler`)
only while tracing or a fault plan observes chunks.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Hashable

import repro.obs.registry as obsreg
from repro.runtime import context as ctx
from repro.runtime import faults
from repro.runtime.config import get_config
from repro.runtime.barrier import BrokenBarrierError
from repro.runtime.exceptions import BackendCapabilityError, SchedulingError
from repro.runtime.ordered import OrderedRegion, install_ordered_region
from repro.runtime.shm import ProcessDynamicState, ProcessGuidedState
from repro.runtime.scheduler import (
    CollapsedRange,
    DynamicScheduler,
    LoopChunk,
    Schedule,
    block_span,
    cyclic_spans,
    make_scheduler,
    parse_schedule_spec,
    partition_chunk_count,
    trip_count,
)
from repro.runtime.trace import EventKind, NO_REGION, TraceRecorder, get_global_recorder, global_tracing_active

#: metric slot per concrete schedule — resolved once at import so the hot
#: paths pay a dict-free constant lookup.
_CHUNK_SLOTS = {
    Schedule.STATIC_BLOCK: obsreg.CHUNK_SLOTS["static_block"],
    Schedule.STATIC_CYCLIC: obsreg.CHUNK_SLOTS["static_cyclic"],
    Schedule.DYNAMIC: obsreg.CHUNK_SLOTS["dynamic"],
    Schedule.GUIDED: obsreg.CHUNK_SLOTS["guided"],
}
_SERIAL_SLOT = obsreg.CHUNK_SLOTS["serial"]


def _loop_encounter_key(loop_name: str) -> Hashable:
    """Key identifying this *execution* of the loop across the whole team.

    The region body is SPMD, so the *n*-th time each member reaches the loop
    corresponds to the same logical loop execution; a per-member counter keyed
    by loop name therefore yields matching keys on every member.
    """
    context = ctx.current_context()
    assert context is not None
    counters: dict[str, int] = context.scratch.setdefault("loop_counters", {})
    occurrence = counters.get(loop_name, 0)
    counters[loop_name] = occurrence + 1
    return ("for", loop_name, occurrence)


def _loop_ordinal(context: ctx.ExecutionContext) -> int:
    """Monotone per-member counter of workshared loops in this region.

    SPMD execution makes the counter identical on every member, so it can
    index the team's pre-allocated cross-process claim arena (process teams
    cannot create new shared state after their workers exist).
    """
    ordinal = context.scratch.get("loop_ordinal", 0)
    context.scratch["loop_ordinal"] = ordinal + 1
    return ordinal


def collapse_loop(
    body: Callable[..., Any],
    start: int,
    end: int,
    step: int,
    args: tuple,
    collapse: int,
    *,
    pin_rows: bool = False,
) -> "tuple[Callable[..., Any], int, int, int, tuple, CollapsedRange]":
    """Linearise a ``collapse(n)`` for method into a flat 1-D for method.

    The collapsed for method exposes ``n`` ``(start, end, step)`` triples as
    its first ``3n`` parameters; the first triple arrives through the normal
    ``run_for`` range arguments and the remaining ``3 * (n - 1)`` lead
    ``args``.  Returns ``(flat_body, 0, units, 1, rest_args, crange)`` where
    ``flat_body`` decodes each flat sub-range back into per-row calls of the
    original method — so every scheduler, claim arena and the adaptive tuner
    compose with collapse untouched, simply by working on the flat range.

    With ``pin_rows`` the schedulable unit is a whole row (the innermost
    range with outer indices fixed) instead of a single index tuple.
    """
    if collapse < 2:
        raise SchedulingError(f"collapse must be >= 2, got {collapse}")
    needed = 3 * (collapse - 1)
    if len(args) < needed:
        raise SchedulingError(
            f"collapse({collapse}) for method must receive {3 * collapse} range "
            f"parameters; only {3 + len(args)} positional arguments were passed"
        )
    dims = [(int(start), int(end), int(step))]
    for d in range(collapse - 1):
        lo, hi, st = args[3 * d : 3 * d + 3]
        dims.append((int(lo), int(hi), int(st)))
    rest = tuple(args[needed:])
    crange = CollapsedRange(tuple(dims))
    decode = crange.row_segments if pin_rows else crange.segments
    units = crange.outer_total if pin_rows else crange.total

    def flat_body(flat_start: int, flat_end: int, flat_step: int, *extra: Any, **kwargs: Any) -> Any:
        # flat_step is always 1: the linearised space is dense by construction.
        result: Any = None
        for params in decode(flat_start, flat_end):
            result = body(*params, *extra, **kwargs)
        return result

    flat_body.__name__ = getattr(body, "__name__", "<loop>")
    return flat_body, 0, units, 1, rest, crange


def run_for(
    body: Callable[..., Any],
    start: int,
    end: int,
    step: int,
    *args: Any,
    schedule: "str | Schedule | None" = None,
    chunk: int = 1,
    loop_name: str | None = None,
    collapse: int = 1,
    pin_rows: bool = False,
    ordered: bool = False,
    nowait: bool = False,
    weight: Callable[[int], float] | None = None,
    **kwargs: Any,
) -> Any:
    """Execute for-method ``body`` with its range distributed over the team.

    Parameters
    ----------
    body:
        The original for method; called as ``body(range_start, range_end,
        step, *args, **kwargs)``.  Under a static schedule that is one call
        per chunk assigned to this thread.  Under ``dynamic``/``guided`` it
        is one call per *claim*: a claim hands this thread up to
        :data:`~repro.runtime.scheduler.DEFAULT_CLAIM_BATCH` adjacent chunks
        and the body receives them as a single range that starts on a chunk
        boundary and is a whole number of chunks (short only at the loop's
        end).  While tracing is on or a fault plan is armed the claim is
        dispatched chunk by chunk instead.
    start, end, step:
        The full loop range as passed by the caller of the for method.
    schedule, chunk:
        Loop schedule and chunk size (``chunk`` applies to cyclic, dynamic and
        guided schedules; for dynamic/guided it bounds what a claim hands
        out — the scheduling granularity — not the size of a body call).
        ``None`` uses the configured default
        (``AOMP_SCHEDULE``); OpenMP-style ``"kind,chunk"`` specs are accepted.
        ``"auto"`` defers the choice to the adaptive tuner (:mod:`repro.tune`):
        each invocation runs a concrete schedule the tuner picked for this
        loop site — or the serial fallback when the loop is too small to
        amortise team spin-up — and the measured wall time feeds the search.
    loop_name:
        Name recorded in trace events; defaults to ``body.__name__``.
    collapse:
        Number of perfectly nested loop dimensions the for method exposes
        (OpenMP's ``collapse(n)`` clause).  With ``collapse=n`` the method's
        first ``3n`` parameters are ``n`` ``(start, end, step)`` triples
        (the first through the normal range arguments, the rest leading
        ``*args``); the combined iteration space is linearised and shared
        under ``schedule`` exactly like a 1-D loop — every schedule,
        including ``"auto"``, batched claims and the process arenas, composes
        unchanged.  Trace ``CHUNK`` events and ``weight`` then refer to flat
        linearised indices.
    pin_rows:
        With ``collapse``: make whole *rows* (the innermost range with outer
        indices fixed) the schedulable unit, so no row is ever split across
        chunks.  Implied by ``ordered``.
    ordered:
        Whether an ordered region spanning the full range should be installed
        while the loop runs (needed when the loop body uses ``@Ordered``).
        With ``collapse=2`` the ordered index is the outer dimension's and
        rows are pinned; deeper ordered collapses are rejected.
    nowait:
        Skip the implicit barrier at the end of the work-shared loop.
    weight:
        Optional per-iteration weight function recorded with each chunk so the
        performance model can account for non-uniform iteration costs.

    Returns the result of the last chunk invocation on this thread (for
    methods are normally ``void``, mirroring the paper).
    """
    context = ctx.current_context()

    ordered_range = (start, end, step)
    if collapse > 1:
        if ordered and collapse > 2:
            raise SchedulingError(
                "ordered is only supported with collapse=2 (the ordered index is "
                f"the outer dimension's), got collapse={collapse}"
            )
        body, start, end, step, args, _crange = collapse_loop(
            body, start, end, step, args, collapse, pin_rows=pin_rows or ordered
        )

    # Zero-trip fast path: nothing to execute means no scheduler state, no
    # CHUNK trace events and no tuner observation — a zero-trip "auto"
    # invocation would otherwise poison the site's timing samples.  The body
    # is not invoked at all (matching what a team member with no chunks
    # does), and in a team the loop ordinal is still claimed and the implicit
    # barrier still performed, so SPMD alignment and synchronisation
    # semantics are unchanged.
    zero_trip = trip_count(start, end, step) == 0

    if context is None or context.team.size == 1:
        if zero_trip:
            return None
        return _run_sequential(body, start, end, step, args, kwargs, context, loop_name, weight)

    team = context.team
    name = loop_name or getattr(body, "__name__", "<loop>")
    parsed, spec_chunk = parse_schedule_spec(
        schedule if schedule is not None else get_config().default_schedule
    )
    if spec_chunk is not None and chunk == 1:
        chunk = spec_chunk
    # Claimed unconditionally so the ordinal stays aligned across members and
    # across schedule kinds (the body is SPMD: every member sees the same
    # loops in the same order).
    ordinal = _loop_ordinal(context)

    if zero_trip:
        if not nowait:
            team.barrier(label=f"for:{name}")
        return None

    if ordered and team.is_process_team:
        raise BackendCapabilityError(
            f"loop {name!r}: ordered execution needs a shared Python heap; "
            "isolated-heap teams (process or distributed backends) cannot "
            "honour it (weave with threads, or mark the region as requiring "
            "shared locals to get the automatic fallback)"
        )

    if faults.active():
        # One wrapper install per loop while a fault plan is armed: each chunk
        # dispatch then passes the "chunk" injection site.  Inactive runs pay
        # exactly the active() flag check above.
        body = faults.wrap_chunk_body(body, member=context.thread_id, team=team)

    ordered_region: OrderedRegion | None = None
    previous_ordered: OrderedRegion | None = None
    if ordered:
        loop_key = _loop_encounter_key(f"{name}#ordered")
        ordered_region = team.shared_slot(loop_key, lambda: OrderedRegion(*ordered_range))
        previous_ordered = install_ordered_region(ordered_region)

    result: Any = None
    barrier_done = False
    try:
        if parsed is Schedule.AUTO:
            # The auto path runs the implicit barrier itself, *inside* its
            # measurement window: the master's wall time then approximates
            # the loop phase makespan, which is what the tuner compares.
            result = _run_auto(
                body, start, end, step, args, kwargs, context, team, name, ordinal, nowait, weight
            )
            barrier_done = not nowait
        else:
            result = _dispatch_schedule(
                body, parsed, chunk, start, end, step, args, kwargs, context, team, name, ordinal, weight
            )
    finally:
        if ordered:
            install_ordered_region(previous_ordered)

    if not nowait and not barrier_done:
        team.barrier(label=f"for:{name}")
    return result


# ---------------------------------------------------------------------------
# execution paths
# ---------------------------------------------------------------------------


def _dispatch_schedule(
    body: Callable[..., Any],
    parsed: Schedule,
    chunk: int,
    start: int,
    end: int,
    step: int,
    args: tuple,
    kwargs: dict,
    context: "ctx.ExecutionContext",
    team,
    name: str,
    ordinal: int,
    weight: Callable[[int], float] | None,
) -> Any:
    """Execute this member's share of the loop under a *concrete* schedule.

    Shared by the normal ``run_for`` path and the adaptive (``auto``) path,
    which calls it with whatever schedule the tuner decided for this
    invocation.  A static member's share is arithmetic in its id, with the
    boundaries of :func:`static_partition`: a ``static_block`` member runs
    one contiguous block (:func:`~repro.runtime.scheduler.block_span`) in
    one body call.
    """
    if chunk < 1:
        raise SchedulingError("chunk must be >= 1")
    if parsed is Schedule.STATIC_BLOCK or parsed is Schedule.STATIC_CYCLIC:
        total, size, member = trip_count(start, end, step), team.size, context.thread_id
        if parsed is Schedule.STATIC_BLOCK:
            spans: Any = (block_span(total, size, member),)
        else:
            spans = cyclic_spans(total, size, member, chunk)
        return _run_spans(body, spans, start, step, args, kwargs, team, name, weight, _CHUNK_SLOTS[parsed])
    scheduler = make_scheduler(parsed, chunk=chunk)
    guided = parsed is Schedule.GUIDED
    if (slot := team.proc_loop_slot(ordinal)) is not None:
        total = trip_count(start, end, step)
        if guided:
            state = ProcessGuidedState(slot, total, scheduler.min_chunk, team.size)
        else:
            state = ProcessDynamicState(slot, partition_chunk_count(parsed, chunk, team.size, total), team.size)
    else:
        new_state = scheduler.new_guided_state if guided else scheduler.new_state
        state = team.shared_slot(_loop_encounter_key(name), lambda: new_state(start, end, step, team.size))
    return _run_claims(body, scheduler, state, start, end, step, args, kwargs, team, name, weight)


def _run_auto(
    body: Callable[..., Any],
    start: int,
    end: int,
    step: int,
    args: tuple,
    kwargs: dict,
    context: "ctx.ExecutionContext",
    team,
    name: str,
    ordinal: int,
    nowait: bool,
    weight: Callable[[int], float] | None,
) -> Any:
    """One invocation of an adaptively scheduled loop.

    Every member must execute the *same* concrete schedule, so the decision
    is agreed on before dispatch: in-process teams share the tuner's ticket
    through a team slot (first arriver asks the tuner); process teams cannot
    share the ticket object, so the master — whose process hosts the
    authoritative tuner — publishes the encoded plan through the shm
    plan-publication arena and workers wait for it.

    The master measures wall time from its dispatch start to the far side of
    the implicit barrier (≈ the loop phase makespan) and feeds it back to the
    tuner, recording the acted-on decision as a ``TUNE_DECISION`` event.
    """
    # Imported here, not at module level: repro.tune imports runtime modules
    # (config, scheduler), so a module-level import would make
    # ``import repro.tune`` as the first repro import a circular-import crash.
    from repro.tune.tuner import Candidate, tuner_for_team

    total = trip_count(start, end, step)
    thread_id = context.thread_id
    ticket = None
    ticket_key = None
    if (slot := team.proc_tune_slot(ordinal)) is not None:
        if thread_id == 0:
            ticket = tuner_for_team(team).begin_invocation(
                name,
                total,
                team.size,
                backend=team.backend_name,
                spinup_scale=team.backend_spinup_scale,
            )
            code, size, flags = ticket.encode()
            slot.publish((code, size, flags, ticket.invocation))
            candidate = ticket.candidate
        else:
            code, size, flags, _invocation = slot.read()
            candidate = Candidate.decode(code, size, flags)
    else:
        ticket_key = _loop_encounter_key(f"{name}#auto")
        ticket = team.shared_slot(
            ticket_key,
            lambda: tuner_for_team(team).begin_invocation(
                name,
                total,
                team.size,
                backend=team.backend_name,
                spinup_scale=team.backend_spinup_scale,
            ),
        )
        candidate = ticket.candidate

    began = time.perf_counter()
    result: Any = None
    if candidate.serial:
        # Serial fallback: the loop is too small to amortise team spin-up —
        # the master executes the untouched range, everyone else falls
        # through to the barrier.
        if thread_id == 0:
            result = _run_spans(body, ((0, total),), start, step, args, kwargs, team, name, weight, _SERIAL_SLOT)
    else:
        result = _dispatch_schedule(
            body,
            candidate.schedule,
            candidate.chunk,
            start,
            end,
            step,
            args,
            kwargs,
            context,
            team,
            name,
            ordinal,
            weight,
        )
    if not nowait:
        team.barrier(label=f"for:{name}")
    elapsed = time.perf_counter() - began

    if ticket is not None and thread_id == 0:
        payload = tuner_for_team(team).observe(ticket, elapsed)
        if team.metrics:
            obsreg.inc(obsreg.TUNE_DECISIONS)
        if team.tracing:
            team.record(EventKind.TUNE_DECISION, **payload)
        if ticket_key is not None and not nowait:
            # Each invocation has its own slot key; after the implicit
            # barrier every member has long since fetched the ticket, so the
            # master can drop it — otherwise a long-lived region running an
            # auto loop in a while-loop grows team._shared without bound.
            # (nowait loops keep the slot: a slow member may not have
            # fetched it yet, and re-creating it would double-decide.)
            team.drop_slot(ticket_key)
    return result


def _run_sequential(
    body: Callable[..., Any],
    start: int,
    end: int,
    step: int,
    args: tuple,
    kwargs: dict,
    context: "ctx.ExecutionContext | None",
    loop_name: str | None,
    weight: Callable[[int], float] | None,
) -> Any:
    """Sequential semantics: run the untouched range (team of one / no team).

    With a recorder attached (the team's, or — outside any region — the
    process-global one, honouring the global tracing switch) the execution is
    recorded as a single full-range chunk; without one the body is invoked
    with no per-call bookkeeping at all.
    """
    recorder: TraceRecorder | None = None
    region_id = NO_REGION
    thread_id = 0
    if context is not None:
        team = context.team
        metrics = team.metrics
        if team.tracing:
            recorder = team.recorder
            region_id = team.region_id
            thread_id = context.thread_id
    else:
        metrics = get_config().metrics
        if global_tracing_active() and get_config().tracing:
            recorder = get_global_recorder()
    if metrics:
        # The whole range runs as one chunk; account it under "serial" so
        # sequential-semantics executions are visible next to team schedules.
        obsreg.inc(_SERIAL_SLOT)

    if recorder is None:
        return body(start, end, step, *args, **kwargs)

    name = loop_name or getattr(body, "__name__", "<loop>")
    began = time.perf_counter()
    result = body(start, end, step, *args, **kwargs)
    elapsed = time.perf_counter() - began
    _record_chunk(recorder, region_id, thread_id, name, LoopChunk(start, end, step), weight, elapsed)
    return result


def _run_spans(
    body: Callable[..., Any],
    spans,
    start: int,
    step: int,
    args: tuple,
    kwargs: dict,
    team,
    name: str,
    weight: Callable[[int], float] | None,
    slot: int,
) -> Any:
    """One body call per ``(first, count)`` span of the loop's iterations
    (a for method is called over a dense range, so ``static_cyclic``'s
    blocks are not fused into one strided call); each span is one chunk."""
    tracing = team.tracing
    result: Any = None
    executed = 0
    for first, count in spans:
        if not count:
            continue
        lo = start + first * step
        if tracing:
            result = _run_traced_chunk(body, LoopChunk(lo, lo + count * step, step), args, kwargs, team, name, weight, slot)
        else:
            result = body(lo, lo + count * step, step, *args, **kwargs)
            executed += 1
    # One batched increment per loop (traced chunks count themselves).
    if executed and team.metrics:
        obsreg.inc(slot, executed)
    return result


def _run_claims(
    body: Callable[..., Any],
    scheduler: DynamicScheduler,
    state,
    start: int,
    end: int,
    step: int,
    args: tuple,
    kwargs: dict,
    team,
    name: str,
    weight: Callable[[int], float] | None,
) -> Any:
    """The dynamic/guided claim loop: one abort read, one claim, one body call.

    A claim's chunks are adjacent, so the member runs them as one body call
    over the claimed run.  The run is split back into its scheduling chunks
    only where something observes chunks: tracing (one ``CHUNK`` event per
    chunk) or an armed fault plan (``chunk=N`` is the member's N-th chunk).
    The chunk counter counts scheduling chunks either way.

    External cancellation (``Team.abort`` — the compute service's cancel
    path, the worker monitor's death diagnosis) breaks the barrier, but a
    member deep in the loop would otherwise keep claiming until the range
    runs dry and only notice at the closing barrier.  One lock-free
    ``team.broken`` read per claim bounds cancellation latency to a single
    claim (a stale read costs at most one more; on the socket plane the
    claim RPC itself is refused).
    """
    slot = _CHUNK_SLOTS[scheduler.schedule]
    tracing = team.tracing
    per_chunk = tracing or getattr(body, "chunk_site", False)
    result: Any = None
    executed = 0
    for run_start, run_end, chunks in scheduler.claims_from(state, start, end, step):
        if team.broken:
            raise BrokenBarrierError(f"loop {name!r} aborted: team {team.name!r} barrier is broken")
        if not per_chunk:
            result = body(run_start, run_end, step, *args, **kwargs)
            executed += chunks
            continue
        for piece in scheduler.split(run_start, run_end, step, chunks):
            if tracing:
                result = _run_traced_chunk(body, piece, args, kwargs, team, name, weight, slot)
            else:
                result = body(piece.start, piece.end, step, *args, **kwargs)
                executed += 1
    # One batched increment per loop (traced chunks count themselves).
    if executed and team.metrics:
        obsreg.inc(slot, executed)
    return result


def _run_traced_chunk(
    body: Callable[..., Any],
    piece: LoopChunk,
    args: tuple,
    kwargs: dict,
    team,
    name: str,
    weight: Callable[[int], float] | None,
    slot: int = obsreg.CHUNKS_OTHER,
) -> Any:
    """Timed body invocation recording one ``CHUNK`` event."""
    began = time.perf_counter()
    try:
        return body(piece.start, piece.end, piece.step, *args, **kwargs)
    finally:
        if team.metrics:
            obsreg.inc(slot)
        _record_chunk(
            team.recorder,
            team.region_id,
            ctx.get_thread_id(),
            name,
            piece,
            weight,
            time.perf_counter() - began,
        )


def _record_chunk(
    recorder: TraceRecorder,
    region_id: int,
    thread_id: int,
    name: str,
    piece: LoopChunk,
    weight: Callable[[int], float] | None,
    elapsed: float | None = None,
) -> None:
    total_weight: float | None = None
    if weight is not None:
        total_weight = float(sum(weight(i) for i in piece.indices()))
    recorder.record(
        EventKind.CHUNK,
        region_id,
        thread_id,
        loop=name,
        start=piece.start,
        end=piece.end,
        step=piece.step,
        count=piece.count,
        weight=total_weight,
        elapsed=elapsed,
    )


class _ClaimOnce:
    """Team-shared cell granting exactly one successful claim."""

    __slots__ = ("_lock", "_claimed")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claimed = False

    def try_claim(self) -> bool:
        with self._lock:
            if self._claimed:
                return False
            self._claimed = True
            return True


def claim_section(name: str = "section") -> bool:
    """First-arriver claim for one SPMD encounter of a section-style construct.

    Every team member is expected to reach the call (the region body is
    SPMD); exactly one member — the first to arrive — gets ``True`` and
    should execute the construct, the rest get ``False`` and skip it.
    Outside a parallel region (or in a team of one) the caller always wins.

    Works on every backend: in-process teams claim through a team-shared
    cell, process teams through the pre-allocated cross-process claim arena
    (the construct consumes one loop ordinal either way, keeping SPMD
    ordinal alignment with work-shared loops).  This is the claim primitive
    behind the ``@Section`` annotation.
    """
    context = ctx.current_context()
    if context is None or context.team.size == 1:
        return True
    team = context.team
    ordinal = _loop_ordinal(context)
    if (slot := team.proc_loop_slot(ordinal)) is not None:
        return slot.fetch_add() == 0
    key = _loop_encounter_key(f"{name}#section")
    cell: _ClaimOnce = team.shared_slot(key, _ClaimOnce)
    return cell.try_claim()


def run_sections(
    *sections: Callable[[], Any],
    schedule: "str | Schedule" = Schedule.DYNAMIC,
    chunk: int = 1,
    nowait: bool = False,
    name: str | None = None,
) -> "dict[int, Any]":
    """Execute each of ``sections`` exactly once, distributed over the team.

    The OpenMP ``sections`` construct: ``sections`` are zero-argument
    callables (use closures/``functools.partial`` to bind arguments); every
    one of them is executed by exactly one team member, with the assignment
    decided by ``schedule`` over the section indices — the construct is
    dispatched through the same schedule machinery as work-shared loops, so
    dynamic claiming (the default: first-free member takes the next
    section), static distributions and the cross-process claim arenas all
    apply unchanged.  Ends with the implicit team barrier unless ``nowait``.

    Outside a parallel region (or with a team of one) every section runs on
    the calling thread, in order — the paper's sequential-semantics
    guarantee.

    Returns a dict mapping section index to result **for the sections the
    calling member executed** (sequentially: all of them).  On process teams
    a section's side effects must go through shared memory, exactly like
    work-shared loop bodies.

    Tracing records one ``SECTION`` event per executed section (index +
    elapsed time) in addition to the scheduler's ``CHUNK`` events.
    """
    from repro.runtime.trace import EventKind as _EventKind

    context = ctx.current_context()
    label = name or "sections"
    results: dict[int, Any] = {}

    if context is None or context.team.size == 1:
        recorder: TraceRecorder | None = None
        region_id = NO_REGION
        thread_id = 0
        if context is not None:
            metrics = context.team.metrics
            if context.team.tracing:
                recorder = context.team.recorder
                region_id = context.team.region_id
                thread_id = context.thread_id
        else:
            metrics = get_config().metrics
            if global_tracing_active() and get_config().tracing:
                recorder = get_global_recorder()
        if metrics and sections:
            # Mirrors the CHUNK cost carrier below: one serial chunk for the
            # whole construct.
            obsreg.inc(_SERIAL_SLOT)
        total_began = time.perf_counter()
        for index, section in enumerate(sections):
            began = time.perf_counter()
            results[index] = section()
            if recorder is not None:
                recorder.record(
                    _EventKind.SECTION,
                    region_id,
                    thread_id,
                    sections=label,
                    index=index,
                    elapsed=time.perf_counter() - began,
                )
        if recorder is not None and sections:
            # Cost carrier, mirroring _run_sequential: the perf model prices
            # sections through CHUNK events (the SECTION events above are
            # markers), so the sequential path must emit one too or the work
            # would vanish from sequential/parallel comparisons.
            _record_chunk(
                recorder,
                region_id,
                thread_id,
                label,
                LoopChunk(0, len(sections), 1),
                None,
                time.perf_counter() - total_began,
            )
        return results

    team = context.team
    # Claimed even for an empty construct so ordinals stay SPMD-aligned.
    ordinal = _loop_ordinal(context)
    if not sections:
        if not nowait:
            team.barrier(label=f"sections:{label}")
        return results

    tracing = team.tracing

    def run_claimed(claim_start: int, claim_end: int, claim_step: int) -> None:
        for index in range(claim_start, claim_end, claim_step):
            began = time.perf_counter()
            results[index] = sections[index]()
            if tracing:
                team.record(
                    _EventKind.SECTION,
                    sections=label,
                    index=index,
                    elapsed=time.perf_counter() - began,
                )

    run_claimed.__name__ = label
    parsed, spec_chunk = parse_schedule_spec(schedule)
    if parsed is Schedule.AUTO:
        raise SchedulingError(
            "sections cannot be scheduled 'auto': the adaptive tuner keys on "
            "homogeneous loop sites; pick a concrete schedule (default: dynamic)"
        )
    if spec_chunk is not None and chunk == 1:
        chunk = spec_chunk
    _dispatch_schedule(
        run_claimed,
        parsed,
        chunk,
        0,
        len(sections),
        1,
        (),
        {},
        context,
        team,
        label,
        ordinal,
        None,
    )
    if not nowait:
        team.barrier(label=f"sections:{label}")
    return results


def static_partition(
    num_threads: int,
    start: int,
    end: int,
    step: int,
    *,
    schedule: "str | Schedule" = Schedule.STATIC_BLOCK,
    chunk: int = 1,
) -> list[list[LoopChunk]]:
    """Return the per-thread chunk lists for a static schedule: the whole
    team's plan at once, where a member of a ``run_for`` loop computes only
    its own share."""
    parsed = Schedule.parse(schedule)
    if parsed not in (Schedule.STATIC_BLOCK, Schedule.STATIC_CYCLIC):
        raise ValueError(f"schedule {schedule!r} has no static partition")
    return make_scheduler(parsed, chunk).partition(num_threads, start, end, step)
