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
(:func:`_run_claims`): per claim it pays one lock-free abort read, one
claim-slot round-trip (a lock on an in-heap or shm arena, or an RPC) and one
body call over the claimed run; the run is split back into its chunks
(boundaries from :mod:`~repro.runtime.scheduler`) only while tracing or a
fault plan observes chunks.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Hashable

import repro.obs.registry as obsreg
from repro.runtime import context as ctx
from repro.runtime import faults
from repro.runtime.config import get_config
from repro.runtime.barrier import BrokenBarrierError
from repro.runtime.exceptions import BackendCapabilityError, SchedulingError
from repro.runtime.ordered import OrderedRegion, install_ordered_region
from repro.runtime.scheduler import (
    DynamicScheduler,
    LoopChunk,
    Schedule,
    block_span,
    cyclic_spans,
    make_scheduler,
    parse_schedule_spec,
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
    index the team's slot arenas (process teams cannot create new shared
    state after their workers exist).
    """
    ordinal = context.scratch.get("loop_ordinal", 0)
    context.scratch["loop_ordinal"] = ordinal + 1
    return ordinal


def run_for(
    body: Callable[..., Any],
    start: int,
    end: int,
    step: int,
    *args: Any,
    schedule: "str | Schedule | None" = None,
    chunk: int = 1,
    loop_name: str | None = None,
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
    ordered:
        Whether an ordered region spanning the full range should be installed
        while the loop runs (needed when the loop body uses ``@Ordered``).
    nowait:
        Skip the implicit barrier at the end of the work-shared loop.
    weight:
        Optional per-iteration weight function recorded with each chunk so the
        performance model can account for non-uniform iteration costs.

    Returns the result of the last chunk invocation on this thread (for
    methods are normally ``void``, mirroring the paper).
    """
    context = ctx.current_context()

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

    previous_ordered: OrderedRegion | None = None
    if ordered:
        loop_key = _loop_encounter_key(f"{name}#ordered")
        region = team.shared_slot(loop_key, lambda: OrderedRegion(start, end, step, broken=lambda: team.broken))
        previous_ordered = install_ordered_region(region)
        body = region.wrap(body)

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
    boundaries of :meth:`~repro.runtime.scheduler.LoopScheduler.partition`:
    a ``static_block`` member runs one contiguous block
    (:func:`~repro.runtime.scheduler.block_span`) in one body call.
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
    cursor = team.proc_loop_slot(ordinal)
    return _run_claims(body, scheduler, cursor, start, end, step, args, kwargs, team, name, weight)


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
    is agreed on before dispatch: member 0 — whose process hosts the
    authoritative tuner — asks the tuner and publishes the encoded plan into
    the team's tune-plan slot, and the other members wait for it there
    (:meth:`~repro.runtime.shm.TunePlanSlot.read`, which ends on a broken
    team barrier).  Member 0 names the ``team.size - 1`` readers, so any
    number of ``nowait`` auto loops may be in flight: it does not re-publish
    a recycled slot before every reader took the plan there.

    Member 0 measures wall time from its dispatch start to the far side of
    the implicit barrier (≈ the loop phase makespan) and feeds it back to the
    tuner, recording the acted-on decision as a ``TUNE_DECISION`` event.  A
    probe also asks every member what its own share cost
    (:func:`~repro.tune.tuner.member_seconds`): members report it into the
    plan slot before the barrier, and member 0 reads the reports after it.
    ``nowait`` loops have no barrier to collect behind, so they never report.
    """
    # Imported here, not at module level: repro.tune imports runtime modules
    # (config, scheduler), so a module-level import would make
    # ``import repro.tune`` as the first repro import a circular-import crash.
    from repro.tune.tuner import FLAG_REPORT, Candidate, member_seconds, share_clock, tuner_for_team

    total = trip_count(start, end, step)
    thread_id = context.thread_id
    slot = team.proc_tune_slot(ordinal)
    ticket = None
    if thread_id == 0:
        ticket = tuner_for_team(team).begin_invocation(
            name,
            total,
            team.size,
            backend=team.backend_name,
            spinup_scale=team.backend_spinup_scale,
        )
        code, size, flags = ticket.candidate.encode()
        if ticket.report and not nowait:
            flags |= FLAG_REPORT
        slot.publish((code, size, flags, ticket.invocation), team.size - 1)
        candidate = ticket.candidate
    else:
        code, size, flags, _invocation = slot.read()
        candidate = Candidate.decode(code, size, flags)
    report = bool(flags & FLAG_REPORT)

    share_began = share_clock() if report else None
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
    if report:
        slot.report(thread_id, int(member_seconds(share_began) * 1e9))
    if not nowait:
        team.barrier(label=f"for:{name}")
    elapsed = time.perf_counter() - began

    if ticket is not None:
        member_times = [ns / 1e9 for ns in slot.reports(team.size)] if report else None
        payload = tuner_for_team(team).observe(ticket, elapsed, member_times)
        if team.metrics:
            obsreg.inc(obsreg.TUNE_DECISIONS)
        if team.tracing:
            team.record(EventKind.TUNE_DECISION, **payload)
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
    cursor,
    start: int,
    end: int,
    step: int,
    args: tuple,
    kwargs: dict,
    team,
    name: str,
    weight: Callable[[int], float] | None,
) -> Any:
    """The dynamic/guided claim loop on ``cursor``, the team's claim slot for
    this loop: one abort read, one claim, one body call.

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
    for run_start, run_end, chunks in scheduler.claims_from(cursor, start, end, step, team.size):
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
