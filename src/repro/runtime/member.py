"""The member lifecycle, stated once (paper Figure 9).

The parallel-region aspect makes the master and ``numberOfThreads - 1``
members run the same body and then join.  Every execution tier runs that
through this module; a tier is only *how the descriptor arrives and how the
reply leaves*:

* :func:`run_member` — the core sequence every member of every tier
  executes: push the context, claim the heartbeat cell, run the body,
  drain the team's deferred tasks, record the failure and abort the barrier
  on error, flush the metrics delta, pop the context.  Thread, serial and
  forked members call it with the live team.
* :func:`run_shipped_member` — wraps the core for members that rebuild
  their world from a :func:`describe_region` descriptor (pool workers,
  socket workers) and encodes the outcome for the reply.
* :func:`join_team` — the master's side: watch the workers, run member 0
  inline, collect the replies, diagnose who never replied, reap.

A tier therefore supplies four things and nothing else: a way to deliver
the descriptor, a sync bundle on the worker's side, a way to deliver the
reply, and a way to say who is dead.  The pool and fork tiers deliver both
over *private* pipes — one writer and one reader each, so no lock — in
:func:`send_frame` frames, and the master reads every member's reply pipe as
one timed channel (:class:`FrameReader`).
"""

from __future__ import annotations

import os
import pickle
import queue
import select
import signal
import struct
import sys
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

import repro.obs.registry as obsreg
from repro.runtime import context as ctx
from repro.runtime import shm, tasks
from repro.runtime.config import RuntimeConfig, env, get_config, set_config
from repro.runtime.exceptions import WorkerProcessError
from repro.runtime.monitor import WorkerMonitor
from repro.runtime.trace import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.team import Team

#: Seconds granted to workers beyond the barrier timeout before the master
#: declares them lost.
JOIN_GRACE = 30.0

#: Longest single block on a result channel; worker-death, monitor-tripped
#: and deadline checks run between blocks.
RESULT_POLL = 0.05


# ---------------------------------------------------------------------------
# The core sequence: one member of one team.
# ---------------------------------------------------------------------------


def run_member(
    team: "Team", thread_id: int, body: Callable[[], Any], parent: "ctx.ExecutionContext | None" = None
) -> Any:
    """Execute ``body`` as member ``thread_id`` of ``team``; returns its result.

    ``parent`` is the frame of the member that spawned the team: every
    member — not just the master — keeps the link, because the per-level
    member-id path (``ExecutionContext.member_path``) must resolve on all of
    them.  The member's result or exception is recorded on its
    :class:`~repro.runtime.team.TeamMember`; an exception also aborts the
    team barrier, so siblings fail fast, and propagates to the caller.
    """
    member = team.members[thread_id]
    ctx.push_context(
        ctx.ExecutionContext(team=team, thread_id=thread_id, nesting_level=team.nesting_level, parent=parent)
    )
    start = time.perf_counter()
    sync = team.process_sync
    try:
        if sync is not None:
            # Claim the member's liveness cell from the process that runs the
            # member, so the cell carries that worker's own pid (the monitor
            # maps dead pids back to members through it).
            sync.heartbeat.register(thread_id)
        member.result = body()
        # Implicit end-of-region task scheduling point: every member helps
        # finish deferred tasks before the region's barrier, so
        # spawned-but-never-waited tasks still complete (OpenMP semantics).
        # No-op when the region spawned no tasks.
        tasks.drain_team_tasks(team, thread_id)
        return member.result
    except BaseException as exc:
        member.exception = exc
        team.abort()
        raise
    finally:
        if team.tracing:
            team.recorder.record(
                EventKind.PHASE_WORK,
                team.region_id,
                thread_id,
                elapsed=time.perf_counter() - start,
                label="region_body",
            )
        if team.metrics and sync is not None and sync.metrics is not None:
            # Members outside the master's process move their accumulated
            # counts into their arena range before reporting back; the master
            # drains the arena at region end.  In-process members have no
            # arena and keep counting in place.
            sync.metrics.flush_member(thread_id, obsreg.flush_delta())
        ctx.pop_context()


# ---------------------------------------------------------------------------
# Shipped members: the descriptor, and the worker that rebuilds from it.
# ---------------------------------------------------------------------------


def body_payload(body: "Callable[[], Any] | None") -> "bytes | None":
    """Pickle ``body`` for shipping to a worker, or ``None`` when ineligible.

    Crossing a process or interpreter boundary *copies* by-value state, so
    its mutations would be lost; only callables whose owner explicitly
    declares itself ``process_safe`` (all mutable state in shared memory)
    are eligible.
    """
    owner = getattr(body, "__self__", None)
    if owner is None or not getattr(owner, "process_safe", False):
        return None
    try:
        return pickle.dumps(body)
    except Exception:
        return None


def path_prelude() -> str:
    """Bootstrap fragment replaying this process's ``sys.path`` in a worker.

    Fresh interpreters and spawned processes initialise ``sys.path`` from
    the installation alone; entries added by the embedding application
    (``PYTHONPATH=src``, test harness insertions) must be replayed for
    ``repro`` to be importable.
    """
    paths = [p for p in sys.path if p]
    return (
        "import sys\n"
        f"for _p in reversed({paths!r}):\n"
        "    if _p not in sys.path:\n"
        "        sys.path.insert(0, _p)\n"
    )


def describe_region(team: "Team", body_bytes: bytes) -> "dict[str, Any]":
    """Everything a shipped member needs to rebuild ``team`` on its side.

    Values are primitives (ints, strings, bytes, tuples, dicts, ``None``).
    """
    config = get_config()
    return {
        "size": team.size,
        "region_id": team.region_id,
        "name": team.name,
        "backend": team.backend_name,
        "body": body_bytes,
        # SPMD agreement: the fields that shape scheduling decisions must
        # match the master's *live* configuration, not what a long-lived
        # worker captured at start (a stale default_schedule silently
        # corrupts work-shared results).  Workers also instrument iff the
        # master does, with the master's bucket layout, so flushed slot
        # deltas mean the same thing on both sides.
        "config": {
            "num_threads": config.num_threads,
            "default_schedule": config.default_schedule,
            "default_chunk": config.default_chunk,
            "nested": config.nested,
            "max_active_levels": config.max_active_levels,
            "metrics": config.metrics,
            "metrics_buckets": config.metrics_buckets,
        },
    }


class WorkerState:
    """What a long-lived worker carries from one region to the next.

    A pool worker or a parked socket worker runs one shipped member after
    another; handing each the same state lets a region rebuild only what its
    descriptor says changed.  The configuration is rebuilt only for
    different fields, and the shared arrays the last body attached stay
    mapped for a body that names them again: at most one body's, so nothing
    grows with the number of regions, and only while regions keep coming (a
    pool worker closes them once idle, a parked socket worker retires).
    """

    def __init__(self) -> None:
        #: ``(base, fields, config)``: the worker's own configuration, the
        #: master's shipped fields, and the configuration built from the two
        self._config: Any = None
        #: the shared arrays the last body attached
        self._arrays: "list[shm.SharedArray]" = []

    def config(self, fields: "dict[str, Any]") -> RuntimeConfig:
        """The configuration to run under: the master's shipped ``fields``
        over the worker's own, rebuilt only when either changed."""
        base = get_config()
        memo = self._config
        if memo is None or memo[0] is not base or memo[1] != fields:
            # Nested regions spawned inside a worker run as thread sub-teams,
            # and a worker's trace events could not reach the master's recorder.
            memo = self._config = (base, fields, base.with_updates(tracing=False, backend="threads", **fields))
        return memo[2]

    def load(self, body: bytes) -> Any:
        """Unpickle a region body, reusing the last body's attachments."""
        kept, self._arrays = self._arrays, []
        loaded, self._arrays = shm.loads_tracking_attachments(body, kept)
        return loaded

    def close(self) -> None:
        """Detach the kept arrays (a worker that runs no further region)."""
        arrays, self._arrays = self._arrays, []
        for array in arrays:
            array.close()


def run_shipped_member(
    descriptor: "dict[str, Any]", thread_id: int, sync: "shm.ProcessSync", state: WorkerState
) -> "tuple[bytes | None, bytes | str | None]":
    """Run member ``thread_id`` of the region ``descriptor`` names, over ``sync``.

    For members that share nothing with the master but the sync bundle:
    rebuild the team under the master's shipped configuration, run
    :func:`run_member`, and return the reply — the pickled result and
    ``None``, or ``None`` and the encoded exception.  Never raises: a
    failure anywhere aborts the team barrier (releasing siblings blocked in
    it) and travels back in the reply.  ``state`` is the
    :class:`WorkerState` the long-lived worker keeps between regions.
    """
    from repro.runtime.team import Team  # team.py imports this module

    try:
        body = state.load(descriptor["body"])
        previous = set_config(state.config(descriptor["config"]))
        try:
            team = Team(
                descriptor["size"],
                region_id=descriptor["region_id"],
                name=descriptor["name"],
                process_sync=sync,
            )
            team.backend_name = descriptor["backend"]
            return _encode_result(run_member(team, thread_id, body)), None
        finally:
            set_config(previous)
    except BaseException as exc:  # noqa: BLE001 - shipped to the master
        try:
            sync.barrier.abort()
        except Exception:
            pass  # transport already gone; the master's loss path reports this member
        return None, _encode_exception(exc)


# ---------------------------------------------------------------------------
# The master's side: run member 0, collect the replies, diagnose, reap.
# ---------------------------------------------------------------------------


def join_team(
    team: "Team",
    run_member: Callable[[int], Any],
    *,
    receive: Callable[[float], Any],
    alive: Callable[[], bool],
    dead_workers: Callable[[], list],
    accept: Callable[[Any], "tuple[int, tuple] | None"] = lambda item: item,
    watcher: Any = None,
    on_give_up: "Callable[[], None] | None" = None,
    reap: Callable[[bool], None] = lambda failed: None,
) -> Any:
    """Run the master inline and join ``team``'s external members.

    The tier has already delivered the descriptor; what it passes here is how
    replies arrive (``receive``/``accept``, see
    :func:`collect_member_payloads`), who is dead (``alive`` for "is anyone
    left to wait for", ``dead_workers`` for the monitor's
    ``(member, pid, exitcode)`` triples) and how to ``reap`` its workers once
    everyone is accounted for (called with whether the region failed).
    The join deadline tracks the team barrier's bound
    (``AOMP_BARRIER_TIMEOUT``; none when unbounded) — a healthy worker
    legitimately blocked in a long barrier must not be declared lost by a
    join deadline shorter than the barrier's.  ``watcher``
    is an object whose ``watch(team)`` returns a
    :class:`~repro.runtime.monitor.WorkerMonitor` it drives for the region —
    its own, re-armed, with its own ``dead_workers`` (the pool's long-lived
    watcher thread) — and whose ``unwatch(monitor)`` disarms it; without one
    a monitor of the region's own runs its own thread.  Returns the master's
    result; member failures are recorded on the team, never raised from here.
    """
    if watcher is None:
        sync = team.process_sync
        monitor = WorkerMonitor(team, dead_workers, heartbeat=sync.heartbeat if sync is not None else None)
        monitor.start()
    else:
        monitor = watcher.watch(team)
    barrier_bound = env("AOMP_BARRIER_TIMEOUT")
    master_result: Any = None
    try:
        master_result = run_member(0)
    except BaseException:
        # Recorded on the member; run_member already aborted the team
        # barrier so workers fail fast.
        pass
    finally:
        try:
            payloads = collect_member_payloads(
                receive,
                expected=team.size - 1,
                alive=alive,
                abort=team.abort,
                timeout=float("inf") if barrier_bound is None else barrier_bound + JOIN_GRACE,
                accept=accept,
                on_give_up=on_give_up,
                tripped=lambda: monitor.tripped,
            )
            if watcher is None:
                monitor.stop()
            else:
                watcher.unwatch(monitor)
            apply_member_payloads(team, payloads, deaths=monitor.deaths, stalled=monitor.stalled)
        finally:
            reap(any(member.exception is not None for member in team.members))
    return master_result


def collect_member_payloads(
    receive: Callable[[float], Any],
    *,
    expected: int,
    alive: Callable[[], bool],
    abort: Callable[[], None],
    timeout: float,
    accept: Callable[[Any], "tuple[int, tuple] | None"],
    on_give_up: Callable[[], None] | None = None,
    give_up_grace: float = 2.0,
    tripped: Callable[[], bool] | None = None,
) -> dict:
    """Gather ``expected`` member payloads from a result channel.

    ``receive(timeout)`` blocks for the next raw item and raises
    :class:`queue.Empty` after ``timeout`` seconds; ``accept`` maps an item
    to ``(thread_id, payload)`` or ``None`` to discard it (the pool uses
    this to filter stale region tickets).  The wait is a blocking read in
    slices of at most :data:`RESULT_POLL`, so a payload wakes the master the
    moment it lands.  When the workers die, ``timeout`` passes, or
    ``tripped`` reports that the worker monitor already aborted the team (a
    *stalled* member stays alive but will never report, so waiting out the
    deadline would reintroduce the very hang the monitor exists to prevent),
    ``on_give_up`` fires (the pool poisons itself) and the team is aborted
    to release any members still blocked in a barrier.  Survivors of a
    sibling's death then need a moment to error out of the broken barrier
    and report: the give-up path keeps reading for up to ``give_up_grace``
    seconds — exiting early once the channel has been idle for half a
    second — so late reporters are not misclassified as having died
    silently, while a genuinely dead member costs well under the barrier
    timeout (the monitor's abort makes the whole detection path land in
    fractions of a second).
    """
    payloads: dict[int, tuple] = {}

    def take(wait: float) -> bool:
        try:
            item = receive(wait)
        except queue.Empty:
            return False
        accepted = accept(item)
        if accepted is not None:
            payloads[accepted[0]] = accepted[1]
        return True

    deadline = time.monotonic() + timeout
    while len(payloads) < expected:
        if take(RESULT_POLL):
            continue
        if alive() and not (tripped is not None and tripped()) and time.monotonic() <= deadline:
            continue
        # A member that reported and then exited put its payload in the
        # channel before the checks above could see it gone: only an empty
        # read *after* them proves the payload is not coming.
        if take(0.0):
            continue
        if on_give_up is not None:
            on_give_up()
        abort()
        grace_deadline = time.monotonic() + give_up_grace
        idle_deadline = time.monotonic() + 0.5
        while len(payloads) < expected:
            wait = min(grace_deadline, idle_deadline) - time.monotonic()
            if wait <= 0:
                break
            if take(wait):
                idle_deadline = time.monotonic() + 0.5
        break
    return payloads


def apply_member_payloads(
    team: "Team",
    payloads: dict,
    *,
    deaths: "list | None" = None,
    stalled: "list | None" = None,
) -> None:
    """Record collected member payloads (results/exceptions) on the team.

    A member without a payload is diagnosed as a silent death or — when the
    worker monitor flagged it — a heartbeat stall, and receives a
    :class:`WorkerProcessError`.
    """
    death_info = {m: (pid, code) for m, pid, code in (deaths or ()) if m is not None}
    sync = team.process_sync
    heartbeat = sync.heartbeat if sync is not None else None
    for member in team.members[1:]:
        payload = payloads.get(member.thread_id)
        if payload is None:
            pid, exitcode = death_info.get(member.thread_id, (None, None))
            if pid is None and heartbeat is not None:
                pid = heartbeat.pid(member.thread_id) or None
            if stalled and member.thread_id in stalled:
                message = (
                    f"worker process (pid {pid}) for member {member.thread_id} of team "
                    f"{team.name!r} (level {team.nesting_level}) stopped heartbeating "
                    "past AOMP_HEARTBEAT_TIMEOUT and was abandoned"
                )
            else:
                message = _worker_death_message(team, member.thread_id, pid, exitcode)
            member.exception = WorkerProcessError(
                message,
                member=member.thread_id,
                pid=pid,
                exitcode=exitcode,
            )
            continue
        result, exc = payload
        if exc is not None:
            member.exception = _decode_exception(exc)
        else:
            member.result = _decode_result(result)


def _worker_death_message(team: "Team", member: int, pid: "int | None", exitcode: "int | None") -> str:
    """Diagnose a worker that died before reporting: who, where, and how."""
    where = f"member {member} of team {team.name!r} (level {team.nesting_level})"
    who = f"worker process (pid {pid})" if pid else "worker process"
    if exitcode is not None and exitcode < 0:
        number = -exitcode
        try:
            signame = signal.Signals(number).name
        except ValueError:  # pragma: no cover - unknown signal number
            signame = f"signal {number}"
        return f"{who} for {where} was killed by {signame} (signal {number}) before reporting"
    if exitcode is not None:
        return f"{who} for {where} exited with code {exitcode} before reporting"
    return f"{who} for {where} died without reporting"


def watch_master(master: int, barrier, gone: threading.Event) -> None:
    """A forked member's daemon thread (pool worker or fork-per-region child):
    sleep until every thread of ``master`` has exited — and so released its
    segment locks — then say so and break ``barrier``, so a member asleep in
    a round the master will never end leaves at once.  Without pidfds there
    is nothing to sleep on, and the member falls back on its pipe and the
    barrier timeout."""
    try:
        fd = os.pidfd_open(master)
    except ProcessLookupError:
        pass  # gone already
    except (AttributeError, OSError):
        return
    else:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        poller.poll()  # readable once the whole thread group has exited
        os.close(fd)
    gone.set()
    barrier.abort()


# ---------------------------------------------------------------------------
# Private pipes: descriptors out, replies back.  Each pipe has one writer and
# one reader, so a frame needs no lock even when it is longer than the
# pipe's atomic write size.
# ---------------------------------------------------------------------------

_FRAME = struct.Struct("<I")


def send_frame(fd: int, item: Any) -> None:
    """Write ``item`` to pipe ``fd`` as one ``<I``-length-prefixed pickle."""
    data = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(_FRAME.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view) :]


class FrameReader:
    """:func:`send_frame` frames arriving on private pipes, read as one timed
    channel: the master's reply pipes (``receive`` of :func:`join_team`), a
    pool worker's task pipe.

    A frame may arrive in pieces.  A pipe whose writer has gone (EOF) is
    dropped and ends the read at once, so the join's liveness checks, not a
    read deadline, decide when its member is given up on.
    """

    def __init__(self, fds: "list[int]") -> None:
        self.fds = list(fds)
        self._buffers = {fd: bytearray() for fd in fds}
        self._poll = select.poll()
        for fd in fds:
            self._poll.register(fd, select.POLLIN)

    def get(self, timeout: "float | None" = None) -> Any:
        """The next complete frame; :class:`queue.Empty` when none lands in
        ``timeout`` seconds (``None``: however long) or a writer has gone."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            for buffer in self._buffers.values():
                if len(buffer) >= _FRAME.size and len(buffer) >= (end := _FRAME.size + _FRAME.unpack_from(buffer)[0]):
                    item = pickle.loads(buffer[_FRAME.size : end])
                    del buffer[:end]
                    return item
            wait = None if deadline is None else max(0.0, deadline - time.monotonic()) * 1000.0
            events = self._poll.poll(wait)
            if not events:
                raise queue.Empty
            for fd, _event in events:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    self._poll.unregister(fd)
                    del self._buffers[fd]
                    raise queue.Empty
                self._buffers[fd] += chunk

    @property
    def open(self) -> bool:
        """Whether any writer is still there."""
        return bool(self._buffers)

    def close(self) -> None:
        """Close the read ends (every pipe's, also those already at EOF)."""
        for fd in self.fds:
            os.close(fd)


# ---------------------------------------------------------------------------
# Reply encoding: results/exceptions must cross a process boundary.  The
# object graph is pickled exactly once, in the worker; the channel then only
# ships the resulting bytes (re-pickling bytes is a cheap copy).
# ---------------------------------------------------------------------------


def _encode_result(result: Any) -> bytes | None:
    try:
        return pickle.dumps(result)
    except Exception:
        return None  # non-picklable member results are dropped (master's is inline)


def _decode_result(payload: bytes | None) -> Any:
    if payload is None:
        return None
    return pickle.loads(payload)


def _encode_exception(exc: BaseException) -> "bytes | str":
    try:
        return pickle.dumps(exc)
    except Exception:
        return f"{type(exc).__name__}: {exc}"


def _decode_exception(payload: "bytes | str") -> BaseException:
    if isinstance(payload, bytes):
        try:
            return pickle.loads(payload)
        except Exception:  # pragma: no cover - unpicklable in the parent
            return WorkerProcessError("worker exception could not be reconstructed")
    return WorkerProcessError(str(payload))
