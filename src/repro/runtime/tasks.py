"""Work-stealing task runtime: explicit tasks, futures, taskloop.

Implements the runtime behind the paper's ``@Task``, ``@TaskWait``,
``@FutureTask`` and ``@FutureResult`` constructs (Section III.C) plus the
``taskloop`` extension:

* ``@Task`` spawns a new parallel activity to execute the annotated method
  (usable inside *or outside* a parallel region);
* ``@TaskWait`` marks a method execution as the join point between the
  spawning and the spawned activities;
* ``@FutureTask`` targets methods returning a value; the returned object's
  getters act as synchronisation points (``@FutureResult``);
* ``taskloop`` tiles an iteration space into stealable tasks executed
  cooperatively by the whole team — the work-stealing twin of the
  work-sharing ``@For`` construct, for irregular workloads where static
  partitions lose.

Execution model
---------------
A task is deferred only inside a parallel region.  The team owns one shared
:class:`TaskPool` with a :class:`WorkStealingDeque` per member: the owning
member pushes and pops at one end (LIFO — newest task first, the classic
cache-friendly Cilk discipline) while thieves steal from the opposite end
(FIFO — oldest task first, largest expected remaining work).  The deques are
*lock-free-ish*: CPython's per-opcode atomicity makes single ``deque``
operations safe without a lock, and the one-element race between a pop and a
steal resolves to exactly one winner (the loser sees ``IndexError``).

Members execute tasks at task scheduling points, under a rule stricter than
OpenMP's task scheduling constraint (which lets a waiting task run any queued
descendant of its own):

* a member's *implicit task* — the region body's ``task_wait``/``join`` and
  the end-of-region drain — helps with any queued task: its own deque first,
  then stolen from siblings;
* inside an *explicit task*, ``join(h)`` and ``task_wait`` run a waited-on
  task inline if it is still queued (pulled from its deque), and otherwise
  sleep until it finishes.

So a member stacks on top of an explicit task only a task that task waits
on.  With acyclic joins no task is ever buried beneath one that waits for it.

Outside any region a task is *undeferred*, as in OpenMP's implicit team of
one thread: the body runs on the caller, which gets back a finished handle,
and ``task_wait`` returns the results of the tasks the calling thread spawned
since its last wait.  On process-backed teams arbitrary spawned closures
cannot cross the process boundary, so each member's spawns execute within its
own process.

``taskloop`` tiles are not spawned tasks: every member can execute any tile
(the body is SPMD), so on every tier they are claimed and stolen through one
deck, a slot of the team's :class:`~repro.runtime.shm.TaskStealArena`
(in-heap for in-process teams, pre-allocated shared memory for process
teams).

Failure handling: a task body's exception is stored on its
:class:`TaskHandle` together with the *spawn site*, and every ``join()``
(first or repeated) raises a fresh :class:`~repro.runtime.exceptions.TaskError`
chaining the original exception.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Generic, TypeVar

import repro.obs.registry as obsreg
from repro.runtime import context as ctx
from repro.runtime.barrier import BrokenBarrierError
from repro.runtime.exceptions import TaskError
from repro.runtime.scheduler import LoopChunk, block_counts
from repro.runtime.trace import EventKind

T = TypeVar("T")

#: how long an idle taskloop member sleeps between claim attempts when every
#: remaining tile is claimed and running on another member.
_IDLE_WAIT = 5e-4


#: path fragments of runtime/aspect machinery skipped when attributing a
#: spawn site to user code (normalised to forward slashes for matching).
_MACHINERY_PATHS = ("repro/runtime/tasks.py", "repro/core/aspects/", "repro/core/weaver/")


def _is_machinery_frame(filename: str) -> bool:
    normalised = filename.replace("\\", "/")
    return any(fragment in normalised for fragment in _MACHINERY_PATHS)


def _spawn_site() -> str:
    """Best-effort ``file:line`` of the frame that requested the spawn.

    Walks out of this module *and* the aspect/weaver machinery, so a task
    spawned through a woven ``@Task`` method reports the user's call site,
    not ``TaskAspect.around``.  Kept cheap (no traceback formatting): a few
    frame hops per spawn.
    """
    frame = sys._getframe(1)
    while frame is not None and _is_machinery_frame(frame.f_code.co_filename):
        frame = frame.f_back
    if frame is None:  # pragma: no cover - spawn from module top level
        return "<unknown>"
    code = frame.f_code
    return f"{code.co_filename}:{frame.f_lineno} in {code.co_name}"


def _call(fn: Callable[..., Any], args: tuple, kwargs: dict) -> tuple[Any, BaseException | None]:
    """``(result, None)`` of ``fn(*args, **kwargs)``, or ``(None, exception)``."""
    try:
        return fn(*args, **kwargs), None
    except BaseException as exc:  # noqa: BLE001 - stored and re-raised at join
        return None, exc


class WorkStealingDeque:
    """A per-member task deque: LIFO for the owner, FIFO for thieves.

    Built on :class:`collections.deque`, whose individual operations are
    atomic under the GIL; no lock is taken on push/pop/steal/remove.  When two
    of them race for the same element exactly one succeeds and the others
    observe it gone.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: deque = deque()

    def push(self, task: Any) -> None:
        """Owner: add ``task`` to the hot end."""
        self._items.append(task)

    def pop(self) -> Any:
        """Owner: take the most recently pushed task, or ``None``."""
        try:
            return self._items.pop()
        except IndexError:
            return None

    def steal(self) -> Any:
        """Thief: take the oldest task, or ``None``."""
        try:
            return self._items.popleft()
        except IndexError:
            return None

    def remove(self, task: Any) -> bool:
        """Waiter: take ``task`` itself; ``False`` if a pop or steal took it first."""
        try:
            self._items.remove(task)
        except ValueError:
            return False
        return True

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class TaskHandle(Generic[T]):
    """Handle on a spawned task; ``join`` waits for completion and re-raises failures.

    A deferred task's handle is also its entry in the deques: it carries the
    call until a member runs it.
    """

    __slots__ = ("name", "spawn_site", "_done", "_result", "_exception", "_pool", "_scope", "_home", "_call")

    def __init__(self, name: str = "task", *, spawn_site: str | None = None, pool: "TaskPool | None" = None,
                 home: int = 0, call: tuple | None = None) -> None:
        self.name = name
        self.spawn_site = spawn_site
        self._done = False
        self._result: T | None = None
        self._exception: BaseException | None = None
        self._pool = pool
        self._scope: list | None = None  # the task_wait list holding this handle
        self._home = home  # the deque it was pushed to
        self._call = call  # (fn, args, kwargs) until a member runs it

    @property
    def done(self) -> bool:
        """Whether the task has finished (successfully or not)."""
        return self._done

    def join(self, timeout: float | None = None) -> T:
        """Wait for the task and return its result, re-raising task failures.

        In a member's implicit task the wait helps run queued tasks; inside an
        explicit task it runs this task inline if it is still queued and
        otherwise sleeps until it finishes; any other thread sleeps.

        A failed task raises :class:`TaskError` with the spawn-site context
        attached and the original exception chained (``__cause__``); calling
        ``join`` again raises an equivalent fresh error — the failure is
        sticky, not one-shot.
        """
        if not self._done:
            self._pool._wait_for(self, timeout)
        # An explicitly joined task is settled: a later task_wait in the
        # spawning task must not join (and possibly re-raise) it again.
        scope, self._scope = self._scope, None
        if scope:
            try:
                scope.remove(self)
            except ValueError:
                pass
        if self._exception is not None:
            site = f" (spawned at {self.spawn_site})" if self.spawn_site else ""
            raise TaskError(
                f"task {self.name!r} failed: {self._exception!r}{site}",
                cause=self._exception,
            ) from self._exception
        return self._result  # type: ignore[return-value]


class FutureResult(Generic[T]):
    """Proxy for a value produced asynchronously.

    Mirrors the paper's ``@FutureTask``/``@FutureResult`` pattern: the
    spawning call immediately returns this proxy; calling :meth:`get` (the
    designated getter) joins the spawned task, at the same scheduling point
    as :meth:`TaskHandle.join`.
    """

    def __init__(self, handle: TaskHandle[T]) -> None:
        self._handle = handle

    def get(self, timeout: float | None = None) -> T:
        """Block until the value is available and return it."""
        return self._handle.join(timeout)

    @property
    def ready(self) -> bool:
        """Whether the value is already available."""
        return self._handle.done

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "ready" if self.ready else "pending"
        return f"FutureResult({self._handle.name!r}, {state})"


def _join_all(scope: list[TaskHandle], timeout: float | None) -> list[Any]:
    """``@TaskWait``: join the handles of ``scope`` in spawn order, emptying it."""
    handles = scope[:]
    scope.clear()
    return [handle.join(timeout) for handle in handles]


class TaskPool:
    """The deferred tasks of one team: a work-stealing deque per member.

    No threads of its own: the members *are* the workers, executing tasks at
    scheduling points (this is how OpenMP tasks defer).  A team's pool is
    created lazily by :meth:`for_team`.

    ``wait_all`` (the ``@TaskWait`` construct) joins the tasks spawned by the
    calling task since its last wait — the member's implicit task, or the
    explicit task the member is running — matching the paper's "join point
    between the spawning and the spawned activity".
    """

    #: key under which a team's shared pool lives in ``Team._shared``
    TEAM_SLOT = "task_pool"

    def __init__(self, team: Any) -> None:
        self.name = f"{team.name}-tasks"
        self._team = team
        self._deques = [WorkStealingDeque() for _ in range(team.size)]
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._pending = 0  # spawned and not yet finished (queued + running)
        self._running = 0  # currently executing a body
        # Per member: the task_wait list of the task it runs, and how many
        # explicit tasks are on its stack (0: it is in its implicit task).
        self._scopes: list[list[TaskHandle]] = [[] for _ in range(team.size)]
        self._depth = [0] * team.size

    @classmethod
    def for_team(cls, team: Any) -> "TaskPool":
        """The (lazily created) pool shared by ``team``'s members."""
        return team.shared_slot(cls.TEAM_SLOT, lambda: cls(team))

    def _member(self) -> int | None:
        """Deque index of the calling member, or ``None`` for a thread outside the team."""
        context = ctx.current_context()
        if context is not None and context.team is self._team:
            return context.thread_id
        return None

    def _caller(self) -> int:
        worker = self._member()
        if worker is None:
            raise TaskError(f"task pool {self.name!r} serves the members of its team only")
        return worker

    # -- spawning -------------------------------------------------------------

    def spawn(self, fn: Callable[..., T], *args: Any, name: str | None = None, **kwargs: Any) -> TaskHandle[T]:
        """Defer ``fn(*args, **kwargs)`` on the calling member's deque."""
        worker = self._caller()
        name = name or getattr(fn, "__name__", "task")
        handle = TaskHandle(name, spawn_site=_spawn_site(), pool=self, home=worker, call=(fn, args, kwargs))
        scope = self._scopes[worker]
        scope.append(handle)
        handle._scope = scope
        team = self._team
        if team.metrics:
            obsreg.inc(obsreg.TASKS_SPAWNED)
        if team.tracing:
            team.record(EventKind.TASK_SPAWN, task=handle.name)
        own = self._deques[worker]
        with self._lock:  # the lock of _work_available: wakes a helper asleep in _help_until
            self._pending += 1
            own.push(handle)
            self._work_available.notify_all()
        if team.metrics:
            obsreg.set_gauge("aomp_task_deque_depth", {"member": worker}, len(own))
        return handle

    # -- execution ------------------------------------------------------------

    def _execute(self, handle: TaskHandle, worker: int) -> None:
        """Run ``handle``'s task on ``worker``, one explicit task deeper."""
        with self._lock:
            self._running += 1
        scopes, depth = self._scopes, self._depth
        outer = scopes[worker]
        scopes[worker] = []
        depth[worker] += 1
        fn, args, kwargs = handle._call  # type: ignore[misc]
        handle._call = None
        began = time.perf_counter()
        result, exception = _call(fn, args, kwargs)
        depth[worker] -= 1
        scopes[worker] = outer
        with self._work_available:
            handle._result, handle._exception, handle._done = result, exception, True
            self._running -= 1
            self._pending -= 1
            self._work_available.notify_all()
        team = self._team
        if team.metrics:
            obsreg.inc(obsreg.TASKS_COMPLETED)
        if team.tracing:
            team.record(
                EventKind.TASK_COMPLETE,
                task=handle.name,
                elapsed=time.perf_counter() - began,
                failed=exception is not None,
            )

    def _take(self, worker: int) -> TaskHandle | None:
        """Next task for ``worker``: own deque first (LIFO), then steal (FIFO)."""
        task = self._deques[worker].pop()
        if task is not None:
            return task
        size = len(self._deques)
        for offset in range(1, size):
            victim = (worker + offset) % size
            task = self._deques[victim].steal()
            if task is not None:
                team = self._team
                if team.metrics:
                    obsreg.inc(obsreg.TASKS_STOLEN)
                if team.tracing:
                    team.record(EventKind.TASK_STEAL, task=task.name, victim=victim)
                return task
        return None

    def _help_until(self, worker: int, finished: Callable[[], bool], timeout: float | None, waiting_on: str) -> None:
        """Run/steal queued tasks until ``finished()`` — an implicit task's scheduling point.

        Every pending task is either queued or running.  While nothing is
        queued the caller sleeps on ``_work_available``, which each completion
        notifies, and each spawn; ``finished`` and the counts are re-read
        under that lock first, so neither is lost.  Raises
        :class:`TaskError` when ``timeout`` elapses first.
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        while not finished():
            task = self._take(worker)
            if task is not None:
                self._execute(task, worker)
                continue
            if finished():
                break
            if deadline is not None and time.monotonic() > deadline:
                raise TaskError(f"waiting on {waiting_on!r} did not complete within {timeout}s")
            with self._work_available:
                # A task queued on a deque we just saw empty (pushed
                # concurrently) shows as pending beyond running: retry at once.
                if self._pending == self._running and not finished():
                    self._work_available.wait(0.05)

    # -- waiting --------------------------------------------------------------

    def _wait_for(self, handle: TaskHandle, timeout: float | None) -> None:
        """The scheduling point of ``handle.join``: return once it has finished.

        A member in its implicit task helps with any queued task.  A member
        inside an explicit task runs ``handle`` itself if it is still queued;
        otherwise it, like a thread outside the team, sleeps until the
        completion notifies.
        """
        worker = self._member()
        if worker is not None and not self._depth[worker]:
            self._help_until(worker, lambda: handle._done, timeout, handle.name)
        elif worker is not None and self._deques[handle._home].remove(handle):
            self._execute(handle, worker)
        else:
            deadline = time.monotonic() + timeout if timeout is not None else None
            with self._work_available:
                while not handle._done:
                    remaining = deadline - time.monotonic() if deadline is not None else None
                    if remaining is not None and remaining <= 0:
                        raise TaskError(f"waiting on {handle.name!r} did not complete within {timeout}s")
                    self._work_available.wait(remaining)

    def wait_all(self, timeout: float | None = None) -> list[Any]:
        """Join every task spawned by the calling task since its last wait.

        This is the ``@TaskWait`` construct, each join a scheduling point as
        in :meth:`TaskHandle.join`.  Results are returned in spawn order; the
        first failed task re-raises as :class:`TaskError`.
        """
        return _join_all(self._scopes[self._caller()], timeout)

    def drain(self, worker: int, timeout: float | None = None) -> None:
        """Execute outstanding tasks until none remain (end-of-region barrier).

        Unlike :meth:`wait_all` this waits for *everyone's* tasks, and does
        not consume the task_wait lists (a later ``wait_all`` still returns
        results).  Task failures stay parked on their handles — the drain
        itself only raises on timeout.
        """
        self._help_until(worker, lambda: self._pending == 0, timeout, f"{self.name} drain")

    @property
    def outstanding(self) -> int:
        """Number of tasks spawned by the calling task and not yet waited for."""
        return len(self._scopes[self._caller()])

    @property
    def pending(self) -> int:
        """Number of spawned tasks (all members) that have not finished."""
        return self._pending


class _Undeferred(threading.local):
    """Per thread: the task_wait list of the tasks it spawned outside any region."""

    def __init__(self) -> None:
        self.scope: list[TaskHandle] = []


_undeferred = _Undeferred()


def spawn_task(fn: Callable[..., T], *args: Any, name: str | None = None, **kwargs: Any) -> TaskHandle[T]:
    """Spawn a task (``@Task``): deferred on the team's pool inside a region.

    Outside any region the body runs at once on the caller, with a task_wait
    list of its own, and the returned handle is finished.  A failure stays on
    the handle, except ``KeyboardInterrupt``/``SystemExit``, which propagate.
    """
    context = ctx.current_context()
    if context is not None:
        return TaskPool.for_team(context.team).spawn(fn, *args, name=name, **kwargs)
    handle: TaskHandle[T] = TaskHandle(name or getattr(fn, "__name__", "task"), spawn_site=_spawn_site())
    outer = _undeferred.scope
    _undeferred.scope = []
    handle._result, handle._exception = _call(fn, args, kwargs)
    _undeferred.scope = outer
    if handle._exception is not None and not isinstance(handle._exception, Exception):
        raise handle._exception  # KeyboardInterrupt, SystemExit: the caller's own thread
    handle._done = True
    outer.append(handle)
    handle._scope = outer
    return handle


def spawn_future(fn: Callable[..., T], *args: Any, name: str | None = None, **kwargs: Any) -> FutureResult[T]:
    """Spawn a value-returning task (``@FutureTask``), as :func:`spawn_task` does."""
    return FutureResult(spawn_task(fn, *args, name=name, **kwargs))


def task_wait(timeout: float | None = None) -> list[Any]:
    """Join all tasks the calling task spawned since its last wait (``@TaskWait``)."""
    context = ctx.current_context()
    if context is None:
        return _join_all(_undeferred.scope, timeout)
    return TaskPool.for_team(context.team).wait_all(timeout)


def drain_team_tasks(team: Any, worker: int) -> None:
    """End-of-region scheduling point: finish every deferred task of ``team``.

    Called by the region driver for each member after the region body
    returns, so tasks spawned and never explicitly waited on still complete
    before the region's implicit barrier — OpenMP's guarantee.  A no-op when
    the region never created a task pool.
    """
    pool = team.get_slot(TaskPool.TEAM_SLOT)
    if pool is not None and pool.pending:
        pool.drain(worker)


# ---------------------------------------------------------------------------
# taskloop — tiled, stealable loop execution
# ---------------------------------------------------------------------------

#: default tiles per member when neither grainsize nor num_tasks is given;
#: enough surplus tiles for stealing to balance irregular iteration costs
#: without drowning in per-tile overhead.
DEFAULT_TASKS_PER_MEMBER = 8


def resolve_grainsize(total: int, team_size: int, grainsize: int | None, num_tasks: int | None) -> int:
    """Iterations per tile for a taskloop over ``total`` iterations.

    ``grainsize`` wins when given (OpenMP's ``grainsize`` clause); otherwise
    the space is cut into ``num_tasks`` tiles (OpenMP's ``num_tasks``
    clause), defaulting to :data:`DEFAULT_TASKS_PER_MEMBER` tiles per member.
    """
    if grainsize is not None:
        if grainsize < 1:
            raise ValueError(f"grainsize must be >= 1, got {grainsize}")
        return grainsize
    if num_tasks is None:
        num_tasks = DEFAULT_TASKS_PER_MEMBER * team_size
    elif num_tasks < 1:
        raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
    tiles = max(1, min(num_tasks, total))
    return -(-total // tiles)


def run_taskloop(
    body: Callable[..., Any],
    start: int,
    end: int,
    step: int,
    *args: Any,
    grainsize: int | None = None,
    num_tasks: int | None = None,
    loop_name: str | None = None,
    nowait: bool = False,
    weight: Callable[[int], float] | None = None,
    **kwargs: Any,
) -> Any:
    """Execute for-method ``body`` as a taskloop: tiled, stolen, team-wide.

    The iteration space ``range(start, end, step)`` is tiled into chunks of
    ``grainsize`` iterations (see :func:`resolve_grainsize`); every team
    member seeds a contiguous block of tiles and then drains the deck —
    own tiles first, stolen tiles when its block runs dry — until all tiles
    have executed.  ``body`` is invoked as ``body(tile_start, tile_end,
    step, *args, **kwargs)`` exactly like a work-shared for method, so the
    same unchanged kernels work under both constructs.

    Outside a parallel region (or with a team of one) the body runs once
    over the full range — the paper's sequential-semantics guarantee.
    Unless ``nowait`` is set, the loop ends with a team barrier.

    Tracing records one ``CHUNK`` event per executed tile (feeding the
    perf model), one ``TASK_SPAWN`` per member with its seeded tile count
    and one ``TASK_STEAL`` per successful steal.
    """
    from repro.runtime import worksharing

    context = ctx.current_context()
    if context is None or context.team.size == 1:
        return worksharing._run_sequential(body, start, end, step, args, kwargs, context, loop_name, weight)

    team = context.team
    worker = context.thread_id
    name = loop_name or getattr(body, "__name__", "<taskloop>")
    total = LoopChunk(start, end, step).count
    # Claimed unconditionally (even for empty loops) so loop ordinals stay
    # aligned across members and with work-shared loops in the same region.
    ordinal = worksharing._loop_ordinal(context)
    if total == 0:
        if not nowait:
            team.barrier(label=f"taskloop:{name}")
        return None

    grain = resolve_grainsize(total, team.size, grainsize, num_tasks)
    ntiles = -(-total // grain)

    deck = team.proc_steal_slot(ordinal, ntiles)

    tracing = team.tracing
    metrics = team.metrics
    if metrics:
        # One spawn per member, mirroring the TASK_SPAWN event below (the
        # member's seeded tile block is its one logical spawn).
        obsreg.inc(obsreg.TASKS_SPAWNED)
    if tracing:
        team.record(
            EventKind.TASK_SPAWN,
            loop=name,
            count=block_counts(ntiles, team.size)[worker],
            grainsize=grain,
        )

    result: Any = None
    executed = 0
    # Tiles this member ran and has not yet counted on the deck: a member
    # counts them in one ``mark_done`` once it runs out of tiles to claim,
    # which is when the others, out of tiles too, start asking ``finished``.
    ran = 0
    try:
        while True:
            tile = deck.claim_local(worker)
            if tile is None:
                claim = deck.claim_steal(worker)
                if claim is None:
                    if ran:
                        deck.mark_done(ran)
                        ran = 0
                    if deck.finished():
                        break
                    if team.broken:
                        # A sibling failed (its exception aborted the team) or a
                        # worker process died: its claimed tiles will never be
                        # marked done, so waiting on the deck would spin forever.
                        raise BrokenBarrierError(f"taskloop {name!r} aborted: a team member failed")
                    # Tiles remain but are all claimed-and-running on other
                    # members; nothing to do except wait for the deck to settle.
                    time.sleep(_IDLE_WAIT)
                    continue
                victim, tile = claim
                if metrics:
                    obsreg.inc(obsreg.TASKS_STOLEN)
                if tracing:
                    team.record(EventKind.TASK_STEAL, loop=name, victim=victim, tile=tile)
            begin = tile * grain
            span = total - begin
            if span > grain:
                span = grain
            tile_start = start + begin * step
            try:
                if tracing:
                    piece = LoopChunk(tile_start, tile_start + span * step, step)
                    result = worksharing._run_traced_chunk(body, piece, args, kwargs, team, name, weight)
                else:
                    executed += 1
                    result = body(tile_start, tile_start + span * step, step, *args, **kwargs)
            except BaseException:
                # Siblings must not wait for this tile (mark it done) nor for
                # this member's unclaimed tiles (abort the team so their idle
                # loops escape); the exception then surfaces as BrokenTeamError
                # through the region driver, exactly like a failing run_for body.
                deck.mark_done(ran + 1)
                team.abort()
                raise
            ran += 1
    finally:
        # Untraced tiles are batch-counted (the traced path counts per tile
        # inside _run_traced_chunk, so the totals line up either way).
        if executed and metrics:
            obsreg.inc(obsreg.CHUNKS_OTHER, executed)

    if not nowait:
        team.barrier(label=f"taskloop:{name}")
    return result
