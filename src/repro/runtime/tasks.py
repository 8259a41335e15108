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
Tasks live in per-worker :class:`WorkStealingDeque`\\ s: the owning worker
pushes and pops at one end (LIFO — newest task first, the classic
cache-friendly Cilk discipline) while thieves steal from the opposite end
(FIFO — oldest task first, largest expected remaining work).  The deques are
*lock-free-ish*: CPython's per-opcode atomicity makes single ``deque``
operations safe without a lock, and the one-element race between a pop and a
steal resolves to exactly one winner (the loser sees ``IndexError``).

Who executes a task depends on where its pool lives — the same backend
strategy split as the rest of the runtime:

* **Inside a parallel region** the team owns one shared :class:`TaskPool`
  with a deque per member.  Tasks are *deferred*: members execute them at
  task scheduling points (``task_wait``, ``TaskHandle.join``, ``taskloop``,
  and the implicit end-of-region drain), where they first empty their own
  deque and then steal from siblings.  Joins therefore *participate in
  stealing* instead of parking the member on a condition variable.
* **Outside any region** the process-global pool runs a small set of
  lazily-started daemon worker threads (a real executor replacing the old
  thread-per-spawn shim), so tasks start eagerly and ``join(timeout=...)``
  keeps real-time semantics.
* **On process-backed teams** arbitrary spawned closures cannot cross the
  process boundary, so each member's spawns execute within its own process.

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

import itertools
import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Generic, TypeVar

import repro.obs.registry as obsreg
from repro.runtime import context as ctx
from repro.runtime.barrier import BrokenBarrierError
from repro.runtime.config import get_config
from repro.runtime.exceptions import TaskError
from repro.runtime.scheduler import LoopChunk, block_counts
from repro.runtime.trace import EventKind

T = TypeVar("T")

#: how long an idle helper sleeps between steal attempts when the pool has
#: outstanding-but-unavailable work (another member is mid-task).
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


class WorkStealingDeque:
    """A per-worker task deque: LIFO for the owner, FIFO for thieves.

    Built on :class:`collections.deque`, whose individual operations are
    atomic under the GIL; no lock is taken on push/pop/steal.  When a pop and
    a steal race for the final element exactly one succeeds and the other
    observes the deque empty.
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

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class _SpawnedTask:
    """Internal record of one spawned-but-unfinished task."""

    __slots__ = ("fn", "args", "kwargs", "handle")

    def __init__(self, fn: Callable[..., Any], args: tuple, kwargs: dict, handle: "TaskHandle") -> None:
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.handle = handle


class TaskHandle(Generic[T]):
    """Handle on a spawned task; ``join`` waits for completion and re-raises failures."""

    __slots__ = ("name", "spawn_site", "_done", "_result", "_exception", "_pool", "_scope")

    def __init__(self, name: str = "task", *, spawn_site: str | None = None, pool: "TaskPool | None" = None) -> None:
        self.name = name
        self.spawn_site = spawn_site
        self._done = threading.Event()
        self._result: T | None = None
        self._exception: BaseException | None = None
        self._pool = pool
        self._scope: Any = None

    def _complete(self, result: T | None = None, exception: BaseException | None = None) -> None:
        self._result = result
        self._exception = exception
        self._done.set()

    @property
    def done(self) -> bool:
        """Whether the task has finished (successfully or not)."""
        return self._done.is_set()

    def join(self, timeout: float | None = None) -> T:
        """Wait for the task and return its result, re-raising task failures.

        Inside the task runtime's worker scope (a team member, or a global
        executor worker) the wait is a *work loop*: the caller executes and
        steals other outstanding tasks until this one finishes.  External
        callers block on the completion event.

        A failed task raises :class:`TaskError` with the spawn-site context
        attached and the original exception chained (``__cause__``); calling
        ``join`` again raises an equivalent fresh error — the failure is
        sticky, not one-shot.
        """
        if not self._done.is_set():
            pool = self._pool
            helper = pool._helper_worker() if pool is not None else None
            if helper is not None:
                pool._help_until(helper, self._done.is_set, timeout, waiting_on=self.name)
            elif not self._done.wait(timeout):
                raise TaskError(f"task {self.name!r} did not complete within {timeout}s")
        # An explicitly joined task is settled: a later task_wait in the
        # spawning scope must not join (and possibly re-raise) it again.
        if self._pool is not None:
            self._pool._discard_scope_handle(self)
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
    designated getter) blocks until the spawned activity has produced the
    value — and, within the task runtime's workers, helps execute other
    tasks while it waits.
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


class TaskPool:
    """A work-stealing pool of tasks.

    Two flavours, selected by construction:

    * **Team pool** (``team=...``) — one deque per team member, no threads of
      its own: the members *are* the workers, executing tasks at scheduling
      points (this is how OpenMP tasks defer).  Created lazily per region
      through :func:`current_pool` / :meth:`for_team`.
    * **Executor pool** (no team) — ``workers`` lazily-started daemon threads
      with a deque each; spawns from outside are distributed round-robin.
      The process-global pool used outside parallel regions is one of these.

    ``wait_all`` (the ``@TaskWait`` construct) joins the tasks spawned *by
    the calling scope* since its last wait — per member inside a team, per
    OS thread outside — matching the paper's "join point between the
    spawning and the spawned activity".
    """

    #: key under which a team's shared pool lives in ``Team._shared``
    TEAM_SLOT = "task_pool"

    def __init__(
        self,
        workers: int | None = None,
        *,
        name: str = "tasks",
        team: Any = None,
    ) -> None:
        self.name = name
        self._team = team
        if team is not None:
            size = team.size
            self._executor = False
        else:
            size = workers if workers is not None else max(2, min(8, get_config().num_threads))
            self._executor = True
        if size < 1:
            raise ValueError(f"task pool needs at least 1 worker, got {size}")
        self._size = size
        self._deques = [WorkStealingDeque() for _ in range(size)]
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._pending = 0      # spawned and not yet finished (queued + running)
        self._running = 0      # currently executing a body
        self._scopes: dict[Any, list[TaskHandle]] = {}
        self._rr = itertools.count()
        self._threads: list[threading.Thread] = []
        self._worker_local = threading.local()
        self._shutdown = False

    # -- construction helpers -------------------------------------------------

    @classmethod
    def for_team(cls, team: Any) -> "TaskPool":
        """The (lazily created) pool shared by ``team``'s members."""
        return team.shared_slot(cls.TEAM_SLOT, lambda: cls(name=f"{team.name}-tasks", team=team))

    # -- worker identity ------------------------------------------------------

    def _helper_worker(self) -> int | None:
        """Deque index the calling thread may help from, or ``None`` (external)."""
        if self._executor:
            return getattr(self._worker_local, "worker", None)
        context = ctx.current_context()
        if context is not None and context.team is self._team:
            return context.thread_id
        return None

    def _spawn_worker(self) -> int:
        """Deque index new spawns are pushed to."""
        helper = self._helper_worker()
        if helper is not None:
            return helper
        return next(self._rr) % self._size

    def _scope_key(self) -> Any:
        """Identity of the calling spawn scope (member in a team, OS thread outside)."""
        helper = self._helper_worker()
        if helper is not None and not self._executor:
            return ("member", helper)
        return ("thread", threading.get_ident())

    # -- spawning -------------------------------------------------------------

    def spawn(
        self,
        fn: Callable[..., T],
        *args: Any,
        name: str | None = None,
        **kwargs: Any,
    ) -> TaskHandle[T]:
        """Spawn ``fn(*args, **kwargs)`` and track its handle."""
        if self._shutdown:
            raise TaskError(f"task pool {self.name!r} is shut down")
        handle: TaskHandle[T] = TaskHandle(
            name or getattr(fn, "__name__", "task"), spawn_site=_spawn_site(), pool=self
        )
        task = _SpawnedTask(fn, args, kwargs, handle)
        scope = self._scope_key()
        handle._scope = scope
        with self._lock:
            self._pending += 1
            self._scopes.setdefault(scope, []).append(handle)
        team = self._team
        if team is not None:
            if team.metrics:
                obsreg.inc(obsreg.TASKS_SPAWNED)
            if team.tracing:
                team.record(EventKind.TASK_SPAWN, task=handle.name)
        self._enqueue(task, self._spawn_worker())
        return handle

    def spawn_future(self, fn: Callable[..., T], *args: Any, name: str | None = None, **kwargs: Any) -> FutureResult[T]:
        """Spawn ``fn`` and return a :class:`FutureResult` for its value."""
        return FutureResult(self.spawn(fn, *args, name=name, **kwargs))

    def _enqueue(self, task: _SpawnedTask, worker: int) -> None:
        self._deques[worker].push(task)
        team = self._team
        if team is not None and team.metrics:
            obsreg.set_gauge("aomp_task_deque_depth", {"member": worker}, len(self._deques[worker]))
        if self._executor:
            self._ensure_threads()
            with self._work_available:
                self._work_available.notify()

    def _discard_scope_handle(self, handle: TaskHandle) -> None:
        """Forget ``handle`` in its spawn scope (it was joined explicitly)."""
        with self._lock:
            handles = self._scopes.get(handle._scope)
            if handles is not None:
                try:
                    handles.remove(handle)
                except ValueError:
                    pass
                if not handles:
                    self._scopes.pop(handle._scope, None)

    # -- execution ------------------------------------------------------------

    def _execute(self, task: _SpawnedTask, worker: int) -> None:
        with self._lock:
            self._running += 1
        began = time.perf_counter()
        try:
            result = task.fn(*task.args, **task.kwargs)
        except BaseException as exc:  # noqa: BLE001 - stored and re-raised at join
            task.handle._complete(exception=exc)
        else:
            task.handle._complete(result=result)
        with self._work_available:
            self._running -= 1
            self._pending -= 1
            self._work_available.notify_all()
        team = self._team
        if team is not None:
            if team.metrics:
                obsreg.inc(obsreg.TASKS_COMPLETED)
            if team.tracing:
                team.record(
                    EventKind.TASK_COMPLETE,
                    task=task.handle.name,
                    elapsed=time.perf_counter() - began,
                    failed=task.handle._exception is not None,
                )

    def _take(self, worker: int) -> "_SpawnedTask | None":
        """Next task for ``worker``: own deque first (LIFO), then steal (FIFO)."""
        task = self._deques[worker].pop()
        if task is not None:
            return task
        for offset in range(1, self._size):
            victim = (worker + offset) % self._size
            task = self._deques[victim].steal()
            if task is not None:
                team = self._team
                if team is not None:
                    if team.metrics:
                        obsreg.inc(obsreg.TASKS_STOLEN)
                    if team.tracing:
                        team.record(EventKind.TASK_STEAL, task=task.handle.name, victim=victim)
                return task
        return None

    def _help_until(
        self,
        worker: int,
        finished: Callable[[], bool],
        timeout: float | None = None,
        *,
        waiting_on: str = "tasks",
    ) -> None:
        """Run/steal outstanding tasks until ``finished()`` — a scheduling point.

        Every pending task is either queued or running.  While nothing is
        queued the caller sleeps on ``_work_available``, which each completion
        notifies; ``finished`` is re-read under that lock first, so a
        completion between the last check and the wait is not lost.  Raises
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

    def wait_all(self, timeout: float | None = None) -> list[Any]:
        """Join every task spawned by the calling scope since its last wait.

        This is the ``@TaskWait`` construct: a task scheduling point where
        the caller helps execute outstanding tasks (its own and stolen ones)
        until all of *its* spawned tasks have finished.  Results are returned
        in spawn order; the first failed task re-raises as
        :class:`TaskError`.
        """
        scope = self._scope_key()
        with self._lock:
            handles = self._scopes.pop(scope, [])
        return [handle.join(timeout) for handle in handles]

    def drain(self, worker: int | None = None, timeout: float | None = None) -> None:
        """Execute outstanding tasks until none remain (end-of-region barrier).

        Unlike :meth:`wait_all` this waits for *everyone's* tasks, and does
        not consume the per-scope handle lists (a later ``wait_all`` still
        returns results).  Task failures stay parked on their handles — the
        drain itself only raises on timeout.
        """
        if worker is None:
            worker = self._helper_worker() or 0
        self._help_until(worker, lambda: self._pending == 0, timeout, waiting_on=f"{self.name} drain")

    @property
    def outstanding(self) -> int:
        """Number of tasks spawned by the calling scope and not yet waited for."""
        scope = self._scope_key()
        with self._lock:
            return len(self._scopes.get(scope, ()))

    @property
    def pending(self) -> int:
        """Number of spawned tasks (all scopes) that have not finished."""
        return self._pending

    # -- executor threads ------------------------------------------------------

    def _ensure_threads(self) -> None:
        if len(self._threads) >= self._size:
            return
        with self._lock:
            while len(self._threads) < self._size:
                index = len(self._threads)
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(index,),
                    name=f"aomp-task-{self.name}-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def _worker_loop(self, worker: int) -> None:
        self._worker_local.worker = worker
        while True:
            task = self._take(worker)
            if task is not None:
                self._execute(task, worker)
                continue
            with self._work_available:
                if self._shutdown:
                    return
                if self._pending <= self._running:
                    self._work_available.wait(0.05)
                # else: retry — a push raced with the deque scan.

    def shutdown(self) -> None:
        """Stop executor workers (tests / interpreter exit); team pools are a no-op."""
        with self._work_available:
            self._shutdown = True
            self._work_available.notify_all()
        for thread in self._threads:
            thread.join(timeout=1.0)
        self._threads.clear()


_global_pool = TaskPool(name="global")


def current_pool() -> TaskPool:
    """Return the task pool of the current scope (team-shared or process-global)."""
    context = ctx.current_context()
    if context is None:
        return _global_pool
    return TaskPool.for_team(context.team)


def spawn_task(
    fn: Callable[..., T],
    *args: Any,
    name: str | None = None,
    **kwargs: Any,
) -> TaskHandle[T]:
    """Spawn a task in the current scope's pool (``@Task``)."""
    return current_pool().spawn(fn, *args, name=name, **kwargs)


def spawn_future(fn: Callable[..., T], *args: Any, name: str | None = None, **kwargs: Any) -> FutureResult[T]:
    """Spawn a value-returning task in the current scope's pool (``@FutureTask``)."""
    return current_pool().spawn_future(fn, *args, name=name, **kwargs)


def task_wait(timeout: float | None = None) -> list[Any]:
    """Join all tasks spawned in the current scope since the last wait (``@TaskWait``)."""
    return current_pool().wait_all(timeout)


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
