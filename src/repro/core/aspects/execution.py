"""Execution-shaping aspects: single, master, tasks, taskloops and future tasks."""

from __future__ import annotations

from typing import Any, Callable

from repro.core.aspects.base import MethodAspect
from repro.core.weaver.joinpoint import JoinPoint
from repro.core.weaver.pointcut import Pointcut
from repro.runtime.exceptions import SchedulingError
from repro.runtime.single import MasterRegion, SingleRegion
from repro.runtime.tasks import (
    FutureResult,
    run_taskloop,
    spawn_future,
    spawn_task,
    task_wait,
)


class SingleAspect(MethodAspect):
    """``@Single`` — only the first-arriving team member executes the method.

    When the method returns a value it is propagated to all team members
    (``wait_for_value=True``, the paper's behaviour); with
    ``wait_for_value=False`` the other members continue immediately and
    receive ``None``.
    """

    abstraction = "SINGLE"
    requires_shared_locals = True  # first-arrival claim + value broadcast

    def __init__(self, pointcut: Pointcut | None = None, *, wait_for_value: bool = True, name: str | None = None) -> None:
        super().__init__(pointcut, name=name)
        self.wait_for_value = wait_for_value

    def around(self, joinpoint: JoinPoint) -> Any:
        region = SingleRegion(key=("single", joinpoint.qualified_name))
        return region.run(joinpoint.proceed, wait_for_value=self.wait_for_value)


class MasterAspect(MethodAspect):
    """``@Master`` — only the master thread executes the method.

    With ``broadcast=True`` (default, as in the paper) the master's return
    value is propagated to every team member; with ``broadcast=False`` the
    other members skip the call without waiting.
    """

    abstraction = "MA"
    requires_shared_locals = True  # value broadcast slot

    def __init__(self, pointcut: Pointcut | None = None, *, broadcast: bool = True, name: str | None = None) -> None:
        super().__init__(pointcut, name=name)
        self.broadcast = broadcast

    def around(self, joinpoint: JoinPoint) -> Any:
        region = MasterRegion(key=("master", joinpoint.qualified_name))
        return region.run(joinpoint.proceed, broadcast=self.broadcast)


class TaskAspect(MethodAspect):
    """``@Task`` — spawn a new activity to execute the matched method.

    The call returns a :class:`~repro.runtime.tasks.TaskHandle`: inside a
    region at once, the task deferred on the team's pool; outside any region
    once the method has run on the caller (an undeferred task).  Tasks are
    joined either through the handle, through a method advised by
    :class:`TaskWaitAspect`, or by an explicit
    :func:`repro.runtime.tasks.task_wait`.
    """

    abstraction = "TASK"
    requires_shared_locals = True  # task handles/results live on the spawning heap

    def around(self, joinpoint: JoinPoint) -> Any:
        return spawn_task(joinpoint.proceed, name=joinpoint.qualified_name)


class TaskLoopAspect(MethodAspect):
    """``@TaskLoop`` — execute a for method as tiled, stealable tasks.

    The work-stealing twin of the ``@For`` work-sharing aspect (an extension
    beyond the paper's Table 1, mirroring OpenMP's ``taskloop``): the matched
    method must expose ``(start, end, step)`` as its first three parameters;
    its iteration space is tiled into chunks of ``grainsize`` iterations (or
    into ``num_tasks`` tiles) that the whole team executes cooperatively,
    idle members stealing tiles from busy ones.  Use it instead of ``@For``
    when iteration costs are irregular and unpredictable, where any static
    distribution load-imbalances.
    """

    abstraction = "TASKLOOP"

    def __init__(
        self,
        pointcut: Pointcut | None = None,
        *,
        grainsize: int | None = None,
        num_tasks: int | None = None,
        nowait: bool = False,
        weight: Callable[[int], float] | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(pointcut, name=name)
        self.grainsize = grainsize
        self.num_tasks = num_tasks
        self.nowait = nowait
        self.weight = weight

    def around(self, joinpoint: JoinPoint) -> Any:
        if len(joinpoint.args) < 3:
            raise SchedulingError(
                f"{joinpoint.qualified_name} is not a for method: it must expose (start, end, step) "
                f"as its first three parameters, got {len(joinpoint.args)} args"
            )
        start, end, step, *rest = joinpoint.args

        def body(tile_start: int, tile_end: int, tile_step: int, *extra: Any, **kwargs: Any) -> Any:
            return joinpoint.proceed(tile_start, tile_end, tile_step, *extra, **kwargs)

        return run_taskloop(
            body,
            int(start),
            int(end),
            int(step),
            *rest,
            grainsize=self.grainsize,
            num_tasks=self.num_tasks,
            loop_name=joinpoint.qualified_name,
            nowait=self.nowait,
            weight=self.weight,
            **dict(joinpoint.kwargs),
        )

    def describe(self) -> str:
        base = super().describe()
        clause = f"grainsize={self.grainsize}" if self.grainsize else f"num_tasks={self.num_tasks or 'auto'}"
        return f"{base}({clause})"


#: Convenience alias mirroring the ``For``/``ForCyclic`` naming style.
TaskLoop = TaskLoopAspect


class TaskWaitAspect(MethodAspect):
    """``@TaskWait`` — join all tasks spawned in the current scope, then proceed.

    The paper describes the task-wait method as "the join point between the
    spawning and the spawned activity": every task spawned since the last
    wait completes before the advised method runs.
    """

    abstraction = "TASKWAIT"
    requires_shared_locals = True

    def around(self, joinpoint: JoinPoint) -> Any:
        task_wait()
        return joinpoint.proceed()


class FutureTaskAspect(MethodAspect):
    """``@FutureTask`` — spawn the method asynchronously and return a future.

    The advised method must return a value; callers receive a
    :class:`~repro.runtime.tasks.FutureResult` whose ``get()`` blocks until
    the value is available (the ``@FutureResult`` synchronisation point).
    """

    abstraction = "FUTURE"
    requires_shared_locals = True

    def around(self, joinpoint: JoinPoint) -> FutureResult:
        return spawn_future(joinpoint.proceed, name=joinpoint.qualified_name)


class FutureResultAspect(MethodAspect):
    """``@FutureResult`` — make matched getters transparent over futures.

    When the advised getter is called on an object holding a
    :class:`~repro.runtime.tasks.FutureResult` in the attribute named by
    ``attribute``, the getter blocks until the future resolves and the
    resolved value replaces the future before proceeding.  This reproduces the
    paper's pattern in which the getters/setters of the returned object act as
    synchronisation points.
    """

    abstraction = "FUTURE"
    requires_shared_locals = True

    def __init__(self, pointcut: Pointcut | None = None, *, attribute: str | None = None, name: str | None = None) -> None:
        super().__init__(pointcut, name=name)
        self.attribute = attribute

    def around(self, joinpoint: JoinPoint) -> Any:
        target = joinpoint.target
        if target is not None:
            attributes = [self.attribute] if self.attribute else list(vars(target))
            for attr in attributes:
                value = getattr(target, attr, None)
                if isinstance(value, FutureResult):
                    setattr(target, attr, value.get())
        return joinpoint.proceed()
