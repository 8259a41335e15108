"""Annotation-style programming interface (paper Table 1).

Decorators in this module attach *metadata only*: a decorated function keeps
its original behaviour, so annotated programs still run sequentially with a
plain interpreter — the paper's sequential-semantics property.  Parallel
behaviour appears when an annotation weaver
(:mod:`repro.core.annotation_weaver`) composes the program with the library
aspects that act on the annotations (paper Figure 5).

Every decorator mirrors one entry of the paper's Table 1:

======================  ====================================================
Paper annotation         PyAOmpLib decorator
======================  ====================================================
``@Parallel[(threads)]``    :func:`parallel`
``@For[(schedule=...)]``    :func:`for_loop`
``@Task``                   :func:`task`
``@TaskWait``               :func:`task_wait`
``@FutureTask``             :func:`future_task`
``@FutureResult``           :func:`future_result`
``@Ordered``                :func:`ordered`
``@Critical[(id=...)]``     :func:`critical`
``@BarrierBefore``          :func:`barrier_before`
``@BarrierAfter``           :func:`barrier_after`
``@Reader``                 :func:`reader`
``@Writer``                 :func:`writer`
``@Single``                 :func:`single`
``@Master``                 :func:`master`
``@ThreadLocalField(id)``   :func:`thread_local_field` (class decorator)
``@Reduce[(id=...)]``       :func:`reduce_fields`
======================  ====================================================
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, TypeVar

F = TypeVar("F", bound=Callable[..., Any])

#: attribute under which annotation metadata is stored on functions/classes
ANNOTATIONS_ATTR = "__aomp_annotations__"


def _annotate(obj: Any, key: str, params: Mapping[str, Any]) -> Any:
    existing = dict(getattr(obj, ANNOTATIONS_ATTR, {}))
    existing[key] = dict(params)
    setattr(obj, ANNOTATIONS_ATTR, existing)
    return obj


def get_annotations(obj: Any) -> dict[str, dict[str, Any]]:
    """Return the PyAOmpLib annotations attached to a function or class."""
    return dict(getattr(obj, ANNOTATIONS_ATTR, {}))


def has_annotation(obj: Any, key: str) -> bool:
    """Whether ``obj`` carries the given annotation."""
    return key in get_annotations(obj)


def _decorator(key: str, **params: Any) -> Callable[[F], F]:
    def apply(func: F) -> F:
        return _annotate(func, key, params)

    return apply


# -- parallel regions ---------------------------------------------------------

def parallel(func: F | None = None, *, threads: int | None = None, name: str | None = None) -> Any:
    """``@Parallel[(threads=n)]`` — executions of the method become parallel regions."""
    if func is not None:
        return _annotate(func, "parallel", {"threads": threads, "name": name})
    return _decorator("parallel", threads=threads, name=name)


# -- work sharing -------------------------------------------------------------

def for_loop(
    func: F | None = None,
    *,
    schedule: str = "staticBlock",
    chunk: int = 1,
    nowait: bool = False,
    ordered: bool = False,
    weight: Callable[[int], float] | None = None,
) -> Any:
    """``@For[(schedule=...)]`` — the method is a for method; its range is work-shared.

    The decorated method must expose ``(start, end, step)`` as its first three
    parameters (after ``self``).
    """
    params = {
        "schedule": schedule,
        "chunk": chunk,
        "nowait": nowait,
        "ordered": ordered,
        "weight": weight,
    }
    if func is not None:
        return _annotate(func, "for", params)
    return _decorator("for", **params)


def adaptive(
    func: F | None = None,
    *,
    chunk: int = 1,
    nowait: bool = False,
    weight: Callable[[int], float] | None = None,
) -> Any:
    """``@For(schedule=auto)`` — the for method's schedule is tuned online.

    Extension beyond the paper's Table 1 (OpenMP's ``schedule(auto)``):
    sugar for :func:`for_loop` with ``schedule="auto"`` — the adaptive tuner
    (:mod:`repro.tune`) measures invocations, searches the schedule/chunk
    space per loop site and converges on the fastest choice, falling back to
    serial execution for loops too small to amortise team spin-up.
    """
    params = {"schedule": "auto", "chunk": chunk, "nowait": nowait, "ordered": False, "weight": weight}
    if func is not None:
        return _annotate(func, "for", params)
    return _decorator("for", **params)


def taskloop(
    func: F | None = None,
    *,
    grainsize: int | None = None,
    num_tasks: int | None = None,
    nowait: bool = False,
    weight: Callable[[int], float] | None = None,
) -> Any:
    """``@TaskLoop`` — the for method's range is tiled into stealable tasks.

    Extension beyond the paper's Table 1 (OpenMP's ``taskloop`` construct):
    like :func:`for_loop`, but idle team members steal tiles from busy ones,
    balancing irregular iteration costs dynamically.
    """
    params = {
        "grainsize": grainsize,
        "num_tasks": num_tasks,
        "nowait": nowait,
        "weight": weight,
    }
    if func is not None:
        return _annotate(func, "taskloop", params)
    return _decorator("taskloop", **params)


def ordered(func: F | None = None, *, index_arg: int = 0) -> Any:
    """``@Ordered`` — executions happen in sequential iteration order within a for method."""
    if func is not None:
        return _annotate(func, "ordered", {"index_arg": 0})
    return _decorator("ordered", index_arg=index_arg)


# -- synchronisation ----------------------------------------------------------

def critical(func: F | None = None, *, id: str | None = None, use_captured_lock: bool = False) -> Any:  # noqa: A002 - paper's parameter name
    """``@Critical[(id=name)]`` — the method executes in mutual exclusion."""
    if func is not None:
        return _annotate(func, "critical", {"id": None, "use_captured_lock": False})
    return _decorator("critical", id=id, use_captured_lock=use_captured_lock)


def barrier_before(func: F) -> F:
    """``@BarrierBefore`` — team barrier before the method executes."""
    return _annotate(func, "barrier_before", {})


def barrier_after(func: F) -> F:
    """``@BarrierAfter`` — team barrier after the method executes."""
    return _annotate(func, "barrier_after", {})


def reader(func: F | None = None, *, lock: str = "default") -> Any:
    """``@Reader`` — the method acquires the named readers/writer lock for reading."""
    if func is not None:
        return _annotate(func, "reader", {"lock": "default"})
    return _decorator("reader", lock=lock)


def writer(func: F | None = None, *, lock: str = "default") -> Any:
    """``@Writer`` — the method acquires the named readers/writer lock exclusively."""
    if func is not None:
        return _annotate(func, "writer", {"lock": "default"})
    return _decorator("writer", lock=lock)


# -- conditional execution ----------------------------------------------------

def single(func: F | None = None, *, wait_for_value: bool = True) -> Any:
    """``@Single`` — only one (the first-arriving) team member executes the method."""
    if func is not None:
        return _annotate(func, "single", {"wait_for_value": True})
    return _decorator("single", wait_for_value=wait_for_value)


def master(func: F | None = None, *, broadcast: bool = True) -> Any:
    """``@Master`` — only the master thread executes the method."""
    if func is not None:
        return _annotate(func, "master", {"broadcast": True})
    return _decorator("master", broadcast=broadcast)


# -- tasks ---------------------------------------------------------------------

def task(func: F) -> F:
    """``@Task`` — calls spawn a new activity executing the method."""
    return _annotate(func, "task", {})


def task_wait(func: F) -> F:
    """``@TaskWait`` — before the method runs, all tasks spawned in scope are joined."""
    return _annotate(func, "task_wait", {})


def future_task(func: F) -> F:
    """``@FutureTask`` — calls return a future for the method's value."""
    return _annotate(func, "future_task", {})


def future_result(func: F | None = None, *, attribute: str | None = None) -> Any:
    """``@FutureResult`` — the getter blocks until the pending future value resolves."""
    if func is not None:
        return _annotate(func, "future_result", {"attribute": None})
    return _decorator("future_result", attribute=attribute)


# -- data sharing ---------------------------------------------------------------

def thread_local_field(*fields: str, copy_value: Callable[[Any], Any] | None = None) -> Callable[[type], type]:
    """``@ThreadLocalField(id=name)`` — class decorator marking fields as thread-local.

    Example
    -------
    >>> @thread_local_field("forces")
    ... class Particle:
    ...     ...
    """

    def apply(cls: type) -> type:
        existing = dict(getattr(cls, ANNOTATIONS_ATTR, {}))
        entry = existing.get("thread_local_fields", {"fields": [], "copy_value": copy_value})
        entry = {"fields": list(entry["fields"]) + list(fields), "copy_value": copy_value or entry.get("copy_value")}
        existing["thread_local_fields"] = entry
        setattr(cls, ANNOTATIONS_ATTR, existing)
        return cls

    return apply


def reduce_fields(func: F | None = None, *, field: str | None = None, reducer: Any = None, id: str | None = None) -> Any:  # noqa: A002
    """``@Reduce[(id=name)]`` — thread-local copies are merged after the method runs.

    ``field`` names the thread-local field to reduce (matching a field
    declared with :func:`thread_local_field`); ``reducer`` is a
    :class:`~repro.runtime.threadlocal.Reducer` (or ``None`` to use the
    reducer registered by the weaver configuration).
    """
    params = {"field": field, "reducer": reducer, "id": id}
    if func is not None:
        return _annotate(func, "reduce", {"field": None, "reducer": None, "id": None})
    return _decorator("reduce", **params)


#: Names of all method-level annotations, used by the inventory test and the
#: annotation weaver.
METHOD_ANNOTATIONS = (
    "parallel",
    "for",
    "taskloop",
    "ordered",
    "critical",
    "barrier_before",
    "barrier_after",
    "reader",
    "writer",
    "single",
    "master",
    "task",
    "task_wait",
    "future_task",
    "future_result",
    "reduce",
)

#: Class-level annotations.
CLASS_ANNOTATIONS = ("thread_local_fields",)
