"""Annotation weaving: the library aspects that act upon annotations.

This is the Python rendering of the paper's Figure 5 — the library ships
aspects whose pointcuts capture annotated methods (``call(@Parallel * *(*))``)
so that annotation-style users never write aspects themselves.  Calling
:func:`weave_annotations` on a class or module scans it for PyAOmpLib
annotations (:mod:`repro.core.annotations`) and weaves the corresponding
library aspects, in an order that nests combined constructs correctly
(barriers outside master/single, the parallel region outermost).

The returned :class:`~repro.core.weaver.weaver.Weaver` undoes everything with
``unweave_all()``, restoring sequential semantics.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any, Callable, Mapping

from repro.core import annotations as ann
from repro.core.aspects.base import Aspect
from repro.core.aspects.data import ReduceAspect, ThreadLocalFieldAspect
from repro.core.aspects.execution import (
    FutureResultAspect,
    FutureTaskAspect,
    MasterAspect,
    SingleAspect,
    TaskAspect,
    TaskLoopAspect,
    TaskWaitAspect,
)
from repro.core.aspects.parallel_region import ParallelRegion
from repro.core.aspects.synchronization import (
    BarrierAfterAspect,
    BarrierBeforeAspect,
    CriticalAspect,
    ReaderAspect,
    WriterAspect,
)
from repro.core.aspects.worksharing import ForWorkSharing, OrderedAspect
from repro.core.weaver.pointcut import call
from repro.core.weaver.weaver import Weaver, original_function
from repro.runtime.backend import Backend
from repro.runtime.locks import ReadWriteLock
from repro.runtime.threadlocal import Reducer
from repro.runtime.trace import TraceRecorder
from repro.runtime.exceptions import WeavingError

#: Weaving priority per annotation: lower numbers are woven first and end up
#: as the innermost advice; the parallel region is always outermost.
_PRIORITY = {
    "ordered": 0,
    "critical": 1,
    "reader": 2,
    "writer": 3,
    "for": 4,
    "taskloop": 4,  # same nesting slot as "for" — the two are exclusive on one method
    "single": 5,
    "master": 6,
    "reduce": 7,
    "barrier_after": 8,
    "barrier_before": 9,
    "task_wait": 10,
    "future_result": 11,
    "future_task": 12,
    "task": 13,
    "parallel": 14,
}


class AnnotationWeavingSession:
    """Builds and weaves the library aspects for one set of annotated targets."""

    def __init__(
        self,
        *,
        weaver: Weaver | None = None,
        threads: int | None = None,
        backend: Backend | None = None,
        recorder: TraceRecorder | None = None,
        reducers: Mapping[str, Reducer] | None = None,
        reduce_target_providers: Mapping[str, Callable[..., Any]] | None = None,
        loop_weights: Mapping[str, Callable[[int], float]] | None = None,
    ) -> None:
        self.weaver = weaver if weaver is not None else Weaver()
        self.threads = threads
        self.backend = backend
        self.recorder = recorder
        self.reducers = dict(reducers or {})
        self.reduce_target_providers = dict(reduce_target_providers or {})
        self.loop_weights = dict(loop_weights or {})
        self._rw_locks: dict[str, ReadWriteLock] = {}
        self._field_aspects: dict[str, ThreadLocalFieldAspect] = {}
        self.woven_aspects: list[Aspect] = []

    # -- helpers --------------------------------------------------------------

    def _rw_lock(self, name: str) -> ReadWriteLock:
        lock = self._rw_locks.get(name)
        if lock is None:
            lock = ReadWriteLock()
            self._rw_locks[name] = lock
        return lock

    def _field_aspect(self, field: str) -> ThreadLocalFieldAspect:
        aspect = self._field_aspects.get(field)
        if aspect is None:
            raise WeavingError(
                f"@Reduce references thread-local field {field!r} but no class in the weaving "
                "targets declares it with @thread_local_field"
            )
        return aspect

    # -- scanning --------------------------------------------------------------

    @staticmethod
    def _classes_of(target: Any) -> list[type]:
        if inspect.isclass(target):
            return [target]
        if inspect.ismodule(target):
            return [v for v in vars(target).values() if inspect.isclass(v) and v.__module__ == target.__name__]
        return [type(target)]

    @staticmethod
    def _functions_of(target: Any) -> list[tuple[Any, str, Callable[..., Any]]]:
        found: list[tuple[Any, str, Callable[..., Any]]] = []
        if inspect.isclass(target):
            owners: list[Any] = [target]
        elif inspect.ismodule(target):
            owners = [target] + [
                v for v in vars(target).values() if inspect.isclass(v) and v.__module__ == target.__name__
            ]
        else:
            owners = [type(target)]
        for owner in owners:
            for attr_name, value in vars(owner).items():
                func = value.__func__ if isinstance(value, staticmethod) else value
                if not inspect.isfunction(func):
                    continue
                if inspect.ismodule(owner) and getattr(func, "__module__", None) != owner.__name__:
                    continue
                found.append((owner, attr_name, original_function(func)))
        return found

    # -- aspect construction ----------------------------------------------------

    def _aspects_for(self, func: Callable[..., Any]) -> list[tuple[int, Aspect]]:
        annotations = ann.get_annotations(func)
        built: list[tuple[int, Aspect]] = []
        for key, params in annotations.items():
            if key not in _PRIORITY:
                continue
            aspect = self._build(key, params, func)
            built.append((_PRIORITY[key], aspect))
        built.sort(key=lambda pair: pair[0])
        return built

    def _build(self, key: str, params: Mapping[str, Any], func: Callable[..., Any]) -> Aspect:
        pointcut = call(func)
        if key == "parallel":
            return ParallelRegion(
                pointcut,
                threads=params.get("threads") if params.get("threads") is not None else self.threads,
                backend=self.backend,
                recorder=self.recorder,
                region_name=params.get("name"),
            )
        if key == "for":
            weight = params.get("weight") or self.loop_weights.get(func.__name__)
            return ForWorkSharing(
                pointcut,
                schedule=params.get("schedule", "staticBlock"),
                chunk=params.get("chunk", 1),
                nowait=params.get("nowait", False),
                ordered=params.get("ordered", False),
                weight=weight,
            )
        if key == "taskloop":
            weight = params.get("weight") or self.loop_weights.get(func.__name__)
            return TaskLoopAspect(
                pointcut,
                grainsize=params.get("grainsize"),
                num_tasks=params.get("num_tasks"),
                nowait=params.get("nowait", False),
                weight=weight,
            )
        if key == "ordered":
            return OrderedAspect(pointcut, index_arg=params.get("index_arg", 0))
        if key == "critical":
            return CriticalAspect(
                pointcut,
                lock_id=params.get("id"),
                use_captured_lock=params.get("use_captured_lock", False),
            )
        if key == "barrier_before":
            return BarrierBeforeAspect(pointcut)
        if key == "barrier_after":
            return BarrierAfterAspect(pointcut)
        if key == "reader":
            return ReaderAspect(pointcut, rwlock=self._rw_lock(params.get("lock", "default")))
        if key == "writer":
            return WriterAspect(pointcut, rwlock=self._rw_lock(params.get("lock", "default")))
        if key == "single":
            return SingleAspect(pointcut, wait_for_value=params.get("wait_for_value", True))
        if key == "master":
            return MasterAspect(pointcut, broadcast=params.get("broadcast", True))
        if key == "task":
            return TaskAspect(pointcut)
        if key == "task_wait":
            return TaskWaitAspect(pointcut)
        if key == "future_task":
            return FutureTaskAspect(pointcut)
        if key == "future_result":
            return FutureResultAspect(pointcut, attribute=params.get("attribute"))
        if key == "reduce":
            field = params.get("field")
            if field is None:
                raise WeavingError(
                    f"@Reduce on {func.__qualname__} must name the thread-local field to reduce "
                    "(reduce_fields(field=..., reducer=...))"
                )
            reducer = params.get("reducer") or self.reducers.get(field)
            if reducer is None:
                raise WeavingError(f"@Reduce on {func.__qualname__}: no reducer given for field {field!r}")
            return ReduceAspect(
                pointcut,
                field_aspect=self._field_aspect(field),
                reducer=reducer,
                target_provider=self.reduce_target_providers.get(field),
            )
        raise WeavingError(f"unknown annotation {key!r}")  # pragma: no cover

    # -- main entry point ---------------------------------------------------------

    def weave(self, *targets: Any) -> Weaver:
        """Weave every annotated method/class found in ``targets``."""
        if not targets:
            raise WeavingError("weave_annotations needs at least one target")

        # Class-level annotations first (field introductions must exist before
        # any reduce aspect references them).
        for target in targets:
            for cls in self._classes_of(target):
                class_annotations = ann.get_annotations(cls)
                entry = class_annotations.get("thread_local_fields")
                if not entry:
                    continue
                for field in entry["fields"]:
                    aspect = ThreadLocalFieldAspect(field, classes=[cls], copy_value=entry.get("copy_value") or copy.deepcopy)
                    self.weaver.weave(aspect, cls)
                    self._field_aspects[field] = aspect
                    self.woven_aspects.append(aspect)

        # Method-level annotations, per method, innermost-priority first.
        for target in targets:
            for owner, attr_name, func in self._functions_of(target):
                for _, aspect in self._aspects_for(func):
                    self.weaver.weave(aspect, owner)
                    self.woven_aspects.append(aspect)
        return self.weaver


def weave_annotations(
    *targets: Any,
    weaver: Weaver | None = None,
    threads: int | None = None,
    backend: Backend | None = None,
    recorder: TraceRecorder | None = None,
    reducers: Mapping[str, Reducer] | None = None,
    reduce_target_providers: Mapping[str, Callable[..., Any]] | None = None,
    loop_weights: Mapping[str, Callable[[int], float]] | None = None,
) -> Weaver:
    """Weave the library aspects for every annotation found in ``targets``.

    Returns the weaver; call ``unweave_all()`` on it to restore the original
    (sequential) program.

    Parameters
    ----------
    targets:
        Classes and/or modules containing annotated methods.
    threads:
        Default team size for ``@parallel`` annotations without an explicit
        ``threads=`` parameter.
    backend, recorder:
        Execution backend and trace recorder for the created regions.
    reducers:
        Mapping from thread-local field name to the reducer used by
        ``@reduce_fields`` annotations that do not embed their own reducer.
    reduce_target_providers:
        Mapping from field name to a callable ``(joinpoint) -> object`` that
        locates the object whose thread-local copies must be reduced (needed
        when the reduce join point is not a method of that object).
    loop_weights:
        Mapping from for-method name to a per-iteration weight function,
        forwarded to the execution trace for the performance model.
    """
    session = AnnotationWeavingSession(
        weaver=weaver,
        threads=threads,
        backend=backend,
        recorder=recorder,
        reducers=reducers,
        reduce_target_providers=reduce_target_providers,
        loop_weights=loop_weights,
    )
    return session.weave(*targets)
