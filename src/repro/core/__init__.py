"""PyAOmpLib core: annotations, aspects and the weaver (the paper's contribution).

Two programming styles are supported, exactly as in the paper:

* **annotation style** — decorate methods with :mod:`repro.core.annotations`
  (``@parallel``, ``@for_loop``, ...) and activate them with
  :func:`repro.core.annotation_weaver.weave_annotations`;
* **pointcut style** — instantiate (or subclass) the aspects in
  :mod:`repro.core.aspects`, give them pointcuts from
  :mod:`repro.core.weaver`, and weave them with a
  :class:`~repro.core.weaver.weaver.Weaver`.

Unweaving restores the original program: sequential semantics are intrinsic.
"""

from repro.core import annotations
from repro.core.annotation_weaver import AnnotationWeavingSession, weave_annotations
from repro.core.aspects import (
    AdaptiveSchedule,
    Aspect,
    BarrierAfterAspect,
    BarrierBeforeAspect,
    ClassAspect,
    CompositeAspect,
    CriticalAspect,
    ForCyclic,
    ForDynamic,
    ForGuided,
    ForStatic,
    ForWorkSharing,
    FutureResultAspect,
    FutureTaskAspect,
    MasterAspect,
    MethodAspect,
    NestedParallelRegions,
    OrderedAspect,
    ParallelFor,
    ParallelRegion,
    ReadersWriterAspect,
    ReaderAspect,
    ReduceAspect,
    SingleAspect,
    TaskAspect,
    TaskLoop,
    TaskLoopAspect,
    TaskWaitAspect,
    ThreadLocalFieldAspect,
    WriterAspect,
)
from repro.core.weaver import (
    Weaver,
    call,
    default_weaver,
    implements,
    original_function,
    unweave,
    unweave_all,
    weave,
)

__all__ = [
    "annotations",
    "weave_annotations",
    "AnnotationWeavingSession",
    # aspects
    "Aspect",
    "MethodAspect",
    "ClassAspect",
    "CompositeAspect",
    "ParallelRegion",
    "ForWorkSharing",
    "ForStatic",
    "ForCyclic",
    "ForDynamic",
    "ForGuided",
    "AdaptiveSchedule",
    "OrderedAspect",
    "CriticalAspect",
    "BarrierBeforeAspect",
    "BarrierAfterAspect",
    "ReaderAspect",
    "WriterAspect",
    "ReadersWriterAspect",
    "SingleAspect",
    "MasterAspect",
    "TaskAspect",
    "TaskLoopAspect",
    "TaskLoop",
    "TaskWaitAspect",
    "FutureTaskAspect",
    "FutureResultAspect",
    "ThreadLocalFieldAspect",
    "ReduceAspect",
    "ParallelFor",
    "NestedParallelRegions",
    # weaver / pointcuts
    "Weaver",
    "call",
    "implements",
    "weave",
    "unweave",
    "unweave_all",
    "default_weaver",
    "original_function",
]
