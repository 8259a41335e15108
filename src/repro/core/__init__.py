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
from repro.core.annotation_weaver import weave_annotations
from repro.core.aspects import (
    AdaptiveSchedule,
    BarrierAfterAspect,
    BarrierBeforeAspect,
    CriticalAspect,
    ForCyclic,
    ForDynamic,
    ForStatic,
    ForWorkSharing,
    FutureResultAspect,
    FutureTaskAspect,
    MasterAspect,
    MethodAspect,
    NestedParallelRegions,
    OrderedAspect,
    ParallelRegion,
    ReaderAspect,
    ReduceAspect,
    SingleAspect,
    TaskAspect,
    TaskLoop,
    TaskWaitAspect,
    ThreadLocalFieldAspect,
    WriterAspect,
)
from repro.core.weaver import Weaver, call, implements

#: README's "Public API" table, row for row (``tests/test_public_api.py``).
__all__ = [
    # annotation style
    "annotations",
    "weave_annotations",
    # the paper's Table 1
    "ParallelRegion",
    "ForWorkSharing",
    "TaskAspect",
    "TaskWaitAspect",
    "FutureTaskAspect",
    "FutureResultAspect",
    "OrderedAspect",
    "CriticalAspect",
    "BarrierBeforeAspect",
    "BarrierAfterAspect",
    "ReaderAspect",
    "WriterAspect",
    "SingleAspect",
    "MasterAspect",
    "ThreadLocalFieldAspect",
    "ReduceAspect",
    # schedules and compositions
    "ForStatic",
    "ForCyclic",
    "ForDynamic",
    "AdaptiveSchedule",
    "TaskLoop",
    "NestedParallelRegions",
    # pointcut style
    "Weaver",
    "call",
    "implements",
    "MethodAspect",
]
