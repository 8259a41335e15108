"""The library of reusable aspect modules (paper Table 1)."""

from repro.core.aspects.base import Aspect, ClassAspect, CompositeAspect, MethodAspect
from repro.core.aspects.parallel_region import ParallelRegion
from repro.core.aspects.worksharing import (
    AdaptiveSchedule,
    ForCyclic,
    ForDynamic,
    ForGuided,
    ForStatic,
    ForWorkSharing,
    OrderedAspect,
)
from repro.core.aspects.synchronization import (
    BarrierAfterAspect,
    BarrierBeforeAspect,
    CriticalAspect,
    ReaderAspect,
    ReadersWriterAspect,
    WriterAspect,
)
from repro.core.aspects.execution import (
    FutureResultAspect,
    FutureTaskAspect,
    MasterAspect,
    SingleAspect,
    TaskAspect,
    TaskLoop,
    TaskLoopAspect,
    TaskWaitAspect,
)
from repro.core.aspects.data import ReduceAspect, ThreadLocalFieldAspect, ThreadLocalFieldDescriptor
from repro.core.aspects.composite import NestedParallelRegions, ParallelFor

__all__ = [
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
    "ThreadLocalFieldDescriptor",
    "ReduceAspect",
    "ParallelFor",
    "NestedParallelRegions",
]
