"""Execution substrate for PyAOmpLib.

This package implements the OpenMP-like execution model that the paper's
aspect library targets: parallel regions executed by a *team* of threads,
work-sharing loop schedulers, synchronisation constructs (barriers, critical
sections, readers/writer locks, ordered execution, single/master), thread
local fields with reductions, and explicit tasks/futures.

The runtime is independent of the aspect machinery in :mod:`repro.core`; the
aspects merely call into it.  It can also be used directly, which is what the
hand-written "JGF MT"-style baselines in :mod:`repro.jgf` do.
"""

from repro.runtime.config import (
    RuntimeConfig,
    config_override,
    get_config,
    get_num_threads,
    set_config,
    set_num_threads,
)
from repro.runtime.context import (
    ExecutionContext,
    current_context,
    current_team,
    get_ancestor_thread_id,
    get_level,
    get_member_path,
    get_num_team_threads,
    get_thread_id,
    in_parallel,
    is_master,
)
from repro.runtime.team import Team, TeamMember, parallel_region
from repro.runtime.backend import (
    Backend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    backend_by_name,
    get_backend,
    register_backend,
    resolve_backend,
    set_backend,
)
from repro.runtime.shm import (
    HeartbeatArena,
    SharedArray,
    SyncArena,
    TaskStealArena,
    as_shared,
    fork_available,
    is_shared,
    shared_zeros,
)
from repro.runtime.monitor import WorkerMonitor
from repro.runtime.barrier import BrokenBarrierError, CyclicBarrier
from repro.runtime.locks import LockRegistry, ReadWriteLock, StripedLocks, global_locks
from repro.runtime.scheduler import (
    DynamicScheduler,
    GuidedScheduler,
    LoopChunk,
    Schedule,
    StaticBlockScheduler,
    StaticCyclicScheduler,
    make_scheduler,
)
from repro.runtime.worksharing import run_for
from repro.runtime.critical import critical_call, fine_grained_call, reader_call, writer_call
from repro.runtime.threadlocal import (
    ArrayReducer,
    CallableReducer,
    ListReducer,
    Reducer,
    SumReducer,
    ThreadLocalStore,
    global_thread_locals,
    reduce_values,
)
from repro.runtime.tasks import (
    FutureResult,
    TaskHandle,
    TaskPool,
    WorkStealingDeque,
    run_taskloop,
    spawn_future,
    spawn_task,
    task_wait,
)
from repro.runtime.ordered import OrderedRegion, current_ordered_region, install_ordered_region, ordered_call
from repro.runtime.single import MasterRegion, SingleRegion
from repro.runtime.trace import (
    NO_REGION,
    EventKind,
    TraceEvent,
    TraceRecorder,
    get_global_recorder,
    global_tracing_active,
    merge_traces,
    set_global_recorder,
)
from repro.runtime.exceptions import (
    AOmpError,
    BackendCapabilityError,
    BrokenTeamError,
    NotInParallelRegionError,
    PointcutError,
    ReductionError,
    SchedulingError,
    TaskError,
    WeavingError,
    WorkerProcessError,
)

__all__ = [
    # config
    "RuntimeConfig",
    "config_override",
    "get_config",
    "set_config",
    "set_num_threads",
    "get_num_threads",
    # context
    "ExecutionContext",
    "current_context",
    "current_team",
    "get_thread_id",
    "get_num_team_threads",
    "get_level",
    "get_ancestor_thread_id",
    "get_member_path",
    "in_parallel",
    "is_master",
    # team / regions
    "Team",
    "TeamMember",
    "parallel_region",
    # backends
    "Backend",
    "ThreadBackend",
    "SerialBackend",
    "ProcessBackend",
    "get_backend",
    "set_backend",
    "resolve_backend",
    "backend_by_name",
    "register_backend",
    "available_backends",
    # shared memory
    "SharedArray",
    "SyncArena",
    "TaskStealArena",
    "shared_zeros",
    "as_shared",
    "is_shared",
    "fork_available",
    # synchronisation
    "CyclicBarrier",
    "BrokenBarrierError",
    "LockRegistry",
    "ReadWriteLock",
    "StripedLocks",
    "global_locks",
    "critical_call",
    "fine_grained_call",
    "reader_call",
    "writer_call",
    # scheduling / work sharing
    "Schedule",
    "LoopChunk",
    "StaticBlockScheduler",
    "StaticCyclicScheduler",
    "DynamicScheduler",
    "GuidedScheduler",
    "make_scheduler",
    "run_for",
    # thread-local / reductions
    "ThreadLocalStore",
    "global_thread_locals",
    "Reducer",
    "SumReducer",
    "ListReducer",
    "ArrayReducer",
    "CallableReducer",
    "reduce_values",
    # tasks
    "TaskPool",
    "TaskHandle",
    "FutureResult",
    "WorkStealingDeque",
    "spawn_task",
    "spawn_future",
    "task_wait",
    "run_taskloop",
    # ordered / single / master
    "OrderedRegion",
    "ordered_call",
    "current_ordered_region",
    "install_ordered_region",
    "SingleRegion",
    "MasterRegion",
    # tracing
    "TraceRecorder",
    "TraceEvent",
    "EventKind",
    "get_global_recorder",
    "set_global_recorder",
    "global_tracing_active",
    "NO_REGION",
    "merge_traces",
    # failure detection
    "HeartbeatArena",
    "WorkerMonitor",
    # errors
    "AOmpError",
    "BackendCapabilityError",
    "WorkerProcessError",
    "BrokenTeamError",
    "NotInParallelRegionError",
    "PointcutError",
    "ReductionError",
    "SchedulingError",
    "TaskError",
    "WeavingError",
]
