"""Execution substrate for PyAOmpLib.

This package implements the OpenMP-like execution model that the paper's
aspect library targets: parallel regions executed by a *team* of threads,
work-sharing loop schedulers, synchronisation constructs (barriers, critical
sections, readers/writer locks, ordered execution, single/master), thread
local fields with reductions, and explicit tasks/futures.

The runtime is independent of the aspect machinery in :mod:`repro.core`; the
aspects merely call into it.  It can also be used directly, which is what the
hand-written "JGF MT"-style baselines in :mod:`repro.jgf` do.  The package
root exports README's "Public API" table and nothing else; the runtime's
internals (schedulers, deques, locks, arenas, ...) are imported from their
own modules.
"""

from repro.runtime.config import config_override, get_num_threads, set_num_threads
from repro.runtime.context import (
    get_ancestor_thread_id,
    get_level,
    get_num_team_threads,
    get_thread_id,
    in_parallel,
)
from repro.runtime.team import parallel_region
from repro.runtime.backend import ProcessBackend, SerialBackend, ThreadBackend, set_backend
from repro.runtime.shm import SharedArray, as_shared, shared_zeros
from repro.runtime.worksharing import run_for
from repro.runtime.critical import critical_call
from repro.runtime.tasks import run_taskloop, spawn_future, spawn_task, task_wait
from repro.runtime.trace import EventKind, TraceRecorder
from repro.runtime.exceptions import AOmpError, BackendCapabilityError, BrokenTeamError, WorkerProcessError

#: README's "Public API" table, row for row (``tests/test_public_api.py``).
__all__ = [
    # constructs
    "parallel_region",
    "run_for",
    "run_taskloop",
    "spawn_task",
    "spawn_future",
    "task_wait",
    "critical_call",
    # OpenMP runtime routines
    "get_thread_id",
    "get_num_team_threads",
    "get_num_threads",
    "set_num_threads",
    "get_level",
    "get_ancestor_thread_id",
    "in_parallel",
    # configuration and backends
    "config_override",
    "set_backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    # shared memory
    "SharedArray",
    "shared_zeros",
    "as_shared",
    # tracing
    "TraceRecorder",
    "EventKind",
    # errors
    "AOmpError",
    "BackendCapabilityError",
    "BrokenTeamError",
    "WorkerProcessError",
]
