"""Critical-section execution helpers.

The paper's ``@Critical[(id=name)]`` restricts a method execution to a single
activity at a time, using either a named lock shared across type-unrelated
objects, the target object's own lock (plain-Java behaviour,
``criticalUsingCapturedLock``), or one lock per aspect instance
(``criticalUsingSharedLock``).  These helpers execute a callable under the
appropriate lock and record the serialised time in the trace, which is what
lets the performance model account for contention (Figure 15's critical
variant).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Hashable

from repro.runtime import context as ctx
from repro.runtime.exceptions import BackendCapabilityError
from repro.runtime.locks import LockRegistry, ReadWriteLock, global_locks
from repro.runtime.trace import EventKind


def _require_shared_heap(construct: str) -> "ctx.ExecutionContext | None":
    """In-process locks cannot serialise members of a *process* team.

    Each forked/pooled worker inherits its own copy of a ``threading`` lock,
    so every process would acquire its private lock simultaneously and the
    critical section would silently stop excluding anyone.  Fail loudly
    instead, exactly like single/master/ordered do (the weaver's
    ``requires_shared_locals`` fallback prevents woven programs from ever
    reaching this).
    """
    context = ctx.current_context()
    if context is not None and context.team.size > 1 and context.team.is_process_team:
        raise BackendCapabilityError(
            f"{construct}: in-process locks cannot span a process team; weave with "
            "threads, or mark the region as requiring shared locals to get the "
            "automatic fallback"
        )
    return context


def critical_call(
    fn: Callable[[], Any],
    *,
    key: Hashable = "critical",
    registry: LockRegistry | None = None,
    target: object | None = None,
) -> Any:
    """Run ``fn`` in mutual exclusion on the lock identified by ``key``.

    When ``target`` is given and ``key`` is ``None``, the target object's own
    lock is used (captured-lock / plain ``synchronized`` behaviour).
    Serialised time (waiting + executing) is recorded as a ``CRITICAL`` trace
    event when inside a parallel region.
    """
    registry = registry if registry is not None else global_locks
    if key is None:
        if target is None:
            raise ValueError("critical_call needs either a key or a target object")
        lock = registry.for_object(target)
        label = f"object:{type(target).__name__}"
    else:
        lock = registry.get(key)
        label = str(key)

    context = _require_shared_heap("critical")
    wait_start = time.perf_counter()
    lock.acquire()
    acquired = time.perf_counter()
    try:
        result = fn()
    finally:
        finished = time.perf_counter()
        lock.release()
        if context is not None:
            context.team.record(
                EventKind.CRITICAL,
                key=label,
                waited=acquired - wait_start,
                held=finished - acquired,
            )
    return result


def reader_call(fn: Callable[[], Any], rwlock: ReadWriteLock) -> Any:
    """Run ``fn`` holding ``rwlock`` for shared (read) access."""
    _require_shared_heap("reader lock")
    with rwlock.read():
        return fn()


def writer_call(fn: Callable[[], Any], rwlock: ReadWriteLock) -> Any:
    """Run ``fn`` holding ``rwlock`` exclusively (write access)."""
    _require_shared_heap("writer lock")
    with rwlock.write():
        return fn()
