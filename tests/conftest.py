"""Shared pytest fixtures for the PyAOmpLib test suite."""

from __future__ import annotations

import faulthandler
import multiprocessing
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

import repro.obs.registry as obs_registry
from repro.runtime.backend import ThreadBackend, set_backend
from repro.runtime.config import RuntimeConfig, set_config
from repro.runtime.locks import global_locks
from repro.runtime.threadlocal import global_thread_locals
from repro.runtime.trace import TraceRecorder, set_global_recorder
from repro.tune import reset_tuner


@pytest.fixture(autouse=True)
def _clean_runtime_state():
    """Reset global runtime state around every test.

    Tests freely change the global configuration, backend, lock registry and
    trace recorder; this fixture guarantees isolation.
    """
    previous_backend = set_backend(ThreadBackend())
    previous_recorder = set_global_recorder(None)
    set_config(RuntimeConfig(num_threads=4, tracing=True, default_schedule="static_block", tune_cache=None))
    global_locks.clear()
    reset_tuner()
    obs_registry.reset()
    yield
    set_backend(previous_backend)
    set_global_recorder(previous_recorder)
    set_config(RuntimeConfig())
    global_locks.clear()
    reset_tuner()
    # The thread-local store is keyed by object identity; dropping references
    # is enough, but clear defensively to keep memory bounded across the run.
    global_thread_locals._values.clear()  # noqa: SLF001 - test-only cleanup


#: wall-clock budget for watchdog-guarded scenarios (seconds); generous
#: compared to the expected runtimes (<2s each) but below the runtime's own
#: 120s barrier timeouts, so the watchdog reports first with a useful message.
WATCHDOG_TIMEOUT = 60.0


def run_with_watchdog(fn, timeout: float = WATCHDOG_TIMEOUT):
    """Run ``fn`` on a worker thread; fail the calling test if it hangs.

    The shared watchdog behind the stress tier and the nested-team
    conformance tests (marker ``nested``): a deadlocked or livelocked team —
    including an inner team of a team-of-teams — turns into a test failure
    with a stack dump instead of hanging tier-1.  The runtime's own barrier
    timeouts (:data:`repro.runtime.config.DEFAULT_BARRIER_TIMEOUT`, on every
    tier) are the backstop that eventually unblocks the abandoned worker
    thread.
    """
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="watchdog")
    future = pool.submit(fn)
    try:
        result = future.result(timeout=timeout)
    except FutureTimeoutError:  # pragma: no cover - only on deadlock/livelock
        faulthandler.dump_traceback(file=sys.stderr)
        pool.shutdown(wait=False)
        pytest.fail(f"scenario did not finish within {timeout}s (deadlock/livelock?)")
    pool.shutdown(wait=True)
    return result


@pytest.fixture
def watchdog():
    """The :func:`run_with_watchdog` helper as a fixture (stress + nested tests)."""
    return run_with_watchdog


@pytest.fixture
def recorder():
    """A trace recorder installed as the global recorder for the test."""
    rec = TraceRecorder()
    set_global_recorder(rec)
    yield rec
    set_global_recorder(None)


def _stray_children() -> "list[str]":
    """Children of this process that nobody will collect: zombies, and
    distributed workers still running (``pid:state:command``)."""
    multiprocessing.active_children()  # multiprocessing reaps its own finished workers here
    me = str(os.getpid())
    strays = []
    for pid in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
                state, parent = handle.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
        except (OSError, IndexError, ValueError):
            continue  # ended while we were looking
        if parent == me and (state == "Z" or "_dist._worker_main" in command):
            strays.append(f"{pid}:{state}:{command[-60:].strip()}")
    return strays


def pytest_sessionfinish(session, exitstatus):
    """No test calls ``DistributedBackend.shutdown()`` for the registry's
    instance: its parked workers must leave, and be reaped, by themselves."""
    deadline = time.monotonic() + 10.0
    while (strays := _stray_children()) and time.monotonic() < deadline:
        time.sleep(0.05)
    if strays:
        print(f"\nERROR: child processes left behind by the session: {strays}", file=sys.stderr)
        session.exitstatus = 1

