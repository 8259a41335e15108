"""Stress tests for schedulers and barriers under contention.

Many threads, tiny chunks, repeated barrier rounds — the conditions that
surface livelock and lost-claim regressions.  Every test runs under the
shared conftest watchdog (the ``watchdog`` fixture): if the runtime
livelocks, the test fails with a timeout and a stack dump instead of hanging
the suite.  Marked ``stress``; excluded from the default (tier-1) run and
executed by ``scripts/test.sh``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.runtime import context as ctx
from repro.runtime import shm
from repro.runtime.team import parallel_region
from repro.runtime.worksharing import run_for

pytestmark = pytest.mark.stress

#: per-scenario wall-clock budget, re-exported for join timeouts below.
WATCHDOG = 60.0


@pytest.mark.parametrize("schedule", ["dynamic", "guided"])
@pytest.mark.parametrize("num_threads", [8, 16])
def test_claim_storm_tiny_chunks(schedule, num_threads, watchdog):
    """Tiny chunks + many threads: maximal contention on the claim counter."""
    total = 2000
    counts = shm.shared_zeros(total, np.int64)
    try:

        def loop(start, end, step):
            for i in range(start, end, step):
                counts[i] += 1

        def body():
            run_for(loop, 0, total, 1, schedule=schedule, chunk=1)

        watchdog(lambda: parallel_region(body, num_threads=num_threads, backend="threads"))
        assert counts.np.tolist() == [1] * total
    finally:
        counts.close()


@pytest.mark.parametrize("num_threads", [8])
def test_repeated_loops_share_one_region(num_threads, watchdog):
    """Many consecutive workshared loops reuse team state (encounter keys,
    claim slots) without cross-talk."""
    rounds, width = 40, 64
    counts = shm.shared_zeros(width, np.int64)
    try:

        def loop(start, end, step):
            for i in range(start, end, step):
                counts[i] += 1

        def body():
            for r in range(rounds):
                schedule = ("dynamic", "guided", "staticCyclic", "staticBlock")[r % 4]
                run_for(loop, 0, width, 1, schedule=schedule, chunk=2)

        watchdog(lambda: parallel_region(body, num_threads=num_threads, backend="threads"))
        assert counts.np.tolist() == [rounds] * width
    finally:
        counts.close()


def test_barrier_storm(watchdog):
    """Hundreds of consecutive barrier rounds must neither deadlock nor skew."""
    rounds, num_threads = 200, 8
    progress = shm.shared_zeros(num_threads, np.int64)
    try:

        def body():
            team = ctx.current_team()
            tid = ctx.get_thread_id()
            for r in range(rounds):
                progress[tid] = r
                team.barrier()
                # After each round's barrier every member is at round r.
                assert int(progress.np.min()) >= r
                team.barrier()

        watchdog(lambda: parallel_region(body, num_threads=num_threads, backend="threads"))
        assert progress.np.tolist() == [rounds - 1] * num_threads
    finally:
        progress.close()


def test_process_backend_claim_storm(watchdog):
    """Cross-process dynamic claims under contention: every iteration exactly once."""
    total = 600
    counts = shm.shared_zeros(total, np.int64)
    try:

        def loop(start, end, step):
            for i in range(start, end, step):
                counts[i] += 1

        def body():
            run_for(loop, 0, total, 1, schedule="dynamic", chunk=2)
            run_for(loop, 0, total, 1, schedule="guided", chunk=1)

        watchdog(lambda: parallel_region(body, num_threads=4, backend="processes"))
        assert counts.np.tolist() == [2] * total
    finally:
        counts.close()


def test_process_backend_repeated_regions_stay_healthy(watchdog):
    """Back-to-back process regions (fresh fork each) leave no broken state."""
    counts = shm.shared_zeros(8, np.int64)
    try:

        def loop(start, end, step):
            for i in range(start, end, step):
                counts[i] += 1

        def body():
            run_for(loop, 0, 8, 1, schedule="staticBlock")

        def many():
            for _ in range(10):
                parallel_region(body, num_threads=3, backend="processes")

        watchdog(many)
        assert counts.np.tolist() == [10] * 8
    finally:
        counts.close()


def test_taskloop_steal_storm_threads(watchdog):
    """Fine-grained taskloop under a thread team: every tile exactly once."""
    from repro.runtime.tasks import run_taskloop

    total = 2000
    counts = np.zeros(total, dtype=np.int64)
    import threading

    lock = threading.Lock()

    def tile(start, end, step):
        with lock:
            for i in range(start, end, step):
                counts[i] += 1

    def body():
        run_taskloop(tile, 0, total, 1, grainsize=1)
        run_taskloop(tile, 0, total, 1, grainsize=3)

    watchdog(lambda: parallel_region(body, num_threads=6, backend="threads"))
    assert counts.tolist() == [2] * total


def test_taskloop_steal_storm_processes(watchdog):
    """Cross-process taskloop steals under contention: every tile exactly once."""
    from repro.runtime.tasks import run_taskloop

    total = 600
    counts = shm.shared_zeros(total, np.int64)
    try:

        def tile(start, end, step):
            for i in range(start, end, step):
                counts[i] += 1

        def body():
            run_taskloop(tile, 0, total, 1, grainsize=2)
            run_taskloop(tile, 0, total, 1, grainsize=5)

        watchdog(lambda: parallel_region(body, num_threads=4, backend="processes"))
        assert counts.np.tolist() == [2] * total
    finally:
        counts.close()


def test_task_spawn_storm(watchdog):
    """Thousands of spawns drain without deadlock or a lost count while four
    members (more than the cores) steal from each other, switching threads
    every 10 us: member 0 spawns 500 tasks, each spawns three children and
    joins them, running a still-queued child inline or sleeping on a stolen
    one."""
    from repro.runtime.tasks import TaskPool, spawn_task

    def parent():
        return sum(child.join(timeout=WATCHDOG) for child in [spawn_task(lambda: 1) for _ in range(3)])

    def body():
        if ctx.get_thread_id() != 0:
            return None
        pool = TaskPool.for_team(ctx.current_team())
        for _ in range(500):
            pool.spawn(parent)
        results = pool.wait_all(timeout=WATCHDOG)
        assert pool.pending == 0
        return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert watchdog(lambda: parallel_region(body, num_threads=4, backend="threads")) == [3] * 500
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.nested
def test_nested_team_storm(watchdog):
    """Repeated teams-of-teams: inner regions spawned from every outer member
    must complete and never cross-talk (claim slots, encounter keys)."""
    rounds, width = 10, 32
    counts = shm.shared_zeros((4, width), np.int64)
    try:

        def body():
            outer_tid = ctx.get_thread_id()

            def loop(start, end, step):
                for i in range(start, end, step):
                    counts[outer_tid, i] += 1

            def inner():
                run_for(loop, 0, width, 1, schedule="dynamic", chunk=1)

            for _ in range(rounds):
                parallel_region(inner, num_threads=3)

        watchdog(lambda: parallel_region(body, num_threads=4, backend="threads"))
        assert counts.np.tolist() == [[rounds] * width] * 4
    finally:
        counts.close()
