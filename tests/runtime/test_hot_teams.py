"""Hot thread teams: region members run on parked, reused worker threads.

A region on a warm team must cost a hand-off, not a thread start: the same
worker threads serve consecutive regions, the pool grows (never blocks) for
nested regions and concurrent callers, a failing member leaves its worker
clean for the next region, and a forked child never touches the parent's
workers — threads do not survive ``fork``.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np
import pytest

import repro.obs.registry as obsreg
from repro.runtime import backend as backend_mod
from repro.runtime import context as ctx
from repro.runtime import shm
from repro.runtime.backend import ProcessBackend, ThreadBackend
from repro.runtime.config import config_override
from repro.runtime.exceptions import BrokenTeamError
from repro.runtime.team import parallel_region

requires_fork = pytest.mark.skipif(not shm.fork_available(), reason="process scenarios need fork")


def _member_thread() -> "threading.Thread | None":
    """The worker thread recorded for the calling member (``None`` for a master)."""
    return ctx.current_team().members[ctx.get_thread_id()].thread


class TestWorkerReuse:
    def test_same_workers_serve_a_thousand_regions(self):
        backend = ThreadBackend()
        seen: "set[int]" = set()

        def body():
            if ctx.get_thread_id():
                assert _member_thread() is threading.current_thread()
                seen.add(threading.get_ident())

        parallel_region(body, num_threads=3, backend=backend)  # warm the team
        threads_before = threading.active_count()
        seen.clear()
        for _ in range(1000):
            parallel_region(body, num_threads=3, backend=backend)
        assert threading.active_count() == threads_before
        assert len(seen) == 2

    def test_a_worker_is_named_after_the_member_it_runs(self):
        """A stack dump of a hung region must say which team and member a
        reused thread is running, as a per-region thread's name did."""
        names: "dict[int, str]" = {}
        threads: "dict[int, threading.Thread]" = {}

        def body():
            if ctx.get_thread_id():
                names[ctx.get_thread_id()] = threading.current_thread().name
                threads[ctx.get_thread_id()] = threading.current_thread()

        parallel_region(body, num_threads=3, backend=ThreadBackend(), name="sweep")
        assert names == {1: "aomp-worker-sweep-1", 2: "aomp-worker-sweep-2"}
        parallel_region(body, num_threads=2, backend=ThreadBackend(name_prefix="svc"), name="req")
        assert names[1] == "svc-req-1"
        # Parked again, no worker still claims a region that is over.
        assert all(t.name.startswith("aomp-parked-") for t in threads.values())

    def test_workers_are_shared_by_backend_instances(self):
        seen: "set[int]" = set()

        def body():
            if ctx.get_thread_id():
                seen.add(threading.get_ident())

        for _ in range(5):
            parallel_region(body, num_threads=2, backend=ThreadBackend())
        assert len(seen) == 1

    def test_metric_buffers_stop_growing_with_region_count(self):
        with config_override(metrics=True):
            registry = obsreg.reset()

            def body():
                ctx.current_team().barrier()

            for _ in range(5):
                parallel_region(body, num_threads=3)
            buffers = len(registry._buffers)
            for _ in range(200):
                parallel_region(body, num_threads=3)
            assert len(registry._buffers) == buffers
            assert registry.snapshot()["counters"]["aomp_regions_total"]["completed"] == 205


@pytest.mark.nested
class TestGrowthOnDemand:
    def test_nested_two_by_two_members_get_disjoint_workers(self, watchdog):
        running: "dict[tuple[int, ...], int]" = {}
        lock = threading.Lock()
        rendezvous = threading.Barrier(4, timeout=20)

        def inner():
            with lock:
                running[ctx.get_member_path()] = threading.get_ident()
            rendezvous.wait()  # all four leaves are alive at once

        def outer():
            parallel_region(inner, num_threads=2)
            ctx.current_team().barrier()

        watchdog(lambda: parallel_region(outer, num_threads=2), timeout=30)
        assert sorted(running) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert len(set(running.values())) == 4

    def test_concurrent_callers_never_share_or_wait_for_a_worker(self, watchdog):
        rendezvous = threading.Barrier(4, timeout=20)
        running: "list[int]" = []

        def body():
            running.append(threading.get_ident())
            rendezvous.wait()  # both regions are in flight together

        def caller():
            parallel_region(body, num_threads=2, backend=ThreadBackend())

        def scenario():
            callers = [threading.Thread(target=caller) for _ in range(2)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=25)
            assert not any(thread.is_alive() for thread in callers)

        watchdog(scenario, timeout=30)
        assert len(set(running)) == 4


class TestFailingMember:
    def test_a_raising_member_leaves_its_worker_reusable_and_clean(self):
        backend = ThreadBackend()
        workers: "list[int]" = []
        depths: "list[int]" = []

        def failing():
            if ctx.get_thread_id() == 1:
                workers.append(threading.get_ident())
                raise ValueError("member 1 fails")

        def healthy():
            if ctx.get_thread_id() == 1:
                workers.append(threading.get_ident())
                depths.append(ctx.context_depth())
            return ctx.get_thread_id()

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(failing, num_threads=2, backend=backend)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert parallel_region(healthy, num_threads=2, backend=backend) == 0
        assert workers[0] == workers[1], "the worker that saw the exception was not reused"
        assert depths == [1], "the failed region left a frame on the worker's context stack"


class NestedInPool:
    """Picklable ``process_safe`` body: every pooled member enters a nested
    thread region and reports what it found on the idle stack."""

    process_safe = True

    def __init__(self) -> None:
        self.idle_at_entry = shm.shared_zeros(2, np.int64)
        self.inner_ran = shm.shared_zeros(4, np.int64)

    def run(self) -> None:
        member = ctx.get_thread_id()
        self.idle_at_entry[member] = len(backend_mod._idle_workers)

        def inner():
            self.inner_ran[2 * member + ctx.get_thread_id()] = 1

        parallel_region(inner, num_threads=2)

    def close(self) -> None:
        self.idle_at_entry.close()
        self.inner_ran.close()


@requires_fork
@pytest.mark.nested
class TestForkedChildren:
    """A child process inherits the *list* of idle workers but not the
    threads; picking one would strand the member forever."""

    def _park_a_worker_in_the_parent(self) -> None:
        parallel_region(lambda: None, num_threads=2, backend=ThreadBackend())
        assert backend_mod._idle_workers

    def test_fork_per_region_child_starts_fresh_workers(self, watchdog):
        self._park_a_worker_in_the_parent()
        backend = ProcessBackend(use_pool=False)
        with shm.shared_zeros(2, np.int64) as idle_at_entry, shm.shared_zeros(4, np.int64) as inner_ran:

            def outer():
                member = ctx.get_thread_id()
                if member:
                    idle_at_entry[member] = len(backend_mod._idle_workers)

                def inner():
                    inner_ran[2 * member + ctx.get_thread_id()] = 1

                parallel_region(inner, num_threads=2)

            try:
                watchdog(lambda: parallel_region(outer, num_threads=2, backend=backend), timeout=30)
            finally:
                backend.shutdown()
            assert idle_at_entry[1] == 0
            assert inner_ran.np.tolist() == [1, 1, 1, 1]

    def test_pool_worker_starts_fresh_workers(self, watchdog):
        self._park_a_worker_in_the_parent()
        backend = ProcessBackend()  # the pool forks now, with a worker parked
        body = NestedInPool()
        try:
            watchdog(lambda: parallel_region(body.run, num_threads=2, backend=backend), timeout=30)
            assert backend._pool is not None, "the body was expected to run on the pool"
            assert body.idle_at_entry[1] == 0
            assert body.inner_ran.np.tolist() == [1, 1, 1, 1]
        finally:
            backend.shutdown()
            body.close()


@requires_fork
class TestResultChannel:
    """The members' report pipe: many forked writers, one reader with a timed read."""

    def test_an_empty_channel_times_out(self):
        channel = backend_mod.ResultChannel(shm._mp_context())
        start = time.monotonic()
        with pytest.raises(queue.Empty):
            channel.get(0.05)
        assert 0.04 < time.monotonic() - start < 1.0
        with pytest.raises(queue.Empty):
            channel.get(0.0)

    def test_concurrent_writers_keep_large_items_whole(self):
        mp = shm._mp_context()
        channel = backend_mod.ResultChannel(mp)
        # 200 kB each: far past PIPE_BUF, so only the writer lock keeps two
        # members' frames from interleaving.
        writers = [
            mp.Process(target=lambda tag=tag: [channel.put((tag, i, bytes([tag]) * 200_000)) for i in range(5)])
            for tag in (1, 2)
        ]
        for writer in writers:
            writer.start()
        try:
            items = [channel.get(10.0) for _ in range(10)]
        finally:
            for writer in writers:
                writer.join(10.0)
        assert sorted((tag, i) for tag, i, _ in items) == [(tag, i) for tag in (1, 2) for i in range(5)]
        assert all(blob == bytes([tag]) * 200_000 for tag, _, blob in items)
