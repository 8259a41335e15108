"""Tests for the cyclic barrier, lock registry, RW lock and striped locks."""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime.barrier import BrokenBarrierError, CyclicBarrier
from repro.runtime.locks import LockRegistry, ReadWriteLock, StripedLocks


class TestCyclicBarrier:
    def test_requires_positive_parties(self):
        with pytest.raises(ValueError):
            CyclicBarrier(0)

    def test_single_party_never_blocks(self):
        barrier = CyclicBarrier(1)
        for _ in range(5):
            assert barrier.wait(timeout=1) == 0

    def test_releases_all_parties(self):
        barrier = CyclicBarrier(3)
        released = []
        lock = threading.Lock()

        def worker():
            barrier.wait(timeout=5)
            with lock:
                released.append(threading.get_ident())

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        assert released == []  # nobody released until the last party arrives
        barrier.wait(timeout=5)
        for t in threads:
            t.join(timeout=5)
        assert len(released) == 2

    def test_reusable_across_rounds(self):
        barrier = CyclicBarrier(2)
        counter = {"rounds": 0}

        def worker():
            for _ in range(10):
                barrier.wait(timeout=5)

        thread = threading.Thread(target=worker)
        thread.start()
        for _ in range(10):
            barrier.wait(timeout=5)
            counter["rounds"] += 1
        thread.join(timeout=5)
        assert counter["rounds"] == 10

    def test_barrier_action_runs_once_per_round(self):
        actions = []
        barrier = CyclicBarrier(2, action=lambda: actions.append(1))

        def worker():
            for _ in range(3):
                barrier.wait(timeout=5)

        thread = threading.Thread(target=worker)
        thread.start()
        for _ in range(3):
            barrier.wait(timeout=5)
        thread.join(timeout=5)
        assert len(actions) == 3

    def test_abort_wakes_waiters_with_error(self):
        barrier = CyclicBarrier(2)
        failures = []

        def worker():
            try:
                barrier.wait(timeout=5)
            except BrokenBarrierError:
                failures.append(True)

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.05)
        barrier.abort()
        thread.join(timeout=5)
        assert failures == [True]
        assert barrier.broken
        with pytest.raises(BrokenBarrierError):
            barrier.wait(timeout=1)

    def test_timeout_breaks_barrier(self):
        barrier = CyclicBarrier(2)
        with pytest.raises(BrokenBarrierError):
            barrier.wait(timeout=0.05)

    def test_reset_releases_waiters_and_reenables(self):
        barrier = CyclicBarrier(2)
        outcomes = []

        def worker():
            try:
                barrier.wait(timeout=5)
                outcomes.append("released")
            except BrokenBarrierError:
                outcomes.append("broken")

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.05)
        barrier.reset()
        thread.join(timeout=5)
        assert outcomes == ["broken"]
        assert not barrier.broken
        # Fresh rounds work again.
        t2 = threading.Thread(target=lambda: barrier.wait(timeout=5))
        t2.start()
        barrier.wait(timeout=5)
        t2.join(timeout=5)

    def test_arrival_index(self):
        barrier = CyclicBarrier(2)
        results = {}

        def worker():
            results["worker"] = barrier.wait(timeout=5)

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.05)
        results["main"] = barrier.wait(timeout=5)
        thread.join(timeout=5)
        assert sorted(results.values()) == [0, 1]


class TestLockRegistry:
    def test_same_key_same_lock(self):
        registry = LockRegistry()
        assert registry.get("a") is registry.get("a")
        assert registry.get("a") is not registry.get("b")
        assert len(registry) == 2
        assert "a" in registry

    def test_object_locks_are_per_object(self):
        registry = LockRegistry()
        x, y = object(), object()
        assert registry.for_object(x) is registry.for_object(x)
        assert registry.for_object(x) is not registry.for_object(y)

    def test_named_lock_provides_mutual_exclusion(self):
        registry = LockRegistry()
        counter = {"value": 0}

        def work():
            for _ in range(2000):
                with registry.acquire("shared"):
                    counter["value"] += 1

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["value"] == 8000

    def test_acquire_reports_wait_time(self):
        registry = LockRegistry()
        lock = registry.get("slow")
        lock.acquire()
        waited_holder = {}

        def contender():
            with registry.acquire("slow") as waited:
                waited_holder["waited"] = waited

        thread = threading.Thread(target=contender)
        thread.start()
        time.sleep(0.1)
        lock.release()
        thread.join(timeout=5)
        assert waited_holder["waited"] >= 0.05

    def test_clear(self):
        registry = LockRegistry()
        registry.get("x")
        registry.clear()
        assert len(registry) == 0


class TestReadWriteLock:
    def test_multiple_readers_allowed(self):
        rw = ReadWriteLock()
        active = []
        lock = threading.Lock()
        done = threading.Event()

        def reader():
            with rw.read():
                with lock:
                    active.append(1)
                done.wait(2)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.1)
        assert rw.readers == 3
        done.set()
        for t in threads:
            t.join(timeout=5)
        assert rw.readers == 0

    def test_writer_excludes_readers(self):
        rw = ReadWriteLock()
        events = []
        lock = threading.Lock()
        rw.acquire_write()

        def reader():
            with rw.read():
                with lock:
                    events.append("read")

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        assert events == []
        rw.release_write()
        thread.join(timeout=5)
        assert events == ["read"]

    def test_writer_waits_for_readers(self):
        rw = ReadWriteLock()
        rw.acquire_read()
        acquired = threading.Event()

        def writer():
            with rw.write():
                acquired.set()

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()
        rw.release_read()
        thread.join(timeout=5)
        assert acquired.is_set()

    def test_unbalanced_release_raises(self):
        rw = ReadWriteLock()
        with pytest.raises(RuntimeError):
            rw.release_read()
        with pytest.raises(RuntimeError):
            rw.release_write()

    def test_read_write_counters_consistent(self):
        rw = ReadWriteLock()
        with rw.write():
            assert rw.writing
        assert not rw.writing


class TestStripedLocks:
    def test_validates_stripes(self):
        with pytest.raises(ValueError):
            StripedLocks(0)

    def test_same_index_same_lock(self):
        striped = StripedLocks(16)
        assert striped.lock_for(3) is striped.lock_for(3)
        assert len(striped) == 16

    def test_concurrent_updates_are_safe(self):
        striped = StripedLocks(8)
        values = [0] * 32

        def work(offset):
            for i in range(32):
                with striped.acquire(i):
                    values[i] += 1

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert values == [4] * 32


class TestBarrierTimeoutConfig:
    def test_default_timeout_bounds_waits(self, monkeypatch):
        from repro.runtime.barrier import CyclicBarrier
        from repro.runtime.config import DEFAULT_BARRIER_TIMEOUT

        monkeypatch.delenv("AOMP_BARRIER_TIMEOUT", raising=False)
        assert DEFAULT_BARRIER_TIMEOUT == 120.0
        assert CyclicBarrier(2)._timeout == DEFAULT_BARRIER_TIMEOUT  # noqa: SLF001

    @pytest.mark.parametrize("make", ["thread", "shm"])
    def test_every_team_barrier_reads_the_env_knob(self, make, monkeypatch):
        """Thread teams and fork/pool teams follow one timeout contract."""
        from repro.runtime import shm
        from repro.runtime.config import DEFAULT_BARRIER_TIMEOUT

        if make == "shm" and not shm.fork_available():
            pytest.skip("the shm barrier lives in fork-inherited cells")
        barrier_class = CyclicBarrier if make == "thread" else shm.SharedBarrier
        monkeypatch.delenv("AOMP_BARRIER_TIMEOUT", raising=False)
        assert barrier_class(2)._timeout == DEFAULT_BARRIER_TIMEOUT  # noqa: SLF001
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "300")
        assert barrier_class(2)._timeout == 300.0  # noqa: SLF001
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "0")
        barrier = barrier_class(2)
        assert barrier._timeout is None  # noqa: SLF001 - disabled: wait forever
        waiter = threading.Thread(target=barrier.wait)
        waiter.start()
        time.sleep(0.05)
        barrier.wait(timeout=5)
        waiter.join(timeout=5)
        assert not waiter.is_alive() and not barrier.broken

    def test_env_knob_read_at_construction(self, monkeypatch):
        from repro.runtime.barrier import CyclicBarrier
        from repro.runtime.config import env

        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "300")
        assert env("AOMP_BARRIER_TIMEOUT") == 300.0
        assert CyclicBarrier(2)._timeout == 300.0  # noqa: SLF001 - not frozen at import
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "0")
        assert env("AOMP_BARRIER_TIMEOUT") is None  # disabled: wait forever
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "junk")
        for _ in range(2):  # each value is parsed once; a rejection is never remembered
            with pytest.raises(ValueError, match="AOMP_BARRIER_TIMEOUT"):
                env("AOMP_BARRIER_TIMEOUT")
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "300")
        assert env("AOMP_BARRIER_TIMEOUT") == 300.0

    def test_explicit_none_waits_past_default(self):
        """timeout=None is a true unbounded wait, distinct from the default."""
        from repro.runtime.barrier import CyclicBarrier

        barrier = CyclicBarrier(2, timeout=None)
        assert barrier._timeout is None  # noqa: SLF001

    def test_short_timeout_breaks_deadlocked_round(self):
        import pytest as _pytest

        from repro.runtime.barrier import BrokenBarrierError, CyclicBarrier

        barrier = CyclicBarrier(2, timeout=0.05)
        with _pytest.raises(BrokenBarrierError, match="timed out"):
            barrier.wait()
