"""Tests for the lock registry, RW lock and striped locks, and the barrier timeout knob.

The barrier itself is covered on every storage by ``test_barrier_conformance.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime.locks import LockRegistry, ReadWriteLock, StripedLocks


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
