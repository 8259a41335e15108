"""Tests for critical, single/master, ordered, thread-local and task constructs."""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime import context as ctx
from repro.runtime.critical import critical_call, reader_call, writer_call
from repro.runtime.exceptions import ReductionError, TaskError
from repro.runtime.locks import LockRegistry, ReadWriteLock
from repro.runtime.ordered import OrderedRegion, install_ordered_region, ordered_call
from repro.runtime.single import MasterRegion, SingleRegion
from repro.runtime.tasks import TaskPool, spawn_future, spawn_task, task_wait
from repro.runtime.team import parallel_region
from repro.runtime.threadlocal import (
    ArrayReducer,
    CallableReducer,
    ListReducer,
    SumReducer,
    ThreadLocalStore,
    reduce_values,
)
from repro.runtime.trace import EventKind
from repro.runtime.worksharing import run_for


class TestCritical:
    def test_mutual_exclusion_inside_region(self):
        counter = {"value": 0}

        def unsafe_increment():
            current = counter["value"]
            time.sleep(0.0001)
            counter["value"] = current + 1

        def body():
            for _ in range(20):
                critical_call(unsafe_increment, key="counter")

        parallel_region(body, num_threads=4)
        assert counter["value"] == 80

    def test_named_locks_are_independent(self):
        registry = LockRegistry()
        held = threading.Event()
        entered_b = threading.Event()

        def hold_a():
            held.set()
            entered_b.wait(2)

        def enter_b():
            entered_b.set()

        def body():
            if ctx.get_thread_id() == 0:
                critical_call(hold_a, key="a", registry=registry)
            else:
                held.wait(2)
                critical_call(enter_b, key="b", registry=registry)

        parallel_region(body, num_threads=2)
        assert entered_b.is_set()

    def test_captured_lock_per_target_object(self):
        registry = LockRegistry()
        target = object()
        calls = []
        critical_call(lambda: calls.append(1), key=None, target=target, registry=registry)
        assert calls == [1]
        with pytest.raises(ValueError):
            critical_call(lambda: None, key=None, registry=registry)

    def test_critical_records_trace(self, recorder):
        def body():
            critical_call(lambda: None, key="traced")

        parallel_region(body, num_threads=2)
        events = recorder.events(EventKind.CRITICAL)
        assert len(events) == 2
        assert all(e.data["key"] == "traced" for e in events)

    def test_sequential_semantics_outside_region(self):
        assert critical_call(lambda: 42, key="solo") == 42

    def test_rw_helpers(self):
        rw = ReadWriteLock()
        assert reader_call(lambda: 1, rw) == 1
        assert writer_call(lambda: 2, rw) == 2


class TestSingleMaster:
    def test_single_executes_once_and_broadcasts(self):
        executions = []
        lock = threading.Lock()
        received = []

        def produce():
            with lock:
                executions.append(ctx.get_thread_id())
            return "value"

        def body():
            result = SingleRegion("s").run(produce)
            with lock:
                received.append(result)

        parallel_region(body, num_threads=4)
        assert len(executions) == 1
        assert received == ["value"] * 4

    def test_single_nowait_returns_none_to_skippers(self):
        results = []
        lock = threading.Lock()

        def body():
            value = SingleRegion("s").run(lambda: "done", wait_for_value=False)
            with lock:
                results.append(value)

        parallel_region(body, num_threads=4)
        assert results.count("done") == 1
        assert results.count(None) == 3

    def test_master_only_master_executes(self):
        executions = []
        lock = threading.Lock()

        def produce():
            with lock:
                executions.append(ctx.get_thread_id())
            return ctx.get_thread_id()

        def body():
            return MasterRegion("m").run(produce)

        parallel_region(body, num_threads=4)
        assert executions == [0]

    def test_master_broadcasts_value(self):
        received = []
        lock = threading.Lock()

        def body():
            value = MasterRegion("m").run(lambda: 123)
            with lock:
                received.append(value)

        parallel_region(body, num_threads=3)
        assert received == [123, 123, 123]

    def test_master_no_broadcast_skips_waiting(self):
        received = []
        lock = threading.Lock()

        def body():
            value = MasterRegion("m").run(lambda: 7, broadcast=False)
            with lock:
                received.append(value)

        parallel_region(body, num_threads=3)
        assert received.count(7) == 1
        assert received.count(None) == 2

    def test_repeated_single_uses_fresh_slots(self):
        values = []
        lock = threading.Lock()

        def body():
            for i in range(3):
                v = SingleRegion("loop").run(lambda i=i: i * 10)
                with lock:
                    values.append(v)

        parallel_region(body, num_threads=2)
        assert sorted(values) == [0, 0, 10, 10, 20, 20]

    def test_sequential_semantics_outside_region(self):
        assert SingleRegion().run(lambda: 5) == 5
        assert MasterRegion().run(lambda: 6) == 6

    def test_single_propagates_producer_exception(self):
        def body():
            SingleRegion("err").run(lambda: (_ for _ in ()).throw(ValueError("bad")))

        with pytest.raises(Exception):
            parallel_region(body, num_threads=2)


class TestOrdered:
    def test_ordered_region_enforces_iteration_order(self):
        order = []

        def loop(start, end, step):
            for i in range(start, end, step):
                ordered_call(i, lambda i=i: order.append(i))

        def body():
            run_for(loop, 0, 16, 1, schedule="staticCyclic", ordered=True)

        parallel_region(body, num_threads=4)
        assert order == list(range(16))

    def test_ordered_outside_loop_runs_directly(self):
        assert ordered_call(3, lambda: "ok") == "ok"

    def test_ordered_region_rejects_foreign_iterations(self):
        region = OrderedRegion(0, 10, 2)
        with pytest.raises(Exception):
            region.run(1, lambda: None)

    def test_skip_advances_ticket(self):
        region = OrderedRegion(0, 3, 1)
        seen = []
        region.run(0, lambda: seen.append(0))
        region.skip(1)
        region.run(2, lambda: seen.append(2))
        assert seen == [0, 2]

    def test_install_returns_previous(self):
        def body():
            region = OrderedRegion(0, 4, 1)
            previous = install_ordered_region(region)
            assert previous is None
            again = install_ordered_region(None)
            assert again is region

        parallel_region(body, num_threads=1)


class TestThreadLocalStore:
    def test_first_read_initialises_from_shared(self):
        store = ThreadLocalStore()
        owner = object()
        store.set_shared(owner, "x", 10)
        assert store.read(owner, "x") == 10

    def test_write_then_read_is_local(self):
        store = ThreadLocalStore()
        owner = object()
        store.set_shared(owner, "x", 1)
        store.write(owner, "x", 99)
        assert store.read(owner, "x") == 99
        assert store.get_shared(owner, "x") == 1

    def test_locals_are_per_team_thread(self):
        store = ThreadLocalStore()
        owner = object()
        store.set_shared(owner, "x", 0)
        observed = {}
        lock = threading.Lock()

        def body():
            tid = ctx.get_thread_id()
            store.write(owner, "x", tid * 100)
            with lock:
                observed[tid] = store.read(owner, "x")

        parallel_region(body, num_threads=4)
        assert observed == {0: 0, 1: 100, 2: 200, 3: 300}
        assert len(store.local_values(owner, "x")) == 4

    def test_copy_function_prevents_aliasing(self):
        store = ThreadLocalStore()
        owner = object()
        shared = [1, 2, 3]
        store.set_shared(owner, "data", shared)
        local = store.read(owner, "data", copy=list)
        local.append(4)
        assert store.get_shared(owner, "data") == [1, 2, 3]

    def test_reduce_merges_locals_into_shared(self):
        store = ThreadLocalStore()
        owner = object()
        store.set_shared(owner, "total", 0)

        def body():
            store.write(owner, "total", ctx.get_thread_id() + 1)

        parallel_region(body, num_threads=4)
        merged = store.reduce(owner, "total", SumReducer())
        assert merged == 1 + 2 + 3 + 4
        assert store.get_shared(owner, "total") == 10
        assert store.local_values(owner, "total") == []

    def test_reduce_empty_raises(self):
        store = ThreadLocalStore()
        with pytest.raises(ReductionError):
            store.reduce(object(), "missing", SumReducer(), include_shared=False)

    def test_reducers(self):
        assert SumReducer().merge(2, 3) == 5
        assert ListReducer().merge([1], [2, 3]) == [1, 2, 3]
        import numpy as np

        reducer = ArrayReducer(shape=(3,))
        merged = reducer.merge(np.ones(3), np.full(3, 2.0))
        assert merged.tolist() == [3.0, 3.0, 3.0]
        assert reducer.identity().tolist() == [0.0, 0.0, 0.0]
        custom = CallableReducer(max, identity_value=float("-inf"))
        assert custom.merge(3, 7) == 7
        assert reduce_values([1, 2, 3], SumReducer()) == 6
        with pytest.raises(ReductionError):
            reduce_values([], SumReducer())


class TestTasks:
    def test_spawn_and_join(self):
        handle = spawn_task(lambda x: x * 2, 21)
        assert handle.join(timeout=5) == 42
        assert handle.done

    def test_future_result_blocks_until_ready(self):
        gate, started, handoff = threading.Event(), threading.Event(), threading.Event()

        def slow():
            started.set()
            gate.wait(5)
            return "ready"

        def body():
            if ctx.get_thread_id() == 1:
                assert handoff.wait(5)  # then take the future's task in the drain
                return None
            future = spawn_future(slow)
            handoff.set()
            assert started.wait(5)
            assert not future.ready
            gate.set()
            value = future.get(timeout=5)
            assert future.ready
            return value

        try:
            assert parallel_region(body, num_threads=2, backend="threads") == "ready"
        finally:
            gate.set()

    def test_task_wait_joins_outstanding_tasks(self):
        def body():
            pool = TaskPool.for_team(ctx.current_team())
            for i in range(5):
                pool.spawn(lambda i=i: i)
            assert pool.outstanding == 5
            results = pool.wait_all(timeout=5)
            assert pool.outstanding == 0
            return results

        assert parallel_region(body, num_threads=2, backend="threads") == [0, 1, 2, 3, 4]

    def test_task_failure_wrapped(self):
        def failing():
            raise ValueError("nope")

        handle = spawn_task(failing)
        with pytest.raises(TaskError) as excinfo:
            handle.join(timeout=5)
        assert isinstance(excinfo.value.cause, ValueError)

    def test_task_wait_in_region_scope(self):
        results = []
        lock = threading.Lock()

        def body():
            spawn_task(lambda: ctx.get_thread_id())
            finished = task_wait(timeout=5)
            with lock:
                results.extend(finished)

        parallel_region(body, num_threads=3)
        assert len(results) == 3
