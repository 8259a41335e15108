"""Tests for the work-stealing task runtime: deques, pools, dependencies, taskloop.

Mirrors the cross-backend conformance pattern of ``test_team.py``: the same
taskloop program must produce identical results under the serial, thread and
process backends, with steal activity visible in traces where tracing exists.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.runtime import context as ctx
from repro.runtime import shm
from repro.runtime.backend import backend_by_name, set_backend
from repro.runtime.exceptions import BrokenTeamError, TaskError
from repro.runtime.tasks import (
    TaskHandle,
    TaskPool,
    WorkStealingDeque,
    _HeapTaskLoopState,
    resolve_grainsize,
    run_taskloop,
    spawn_task,
    task_wait,
)
from repro.runtime.team import Team, parallel_region
from repro.runtime.trace import EventKind, TraceRecorder

#: every backend the conformance suite asserts identical behaviour on
CONFORMANCE_BACKENDS = ("serial", "threads", "processes", "distributed")


class TestWorkStealingDeque:
    def test_owner_lifo_thief_fifo(self):
        dq = WorkStealingDeque()
        for item in (1, 2, 3):
            dq.push(item)
        assert dq.steal() == 1  # thief takes the oldest
        assert dq.pop() == 3   # owner takes the newest
        assert dq.pop() == 2
        assert dq.pop() is None
        assert dq.steal() is None

    def test_len_and_bool(self):
        dq = WorkStealingDeque()
        assert not dq and len(dq) == 0
        dq.push("t")
        assert dq and len(dq) == 1

    def test_concurrent_pop_and_steal_take_each_item_once(self):
        dq = WorkStealingDeque()
        total = 2000
        for i in range(total):
            dq.push(i)
        taken: list[int] = []
        lock = threading.Lock()

        def drain(op):
            got = []
            while True:
                item = op()
                if item is None:
                    if not dq:
                        break
                    continue
                got.append(item)
            with lock:
                taken.extend(got)

        thief = threading.Thread(target=drain, args=(dq.steal,))
        thief.start()
        drain(dq.pop)
        thief.join()
        assert sorted(taken) == list(range(total))


class TestTaskHandleJoin:
    def test_failure_chains_cause_and_spawn_site(self):
        def failing():
            raise ValueError("nope")

        handle = spawn_task(failing)
        with pytest.raises(TaskError) as excinfo:
            handle.join(timeout=5)
        err = excinfo.value
        assert isinstance(err.cause, ValueError)
        assert err.__cause__ is err.cause  # chained, not just stored
        # The spawn site (this test function) is attached to the message.
        assert "test_tasks.py" in str(err)
        assert "test_failure_chains_cause_and_spawn_site" in str(err)

    def test_second_join_reraises_consistently(self):
        def failing():
            raise ValueError("boom")

        handle = spawn_task(failing)
        with pytest.raises(TaskError) as first:
            handle.join(timeout=5)
        with pytest.raises(TaskError) as second:
            handle.join(timeout=5)
        # Both raises carry the same original exception and equivalent context.
        assert first.value.cause is second.value.cause
        assert isinstance(second.value.__cause__, ValueError)
        assert str(first.value) == str(second.value)

    def test_spawn_site_skips_aspect_machinery(self):
        """A task spawned through a woven @Task reports the user's call site."""
        from repro.core import TaskAspect, Weaver, call

        class App:
            def explode(self):
                raise ValueError("woven boom")

        weaver = Weaver()
        weaver.weave(TaskAspect(call("App.explode")), App)
        try:
            handle = App().explode()
            with pytest.raises(TaskError) as excinfo:
                handle.join(timeout=5)
        finally:
            weaver.unweave_all()
        message = str(excinfo.value)
        assert "test_tasks.py" in message
        assert "aspects/execution.py" not in message

    def test_join_timeout_still_raises(self):
        gate = threading.Event()
        handle = spawn_task(lambda: gate.wait(5))
        with pytest.raises(TaskError):
            handle.join(timeout=0.05)
        gate.set()
        assert handle.join(timeout=5) is True


class TestDependencies:
    def test_chain_executes_in_order(self):
        pool = TaskPool(workers=2, name="deps-chain")
        try:
            order: list[int] = []
            lock = threading.Lock()

            def step(i):
                with lock:
                    order.append(i)

            handle = pool.spawn(step, 0)
            for i in range(1, 6):
                handle = pool.spawn(step, i, depends=[handle])
            handle.join(timeout=10)
            assert order == [0, 1, 2, 3, 4, 5]
        finally:
            pool.shutdown()

    def test_diamond_runs_sink_last(self):
        pool = TaskPool(workers=3, name="deps-diamond")
        try:
            seen: list[str] = []
            lock = threading.Lock()

            def mark(label):
                with lock:
                    seen.append(label)

            top = pool.spawn(mark, "top")
            left = pool.spawn(mark, "left", depends=[top])
            right = pool.spawn(mark, "right", depends=[top])
            sink = pool.spawn(mark, "sink", depends=[left, right])
            sink.join(timeout=10)
            assert seen[0] == "top" and seen[-1] == "sink"
            assert set(seen) == {"top", "left", "right", "sink"}
        finally:
            pool.shutdown()

    def test_completed_dependency_does_not_defer(self):
        pool = TaskPool(workers=2, name="deps-done")
        try:
            done = pool.spawn(lambda: "first")
            done.join(timeout=5)
            dependent = pool.spawn(lambda: "second", depends=[done])
            assert dependent.join(timeout=5) == "second"
        finally:
            pool.shutdown()

    def test_failed_dependency_still_releases_dependent(self):
        pool = TaskPool(workers=2, name="deps-failed")
        try:
            def failing():
                raise RuntimeError("dep failed")

            dep = pool.spawn(failing)
            dependent = pool.spawn(lambda: "ran anyway", depends=[dep])
            assert dependent.join(timeout=5) == "ran anyway"
            with pytest.raises(TaskError):
                dep.join(timeout=5)
        finally:
            pool.shutdown()

    def test_slow_cross_pool_dependency_is_not_misreported_as_stuck(self):
        """Waiting on another pool's still-running task must not raise.

        Regression test: the stuck detector used to sample only the local
        pool's counters, flagging a slow external dependency as a cycle.
        """
        gate = threading.Event()
        external = TaskPool(workers=1, name="external")
        releaser = threading.Timer(0.25, gate.set)
        try:
            slow = external.spawn(lambda: gate.wait(10) and "slow done")
            results = []

            def body():
                if ctx.get_thread_id() == 0:
                    dependent = spawn_task(lambda: "released", depends=[slow])
                    releaser.start()
                    # join() sits in the help loop for ~250 ms — far longer
                    # than the detector's sampling window — while the only
                    # runnable work lives in the external pool.
                    results.append(dependent.join(timeout=10))

            parallel_region(body, num_threads=2, backend="threads")
            assert results == ["released"]
        finally:
            gate.set()
            releaser.cancel()
            external.shutdown()

    def test_unsatisfiable_dependency_detected_in_region(self):
        never_done = TaskHandle("external")  # nothing will ever complete this

        def body():
            spawn_task(lambda: "blocked", depends=[never_done])
            task_wait(timeout=10)

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=2, backend="threads")
        assert isinstance(excinfo.value.__cause__, TaskError)
        assert "stuck" in str(excinfo.value.__cause__)


class TestTeamTaskPool:
    def test_members_share_one_pool(self):
        pools = []
        lock = threading.Lock()

        def body():
            with lock:
                pools.append(TaskPool.for_team(ctx.current_team()))

        parallel_region(body, num_threads=3, backend="threads")
        assert len(pools) == 3
        assert all(p is pools[0] for p in pools)

    def test_unwaited_tasks_finish_before_region_ends(self):
        executed = []
        lock = threading.Lock()

        def body():
            tid = ctx.get_thread_id()
            spawn_task(lambda: (lock.acquire(), executed.append(tid), lock.release()))
            # No task_wait: the implicit end-of-region drain must run it.

        parallel_region(body, num_threads=3, backend="threads")
        assert sorted(executed) == [0, 1, 2]

    def test_task_wait_joins_only_own_scope(self):
        results = {}
        lock = threading.Lock()

        def body():
            tid = ctx.get_thread_id()
            spawn_task(lambda t=tid: t * 10)
            finished = task_wait(timeout=10)
            with lock:
                results[tid] = finished

        parallel_region(body, num_threads=3, backend="threads")
        assert results == {0: [0], 1: [10], 2: [20]}

    def test_join_inside_region_participates_in_stealing(self):
        """A member blocked in join() executes other queued tasks meanwhile."""
        ran_by: dict[str, int] = {}
        lock = threading.Lock()

        def body():
            tid = ctx.get_thread_id()
            if tid == 0:
                def record():
                    with lock:
                        ran_by["task"] = ctx.get_thread_id()

                handle = spawn_task(record)
                handle.join(timeout=10)

        parallel_region(body, num_threads=2, backend="threads")
        # The task was executed by whoever got to it — crucially, join()
        # returned because *someone* (possibly the joiner itself) ran it.
        assert "task" in ran_by


class TestTaskloopConformance:
    """Same taskloop program, identical results on every backend."""

    N = 97

    def _run(self, backend_name: str) -> np.ndarray:
        array = shm.shared_zeros(self.N)
        try:
            def tile_body(start, end, step):
                for i in range(start, end, step):
                    array[i] = i * 3.0 + 1.0

            def body():
                run_taskloop(tile_body, 0, self.N, 1, grainsize=5)

            previous = set_backend(backend_by_name(backend_name))
            try:
                parallel_region(body, num_threads=3)
            finally:
                set_backend(previous)
            return np.asarray(array).copy()
        finally:
            array.close()

    @pytest.mark.parametrize("backend_name", CONFORMANCE_BACKENDS)
    def test_matches_sequential_reference(self, backend_name):
        reference = np.arange(self.N) * 3.0 + 1.0
        assert np.array_equal(self._run(backend_name), reference)

    def test_all_backends_agree(self):
        runs = {name: self._run(name) for name in CONFORMANCE_BACKENDS}
        for name, result in runs.items():
            assert np.array_equal(result, runs["serial"]), name


class TestTaskloopExecution:
    def test_sequential_semantics_outside_region(self):
        seen = []
        run_taskloop(lambda s, e, st: seen.append((s, e, st)), 0, 30, 1, grainsize=4)
        assert seen == [(0, 30, 1)]  # one untouched full-range call

    def test_each_iteration_executed_exactly_once(self):
        counts = np.zeros(200, dtype=np.int64)
        lock = threading.Lock()

        def tile_body(start, end, step):
            with lock:
                for i in range(start, end, step):
                    counts[i] += 1

        def body():
            run_taskloop(tile_body, 0, 200, 1, grainsize=3)

        parallel_region(body, num_threads=4, backend="threads")
        assert counts.tolist() == [1] * 200

    def test_step_and_negative_ranges(self):
        for start, end, step in ((0, 50, 3), (50, 0, -7), (5, 5, 1)):
            expected = list(range(start, end, step))
            seen: list[int] = []
            lock = threading.Lock()

            def tile_body(s, e, st):
                with lock:
                    seen.extend(range(s, e, st))

            def body():
                run_taskloop(tile_body, start, end, step, grainsize=2)

            parallel_region(body, num_threads=3, backend="threads")
            assert sorted(seen) == sorted(expected), (start, end, step)

    def test_solo_member_steals_absent_members_tiles(self):
        """Deterministic stealing: member 0 of a 2-member team drains alone."""
        recorder = TraceRecorder()
        team = Team(2, name="steal-harness", recorder=recorder)
        frame = ctx.ExecutionContext(team=team, thread_id=0, nesting_level=0)
        executed = []
        ctx.push_context(frame)
        try:
            run_taskloop(
                lambda s, e, st: executed.extend(range(s, e, st)),
                0, 24, 1, grainsize=2, nowait=True,
            )
        finally:
            ctx.pop_context()
        assert sorted(executed) == list(range(24))
        steals = recorder.events(EventKind.TASK_STEAL)
        # 12 tiles, member 0 owned 6: the other 6 must appear as steals.
        assert len(steals) == 6
        assert all(event.data["victim"] == 1 for event in steals)
        spawns = recorder.events(EventKind.TASK_SPAWN)
        assert spawns and spawns[0].data["count"] == 6
        chunks = recorder.events(EventKind.CHUNK)
        assert len(chunks) == 12
        covered = sorted(i for e in chunks for i in range(e.data["start"], e.data["end"], e.data["step"]))
        assert covered == list(range(24))

    def test_steals_recorded_in_real_two_thread_run(self):
        recorder = TraceRecorder()
        uneven = threading.Event()

        def tile_body(start, end, step):
            # Member 0's first tile is slow, forcing member 1 to steal the rest.
            if start == 0 and not uneven.is_set():
                uneven.set()
                time.sleep(0.05)

        def body():
            run_taskloop(tile_body, 0, 40, 1, grainsize=1)

        parallel_region(body, num_threads=2, backend="threads", recorder=recorder)
        chunks = recorder.events(EventKind.CHUNK)
        covered = sorted(i for e in chunks for i in range(e.data["start"], e.data["end"], e.data["step"]))
        assert covered == list(range(40))
        # With one member stalled, the other must have stolen at least once.
        assert len(recorder.events(EventKind.TASK_STEAL)) >= 1

    def test_tasks_spawned_inside_tiles_finish_by_region_end(self):
        spawned_results = []
        lock = threading.Lock()

        def tile_body(start, end, step):
            for i in range(start, end, step):
                spawn_task(lambda i=i: (lock.acquire(), spawned_results.append(i), lock.release()))

        def body():
            run_taskloop(tile_body, 0, 12, 1, grainsize=4)

        parallel_region(body, num_threads=2, backend="threads")
        assert sorted(spawned_results) == list(range(12))

    def test_failing_tile_breaks_the_team_instead_of_hanging(self):
        """A tile body that raises must surface BrokenTeamError, not livelock.

        Regression test: the failing member used to skip mark_done, leaving
        siblings spinning forever on an incomplete deck.
        """
        def tile_body(start, end, step):
            if start == 0:
                raise ValueError("tile exploded")

        def body():
            run_taskloop(tile_body, 0, 20, 1, grainsize=2)

        with pytest.raises(BrokenTeamError):
            parallel_region(body, num_threads=2, backend="threads")

    def test_empty_range_is_a_barrier_only(self):
        def body():
            run_taskloop(lambda s, e, st: pytest.fail("must not run"), 0, 0, 1)
            return ctx.get_thread_id()

        assert parallel_region(body, num_threads=2, backend="threads") == 0


class TestGrainsize:
    def test_explicit_grainsize_wins(self):
        assert resolve_grainsize(100, 4, grainsize=7, num_tasks=3) == 7

    def test_num_tasks_divides_space(self):
        assert resolve_grainsize(100, 4, grainsize=None, num_tasks=10) == 10

    def test_default_tiles_per_member(self):
        grain = resolve_grainsize(640, 4, None, None)
        assert grain == 20  # 8 tiles/member * 4 members = 32 tiles of 20

    def test_small_loops_never_produce_empty_tiles(self):
        assert resolve_grainsize(3, 4, None, None) == 1

    def test_invalid_grainsize_rejected(self):
        with pytest.raises(ValueError):
            resolve_grainsize(10, 2, grainsize=0, num_tasks=None)


class TestHeapTaskLoopState:
    def test_partition_matches_block_distribution(self):
        state = _HeapTaskLoopState(3, 8)  # blocks: 3, 3, 2
        assert [state.claim_local(0) for _ in range(3)] == [0, 1, 2]
        assert [state.claim_local(1) for _ in range(3)] == [3, 4, 5]
        assert [state.claim_local(2) for _ in range(2)] == [6, 7]
        assert state.claim_local(0) is None

    def test_steal_takes_from_victims_tail(self):
        state = _HeapTaskLoopState(2, 8)  # member 1 owns tiles 4..7
        victim, tile = state.claim_steal(0)
        assert (victim, tile) == (1, 7)
        victim, tile = state.claim_steal(0)
        assert (victim, tile) == (1, 6)

    def test_finished_tracks_completions(self):
        state = _HeapTaskLoopState(2, 3)
        assert not state.finished()
        for _ in range(3):
            state.mark_done()
        assert state.finished()


class TestTaskStealArena:
    def test_layout_claims_and_steals(self):
        arena = shm.TaskStealArena(max_workers=4, capacity=8)
        slot = arena.slot(0, num_workers=2, ntiles=10)  # blocks: 5, 5
        assert [slot.claim_local(0) for _ in range(5)] == [0, 1, 2, 3, 4]
        assert slot.claim_local(0) is None
        assert slot.claim_steal(0) == (1, 9)  # victim's tail, descending
        assert slot.claim_steal(0) == (1, 8)
        assert slot.claim_local(1) == 5  # owner still ascends from its head

    def test_completion_counter(self):
        arena = shm.TaskStealArena(max_workers=2, capacity=8)
        slot = arena.slot(3, num_workers=2, ntiles=4)
        assert not slot.finished()
        for _ in range(4):
            slot.mark_done()
        assert slot.finished()

    def test_slots_recycle_by_ordinal_tag(self):
        # With capacity 8 every level-0 ordinal maps to the same cell; a new
        # ordinal arriving on a recycled cell must re-seed the deck.
        arena = shm.TaskStealArena(max_workers=2, capacity=8)
        first = arena.slot(0, num_workers=2, ntiles=4)
        assert first.claim_local(0) == 0
        recycled = arena.slot(2, num_workers=2, ntiles=6)
        assert recycled.claim_local(0) == 0
        assert recycled.claim_steal(0) == (1, 5)

    def test_levels_keep_separate_decks(self):
        # The same ordinal at different team levels must never share a deck.
        arena = shm.TaskStealArena(max_workers=2, capacity=16)
        outer = arena.slot(0, num_workers=2, ntiles=4, level=0)
        inner = arena.slot(0, num_workers=2, ntiles=6, level=1)
        assert outer.claim_local(0) == 0
        assert inner.claim_local(0) == 0
        assert outer.claim_local(0) == 1
        assert inner.claim_steal(0) == (1, 5)

    def test_attach_is_idempotent_across_members(self):
        arena = shm.TaskStealArena(max_workers=2, capacity=8)
        one = arena.slot(1, num_workers=2, ntiles=4)
        assert one.claim_local(0) == 0
        # A sibling member attaching the same ordinal must not re-seed.
        again = arena.slot(1, num_workers=2, ntiles=4)
        assert again.claim_local(0) == 1

    def test_oversized_team_rejected(self):
        arena = shm.TaskStealArena(max_workers=2, capacity=8)
        with pytest.raises(ValueError):
            arena.slot(0, num_workers=3, ntiles=6)

    def test_reset_frees_all_slots(self):
        arena = shm.TaskStealArena(max_workers=2, capacity=8)
        slot = arena.slot(1, num_workers=2, ntiles=4)
        slot.mark_done(4)
        arena.reset()
        fresh = arena.slot(1, num_workers=2, ntiles=4)
        assert not fresh.finished()


class TestProcessTeamTasks:
    def test_spawned_closures_execute_within_their_member(self):
        """On a process team each member's spawns run in its own process."""
        array = shm.shared_zeros(3)
        try:
            def body():
                tid = ctx.get_thread_id()
                spawn_task(lambda: array.np.__setitem__(tid, tid + 1.0))
                task_wait(timeout=30)

            parallel_region(body, num_threads=3, backend="processes")
            assert np.asarray(array).tolist() == [1.0, 2.0, 3.0]
        finally:
            array.close()
