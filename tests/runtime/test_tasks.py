"""Tests for the work-stealing task runtime: deques, pools, taskloop.

Mirrors the cross-backend conformance pattern of ``test_team.py``: the same
taskloop program must produce identical results under the serial, thread and
process backends, with steal activity visible in traces where tracing exists.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import context as ctx
from repro.runtime import shm
from repro.runtime.backend import backend_by_name, set_backend
from repro.runtime.exceptions import BrokenTeamError, TaskError
from repro.runtime.tasks import (
    TaskPool,
    WorkStealingDeque,
    resolve_grainsize,
    run_taskloop,
    spawn_future,
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
        for item in (1, 2, 3, 4):
            dq.push(item)
        assert dq.steal() == 1  # thief takes the oldest
        assert dq.remove(3) and not dq.remove(3)  # a waiter takes its own task once
        assert dq.pop() == 4   # owner takes the newest
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


def handed_off(master, *, num_threads=2):
    """Run ``master(handoff)`` as member 0 of a threads team.  The other
    members wait for ``handoff.set()`` and then enter the end-of-region drain,
    so they take what member 0 queued before setting it while member 0 itself
    stays in plain waits, which are no scheduling point."""
    handoff = threading.Event()

    def body():
        if ctx.get_thread_id() != 0:
            assert handoff.wait(10)
            return None
        try:
            return master(handoff)
        finally:
            handoff.set()

    return parallel_region(body, num_threads=num_threads, backend="threads")


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
        """The implicit task's join times out on a task another member runs."""
        gate, started = threading.Event(), threading.Event()

        def master(handoff):
            handle = spawn_task(lambda: started.set() or gate.wait(5))
            handoff.set()
            assert started.wait(5)
            with pytest.raises(TaskError, match="did not complete within 0.05s"):
                handle.join(timeout=0.05)
            gate.set()
            return handle.join(timeout=5)

        assert handed_off(master) is True


class TestUndeferredOutsideRegion:
    """Outside any region a task runs at once on the caller (OpenMP's
    implicit team of one thread)."""

    def test_spawn_runs_the_body_and_task_wait_keeps_the_contract(self):
        ran_on = []

        def work(i):
            ran_on.append(threading.get_ident())
            if i == 2:
                raise KeyError("third")
            return i * 10

        handles = []
        for i in range(4):
            handles.append(spawn_task(work, i))
        assert all(handle.done for handle in handles)
        assert ran_on == [threading.get_ident()] * 4
        assert handles[3].join() == 30  # joined: task_wait no longer returns it
        with pytest.raises(TaskError) as excinfo:
            task_wait()
        assert isinstance(excinfo.value.cause, KeyError)
        assert "test_spawn_runs_the_body_and_task_wait_keeps_the_contract" in str(excinfo.value)
        assert task_wait() == []  # the failed wait consumed the list
        for i in (5, 6):
            spawn_task(work, i)
        assert task_wait() == [50, 60]

    def test_a_task_waits_only_on_its_own_spawns(self):
        def parent():
            spawn_task(lambda: "child")
            return task_wait()

        spawn_task(lambda: "before")
        handle = spawn_task(parent)
        assert handle.join() == ["child"]
        assert task_wait() == ["before"]

    def test_an_interrupt_in_the_body_propagates_from_spawn(self):
        def interrupted():
            raise KeyboardInterrupt

        spawn_task(lambda: "before")
        with pytest.raises(KeyboardInterrupt):
            spawn_task(interrupted)
        with pytest.raises(SystemExit):
            spawn_future(sys.exit, 3)
        assert task_wait() == ["before"]  # neither interrupted task was kept

    def test_a_future_is_ready_when_spawned(self):
        future = spawn_future(lambda: "value")
        assert future.ready
        assert task_wait() == ["value"]
        assert future.get() == "value"


class TestOrderingByJoins:
    """Task order is expressed by joining a spawned task's handle (the
    paper's ``@FutureResult`` getter).  Only a member's implicit task helps
    with arbitrary work while it waits; a join inside a task runs the joined
    task itself if it is still queued and otherwise sleeps, so no task is ever
    stacked above a task that waits for it."""

    def test_chain_executes_in_order(self):
        order: list[int] = []

        def step(i):
            order.append(i)
            if i < 5:
                spawn_task(step, i + 1).join(timeout=10)

        def master(handoff):
            spawn_task(step, 0).join(timeout=10)
            return TaskPool.for_team(ctx.current_team()).pending

        assert handed_off(master) == 0
        assert order == [0, 1, 2, 3, 4, 5]

    def test_diamond_runs_sink_last(self):
        seen: list[str] = []
        lock = threading.Lock()

        def mark(label):
            with lock:
                seen.append(label)

        def top():
            mark("top")
            branches = [spawn_task(mark, "left"), spawn_task(mark, "right")]
            for branch in branches:
                branch.join(timeout=10)
            spawn_task(mark, "sink").join(timeout=10)

        def master(handoff):
            handle = spawn_task(top)
            handoff.set()
            handle.join(timeout=10)

        handed_off(master, num_threads=3)
        assert seen[0] == "top" and seen[-1] == "sink"
        assert set(seen) == {"top", "left", "right", "sink"}

    def test_joining_a_finished_task_returns_its_result(self):
        def master(handoff):
            done = spawn_task(lambda: "first")
            assert done.join(timeout=5) == "first"
            later = spawn_task(lambda: done.join(timeout=5) + " then second")
            handoff.set()
            return later.join(timeout=5)

        assert handed_off(master) == "first then second"

    def test_failed_task_does_not_stop_a_later_task(self):
        def failing():
            raise RuntimeError("first failed")

        def master(handoff):
            first = spawn_task(failing)
            later = spawn_task(lambda: "ran anyway")
            handoff.set()
            assert later.join(timeout=5) == "ran anyway"
            with pytest.raises(TaskError):
                first.join(timeout=5)

        handed_off(master)

    def test_join_on_a_slow_task_of_another_member_returns(self):
        """A join inside a task waits out a task another member is running:
        nothing is queued meanwhile, so the join must sleep until the
        completion wakes it, not give up."""
        gate, started = threading.Event(), threading.Event()
        releaser = threading.Timer(0.25, gate.set)

        def master(handoff):
            slow = spawn_task(lambda: started.set() or gate.wait(10) and "slow done")
            handoff.set()
            assert started.wait(5)
            after = spawn_task(lambda: slow.join(timeout=10) + ", then released")
            releaser.start()
            return after.join(timeout=10)

        try:
            assert handed_off(master) == "slow done, then released"
        finally:
            gate.set()
            releaser.cancel()

    def test_sibling_chain_spawned_by_one_member_finishes(self):
        """Six tasks, each joining its predecessor's handle.  On a pool whose
        every waiter helped with any queued task, a worker could stack a task
        above the sibling it waits on, and both waited out their timeouts."""
        order: list[int] = []

        def link(handles, i):
            if i:
                handles[i - 1].join(timeout=10)
            order.append(i)
            return i

        def master(handoff):
            handles: list = []
            for i in range(6):
                handles.append(spawn_task(link, handles, i))
            handoff.set()
            return task_wait(timeout=10)

        began = time.monotonic()
        assert handed_off(master) == [0, 1, 2, 3, 4, 5]
        assert order == [0, 1, 2, 3, 4, 5]
        assert time.monotonic() - began < 5

    def test_a_task_waiting_on_its_child_stacks_no_unrelated_task(self):
        """Three members.  Task S spawns a child c, which member 2 steals; S
        then waits for c.  A task T that joins S sits queued on member 1.  If
        S's wait helped with any queued task it would run T above itself on
        member 0, and T would wait for S forever."""
        events = {name: threading.Event() for name in ("S started", "c spawned", "c started", "T spawned", "T started")}
        handles: dict = {}
        ran_on: dict = {}

        def child():
            ran_on["c"] = ctx.get_thread_id()
            events["c started"].set()
            assert events["T spawned"].wait(5)
            time.sleep(0.05)  # still running while S waits on it
            return "c"

        def s_task():
            ran_on["S"] = ctx.get_thread_id()
            events["S started"].set()
            spawn_task(child)
            events["c spawned"].set()
            assert events["c started"].wait(5) and events["T spawned"].wait(5)
            return task_wait(timeout=10)

        def t_task():
            events["T started"].set()
            ran_on["T"] = ctx.get_thread_id()
            return handles["S"].join(timeout=10)

        def body():
            tid = ctx.get_thread_id()
            if tid == 0:
                handles["S"] = spawn_task(s_task)
                return task_wait(timeout=10)
            if tid == 1:
                assert events["S started"].wait(5)
                handles["T"] = spawn_task(t_task)
                events["T spawned"].set()
                assert events["T started"].wait(10)  # keep T queued until someone takes it
            else:
                assert events["c spawned"].wait(5)  # then steal c from member 0
            return None

        began = time.monotonic()
        assert parallel_region(body, num_threads=3, backend="threads") == [["c"]]
        assert handles["T"].join() == ["c"]
        assert ran_on["S"] == 0 and ran_on["c"] == 2
        assert time.monotonic() - began < 5


class TestSchedulingPointWaits:
    """The waits behind join, wait_all and drain."""

    def test_join_timeout_inside_a_task_raises_while_the_task_runs(self):
        gate, started = threading.Event(), threading.Event()

        def master(handoff):
            running = spawn_task(lambda: started.set() or gate.wait(10))
            handoff.set()
            assert started.wait(5)

            def impatient():
                try:
                    running.join(timeout=0.1)
                except TaskError as err:
                    return str(err)
                return "joined"

            message = spawn_task(impatient).join(timeout=5)
            gate.set()
            return message, running.join(timeout=5)

        try:
            message, result = handed_off(master)
        finally:
            gate.set()
        assert "did not complete within 0.1s" in message
        assert result is True

    def test_wait_all_returns_results_in_spawn_order(self):
        def late(i):
            time.sleep(0.002 * (5 - i))
            return i

        def master(handoff):
            pool = TaskPool.for_team(ctx.current_team())
            for i in range(6):
                pool.spawn(late, i)
            handoff.set()
            assert pool.outstanding == 6
            results = pool.wait_all(timeout=10)
            assert pool.pending == 0
            assert pool.outstanding == 0
            return results

        assert handed_off(master, num_threads=3) == [0, 1, 2, 3, 4, 5]

    def test_wait_all_in_a_member_reraises_the_first_failure(self):
        causes = []

        def body():
            if ctx.get_thread_id() == 0:
                spawn_task(lambda: "fine")
                spawn_task(lambda: 1 / 0)
                try:
                    task_wait(timeout=10)
                except TaskError as err:
                    causes.append(type(err.cause))

        parallel_region(body, num_threads=2, backend="threads")
        assert causes == [ZeroDivisionError]

    def test_tasks_spawned_by_tasks_are_drained_at_region_end(self):
        hits = []
        lock = threading.Lock()

        def leaf(tid, depth):
            with lock:
                hits.append((tid, depth))
            if depth < 3:
                spawn_task(leaf, tid, depth + 1)
                spawn_task(leaf, tid, depth + 1)

        def body():
            spawn_task(leaf, ctx.get_thread_id(), 0)
            # No waits anywhere: the end-of-region drain must chase every
            # generation of children, each spawned while the drain runs.

        parallel_region(body, num_threads=3, backend="threads")
        assert len(hits) == 3 * (1 + 2 + 4 + 8)
        for tid in range(3):
            assert sorted(d for t, d in hits if t == tid) == [0] + [1] * 2 + [2] * 4 + [3] * 8

    def test_drain_waits_for_a_task_another_member_is_running(self):
        started = threading.Event()
        finished = []

        def slow():
            started.set()
            time.sleep(0.2)
            finished.append(True)

        def body():
            if ctx.get_thread_id() == 0:
                spawn_task(slow)
            else:
                # Reach the drain only once the task runs: nothing is queued,
                # so this member's drain sleeps until the completion wakes it.
                assert started.wait(10)

        parallel_region(body, num_threads=2, backend="threads")
        assert finished == [True]

    def test_a_spawn_wakes_a_member_asleep_in_the_drain(self):
        """A running task's child starts at once on the member asleep in the
        drain, not at that member's next poll (50 ms)."""
        delays = []

        def trial():
            child_started = threading.Event()

            def child(spawned_at):
                delays.append(time.perf_counter() - spawned_at)
                child_started.set()

            def parent():
                time.sleep(0.02)  # the other member goes to sleep in the drain
                spawn_task(child, time.perf_counter())
                assert child_started.wait(1)  # a sleeping parent: no scheduling point

            def master(handoff):
                spawn_task(parent)
                handoff.set()

            handed_off(master)

        for _ in range(9):
            trial()
        assert len(delays) == 9
        assert statistics.median(delays) < 0.005, [f"{d * 1e3:.1f} ms" for d in delays]


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
        """A member blocked in join() from its implicit task executes other
        queued tasks meanwhile."""
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

    def test_only_members_spawn_on_a_team_pool(self):
        pools = []
        parallel_region(lambda: pools.append(TaskPool.for_team(ctx.current_team())), num_threads=1)
        with pytest.raises(TaskError, match="members of its team only"):
            pools[0].spawn(lambda: None)


@st.composite
def task_programs(draw):
    """A random spawn/join DAG.  Node ``i`` is spawned by ``parent[i]`` (-1:
    the member's implicit task), spawns its children in order, then joins
    some handles spawned before its own spawn (earlier siblings of itself or
    of an ancestor) or its own children, and may end with ``task_wait``."""
    n = draw(st.integers(min_value=1, max_value=10))
    parent = [draw(st.integers(min_value=-1, max_value=i - 1)) for i in range(n)]
    children = {p: [i for i in range(n) if parent[i] == p] for p in range(-1, n)}
    visible: dict[int, list[int]] = {-1: []}
    joins = {}
    for i in range(n):  # a parent precedes its children, so visible[parent] is known
        visible[i] = visible[parent[i]] + [s for s in children[parent[i]] if s < i]
        targets = visible[i] + children[i]
        joins[i] = draw(st.lists(st.sampled_from(targets), unique=True)) if targets else []
    waits = [draw(st.booleans()) for _ in range(n)]
    return n, children, joins, waits, draw(st.booleans())


def sequential_values(n, joins):
    values: dict[int, int] = {}

    def value(i):
        if i not in values:
            values[i] = i + 1 + sum(value(j) for j in joins[i])
        return values[i]

    return [value(i) for i in range(n)]


class TestRandomTaskGraphs:
    """Random spawn/join DAGs give the sequential answer on every backend,
    and no wait sticks (a stuck join raises after its timeout)."""

    MEMBERS = {"serial": 1, "threads": 3, "processes": 2}

    @pytest.mark.parametrize("backend_name", sorted(MEMBERS))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(program=task_programs())
    def test_matches_sequential_evaluation(self, backend_name, program, watchdog):
        n, children, joins, waits, root_wait = program
        members = self.MEMBERS[backend_name]
        out = shm.shared_zeros((members, n), np.int64)
        try:
            def node(member, handles, i):
                for c in children[i]:
                    handles[c] = spawn_task(node, member, handles, c)
                total = i + 1 + sum(handles[j].join(timeout=10) for j in joins[i])
                if waits[i]:
                    task_wait(timeout=10)
                out.np[member, i] = total
                return total

            def body():
                member, handles = ctx.get_thread_id(), {}
                for c in children[-1]:
                    handles[c] = spawn_task(node, member, handles, c)
                if root_wait:
                    task_wait(timeout=10)

            watchdog(lambda: parallel_region(body, num_threads=members, backend=backend_name), timeout=30)
            assert out.np.tolist() == [sequential_values(n, joins)] * members
        finally:
            out.close()


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

    def test_more_tasks_than_iterations_gives_one_iteration_tiles(self):
        assert resolve_grainsize(5, 2, grainsize=None, num_tasks=50) == 1
        assert resolve_grainsize(7, 2, grainsize=None, num_tasks=3) == 3

    @pytest.mark.parametrize("num_tasks", [0, -5])
    def test_invalid_num_tasks_rejected(self, num_tasks):
        with pytest.raises(ValueError, match="num_tasks must be >= 1"):
            resolve_grainsize(100, 2, grainsize=None, num_tasks=num_tasks)


class TestHeapTaskLoopState:
    def test_partition_matches_block_distribution(self):
        state = shm.heap_slot(shm.TaskStealArena, 0, 3, 8, max_workers=3)  # blocks: 3, 3, 2
        assert [state.claim_local(0) for _ in range(3)] == [0, 1, 2]
        assert [state.claim_local(1) for _ in range(3)] == [3, 4, 5]
        assert [state.claim_local(2) for _ in range(2)] == [6, 7]
        assert state.claim_local(0) is None

    def test_steal_takes_from_victims_tail(self):
        state = shm.heap_slot(shm.TaskStealArena, 0, 2, 8, max_workers=2)  # member 1 owns tiles 4..7
        victim, tile = state.claim_steal(0)
        assert (victim, tile) == (1, 7)
        victim, tile = state.claim_steal(0)
        assert (victim, tile) == (1, 6)

    def test_finished_tracks_completions(self):
        state = shm.heap_slot(shm.TaskStealArena, 0, 2, 3, max_workers=2)
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

    def test_a_deck_a_later_taskloop_took_over_reads_finished(self):
        # A member still at taskloop 0 once a faster one moved on to ordinal 2
        # (same cell): its deck writes nothing and reads finished, and the
        # new deck keeps every tile.
        arena = shm.TaskStealArena(max_workers=2, capacity=8)
        slow = arena.slot(0, num_workers=2, ntiles=4)
        fast = arena.slot(2, num_workers=2, ntiles=6)
        late = arena.slot(0, num_workers=2, ntiles=4)
        for stale in (slow, late):
            assert stale.claim_local(0) is None and stale.claim_steal(0) is None
            assert stale.mark_done() == 4 and stale.finished()
        assert [fast.claim_local(0) for _ in range(3)] == [0, 1, 2]
        assert fast.claim_steal(0) == (1, 5) and not fast.finished()

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
