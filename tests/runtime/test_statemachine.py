"""Stateful fuzzing of the runtime API with hypothesis rule-based machines.

ROADMAP item 5's harness: a :class:`~hypothesis.stateful.RuleBasedStateMachine`
interleaves parallel regions, workshared loops, explicit tasks, named locks,
nested teams and a master that changes processor in randomised orders — the
lifecycles the example-based conformance suites only exercise in fixed
sequences.  Every rule checks the runtime's core invariants (results identical
to a serial oracle, no leaked execution context, lock registry re-entrant
across regions), so hypothesis shrinks any ordering bug it finds to a minimal
reproducing step sequence.

Backends: serial, threads and the warm ``processes`` pool.  On the pool the
SPMD and loop rules ship a picklable shared-memory body (:class:`Shipped`),
the rules that need one Python heap run their regions on threads between the
pool's, and ``config_between_regions`` changes the configuration a pooled
worker must follow from one region to the next (a worker that kept a stale
``default_schedule`` computed the wrong partition once), and
``failing_body_then_clean_region`` has a member's body die or raise
(:mod:`faultkit`) and the same backend run the next region clean.  The
fork-per-region path gets its own deterministic suite
(``test_recovery.py``); forking per fuzz step would dominate the runtime
without adding interleaving coverage.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule, run_state_machine_as_test

from faultkit import InjectedFault, dies, raises
from repro.runtime import backend as backend_mod
from repro.runtime import context as ctx
from repro.runtime import shm
from repro.runtime.backend import ProcessBackend, SerialBackend, ThreadBackend
from repro.runtime.config import config_override, get_config
from repro.runtime.critical import critical_call
from repro.runtime.exceptions import BrokenTeamError, WorkerProcessError
from repro.runtime.locks import global_locks
from repro.runtime.tasks import spawn_future, spawn_task, task_wait
from repro.runtime.team import parallel_region
from repro.runtime.worksharing import run_for

#: shared tuning: each machine run is a fresh runtime interaction sequence;
#: regions are tiny, so generous step counts stay fast.  The function-scoped
#: fixture health check is suppressed deliberately: the conftest autouse
#: fixture resets *global* runtime state once around the whole test, and the
#: machine's @initialize resets the per-example state hypothesis cares about.
MACHINE_SETTINGS = settings(
    max_examples=40,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


SCHEDULES = ["static_block", "static_cyclic", "dynamic", "guided"]

BACKENDS = ["serial", "threads"] + (["processes"] if shm.fork_available() else [])


class Shipped:
    """A picklable, ``process_safe`` region body whose state is shared memory
    only, so every backend — the pool's workers included — runs it: each
    member records what it sees, then counts the iterations its share of a
    loop covered."""

    process_safe = True

    def __init__(self) -> None:
        self.seen = shm.shared_zeros((4, 4), np.int64)  # per member: seen, team size, level, schedule
        self.hits = shm.shared_zeros(40, np.int64)
        self.span = 0
        self.schedule: "str | None" = None
        self.tasks_per_member = 0

    def observe(self) -> None:
        config = get_config()
        self.seen[ctx.get_thread_id()] = (
            1,
            ctx.get_num_team_threads(),
            ctx.get_level(),
            SCHEDULES.index(config.default_schedule),
        )

    def loop(self) -> None:
        self.observe()
        run_for(self.count, 0, self.span, 1, schedule=self.schedule, loop_name="fuzz.loop")

    def count(self, start: int, end: int, step: int) -> None:
        for i in range(start, end, step):
            self.hits[i] += 1

    def spawn_marks(self) -> None:
        """Spawn one task per cell of this member's block of ``hits`` and
        never wait for them: the end-of-region drain must run them."""
        first = ctx.get_thread_id() * self.tasks_per_member
        for cell in range(first, first + self.tasks_per_member):
            spawn_task(self.mark, cell)

    def mark(self, cell: int) -> None:
        self.hits[cell] += 1

    def reset(self) -> None:
        self.seen.np[:] = 0
        self.hits.np[:] = 0

    def members(self) -> "list[tuple[int, ...]]":
        """``(size, level, schedule)`` of every member that ran, by member id."""
        return [tuple(int(v) for v in row[1:]) for row in self.seen.np if row[0]]

    def close(self) -> None:
        self.seen.close()
        self.hits.close()


class RuntimeLifecycleMachine(RuleBasedStateMachine):
    """Interleave region / loop / task / lock / nested-team lifecycles."""

    def __init__(self) -> None:
        super().__init__()
        self.backend = ThreadBackend()
        #: where regions that need one Python heap run: the backend itself,
        #: or threads between the pool's regions
        self.heap_backend = self.backend
        self.shipped = Shipped()
        self.counter_total = 0  # serial oracle for every counting region run
        #: the processors the fuzz thread (every region's master) may use, the
        #: mask the machine last gave it, and the masks the members of the
        #: last ``move_master`` region ran under
        self.processors = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.master_mask = set(self.processors)
        self.member_masks: "list[set[int]]" = []

    @initialize(backend=st.sampled_from(BACKENDS))
    def pick_backend(self, backend):
        if backend == "processes":
            self.backend, self.heap_backend = ProcessBackend(pool_workers=3), ThreadBackend()
        else:
            self.backend = self.heap_backend = SerialBackend() if backend == "serial" else ThreadBackend()
        # Placement is decided once, by the first thread team, under the
        # whole mask: before any move, whichever backend the rules run on.
        parallel_region(lambda: None, num_threads=2, backend=ThreadBackend(), name="fuzz.prime")

    def teardown(self):
        if self.processors:
            os.sched_setaffinity(0, self.processors)
        if isinstance(self.backend, ProcessBackend):
            self.backend.shutdown()
        self.shipped.close()

    def _team_size(self, num_threads: int) -> int:
        """Members a region of ``num_threads`` gets: a serial team is clamped to one."""
        return 1 if isinstance(self.backend, SerialBackend) else num_threads

    # -- rules ---------------------------------------------------------------

    @rule(num_threads=st.integers(min_value=1, max_value=4))
    def spmd_region(self, num_threads):
        """A bare SPMD region: every member observes a consistent context."""
        self.shipped.reset()
        parallel_region(self.shipped.observe, num_threads=num_threads, backend=self.backend, name="fuzz.spmd")
        size = self._team_size(num_threads)
        schedule = SCHEDULES.index(get_config().default_schedule)
        assert self.shipped.members() == [(size, 1, schedule)] * size

    @rule(
        num_threads=st.integers(min_value=1, max_value=4),
        span=st.integers(min_value=0, max_value=40),
        schedule=st.sampled_from(SCHEDULES),
    )
    def workshared_loop(self, num_threads, span, schedule):
        """run_for must cover [0, span) exactly once under any schedule."""
        self.shipped.reset()
        self.shipped.span, self.shipped.schedule = span, schedule
        parallel_region(self.shipped.loop, num_threads=num_threads, backend=self.backend, name="fuzz.for")
        assert list(self.shipped.hits.np[:span]) == [1] * span

    @rule(
        num_threads=st.integers(min_value=2, max_value=4),
        span=st.integers(min_value=0, max_value=40),
        schedule=st.sampled_from(SCHEDULES),
    )
    def config_between_regions(self, num_threads, span, schedule):
        """A loop under the *configured* schedule, with the configuration
        changed since the last region: every member must run under the new
        one (a warm worker keeps the old one only when nothing changed)."""
        self.shipped.reset()
        self.shipped.span, self.shipped.schedule = span, None
        with config_override(default_schedule=schedule):
            parallel_region(self.shipped.loop, num_threads=num_threads, backend=self.backend, name="fuzz.config")
        size = self._team_size(num_threads)
        assert self.shipped.members() == [(size, 1, SCHEDULES.index(schedule))] * size
        assert list(self.shipped.hits.np[:span]) == [1] * span

    @rule(
        num_threads=st.integers(min_value=2, max_value=4),
        span=st.integers(min_value=0, max_value=40),
        kill=st.booleans(),
    )
    def failing_body_then_clean_region(self, num_threads, span, kill):
        """Member 1's body dies or raises: the region fails naming that as
        its cause, and the next region on the same backend matches serial
        with no worker left behind by the failed one."""
        live_workers = getattr(self.backend, "live_workers", list)
        before = live_workers()
        self.shipped.reset()
        self.shipped.span, self.shipped.schedule = span, "dynamic"
        failing = (dies if kill else raises)(self.shipped.loop, member=1)
        if self._team_size(num_threads) == 1:
            parallel_region(failing.run, num_threads=num_threads, backend=self.backend, name="fuzz.fail")
        else:
            with pytest.raises(BrokenTeamError) as excinfo:
                parallel_region(failing.run, num_threads=num_threads, backend=self.backend, name="fuzz.fail")
            assert isinstance(excinfo.value.__cause__, (InjectedFault, WorkerProcessError))
        self.shipped.reset()
        parallel_region(self.shipped.loop, num_threads=num_threads, backend=self.backend, name="fuzz.after")
        assert list(self.shipped.hits.np[:span]) == [1] * span
        kept = live_workers()
        assert [proc for proc in before if proc.is_alive() and proc not in kept] == []

    @rule(
        num_threads=st.integers(min_value=1, max_value=4),
        increments=st.integers(min_value=1, max_value=8),
    )
    def critical_counter(self, num_threads, increments):
        """Named-lock mutual exclusion matches the serial oracle."""
        cell = {"value": 0}

        def bump():
            cell["value"] += 1

        def body():
            for _ in range(increments):
                critical_call(bump, key="fuzz.counter")

        parallel_region(body, num_threads=num_threads, backend=self.heap_backend, name="fuzz.critical")
        # A serial team is clamped to one member; threads run all of them.
        members = 1 if isinstance(self.heap_backend, SerialBackend) else num_threads
        assert cell["value"] == members * increments
        self.counter_total += cell["value"]

    @rule(tasks=st.integers(min_value=1, max_value=6))
    def task_region(self, tasks):
        """Spawned tasks all complete before task_wait returns."""
        done = []

        def body():
            if ctx.get_thread_id() == 0:
                for index in range(tasks):
                    spawn_task(lambda i=index: done.append(i))
            task_wait()

        parallel_region(body, num_threads=2, backend=self.heap_backend, name="fuzz.tasks")
        assert sorted(done) == list(range(tasks))

    @rule(num_threads=st.integers(min_value=1, max_value=4), tasks=st.integers(min_value=0, max_value=5))
    def unwaited_tasks(self, num_threads, tasks):
        """Tasks no member waits for still run, once each, before the region
        ends — on the backend itself, so the pool's members drain too."""
        self.shipped.reset()
        self.shipped.tasks_per_member = tasks
        parallel_region(self.shipped.spawn_marks, num_threads=num_threads, backend=self.backend, name="fuzz.unwaited")
        cells = self._team_size(num_threads) * tasks
        assert list(self.shipped.hits.np[:cells]) == [1] * cells
        assert not self.shipped.hits.np[cells:].any()

    @rule(value=st.integers(min_value=-100, max_value=100))
    def future_result(self, value):
        """A future's result round-trips through the task pool."""
        def body():
            if ctx.get_thread_id() == 0:
                future = spawn_future(lambda: value * 2)
                assert future.get() == value * 2
            task_wait()

        parallel_region(body, num_threads=2, backend=self.heap_backend, name="fuzz.future")

    @rule(outer=st.integers(min_value=1, max_value=3), inner=st.integers(min_value=1, max_value=3))
    def nested_teams(self, outer, inner):
        """Teams-of-teams: inner regions see the right level and ancestry."""
        records = []

        def inner_body():
            records.append((ctx.get_level(), ctx.get_ancestor_thread_id(0), ctx.get_thread_id()))

        def outer_body():
            parallel_region(inner_body, num_threads=inner, backend=self.heap_backend, name="fuzz.inner")

        parallel_region(outer_body, num_threads=outer, backend=self.heap_backend, name="fuzz.outer")
        assert records, "every outer member must have run an inner region"
        assert all(level == 2 for level, _, _ in records)

    @rule(slot=st.integers(min_value=0, max_value=7), num_threads=st.integers(min_value=2, max_value=4))
    def move_master(self, slot, num_threads):
        """Pin the fuzz thread to another processor; the next team goes with it."""
        if len(self.processors) < 2:
            return
        self.master_mask = {self.processors[slot % len(self.processors)]}
        os.sched_setaffinity(0, self.master_mask)
        masks = self.member_masks = []

        def body():
            masks.append(os.sched_getaffinity(0))

        parallel_region(body, num_threads=num_threads, backend=self.heap_backend, name="fuzz.move")

    # -- invariants ----------------------------------------------------------

    @invariant()
    def members_ran_beside_an_untouched_master(self):
        """Whatever ran since, only the machine has written the master's mask,
        and the members of a moved master's team ran where it was."""
        if self.processors:
            assert os.sched_getaffinity(0) == self.master_mask
        if not ThreadBackend().true_parallel and backend_mod._find_sched_getcpu():
            assert all(mask == self.master_mask for mask in self.member_masks)

    @invariant()
    def no_leaked_context(self):
        """Between steps the fuzz thread must be outside any region."""
        assert ctx.current_context() is None
        assert ctx.get_thread_id() == 0
        assert not ctx.in_parallel()

    @invariant()
    def counter_oracle_is_consistent(self):
        assert self.counter_total >= 0


@pytest.mark.parametrize("machine", [RuntimeLifecycleMachine])
def test_runtime_lifecycle_state_machine(machine, _clean_runtime_state):
    # The schemathesis idiom (SNIPPETS Snippet 3): drive the machine through
    # hypothesis' own runner so failures shrink to a minimal rule sequence.
    run_state_machine_as_test(machine, settings=MACHINE_SETTINGS)


@pytest.mark.parametrize("backend", BACKENDS)
def test_machine_rules_run_once_each(backend):
    """Smoke: every rule works as a plain method call (no hypothesis search)."""
    machine = RuntimeLifecycleMachine()
    machine.pick_backend(backend=backend)
    machine.spmd_region(num_threads=3)
    machine.workshared_loop(num_threads=2, span=17, schedule="dynamic")
    machine.config_between_regions(num_threads=3, span=23, schedule="static_cyclic")
    machine.config_between_regions(num_threads=3, span=23, schedule="guided")
    machine.failing_body_then_clean_region(num_threads=3, span=19, kill=True)
    machine.failing_body_then_clean_region(num_threads=2, span=11, kill=False)
    machine.critical_counter(num_threads=2, increments=3)
    machine.task_region(tasks=4)
    machine.unwaited_tasks(num_threads=3, tasks=5)
    machine.future_result(value=21)
    machine.nested_teams(outer=2, inner=2)
    machine.move_master(slot=1, num_threads=3)
    machine.spmd_region(num_threads=3)
    machine.members_ran_beside_an_untouched_master()
    machine.no_leaked_context()
    machine.teardown()
    global_locks.clear()
