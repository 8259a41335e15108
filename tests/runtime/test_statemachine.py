"""Stateful fuzzing of the runtime API with hypothesis rule-based machines.

ROADMAP item 5's harness: a :class:`~hypothesis.stateful.RuleBasedStateMachine`
interleaves parallel regions, workshared loops, explicit tasks, named locks,
nested teams and a master that changes processor in randomised orders — the
lifecycles the example-based conformance suites only exercise in fixed
sequences.  Every rule checks the runtime's core invariants (results identical
to a serial oracle, no leaked execution context, lock registry re-entrant
across regions), so hypothesis shrinks any ordering bug it finds to a minimal
reproducing step sequence.

Backends: serial and threads — the in-process backends where thousands of
short regions are cheap.  The process/interpreter paths get their own
deterministic suites (``test_faults.py``, ``test_subinterp.py``); forking per
fuzz step would dominate the runtime without adding interleaving coverage.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule, run_state_machine_as_test

from repro.runtime import backend as backend_mod
from repro.runtime import context as ctx
from repro.runtime.backend import SerialBackend, ThreadBackend
from repro.runtime.critical import critical_call
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
    max_examples=15,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class RuntimeLifecycleMachine(RuleBasedStateMachine):
    """Interleave region / loop / task / lock / nested-team lifecycles."""

    def __init__(self) -> None:
        super().__init__()
        self.backend = ThreadBackend()
        self.counter_total = 0  # serial oracle for every counting region run
        #: the processors the fuzz thread (every region's master) may use, the
        #: mask the machine last gave it, and the masks the members of the
        #: last ``move_master`` region ran under
        self.processors = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.master_mask = set(self.processors)
        self.member_masks: "list[set[int]]" = []

    @initialize(backend=st.sampled_from(["serial", "threads"]))
    def pick_backend(self, backend):
        self.backend = SerialBackend() if backend == "serial" else ThreadBackend()
        # Placement is decided once, by the first thread team, under the
        # whole mask: before any move, whichever backend the rules run on.
        parallel_region(lambda: None, num_threads=2, backend=ThreadBackend(), name="fuzz.prime")

    def teardown(self):
        if self.processors:
            os.sched_setaffinity(0, self.processors)

    # -- rules ---------------------------------------------------------------

    @rule(num_threads=st.integers(min_value=1, max_value=4))
    def spmd_region(self, num_threads):
        """A bare SPMD region: every member observes a consistent context."""
        observed = []

        def body():
            observed.append((ctx.get_thread_id(), ctx.get_num_team_threads(), ctx.get_level()))

        parallel_region(body, num_threads=num_threads, backend=self.backend, name="fuzz.spmd")
        size = observed[0][1]
        assert sorted(tid for tid, _, _ in observed) == list(range(size))
        assert all(n == size and level == 1 for _, n, level in observed)

    @rule(
        num_threads=st.integers(min_value=1, max_value=4),
        span=st.integers(min_value=0, max_value=40),
        schedule=st.sampled_from(["static_block", "static_cyclic", "dynamic", "guided"]),
    )
    def workshared_loop(self, num_threads, span, schedule):
        """run_for must cover [0, span) exactly once under any schedule."""
        hits = [0] * span

        def loop(start, end, step):
            for i in range(start, end, step):
                hits[i] += 1

        def body():
            run_for(loop, 0, span, 1, schedule=schedule, loop_name="fuzz.loop")

        parallel_region(body, num_threads=num_threads, backend=self.backend, name="fuzz.for")
        assert hits == [1] * span

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

        parallel_region(body, num_threads=num_threads, backend=self.backend, name="fuzz.critical")
        # A serial team is clamped to one member; threads run all of them.
        members = 1 if isinstance(self.backend, SerialBackend) else num_threads
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

        parallel_region(body, num_threads=2, backend=self.backend, name="fuzz.tasks")
        assert sorted(done) == list(range(tasks))

    @rule(value=st.integers(min_value=-100, max_value=100))
    def future_result(self, value):
        """A future's result round-trips through the task pool."""
        def body():
            if ctx.get_thread_id() == 0:
                future = spawn_future(lambda: value * 2)
                assert future.get() == value * 2
            task_wait()

        parallel_region(body, num_threads=2, backend=self.backend, name="fuzz.future")

    @rule(outer=st.integers(min_value=1, max_value=3), inner=st.integers(min_value=1, max_value=3))
    def nested_teams(self, outer, inner):
        """Teams-of-teams: inner regions see the right level and ancestry."""
        records = []

        def inner_body():
            records.append((ctx.get_level(), ctx.get_ancestor_thread_id(0), ctx.get_thread_id()))

        def outer_body():
            parallel_region(inner_body, num_threads=inner, backend=self.backend, name="fuzz.inner")

        parallel_region(outer_body, num_threads=outer, backend=self.backend, name="fuzz.outer")
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

        parallel_region(body, num_threads=num_threads, backend=self.backend, name="fuzz.move")

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


def test_machine_rules_run_once_each():
    """Smoke: every rule works as a plain method call (no hypothesis search)."""
    machine = RuntimeLifecycleMachine()
    machine.pick_backend(backend="threads")
    machine.spmd_region(num_threads=3)
    machine.workshared_loop(num_threads=2, span=17, schedule="dynamic")
    machine.critical_counter(num_threads=2, increments=3)
    machine.task_region(tasks=4)
    machine.future_result(value=21)
    machine.nested_teams(outer=2, inner=2)
    machine.move_master(slot=1, num_threads=3)
    machine.spmd_region(num_threads=3)
    machine.members_ran_beside_an_untouched_master()
    machine.no_leaked_context()
    machine.teardown()
    global_locks.clear()
