"""Tests for teams, parallel regions, contexts and backends."""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.runtime import context as ctx
from repro.runtime import shm
from repro.runtime.backend import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    backend_by_name,
    get_backend,
    resolve_backend,
    set_backend,
)
from repro.runtime.config import config_override, set_num_threads
from repro.runtime.exceptions import BrokenTeamError
from repro.runtime.team import Team, parallel_region
from repro.runtime.trace import EventKind, TraceRecorder

#: every backend the conformance suite asserts identical behaviour on
CONFORMANCE_BACKENDS = ("serial", "threads", "processes", "distributed")


class TestParallelRegion:
    def test_every_member_executes_body(self):
        seen = []
        lock = threading.Lock()

        def body():
            with lock:
                seen.append((ctx.get_thread_id(), threading.get_ident()))

        parallel_region(body, num_threads=4)
        ids = sorted(tid for tid, _ in seen)
        assert ids == [0, 1, 2, 3]
        # The master runs on the calling thread; workers run on spawned
        # threads (OS thread identifiers may be recycled once a worker exits,
        # so only the master/worker distinction is asserted).
        master_os_id = next(os_id for tid, os_id in seen if tid == 0)
        assert master_os_id == threading.get_ident()
        assert any(os_id != master_os_id for tid, os_id in seen if tid != 0)

    def test_master_result_returned(self):
        def body():
            return ctx.get_thread_id() * 10

        assert parallel_region(body, num_threads=3) == 0

    def test_default_team_size_from_config(self):
        set_num_threads(5)
        sizes = []
        lock = threading.Lock()

        def body():
            with lock:
                sizes.append(ctx.get_num_team_threads())

        parallel_region(body)
        assert sizes == [5] * 5

    def test_single_thread_region_runs_inline(self):
        def body():
            return (ctx.get_thread_id(), ctx.in_parallel(), threading.get_ident())

        tid, inside, os_id = parallel_region(body, num_threads=1)
        assert tid == 0 and inside is True
        assert os_id == threading.get_ident()

    def test_context_cleared_after_region(self):
        parallel_region(lambda: None, num_threads=2)
        assert ctx.current_context() is None
        assert not ctx.in_parallel()
        assert ctx.get_thread_id() == 0
        assert ctx.get_num_team_threads() == 1

    def test_member_exception_becomes_broken_team(self):
        def body():
            if ctx.get_thread_id() == 1:
                raise ValueError("boom")
            return "ok"

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=3)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_master_exception_becomes_broken_team(self):
        def body():
            if ctx.get_thread_id() == 0:
                raise RuntimeError("master failed")

        with pytest.raises(BrokenTeamError):
            parallel_region(body, num_threads=3)

    def test_team_barrier_synchronises_members(self):
        order = []
        lock = threading.Lock()

        def body():
            team = ctx.current_team()
            with lock:
                order.append(("before", ctx.get_thread_id()))
            team.barrier()
            with lock:
                order.append(("after", ctx.get_thread_id()))

        parallel_region(body, num_threads=4)
        phases = [phase for phase, _ in order]
        # All "before" entries precede all "after" entries.
        assert phases.index("after") == 4
        assert phases[:4] == ["before"] * 4

    def test_nested_regions_create_nested_teams(self):
        observed = []
        lock = threading.Lock()

        def inner():
            with lock:
                observed.append((ctx.current_context().nesting_level, ctx.get_num_team_threads()))

        def outer():
            parallel_region(inner, num_threads=2)

        parallel_region(outer, num_threads=2)
        assert len(observed) == 4  # 2 outer members x 2 inner members
        assert all(level == 1 and size == 2 for level, size in observed)

    def test_nested_disabled_clamps_to_one(self):
        observed = []
        lock = threading.Lock()

        def inner():
            with lock:
                observed.append(ctx.get_num_team_threads())

        def outer():
            parallel_region(inner, num_threads=3)

        with config_override(nested=False):
            parallel_region(outer, num_threads=2)
        assert observed == [1, 1]

    def test_return_values_of_all_members_recorded(self):
        def body():
            return ctx.get_thread_id() * 2

        recorder = TraceRecorder()
        # Use the low-level API through parallel_region and inspect the trace
        # to ensure every member ran; results live on the Team but the Team is
        # internal — the observable contract is the master result plus traces.
        result = parallel_region(body, num_threads=3, recorder=recorder)
        assert result == 0
        begins = recorder.events(EventKind.REGION_BEGIN)
        assert len(begins) == 1 and begins[0].data["size"] == 3

    def test_num_threads_argument_overrides_config(self):
        set_num_threads(2)
        sizes = set()
        lock = threading.Lock()

        def body():
            with lock:
                sizes.add(ctx.get_num_team_threads())

        parallel_region(body, num_threads=6)
        assert sizes == {6}


class TestBackends:
    def test_serial_backend_clamps_to_one_member(self):
        observed = []

        def body():
            observed.append((ctx.get_thread_id(), ctx.get_num_team_threads()))

        parallel_region(body, num_threads=4, backend=SerialBackend())
        assert observed == [(0, 1)]

    def test_serial_backend_allow_multi_runs_all_members_inline(self):
        observed = []

        def body():
            observed.append(ctx.get_thread_id())

        parallel_region(body, num_threads=3, backend=SerialBackend(allow_multi=True))
        assert observed == [0, 1, 2]

    def test_set_backend_globally(self):
        previous = set_backend(SerialBackend())
        try:
            assert isinstance(get_backend(), SerialBackend)
            observed = []
            parallel_region(lambda: observed.append(ctx.get_thread_id()), num_threads=4)
            assert observed == [0]
        finally:
            set_backend(previous)

    def test_thread_backend_workers_are_daemons(self):
        # Parked workers outlive their region; a non-daemon one would keep
        # the interpreter from exiting.
        threads = []

        def body():
            threads.append(ctx.current_team().members[ctx.get_thread_id()].thread)

        # The pre-reuse constructor flags still construct: the prefix is
        # honoured, a non-daemon request is refused out loud.
        with pytest.warns(DeprecationWarning, match="always daemons"):
            backend = ThreadBackend(daemon=False, name_prefix="legacy")
        parallel_region(body, num_threads=3, backend=backend)
        spawned = [thread for thread in threads if thread is not None]
        assert len(spawned) == 2 and all(thread.daemon for thread in spawned)


@pytest.mark.parametrize("backend_name", CONFORMANCE_BACKENDS)
class TestRegionConformance:
    """Every backend must produce the same observable region behaviour.

    Observations go through shared memory or the master's return value:
    both survive a process boundary, so one assertion body serves all
    three backends (the paper's sequential-semantics claim extended to the
    backend axis).
    """

    def test_master_result_returned(self, backend_name):
        def body():
            return ctx.get_thread_id() * 10 + 7

        assert parallel_region(body, num_threads=4, backend=backend_name) == 7

    def test_all_members_execute_body(self, backend_name):
        with shm.SharedArray.zeros(4, np.int64) as seen:

            def body():
                seen[ctx.get_thread_id()] = 1

            parallel_region(body, num_threads=4, backend=backend_name)
            expected = 1 if backend_name == "serial" else 4  # serial clamps to a team of 1
            assert int(seen.np.sum()) == expected

    def test_member_exception_becomes_broken_team(self, backend_name):
        def body():
            if ctx.get_thread_id() == max(0, ctx.get_num_team_threads() - 1):
                raise ValueError("boom")
            return "ok"

        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(body, num_threads=3, backend=backend_name)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_barrier_separates_phases(self, backend_name):
        """After the barrier, every member observes every other member's phase-1 write."""
        with shm.SharedArray.zeros(4, np.int64) as stamps:

            def body():
                team = ctx.current_team()
                stamps[ctx.get_thread_id()] = 1
                team.barrier()
                assert int(stamps.np[: team.size].sum()) == team.size

            parallel_region(body, num_threads=4, backend=backend_name)

    def test_nested_region_runs_correctly(self, backend_name):
        """Nested regions degrade gracefully on every backend (processes fall back to threads)."""
        with shm.SharedArray.zeros(2, np.int64) as marks:

            def outer():
                outer_tid = ctx.get_thread_id()

                def inner():
                    # Each outer member stamps its own cell: no cross-process
                    # read-modify-write, so no cross-process lock needed.
                    if ctx.get_thread_id() == 0:
                        marks[outer_tid] += 1

                parallel_region(inner, num_threads=2)

            parallel_region(outer, num_threads=2, backend=backend_name)
            expected = 1 if backend_name == "serial" else 2  # one inner region per outer member
            assert int(marks.np.sum()) == expected

    def test_member_results_shipped_to_parent(self, backend_name):
        """Non-master return values are recorded on the team for every backend."""
        captured = {}

        def body():
            return ctx.get_thread_id() * 2

        # Observe the team object the region used by wrapping run_team once.
        backend = resolve_backend(backend_name)
        original_run_team = backend.run_team

        def spy(team, run_member, body_fn=None):
            captured["team"] = team
            return original_run_team(team, run_member, body_fn)

        backend.run_team = spy  # type: ignore[method-assign]
        try:
            parallel_region(body, num_threads=3, backend=backend)
        finally:
            backend.run_team = original_run_team  # type: ignore[method-assign]
        team = captured["team"]
        expected = {0: 0} if backend_name == "serial" else {0: 0, 1: 2, 2: 4}
        assert {m.thread_id: m.result for m in team.members} == expected


class TestProcessBackendStrategy:
    """Capability-driven fallbacks specific to the process backend."""

    def test_requires_shared_locals_falls_back_to_threads(self):
        """A region declaring shared-locals constructs runs on threads: plain
        Python list mutations are visible to the parent afterwards, which is
        only possible in a shared address space."""
        seen = []
        lock = threading.Lock()

        def body():
            with lock:
                seen.append(ctx.get_thread_id())

        with pytest.warns(RuntimeWarning, match="shared Python heap"):
            parallel_region(
                body, num_threads=4, backend=ProcessBackend(), requires_shared_locals=True
            )
        assert sorted(seen) == [0, 1, 2, 3]

    def test_fork_workers_do_not_share_python_heap(self):
        """Without shared memory, worker mutations stay in the worker process."""
        seen = []

        def body():
            seen.append(ctx.get_thread_id())

        parallel_region(body, num_threads=4, backend="processes")
        assert seen == [0]  # only the master (runs inline in the parent)

    def test_capability_flags(self):
        processes = backend_by_name("processes")
        assert processes.is_process_based and not processes.supports_shared_locals
        threads = backend_by_name("threads")
        assert not threads.is_process_based and threads.supports_shared_locals

    def test_single_thread_region_stays_inline(self):
        def body():
            return (ctx.get_thread_id(), threading.get_ident())

        tid, os_id = parallel_region(body, num_threads=1, backend="processes")
        assert tid == 0 and os_id == threading.get_ident()

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ValueError, match="valid backends"):
            parallel_region(lambda: None, num_threads=2, backend="gpu")

    def test_backend_resolution_from_config(self):
        previous = set_backend(None)  # drop the test fixture's explicit override
        try:
            with config_override(backend="serial"):
                assert get_backend().name == "serial"
            with config_override(backend="processes"):
                assert get_backend().name == "processes"
        finally:
            set_backend(previous)


@pytest.mark.nested
@pytest.mark.parametrize("backend_name", CONFORMANCE_BACKENDS)
class TestNestedTeamConformance:
    """Two-level teams-of-teams behave identically on every backend.

    All scenarios run under the conftest watchdog: a deadlocked inner team
    fails the test instead of hanging tier-1.  Observations go through shared
    memory (they survive the process boundary), and the computed values are
    team-size independent, so one assertion body serves every backend.
    """

    def test_two_level_grid_results_identical(self, backend_name, watchdog):
        """Outer region workshares rows, inner regions workshare columns."""
        rows, cols = 6, 8
        with shm.SharedArray.zeros((rows, cols), np.float64) as grid:

            def fill_cols(start, end, step, row):
                for col in range(start, end, step):
                    grid[row, col] = row * 100.0 + col

            def inner(row):
                from repro.runtime.worksharing import run_for

                run_for(fill_cols, 0, cols, 1, row, schedule="dynamic")

            def fill_rows(start, end, step):
                for row in range(start, end, step):
                    parallel_region(lambda r=row: inner(r), num_threads=2)

            def outer():
                from repro.runtime.worksharing import run_for

                run_for(fill_rows, 0, rows, 1)

            watchdog(lambda: parallel_region(outer, num_threads=2, backend=backend_name))
            expected = np.add.outer(np.arange(rows) * 100.0, np.arange(cols, dtype=np.float64))
            assert np.array_equal(np.asarray(grid), expected)

    def test_process_outer_spawns_thread_sub_teams(self, backend_name, watchdog):
        """Nested regions form real inner teams on every backend (the process
        backend resolves them to thread sub-teams inside each worker)."""
        inner_size = 3
        with shm.SharedArray.zeros((4, inner_size), np.int64) as marks:

            def outer():
                outer_tid = ctx.get_thread_id()

                def inner():
                    marks[outer_tid, ctx.get_thread_id()] += 1

                # Ask for the same backend: nested process regions must
                # transparently resolve to in-process sub-teams.
                parallel_region(inner, num_threads=inner_size, backend=backend_name)

            watchdog(lambda: parallel_region(outer, num_threads=4, backend=backend_name))
            outer_size = 1 if backend_name == "serial" else 4
            inner_effective = 1 if backend_name == "serial" else inner_size
            filled = np.asarray(marks)[:outer_size, :inner_effective]
            assert int(np.asarray(marks).sum()) == outer_size * inner_effective
            assert (filled == 1).all()

    def test_member_paths_identify_every_leaf(self, backend_name, watchdog):
        """Per-level member ids (the member path) are unique across the tree."""
        with shm.SharedArray.zeros((2, 2), np.int64) as seen:

            def outer():
                def inner():
                    path = ctx.get_member_path()
                    assert len(path) == 2
                    # OpenMP numbering: level 0 is the initial serial level,
                    # level 1 the outermost region, get_level() the caller's.
                    assert ctx.get_ancestor_thread_id(0) == 0
                    assert path[0] == ctx.get_ancestor_thread_id(1)
                    assert path[1] == ctx.get_ancestor_thread_id(ctx.get_level())
                    assert path[1] == ctx.get_thread_id()
                    assert ctx.get_ancestor_thread_id(ctx.get_level() + 1) == -1
                    seen[path[0], path[1]] += 1

                parallel_region(inner, num_threads=2)

            watchdog(lambda: parallel_region(outer, num_threads=2, backend=backend_name))
            outer_size = 1 if backend_name == "serial" else 2
            assert np.asarray(seen)[:outer_size].tolist() == [[1, 1]] * outer_size

    def test_nested_region_trace_tree(self, backend_name, watchdog, recorder):
        """Inner REGION_BEGIN events link to their parent region and level.

        Worker-process trace buffers stay in the workers, so on the process
        backend the tree is asserted for the master's lane only (the one
        whose events reach the parent recorder).
        """

        def outer():
            parallel_region(lambda: None, num_threads=2, name="inner")

        watchdog(
            lambda: parallel_region(outer, num_threads=2, backend=backend_name, name="outer")
        )
        begins = recorder.events(EventKind.REGION_BEGIN)
        outers = [e for e in begins if e.data["name"] == "outer"]
        inners = [e for e in begins if e.data["name"] == "inner"]
        assert len(outers) == 1
        outer_event = outers[0]
        assert outer_event.data["level"] == 0
        assert outer_event.data["parent_region"] is None
        # ``outer`` is a closure: the socket plane cannot ship it, so the
        # distributed backend runs it on its thread fallback.
        expected_inners = {"serial": 1, "threads": 2, "processes": 1, "distributed": 2}[backend_name]
        assert len(inners) == expected_inners
        for event in inners:
            assert event.data["level"] == 1
            assert event.data["parent_region"] == outer_event.region
            assert 0 <= event.data["parent_thread"] < outer_event.data["size"]

    def test_dynamic_loop_inside_nested_team(self, backend_name, watchdog):
        """Dynamic worksharing is usable from an inner team."""
        n = 4
        with shm.SharedArray.zeros((n, n), np.int64) as hits:

            def cells(start, end, step, base):
                for cell in range(start, end, step):
                    hits[cell // n, cell % n] += base

            def inner():
                from repro.runtime.worksharing import run_for

                run_for(cells, 0, n * n, 1, 1, schedule="dynamic")

            def outer():
                if ctx.get_thread_id() == 0:
                    parallel_region(inner, num_threads=2)

            watchdog(lambda: parallel_region(outer, num_threads=2, backend=backend_name))
            assert (np.asarray(hits) == 1).all()


class TestNestedConfiguration:
    """AOMP_NESTED / AOMP_MAX_ACTIVE_LEVELS configuration semantics."""

    def test_max_active_levels_serialises_deeper_teams(self):
        observed = []
        lock = threading.Lock()

        def level2():
            with lock:
                observed.append(ctx.get_num_team_threads())

        def level1():
            parallel_region(level2, num_threads=3)

        with config_override(max_active_levels=1):
            parallel_region(lambda: parallel_region(level1, num_threads=3), num_threads=2)
        # Level 0 is active (size 2), so both deeper levels serialise.
        assert observed == [1, 1]

    def test_serialised_levels_do_not_consume_the_budget(self):
        """A team-of-one level is inactive: parallelism reappears below it."""
        sizes = []
        lock = threading.Lock()

        def leaf():
            with lock:
                sizes.append(ctx.get_num_team_threads())

        def middle():
            parallel_region(leaf, num_threads=2)

        with config_override(max_active_levels=2):
            parallel_region(
                lambda: parallel_region(middle, num_threads=1), num_threads=2
            )
        # Outer active (2) -> middle serialised (1, by request) -> leaf may
        # still be active because only one level of the budget is used.
        assert sorted(sizes) == [2, 2, 2, 2]

    def test_nested_env_seeding(self, monkeypatch):
        from repro.runtime.config import RuntimeConfig

        monkeypatch.setenv("AOMP_NESTED", "0")
        assert RuntimeConfig().nested is False
        monkeypatch.setenv("AOMP_NESTED", "true")
        assert RuntimeConfig().nested is True

    def test_max_active_levels_env_seeding(self, monkeypatch):
        from repro.runtime.config import RuntimeConfig

        monkeypatch.setenv("AOMP_MAX_ACTIVE_LEVELS", "2")
        assert RuntimeConfig().max_active_levels == 2
        monkeypatch.setenv("AOMP_MAX_ACTIVE_LEVELS", "not-a-number")
        with pytest.raises(ValueError, match="AOMP_MAX_ACTIVE_LEVELS"):
            RuntimeConfig()  # garbage is rejected loudly, not defaulted

    def test_omp_spellings_accepted(self, monkeypatch):
        from repro.runtime.config import RuntimeConfig

        monkeypatch.delenv("AOMP_NESTED", raising=False)
        monkeypatch.setenv("OMP_NESTED", "false")
        monkeypatch.setenv("OMP_MAX_ACTIVE_LEVELS", "3")
        config = RuntimeConfig()
        assert config.nested is False
        assert config.max_active_levels == 3


class TestTeamObject:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Team(0)

    def test_shared_slot_created_once(self):
        team = Team(2)
        created = []

        def factory():
            created.append(1)
            return object()

        first = team.shared_slot("key", factory)
        second = team.shared_slot("key", factory)
        assert first is second
        assert len(created) == 1

    def test_only_a_claiming_construct_builds_the_slot_arenas(self):
        """Static loops and barriers claim nothing, so a thread team that runs
        only those allocates no slot arenas; the first dynamic loop builds
        them, and they go with the team."""
        from repro.runtime.worksharing import run_for

        teams = []

        def noop(start, end, step):
            pass

        def static_only():
            if ctx.get_thread_id() == 0:
                teams.append(ctx.current_team())
            run_for(noop, 0, 64, 1, schedule="static_block")
            run_for(noop, 0, 64, 1, schedule="static_cyclic", chunk=3, nowait=True)
            ctx.current_team().barrier()

        def claiming():
            if ctx.get_thread_id() == 0:
                teams.append(ctx.current_team())
            run_for(noop, 0, 64, 1, schedule="static_block")
            run_for(noop, 0, 64, 1, schedule="dynamic,4")

        parallel_region(static_only, num_threads=2, backend="threads")
        assert teams[0]._arenas is None
        parallel_region(claiming, num_threads=2, backend="threads")
        arena = weakref.ref(teams[1]._arenas.arena)
        assert isinstance(arena(), shm.SyncArena)
        teams.clear()
        gc.collect()
        assert arena() is None

    def test_region_trace_events(self, recorder):
        parallel_region(lambda: None, num_threads=2, name="traced")
        kinds = [e.kind for e in recorder.events()]
        assert EventKind.REGION_BEGIN in kinds
        assert EventKind.REGION_END in kinds
        work = recorder.events(EventKind.PHASE_WORK)
        assert len(work) == 2  # one per member
