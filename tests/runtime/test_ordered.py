"""Dedicated tests for :mod:`repro.runtime.ordered` (ordered loop execution).

The sync-constructs suite exercises the ordered aspect end-to-end; this file
covers the runtime module itself: ticket sequencing, skipping, range
validation, region installation, and loops whose iterations skip their
ordered part or fail before it.
"""

from __future__ import annotations

import threading

import pytest

from repro.runtime import context as ctx
from repro.runtime.exceptions import BrokenTeamError, SchedulingError
from repro.runtime.ordered import (
    OrderedRegion,
    current_ordered_region,
    install_ordered_region,
    ordered_call,
)
from repro.runtime.team import parallel_region
from repro.runtime.worksharing import run_for


class TestOrderedRegion:
    def test_total_counts_iterations(self):
        assert OrderedRegion(0, 10, 1).total == 10
        assert OrderedRegion(0, 10, 3).total == 4
        assert OrderedRegion(10, 0, -2).total == 5
        assert OrderedRegion(0, 0, 1).total == 0

    def test_zero_step_rejected(self):
        with pytest.raises(SchedulingError):
            OrderedRegion(0, 10, 0)

    def test_run_enforces_sequential_order_across_threads(self):
        region = OrderedRegion(0, 8, 1)
        order: list[int] = []

        def worker(iterations, delay):
            # Each thread ascends through its own iterations (the workshared
            # contract); the region must interleave them globally even when
            # one thread reaches its iterations much earlier.
            for i in iterations:
                threading.Event().wait(delay)
                region.run(i, lambda i=i: order.append(i))

        threads = [
            threading.Thread(target=worker, args=(list(range(start, 8, 2)), delay))
            for start, delay in ((0, 0.01), (1, 0.0))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert order == list(range(8))

    def test_run_returns_value_and_releases_next(self):
        region = OrderedRegion(0, 2, 1)
        assert region.run(0, lambda: "first") == "first"
        assert region.run(1, lambda: "second") == "second"

    def test_skip_advances_the_ticket(self):
        region = OrderedRegion(0, 3, 1)
        seen: list[int] = []
        region.run(0, lambda: seen.append(0))
        region.skip(1)  # iteration 1 has no ordered part
        region.run(2, lambda: seen.append(2))
        assert seen == [0, 2]

    def test_failed_ordered_part_still_releases_successors(self):
        region = OrderedRegion(0, 2, 1)
        with pytest.raises(RuntimeError):
            region.run(0, lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        # The ticket advanced despite the failure; iteration 1 is not stuck.
        assert region.run(1, lambda: "ok") == "ok"

    @pytest.mark.parametrize("iteration", [-1, 10, 3])
    def test_foreign_iterations_rejected_positive_step(self, iteration):
        region = OrderedRegion(0, 10, 2)
        with pytest.raises(SchedulingError):
            region.run(iteration, lambda: None)

    @pytest.mark.parametrize("iteration", [12, 0, 9])
    def test_foreign_iterations_rejected_negative_step(self, iteration):
        region = OrderedRegion(10, 0, -2)
        with pytest.raises(SchedulingError):
            region.run(iteration, lambda: None)

    def test_negative_step_order(self):
        region = OrderedRegion(6, 0, -2)
        seen: list[int] = []
        for i in (6, 4, 2):
            region.run(i, lambda i=i: seen.append(i))
        assert seen == [6, 4, 2]


class TestRegionInstallation:
    def test_install_returns_none_outside_parallel_region(self):
        assert ctx.current_context() is None
        assert install_ordered_region(OrderedRegion(0, 4, 1)) is None
        assert current_ordered_region() is None

    def test_install_and_restore_inside_region(self):
        observed = {}

        def body():
            outer = OrderedRegion(0, 4, 1)
            inner = OrderedRegion(0, 2, 1)
            assert install_ordered_region(outer) is None
            previous = install_ordered_region(inner)
            observed["previous_was_outer"] = previous is outer
            observed["current_is_inner"] = current_ordered_region() is inner
            install_ordered_region(previous)
            observed["restored"] = current_ordered_region() is outer

        parallel_region(body, num_threads=1)
        assert observed == {"previous_was_outer": True, "current_is_inner": True, "restored": True}

    def test_ordered_call_degrades_outside_loops(self):
        # Outside any region and outside any ordered loop: plain invocation.
        assert ordered_call(7, lambda: "direct") == "direct"

        def body():
            return ordered_call(3, lambda: "in-region, no loop")

        assert parallel_region(body, num_threads=2) == "in-region, no loop"


class TestOrderedWithinWorksharing:
    @pytest.mark.parametrize("schedule", ["staticBlock", "staticCyclic", "dynamic", "guided"])
    def test_order_preserved_under_every_schedule(self, schedule):
        order: list[int] = []

        def loop(start, end, step):
            for i in range(start, end, step):
                ordered_call(i, lambda i=i: order.append(i))

        def body():
            run_for(loop, 0, 12, 1, schedule=schedule, chunk=2, ordered=True)

        parallel_region(body, num_threads=3, backend="threads")
        assert order == list(range(12))

    @pytest.mark.parametrize("schedule", ["staticBlock", "staticCyclic", "dynamic", "guided"])
    def test_members_left_without_a_chunk_do_not_hold_the_ticket(self, schedule):
        """Four members, two chunks: the members that get no chunk never
        touch the ticket, and the ordered parts still run in order."""
        order: list[int] = []

        def loop(start, end, step):
            for i in range(start, end, step):
                ordered_call(i, lambda i=i: order.append(i))

        def region():
            parallel_region(
                lambda: run_for(loop, 0, 3, 1, schedule=schedule, chunk=2, ordered=True),
                num_threads=4,
                backend="threads",
            )

        assert _finishes(region) is None
        assert order == [0, 1, 2]

    @pytest.mark.parametrize("schedule", ["staticBlock", "staticCyclic", "dynamic", "guided"])
    def test_an_empty_ordered_loop_finishes(self, schedule):
        order: list[int] = []

        def loop(start, end, step):
            for i in range(start, end, step):
                ordered_call(i, lambda i=i: order.append(i))

        def region():
            parallel_region(
                lambda: run_for(loop, 5, 5, 1, schedule=schedule, chunk=2, ordered=True),
                num_threads=2,
                backend="threads",
            )

        assert _finishes(region) is None
        assert order == []


def _finishes(region, seconds=30.0):
    """Run ``region`` in a daemon thread: a hang fails the test at the join
    bound instead of stalling the suite.  Returns what ``region`` raised."""
    outcome: dict = {}

    def target():
        try:
            region()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"ordered loop still running after {seconds:g}s"
    return outcome.get("error")


@pytest.mark.parametrize("schedule", ["staticBlock", "staticCyclic", "dynamic", "guided"])
class TestOrderedLoopsThatSkipOrFail:
    def test_iterations_without_an_ordered_call_are_passed(self, schedule):
        skipped = {1, 2, 7}
        order: list[int] = []

        def loop(start, end, step):
            for i in range(start, end, step):
                if i not in skipped:
                    ordered_call(i, lambda i=i: order.append(i))

        def region():
            parallel_region(
                lambda: run_for(loop, 0, 12, 1, schedule=schedule, chunk=2, ordered=True),
                num_threads=2,
                backend="threads",
            )

        assert _finishes(region) is None
        assert order == [i for i in range(12) if i not in skipped]

    def test_a_member_failing_before_its_ordered_call_breaks_the_team(self, schedule):
        def loop(start, end, step):
            for i in range(start, end, step):
                if i == 0:
                    raise RuntimeError("iteration 0 failed")
                ordered_call(i, lambda: None)

        def region():
            parallel_region(
                lambda: run_for(loop, 0, 12, 1, schedule=schedule, chunk=2, ordered=True),
                num_threads=2,
                backend="threads",
            )

        error = _finishes(region)
        assert isinstance(error, BrokenTeamError)
        assert isinstance(error.__cause__, RuntimeError)
