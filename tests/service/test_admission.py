"""Admission control unit tests: bounds, caps, coalescing, cancellation.

These drive :class:`repro.service.admission.AdmissionQueue` directly —
no sockets, no dispatch threads — so every backpressure and fairness rule
is pinned at the layer that implements it.  The end-to-end behaviours ride
on top in ``test_service.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import pytest

from repro.service import admission
from repro.service.admission import (
    CANCELLED,
    DONE,
    HISTORY_LIMIT,
    QUEUED,
    RUNNING,
    AdmissionQueue,
    Draining,
    QueueFull,
)
from repro.service.config import ServiceConfig
from repro.service.kernels import KERNELS


def make_queue(*, queue_limit: int = 4, tenant_cap: int = 2) -> AdmissionQueue:
    return AdmissionQueue(queue_limit=queue_limit, tenant_cap=tenant_cap)


def submit(queue: AdmissionQueue, *, tenant: str = "t", kernel: str = "series",
           params: "dict | None" = None, coalescable: bool = False):
    return queue.submit(
        tenant=tenant, kernel=kernel, params=params or {"size": "tiny"}, coalescable=coalescable
    )


class TestBackpressure:
    def test_submits_past_the_bound_are_rejected(self):
        queue = make_queue(queue_limit=2)
        submit(queue)
        submit(queue, params={"size": "small"})
        with pytest.raises(QueueFull, match="admission queue is full"):
            submit(queue, params={"size": "a"})

    def test_running_requests_do_not_count_against_the_bound(self):
        queue = make_queue(queue_limit=1)
        request, _ = submit(queue)
        assert queue.claim(timeout=0.1) is request  # now running, not waiting
        submit(queue, params={"size": "small"})  # the single waiting slot is free again

    def test_draining_rejects_all_new_work(self):
        queue = make_queue()
        queue.drain()
        with pytest.raises(Draining):
            submit(queue)

    def test_finish_frees_the_tenant_slot_and_wakes_idle_waiters(self):
        queue = make_queue(queue_limit=8)
        request, _ = submit(queue)
        assert queue.claim(timeout=0.1) is request
        done = threading.Event()

        def waiter():
            assert queue.wait_idle(timeout=5.0)
            done.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        queue.finish(request, value=1.0, elapsed=0.01)
        thread.join(timeout=5.0)
        assert done.is_set()
        assert request.state == DONE


class TestTenantCap:
    def test_a_tenant_at_cap_is_skipped_in_favour_of_others(self):
        queue = make_queue(queue_limit=8, tenant_cap=1)
        first, _ = submit(queue, tenant="a")
        second, _ = submit(queue, tenant="a", params={"size": "small"})
        third, _ = submit(queue, tenant="b")
        assert queue.claim(timeout=0.1) is first
        # tenant "a" is at its cap of 1 — FIFO would pick `second`, fairness
        # dispatches tenant "b" past it.
        assert queue.claim(timeout=0.1) is third
        assert queue.claim(timeout=0.1) is None
        queue.finish(first, value=0.0)
        assert queue.claim(timeout=0.1) is second

    def test_snapshot_reports_running_by_tenant(self):
        queue = make_queue(queue_limit=8, tenant_cap=2)
        request, _ = submit(queue, tenant="acme")
        queue.claim(timeout=0.1)
        snap = queue.snapshot()
        assert snap["running_by_tenant"] == {"acme": 1}
        assert snap["tenant_cap"] == 2
        queue.finish(request, value=0.0)
        assert queue.snapshot()["running_by_tenant"] == {}


class TestCoalescing:
    def test_identical_coalescable_submits_share_the_leader(self):
        queue = make_queue()
        leader, coalesced = submit(queue, coalescable=True)
        follower, follower_coalesced = submit(queue, coalescable=True)
        assert not coalesced and follower_coalesced
        assert follower is leader
        assert leader.merged == 1
        assert queue.snapshot()["queued"] == 1  # one execution for two submits

    def test_different_params_do_not_coalesce(self):
        queue = make_queue()
        leader, _ = submit(queue, coalescable=True)
        other, coalesced = submit(queue, coalescable=True, params={"size": "small"})
        assert other is not leader and not coalesced

    def test_non_coalescable_submissions_never_merge(self):
        queue = make_queue()
        first, _ = submit(queue)
        second, coalesced = submit(queue)
        assert second is not first and not coalesced

    def test_a_cancel_requested_leader_stops_attracting_followers(self):
        queue = make_queue()
        leader, _ = submit(queue, coalescable=True)
        assert queue.claim(timeout=0.1) is leader
        queue.cancel(leader.id)
        fresh, coalesced = submit(queue, coalescable=True)
        assert fresh is not leader and not coalesced

    def test_a_finished_leader_stops_attracting_followers(self):
        queue = make_queue()
        leader, _ = submit(queue, coalescable=True)
        queue.claim(timeout=0.1)
        queue.finish(leader, value=42.0)
        fresh, coalesced = submit(queue, coalescable=True)
        assert fresh is not leader and not coalesced


class TestCancellation:
    def test_cancel_queued_is_immediate(self):
        queue = make_queue()
        request, _ = submit(queue)
        assert request.state == QUEUED
        assert queue.cancel(request.id) == CANCELLED
        assert request.state == CANCELLED
        assert queue.claim(timeout=0.1) is None  # removed from the queue

    def test_cancel_running_marks_and_invokes_the_abort_hook(self):
        queue = make_queue()
        request, _ = submit(queue)
        queue.claim(timeout=0.1)
        aborted = []
        assert queue.cancel(request.id, abort_running=aborted.append) == "cancelling"
        assert request.cancel_requested
        assert aborted == [request]
        assert request.state == RUNNING  # the dispatch worker records the final state
        queue.finish(request, cancelled=True)
        assert request.state == CANCELLED

    def test_cancel_unknown_and_finished(self):
        queue = make_queue()
        assert queue.cancel("r-999") == "unknown"
        request, _ = submit(queue)
        queue.claim(timeout=0.1)
        queue.finish(request, value=0.0)
        assert queue.cancel(request.id) == DONE  # already finished: reported, not re-cancelled


class TestHistory:
    def test_finished_requests_stay_pollable(self):
        queue = make_queue()
        request, _ = submit(queue)
        queue.claim(timeout=0.1)
        queue.finish(request, value=3.5, elapsed=0.2)
        fetched = queue.get(request.id)
        assert fetched is request
        payload = fetched.payload()
        assert payload["status"] == DONE and payload["value"] == 3.5

    def test_history_is_trimmed_but_live_requests_survive(self):
        queue = make_queue(queue_limit=HISTORY_LIMIT + 16)
        keeper, _ = submit(queue, tenant="keeper")
        for index in range(HISTORY_LIMIT + 8):
            request, _ = submit(queue, tenant=f"t{index}")
            queue.claim(timeout=0.1)
            queue.finish(request, value=0.0)
        assert queue.get(keeper.id) is keeper  # queued request outlives the trim
        snap = queue.snapshot()
        total = sum(snap["requests_by_state"].values())
        assert total <= HISTORY_LIMIT + 1

    def test_trim_drops_stale_coalesce_keys(self):
        queue = make_queue(queue_limit=HISTORY_LIMIT + 16)
        leader, _ = submit(queue, coalescable=True)
        queue.claim(timeout=0.1)
        queue.finish(leader, value=0.0)
        for index in range(HISTORY_LIMIT + 8):
            request, _ = submit(queue, tenant=f"t{index}")
            queue.claim(timeout=0.1)
            queue.finish(request, value=0.0)
        # the leader was trimmed; a new identical submission starts fresh
        fresh, coalesced = submit(queue, coalescable=True)
        assert fresh is not leader and not coalesced


class _CountingRequests(OrderedDict):
    """The queue's request table, counting the entries its walks examine."""

    examined = 0

    def items(self):
        for item in super().items():
            self.examined += 1
            yield item


class TestHistoryTrim:
    """``_trim_history`` under a small bound: what it keeps, what it drops,
    and how much of the table one submit walks."""

    LIMIT = 8

    @pytest.fixture(autouse=True)
    def small_history(self, monkeypatch):
        monkeypatch.setattr(admission, "HISTORY_LIMIT", self.LIMIT)

    @staticmethod
    def run_one(queue, **kwargs):
        request, _ = submit(queue, **kwargs)
        claimed = queue.claim(timeout=0.1)
        queue.finish(claimed, value=0.0)
        return claimed

    def test_the_bound_holds(self):
        queue = make_queue(queue_limit=64)
        for index in range(5 * self.LIMIT):
            self.run_one(queue, tenant=f"t{index}")
            assert len(queue._requests) <= self.LIMIT
        assert sum(queue.snapshot()["requests_by_state"].values()) == self.LIMIT

    def test_a_live_old_request_survives(self):
        queue = make_queue(queue_limit=64, tenant_cap=1)
        keeper, _ = submit(queue, tenant="keeper")
        assert queue.claim(timeout=0.1) is keeper  # running, and the oldest entry
        for index in range(5 * self.LIMIT):
            self.run_one(queue, tenant=f"t{index}")
        assert queue.get(keeper.id) is keeper and keeper.state == RUNNING
        assert len(queue._requests) == self.LIMIT

    def test_a_coalescing_key_is_dropped_with_its_request(self):
        queue = make_queue(queue_limit=64)
        leader = self.run_one(queue, coalescable=True)
        assert leader.id in queue._requests and len(queue._by_key) == 1
        for index in range(self.LIMIT):
            self.run_one(queue, tenant=f"t{index}")
        assert leader.id not in queue._requests and not queue._by_key
        fresh, coalesced = submit(queue, coalescable=True)
        assert fresh is not leader and not coalesced

    def test_a_submit_examines_no_more_entries_as_history_grows(self):
        queue = make_queue(queue_limit=64, tenant_cap=2)
        old, _ = submit(queue, tenant="old")
        assert queue.claim(timeout=0.1) is old  # one live entry ahead of the history
        queue._requests = _CountingRequests(queue._requests)
        per_submit = []
        for index in range(6 * self.LIMIT):
            before = queue._requests.examined
            self.run_one(queue, tenant=f"t{index}")
            per_submit.append(queue._requests.examined - before)
        trimming = per_submit[self.LIMIT :]  # once the history is full
        # the live entry, then the one finished entry that goes: never the history
        assert max(trimming) <= 2, per_submit


class TestServiceConfig:
    def test_defaults_are_sane(self):
        config = ServiceConfig()
        assert config.host == "127.0.0.1"
        assert config.port == 0
        assert config.workers >= 1
        assert config.queue_limit >= 1
        assert config.tenant_cap >= 1

    def test_with_overrides_returns_a_new_frozen_snapshot(self):
        config = ServiceConfig()
        tuned = config.with_overrides(port=9465, workers=3)
        assert (tuned.port, tuned.workers) == (9465, 3)
        assert config.port == 0  # original untouched
        with pytest.raises(Exception):
            tuned.port = 1  # frozen


class TestKernelCatalogue:
    def test_catalogue_covers_the_jgf_drivers_plus_sleep(self):
        assert set(KERNELS) == {"series", "crypt", "sor", "sparse", "sleep"}

    def test_descriptions_are_wire_safe(self):
        import json

        json.dumps([kernel.describe() for kernel in KERNELS.values()])

    def test_series_run_matches_its_reference(self):
        kernel = KERNELS["series"]
        outcome = kernel.run(size="tiny", num_threads=2, backend="threads")
        assert outcome["value"] == pytest.approx(kernel.reference("tiny"))
        assert outcome["elapsed"] > 0

    def test_only_deterministic_kernels_advertise_coalescing(self):
        assert not KERNELS["sleep"].deterministic
        assert all(KERNELS[name].deterministic for name in ("series", "crypt", "sor", "sparse"))
