"""End-to-end compute-service tests: real sockets, real teams, real scrapes.

Each test starts a :class:`repro.service.server.ServiceThread` on an
ephemeral port and drives it through :class:`ServiceClient` sockets — the
same wire path ``scripts/aomp_serve.py`` serves.  Failure paths are asserted
against team/pool state (no leaked workers, clean drains), not just wire
responses.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.request

import pytest

import repro.obs.exposition as expo
from repro.runtime import shm
from repro.runtime.config import config_override
from repro.service.client import ServiceClient, ServiceError
from repro.service.kernels import KERNELS
from repro.service.server import ServiceThread

requires_fork = pytest.mark.skipif(not shm.fork_available(), reason="process scenarios need fork")


@pytest.fixture
def service():
    """A running threads-backend service; drained (if still up) at teardown."""
    threads = [None]

    def start(**overrides) -> ServiceThread:
        defaults = dict(
            backend="threads", workers=2, port=0, queue_limit=8, tenant_cap=2, tune_dir=None
        )
        defaults.update(overrides)
        thread = ServiceThread(**defaults)
        thread.start()
        threads[0] = thread
        return thread

    yield start
    thread = threads[0]
    if thread is not None and not thread.service._drained.is_set():
        thread.drain()


def client_for(thread: ServiceThread) -> ServiceClient:
    host, port = thread.address
    return ServiceClient(host, port, timeout=60.0)


class TestProtocol:
    def test_ping_kernels_and_error_codes(self, service):
        thread = service()
        with client_for(thread) as client:
            assert client.ping()["pong"] is True
            names = {entry["name"] for entry in client.kernels()}
            assert names == set(KERNELS)
            with pytest.raises(ServiceError) as excinfo:
                client.call("warp")
            assert excinfo.value.code == "unknown_op"
            with pytest.raises(ServiceError) as excinfo:
                client.submit("linpack")
            assert excinfo.value.code == "unknown_kernel"
            with pytest.raises(ServiceError) as excinfo:
                client.poll("r-404")
            assert excinfo.value.code == "not_found"

    def test_malformed_json_gets_an_error_not_a_hangup(self, service):
        thread = service()
        host, port = thread.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            response = json.loads(sock.makefile("rb").readline())
        assert response == {"ok": False, "error": "request is not valid JSON", "code": "bad_json"}

    def test_submit_poll_roundtrip(self, service):
        thread = service()
        with client_for(thread) as client:
            submitted = client.submit("series", size="tiny", num_threads=2)
            assert submitted["status"] in ("queued", "running")
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                polled = client.poll(submitted["id"])
                if polled["status"] == "done":
                    break
                time.sleep(0.05)
            assert polled["status"] == "done"
            assert polled["value"] == pytest.approx(KERNELS["series"].reference("tiny"))


class TestConcurrentClients:
    def test_four_clients_get_serial_identical_results(self, service):
        thread = service(workers=2, queue_limit=32)
        jobs = [("series", "tiny"), ("sor", "tiny"), ("sparse", "tiny"), ("crypt", "tiny")]
        results: "list[tuple[str, object]]" = []
        failures: "list[BaseException]" = []

        def one_client(kernel: str, size: str) -> None:
            try:
                with client_for(thread) as client:
                    response = client.submit(
                        kernel, size=size, num_threads=2, wait=True, timeout=60, coalesce=False
                    )
                    assert response["status"] == "done", response
                    results.append((kernel, response["value"]))
            except BaseException as exc:  # surfaced by the main thread
                failures.append(exc)

        workers = [threading.Thread(target=one_client, args=job) for job in jobs]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=90)
        assert not failures, failures
        assert len(results) == len(jobs)
        for kernel, value in results:
            assert value == pytest.approx(KERNELS[kernel].reference("tiny")), kernel

    def test_coalesced_submissions_share_one_result(self, service):
        thread = service(workers=1)
        with client_for(thread) as first, client_for(thread) as second:
            # Keep the only worker busy (~0.25 s) so the leader is still queued
            # when its twin arrives: a finished leader stops attracting, and a
            # tiny kernel can finish inside one socket round-trip.
            first.submit("sleep", size="small", num_threads=2, coalesce=False)
            leader = first.submit("series", size="tiny", num_threads=2)
            follower = second.submit("series", size="tiny", num_threads=2)
            assert follower["id"] == leader["id"]
            assert follower["coalesced"] is True
            done = first.wait(leader["id"], timeout=60)
            assert done["status"] == "done"
            assert done["merged"] >= 1


class TestBackpressure:
    def test_queue_full_rejection_is_loud_and_recoverable(self, service):
        thread = service(workers=1, queue_limit=2, tenant_cap=1)
        with client_for(thread) as client:
            # one running + two queued fills the worker and the wait queue;
            # the first is claimed before the others arrive, or the third
            # would find two waiting and be the one refused.  It runs for
            # seconds, not a fraction of one, so it is still running when
            # the over-limit submit arrives.
            ids = [client.submit("sleep", size="a", num_threads=2, coalesce=False)["id"]]
            deadline = time.monotonic() + 30
            while client.stats()["service"]["running"] < 1:
                assert time.monotonic() < deadline, "the worker never claimed the first request"
                time.sleep(0.02)
            ids += [
                client.submit("sleep", size="small", num_threads=2, coalesce=False)["id"]
                for _ in range(2)
            ]
            with pytest.raises(ServiceError) as excinfo:
                client.submit("sleep", size="small", num_threads=2, coalesce=False)
            assert excinfo.value.code == "queue_full"
            for request_id in ids:
                client.cancel(request_id)
            # the queue drains; new work is admitted again
            done = client.submit("series", size="tiny", num_threads=2, wait=True, timeout=60)
            assert done["status"] == "done"

    def test_stats_op_reports_queue_shape(self, service):
        thread = service(queue_limit=8, tenant_cap=2)
        with client_for(thread) as client:
            stats = client.stats()
            assert stats["service"]["queue_limit"] == 8
            assert stats["service"]["tenant_cap"] == 2
            assert stats["workers"] == 2
            assert stats["service"]["draining"] is False


class TestCancellation:
    def test_cancel_in_flight_aborts_the_team_promptly(self, service):
        thread = service(workers=1)
        with client_for(thread) as client:
            # ~5s of work-shared sleeping on a 2-member team
            request_id = client.submit("sleep", size="a", num_threads=2, coalesce=False)["id"]
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.poll(request_id)["status"] == "running":
                    break
                time.sleep(0.02)
            cancelled = client.cancel(request_id)
            assert cancelled["status"] in ("cancelling", "cancelled")
            began = time.monotonic()
            final = client.wait(request_id, timeout=30)
            assert final["status"] == "cancelled"
            # the abort-aware claim loop unwinds within a batch, not the
            # remaining ~5s of the loop
            assert time.monotonic() - began < 3.0
            assert final["error_code"] == "cancelled"
            # the worker is healthy again: the next request completes
            done = client.submit("series", size="tiny", num_threads=2, wait=True, timeout=60)
            assert done["status"] == "done"

    def test_cancel_queued_never_runs(self, service):
        thread = service(workers=1, tenant_cap=1, queue_limit=8)
        with client_for(thread) as client:
            running = client.submit("sleep", size="small", num_threads=2, coalesce=False)["id"]
            queued = client.submit("series", size="tiny", coalesce=False)["id"]
            assert client.cancel(queued)["status"] == "cancelled"
            assert client.poll(queued)["status"] == "cancelled"
            client.cancel(running)


class TestClientDisconnect:
    def test_disconnect_mid_wait_leaves_the_request_running(self, service):
        thread = service(workers=1)
        with client_for(thread) as submitter:
            request_id = submitter.submit("sleep", size="small", num_threads=2, coalesce=False)["id"]
        # a second connection starts a blocking wait, then drops mid-wait
        host, port = thread.address
        waiter = socket.create_connection((host, port), timeout=10)
        waiter.sendall((json.dumps({"op": "wait", "id": request_id}) + "\n").encode())
        time.sleep(0.2)
        waiter.close()
        # the request is unaffected: pollable and completing from a fresh socket
        with client_for(thread) as observer:
            final = observer.wait(request_id, timeout=60)
        assert final["status"] == "done"
        assert final["value"] == pytest.approx(KERNELS["sleep"].reference("small"))


class TestDrain:
    def test_drain_with_inflight_work_finishes_it_first(self, service):
        thread = service(workers=1, drain_timeout=30.0)
        with client_for(thread) as client:
            request_id = client.submit("sleep", size="small", num_threads=2, coalesce=False)["id"]
            time.sleep(0.2)  # ensure it is in flight when the drain starts
        result = thread.drain()
        assert result["drained"] is True and result["forced_cancels"] == 0
        request = thread.service.queue.get(request_id)
        assert request is not None and request.state == "done"
        self._assert_clean(thread)

    def test_drain_past_its_timeout_cancels_stragglers(self, service):
        thread = service(workers=1, drain_timeout=0.2)
        with client_for(thread) as client:
            request_id = client.submit("sleep", size="a", num_threads=2, coalesce=False)["id"]
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.poll(request_id)["status"] == "running":
                    break
                time.sleep(0.02)
        began = time.monotonic()
        result = thread.drain()
        assert result["drained"] is True and result["forced_cancels"] == 1
        assert time.monotonic() - began < 15.0  # not the ~5s loop plus margins
        request = thread.service.queue.get(request_id)
        assert request is not None and request.state == "cancelled"
        self._assert_clean(thread)

    def test_drain_rejects_new_submissions(self, service):
        thread = service()
        with client_for(thread) as client:
            client.submit("series", size="tiny", wait=True, timeout=60)
        thread.drain()
        assert thread.service.queue.draining
        from repro.service.admission import Draining

        with pytest.raises(Draining) as excinfo:
            thread.service.queue.submit(tenant="late", kernel="series", params={"size": "tiny"})
        assert excinfo.value.code == "draining"

    def test_tenant_names_cannot_escape_the_tune_dir(self, service, tmp_path):
        tune_dir = tmp_path / "td" / "inner"
        thread = service(tune_dir=str(tune_dir))
        with client_for(thread) as client:
            for tenant in ("../escaped", str(tmp_path / "abs_escape"), ".hidden", "a/b", ""):
                with pytest.raises(ServiceError) as excinfo:
                    client.submit("series", size="tiny", tenant=tenant, wait=True, timeout=60)
                assert excinfo.value.code == "bad_tenant", tenant
            assert client.submit("series", size="tiny", tenant="acme-1.b", wait=True, timeout=60)["status"] == "done"
        thread.drain()
        outside = [path for path in tmp_path.rglob("*") if path.is_file() and tune_dir not in path.parents]
        assert outside == []

    @staticmethod
    def _assert_clean(thread: ServiceThread) -> None:
        """Post-drain invariants: no dispatch threads, no pool processes."""
        assert thread.service.dispatch.leaked_workers() == []
        for worker in thread.service.dispatch.workers:
            assert not worker.is_alive()


class TestMetricsScrape:
    def test_counters_and_latency_surface_on_a_real_scrape(self, service):
        with config_override(metrics=True, metrics_port=0):
            thread = service(workers=2)
            port = thread.service.metrics_port
            assert port and port > 0
            try:
                with client_for(thread) as client:
                    assert client.stats()["metrics_port"] == port
                    for _ in range(3):
                        done = client.submit(
                            "series", size="tiny", num_threads=2, wait=True,
                            timeout=60, coalesce=False,
                        )
                        assert done["status"] == "done"
                    with pytest.raises(ServiceError):
                        client.poll("r-404")  # not a lifecycle metric; sanity only
                    url = f"http://127.0.0.1:{port}/metrics"
                    with urllib.request.urlopen(url, timeout=10) as response:
                        body = response.read().decode("utf-8")
                assert 'aomp_service_requests_total{event="accepted"} 3' in body
                assert 'aomp_service_requests_total{event="completed"} 3' in body
                assert "aomp_service_request_seconds_count 3" in body
                assert "aomp_service_queue_depth 0" in body
                assert "aomp_service_workers 2" in body
            finally:
                thread.drain()
                expo.stop_exporter()
        # the drain unregistered the service's gauge collector
        rendered = expo.render_prometheus()
        assert "aomp_service_queue_depth" not in rendered


@requires_fork
class TestProcessBackendService:
    def test_warm_pool_serves_and_drains_without_leaks(self, service):
        thread = service(backend="processes", workers=1, num_threads=2)
        worker = thread.service.dispatch.workers[0]
        pool = getattr(worker.backend, "_pool", None)
        assert pool is not None and pool.healthy  # pre-spawned at start
        with client_for(thread) as client:
            for _ in range(2):  # second request reuses the warm pool
                done = client.submit(
                    "crypt", size="tiny", num_threads=2, wait=True, timeout=120, coalesce=False
                )
                assert done["status"] == "done"
                assert done["value"] == pytest.approx(KERNELS["crypt"].reference("tiny"))
        assert worker.backend._pool is pool  # same pool instance: no respawn churn
        thread.drain()
        assert thread.service.dispatch.leaked_workers() == []


class TestDistributedBackendService:
    def test_parked_team_serves_and_drains_without_leaks(self, service):
        """Any backend that keeps workers is retired by the drain, not only a
        pool: each dispatch worker owns its team, and nothing is left of it."""
        from repro.runtime.backend import backend_by_name

        thread = service(backend="distributed", workers=1, num_threads=2)
        worker = thread.service.dispatch.workers[0]
        assert worker.backend is not backend_by_name("distributed")  # private, as a pool is
        with client_for(thread) as client:
            for _ in range(2):
                done = client.submit("crypt", size="tiny", num_threads=2, wait=True, timeout=120, coalesce=False)
                assert done["status"] == "done"
                assert done["value"] == pytest.approx(KERNELS["crypt"].reference("tiny"))
        spawned = [proc.pid for proc in worker.backend.live_workers()]
        thread.drain()
        assert thread.service.dispatch.leaked_workers() == []
        # Reaped before the drain returned: not running, and no zombie either.
        assert not any(os.path.exists(f"/proc/{pid}") for pid in spawned)

