"""``service_open``: seeded open-loop traffic against the compute service."""

from __future__ import annotations

import queue
import random
import statistics
import threading
import time
from typing import Any

from bench.harness import SERVICE_CONFIG, geomean, median_metric, metric, percentile
from bench.workloads.base import Workload

#: fixed arrival rate of the open loop (requests per second) and the length
#: of one window; a window is one sweep
RATE = 40.0
WINDOW_SECONDS = 1.0

#: the request mix: ~70 % kernels of 2-3 ms, ~30 % kernels of ~20 ms
MIX = (
    (("crypt", "tiny"), 0.24),
    (("sor", "tiny"), 0.23),
    (("sparse", "tiny"), 0.23),
    (("series", "tiny"), 0.15),
    (("crypt", "small"), 0.15),
)
SLOW_KINDS = (("series", "tiny"), ("crypt", "small"))
TENANTS = ("tenant-0", "tenant-1", "tenant-2", "tenant-3")


def window_schedule(rng: random.Random, seconds: float = WINDOW_SECONDS) -> "list[tuple[float, str, str, str]]":
    """Seeded Poisson arrivals for one window: ``(due offset, kernel, size, tenant)``."""
    kinds = [kind for kind, _share in MIX]
    shares = [share for _kind, share in MIX]
    arrivals, due = [], rng.expovariate(RATE)
    while due < seconds:
        kernel, size = rng.choices(kinds, shares)[0]
        arrivals.append((due, kernel, size, rng.choice(TENANTS)))
        due += rng.expovariate(RATE)
    return arrivals


def _matches(value: Any, reference: Any) -> bool:
    """Service values cross JSON; compared as ``bench_service`` does (1e-6)."""
    from repro.jgf.common import values_match

    return values_match(value, reference, 1e-6)


class ServiceOpen(Workload):
    name = "service_open"
    why = (
        "open-loop Poisson traffic at 40 req/s, 4 tenants, 2-20 ms kernels, against the service on 2 pooled "
        "workers: admission, dispatch, warm pool and reply are a large share of each request"
    )
    baseline_name = "the same request run in-process on the serial backend (per request, median)"
    sweep_is_solve = False

    def setup(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.kernels import KERNELS
        from repro.service.server import ServiceThread

        self.kernels = KERNELS
        self.reference = {kind: KERNELS[kind[0]].reference(kind[1]) for kind, _share in MIX}
        with self.tracer.span("ServiceThread.start"):
            self.service = ServiceThread(**SERVICE_CONFIG)
            host, port = self.service.start()
            # Connection A submits, connection B collects, so a slow request
            # never stops the generator and the admission queue really builds.
            self.submitter = ServiceClient(host, port, timeout=60.0)
            self.collector = ServiceClient(host, port, timeout=60.0)
            self.submitter.ping()
        self.window_seconds = 0.25 if self.smoke else WINDOW_SECONDS
        self.base_seconds: "dict[tuple[str, str], float]" = {}
        #: per request, from its due time, by side (``system`` = untraced windows)
        self.latencies_by_side: "dict[str, list[float]]" = {}
        #: the rest is kept for the untraced windows only; per window and kind
        #: of request, in-process time / latency
        self.ratios: "list[dict[tuple[str, str], list[float]]]" = []
        self.lateness: "list[float]" = []
        self.payloads: "list[dict[str, Any]]" = []
        self.rejected = 0
        self.baseline()
        # Warm up with work, not with a window: a window lasts a second
        # whatever the host's speed, and set-up time is scaled to that speed.
        for tenant in TENANTS * 2:
            for kind, _share in MIX:
                self.submitter.submit(kind[0], size=kind[1], tenant=tenant, coalesce=False, wait=True, timeout=60.0)

    # -- the two sides --------------------------------------------------------

    def baseline(self) -> float:
        """Every kind of request in-process on the serial backend: the median
        of three calls for the ~1 ms kinds, one call for the ~20 ms ones."""
        total = 0.0
        for kind, _share in MIX:
            samples = []
            for _ in range(1 if kind in SLOW_KINDS else 3):
                with self.tracer.span("in_process", kernel=kind[0], size=kind[1]):
                    began = time.perf_counter()
                    outcome = self.kernels[kind[0]].run(size=kind[1], num_threads=1, backend="serial")
                    samples.append(time.perf_counter() - began)
                self.tally.check(_matches(outcome["value"], self.reference[kind]), f"in-process {kind} differs from its reference")
            self.base_seconds[kind] = statistics.median(samples)
            total += sum(samples)
        return total

    def system(self, side: str = "system") -> float:
        """One open-loop window; returns when every request of it has finished."""
        from repro.service.client import ServiceError

        schedule = window_schedule(self.rng, self.window_seconds)
        if side == "system":
            self.ratios.append({})
        submitted: "queue.Queue[tuple[str, float, tuple[str, str]] | None]" = queue.Queue()
        collector = threading.Thread(target=self._collect, args=(side, submitted), name="bench-collector")
        collector.start()
        began = time.perf_counter()
        try:
            for offset, kernel, size, tenant in schedule:
                due = began + offset
                while True:
                    remaining = due - time.perf_counter()
                    if remaining <= 0:
                        break
                    time.sleep(max(0.0, remaining - 0.0005))  # sleep short, spin the last half millisecond
                sent = time.perf_counter()
                try:
                    with self.tracer.span("submit", kernel=kernel, size=size):
                        ack = self.submitter.submit(kernel, size=size, tenant=tenant, coalesce=False, wait=False)
                except ServiceError as exc:
                    self.rejected += exc.code == "queue_full"
                    self.tally.check(False, f"submit of {kernel}/{size} refused: {exc.code}")
                    continue
                acked = time.perf_counter()
                if side == "system":
                    self.lateness.append(sent - due)
                submitted.put((ack["id"], acked - due, (kernel, size)))
        finally:
            submitted.put(None)
            collector.join()
        return time.perf_counter() - began

    def _collect(self, side: str, submitted: "queue.Queue") -> None:
        while True:
            item = submitted.get()
            if item is None:
                return
            request_id, acked_after_due, kind = item
            with self.tracer.span("wait", kernel=kind[0], size=kind[1]):
                payload = self.collector.wait(request_id, timeout=60.0)
            done = payload.get("status") == "done" and _matches(payload.get("value"), self.reference[kind])
            self.tally.check(done, f"request {request_id} {kind}: {payload.get('status')} {payload.get('error', '')}")
            if not done:
                continue
            # Completion is stamped by the service's own accept-to-finish time
            # on top of the acknowledged submit, so a reply that waits its
            # turn on connection B behind a longer request is not charged for
            # the collector's ordering.
            latency = acked_after_due + payload["total_seconds"]
            self.latencies_by_side.setdefault(side, []).append(latency)
            if side == "system":
                self.ratios[-1].setdefault(kind, []).append(self.base_seconds[kind] / latency)
                self.payloads.append(payload)

    def speedup(self, samples: "dict[str, list[float]]") -> "dict[str, Any]":
        # Per kind of request the median of in-process time / service latency
        # (the in-process time is the one measured beside that window), then
        # the geometric mean over the five kinds: the value does not move with
        # the share of each kind a seed happens to draw.  The spread shown
        # with it is that of the same number taken window by window.
        per_kind: "dict[tuple[str, str], list[float]]" = {}
        for window in self.ratios:
            for kind, ratios in window.items():
                per_kind.setdefault(kind, []).extend(ratios)
        per_window = [geomean(statistics.median(ratios) for ratios in window.values()) for window in self.ratios if window]
        return metric(geomean(statistics.median(ratios) for ratios in per_kind.values()), "ratio", per_window)

    def solve_samples(self, samples: "dict[str, list[float]]", side: str) -> "list[float]":
        """For the service the time to a solution is one request's latency."""
        return self.latencies_by_side.get(side, [])

    # -- the extra phases of a traced run -------------------------------------

    def observe(self, seconds: float, samples: "dict[str, list[float]]") -> "dict[str, dict[str, Any]]":
        closed = self._closed_loop(max(0.5, seconds * 0.25))
        merged, duplicates = self._duplicate_bursts(2 if self.smoke else 6)
        ms = 1e3
        latencies = self.latencies_by_side.get("system", [])
        queued = [p["queued_seconds"] for p in self.payloads]
        overhead = [p["total_seconds"] - p["queued_seconds"] - p["elapsed"] for p in self.payloads]
        tail_pct = 95.0
        return {
            "p50_ms": median_metric(latencies, "ms", ms),
            "p95_ms": metric(percentile(latencies, tail_pct) * ms, "ms"),
            "throughput_rps": metric(closed["completed"] / closed["wall"], "1/s"),
            "service.wire_ms_p50": median_metric(closed["wire"], "ms", ms),
            "service.queued_ms_p50": median_metric(queued, "ms", ms),
            "service.queued_ms_p95": metric(percentile(queued, tail_pct) * ms, "ms"),
            "service.dispatch_overhead_ms_p50": median_metric(overhead, "ms", ms),
            "service.kernel_ms_p50": median_metric([p["elapsed"] for p in self.payloads], "ms", ms),
            "service.coalesce_hit_share": metric(merged / duplicates if duplicates else 0.0, "fraction"),
            "service.rejected": metric(self.rejected, "count"),
            "service.generator_late_ms_p95": metric(percentile(self.lateness, tail_pct) * ms, "ms"),
        }

    def _closed_loop(self, seconds: float) -> "dict[str, Any]":
        """Saturation: two clients, each sending its next request when the last returned."""
        kinds = [kind for kind, _share in MIX]
        shares = [share for _kind, share in MIX]
        wire: "list[float]" = []
        completed = [0, 0]
        deadline = time.perf_counter() + seconds

        def client(index: int, connection: Any, rng: random.Random) -> None:
            while time.perf_counter() < deadline:
                kernel, size = rng.choices(kinds, shares)[0]
                began = time.perf_counter()
                with self.tracer.span("submit_wait", kernel=kernel, size=size):
                    payload = connection.submit(
                        kernel, size=size, tenant=TENANTS[index], coalesce=False, wait=True, timeout=60.0
                    )
                latency = time.perf_counter() - began
                done = payload.get("status") == "done" and _matches(payload.get("value"), self.reference[(kernel, size)])
                self.tally.check(done, f"closed-loop {kernel}/{size}: {payload.get('status')}")
                if done:
                    completed[index] += 1
                    wire.append(latency - payload["total_seconds"])

        threads = [
            threading.Thread(target=client, args=(index, connection, random.Random(self.rng.random())))
            for index, connection in enumerate((self.submitter, self.collector))
        ]
        began = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {"wall": time.perf_counter() - began, "completed": sum(completed), "wire": wire}

    def _duplicate_bursts(self, bursts: int, burst_size: int = 8) -> "tuple[int, int]":
        """Identical coalescable submissions in a burst: how many rode the leader."""
        merged = duplicates = 0
        for _ in range(bursts):
            acks = [
                self.submitter.submit("series", size="tiny", tenant=TENANTS[0], coalesce=True, wait=False)
                for _ in range(burst_size)
            ]
            merged += sum(1 for ack in acks if ack.get("coalesced"))
            duplicates += burst_size - 1
            for request_id in {ack["id"] for ack in acks}:
                payload = self.collector.wait(request_id, timeout=60.0)
                self.tally.check(
                    payload.get("status") == "done" and _matches(payload.get("value"), self.reference[("series", "tiny")]),
                    f"coalesced request {request_id}: {payload.get('status')}",
                )
        return merged, duplicates

    def teardown(self):
        self.submitter.close()
        self.collector.close()
        with self.tracer.span("ServiceThread.drain"):
            began = time.perf_counter()
            self.service.drain()
            self.drain_seconds = time.perf_counter() - began
        return self.service.service.dispatch.leaked_workers()
