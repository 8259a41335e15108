"""The metrics registry: a fixed catalogue over per-thread int cell vectors.

Every *summable* metric (counters and histogram cells) lives in one flat
slot vector whose layout is fixed at registry construction: counters first
(their slots are import-time constants, independent of configuration), then
each histogram's bucket cells plus an integer-nanosecond sum cell.  The
layout is a pure function of the ``AOMP_METRICS_BUCKETS`` boundaries, so
every process of a team — fork children, subinterpreters, spawned socket
workers — derives the *same* layout from its inherited environment and raw
``(slot, value)`` deltas can cross process boundaries without any schema.

Increments touch a per-thread cell list (no lock, GIL/atomic int adds);
reads merge all thread vectors plus the ``_external`` vector where deltas
absorbed from other processes land.  :meth:`MetricsRegistry.flush_delta`
*moves* counts out (flush-and-clear), which is what makes cross-process
aggregation exactly-once: a worker's counts live either in its registry, in
a :class:`~repro.obs.arena.MetricsArena` cell range, or in the master's
``_external`` vector — never in two places.

Gauges are point-in-time, not summable: they live in a plain dict keyed by
``(name, label-items)``, and *collectors* (callables returning gauge
samples, e.g. the worker monitor's liveness view) are invoked at snapshot
time only.

Forked children inherit the parent's cell vectors; an ``os.register_at_fork``
hook drops the registry in the child so it rebuilds zeroed and never ships
the parent's pre-fork counts twice.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Any, Callable, Iterable

# ---------------------------------------------------------------------------
# The catalogue (fixed at import time)
# ---------------------------------------------------------------------------

#: ``(name, help text, label name or None, label values)`` — the full set of
#: counters.  Order is load-bearing: slot indices are assigned in catalogue
#: order, and cross-process deltas are exchanged as raw slot indices.
COUNTER_SPECS: "tuple[tuple[str, str, str | None, tuple[str, ...]], ...]" = (
    ("aomp_regions_total", "Parallel regions by lifecycle event.", "event",
     ("entered", "completed", "retried", "degraded", "failed")),
    ("aomp_chunks_total", "Work-shared loop chunks dispatched, by schedule.", "schedule",
     ("static_block", "static_cyclic", "dynamic", "guided", "serial", "other")),
    ("aomp_tasks_total", "Explicit tasks by lifecycle event.", "event",
     ("spawned", "stolen", "completed")),
    ("aomp_barriers_total", "Team barrier rounds entered.", None, ()),
    ("aomp_barrier_breaks_total", "Team barriers broken (abort or timeout).", None, ()),
    ("aomp_tune_decisions_total", "Adaptive tuner schedule decisions.", None, ()),
    ("aomp_faults_injected_total", "Deterministic AOMP_FAULTS rules fired, by action.", "action",
     ("kill", "raise", "stall", "other")),
    ("aomp_worker_deaths_total", "Team member processes seen dead by the monitor.", None, ()),
    ("aomp_pool_heals_total", "Persistent-pool workers replaced after a death.", None, ()),
    ("aomp_rpc_calls_total", "Data-plane RPC round-trips (socket-plane workers).", None, ()),
    ("aomp_rpc_bytes_total", "Data-plane RPC frame bytes, by direction.", "direction",
     ("sent", "received")),
    # Compute-service request lifecycle (src/repro/service).  Appended last:
    # slot order is load-bearing and every process derives it from this
    # catalogue, so extension is append-only.
    ("aomp_service_requests_total", "Compute-service requests by lifecycle event.", "event",
     ("accepted", "rejected", "coalesced", "completed", "failed", "cancelled")),
    ("aomp_distributed_teams_total", "Distributed worker teams by lifecycle event (reused = a warm region).", "event",
     ("spawned", "reused", "retired")),
    ("aomp_member_moves_total", "Team members re-placed because their master changed processor.", None, ()),
)

#: ``(name, help text)`` — histograms over seconds.  Bucket boundaries come
#: from ``RuntimeConfig.metrics_buckets``; sums are stored as integer
#: nanoseconds so they remain summable int64 cells.
HISTOGRAM_SPECS: "tuple[tuple[str, str], ...]" = (
    ("aomp_barrier_wait_seconds", "Time blocked in team barriers (load-imbalance signal)."),
    ("aomp_rpc_rtt_seconds", "Data-plane RPC round-trip time (socket-plane workers)."),
    ("aomp_service_request_seconds", "Compute-service end-to-end request latency (accept to finish)."),
)

#: gauge help texts (gauges are set ad hoc; this drives exposition only).
GAUGE_HELP: "dict[str, str]" = {
    "aomp_member_alive": "Per-member liveness (1 = beating, 0 = seen dead).",
    "aomp_member_last_beat_age_seconds": "Seconds since a member's last heartbeat.",
    "aomp_task_deque_depth": "Depth of a member's work-stealing task deque.",
    "aomp_service_queue_depth": "Compute-service requests admitted and waiting for a dispatch worker.",
    "aomp_service_running": "Compute-service requests currently executing on a dispatch worker.",
    "aomp_service_workers": "Dispatch workers serving the compute service.",
}


def _assign_counter_slots() -> "dict[tuple[str, str | None], int]":
    slots: "dict[tuple[str, str | None], int]" = {}
    index = 0
    for name, _help, label, values in COUNTER_SPECS:
        if label is None:
            slots[(name, None)] = index
            index += 1
        else:
            for value in values:
                slots[(name, value)] = index
                index += 1
    return slots


_COUNTER_SLOTS = _assign_counter_slots()
NUM_COUNTER_SLOTS = len(_COUNTER_SLOTS)


def counter_slot(name: str, label: "str | None" = None) -> int:
    """Slot index of a catalogued counter (import-time constant)."""
    return _COUNTER_SLOTS[(name, label)]


# Named slot constants for the guard sites (hot paths index by int).
REGIONS_ENTERED = counter_slot("aomp_regions_total", "entered")
REGIONS_COMPLETED = counter_slot("aomp_regions_total", "completed")
REGIONS_RETRIED = counter_slot("aomp_regions_total", "retried")
REGIONS_DEGRADED = counter_slot("aomp_regions_total", "degraded")
REGIONS_FAILED = counter_slot("aomp_regions_total", "failed")
CHUNK_SLOTS = {
    value: counter_slot("aomp_chunks_total", value)
    for value in ("static_block", "static_cyclic", "dynamic", "guided", "serial", "other")
}
CHUNKS_OTHER = CHUNK_SLOTS["other"]
TASKS_SPAWNED = counter_slot("aomp_tasks_total", "spawned")
TASKS_STOLEN = counter_slot("aomp_tasks_total", "stolen")
TASKS_COMPLETED = counter_slot("aomp_tasks_total", "completed")
BARRIERS = counter_slot("aomp_barriers_total")
BARRIER_BREAKS = counter_slot("aomp_barrier_breaks_total")
TUNE_DECISIONS = counter_slot("aomp_tune_decisions_total")
FAULT_SLOTS = {
    value: counter_slot("aomp_faults_injected_total", value)
    for value in ("kill", "raise", "stall", "other")
}
WORKER_DEATHS = counter_slot("aomp_worker_deaths_total")
POOL_HEALS = counter_slot("aomp_pool_heals_total")
RPC_CALLS = counter_slot("aomp_rpc_calls_total")
RPC_BYTES_SENT = counter_slot("aomp_rpc_bytes_total", "sent")
RPC_BYTES_RECEIVED = counter_slot("aomp_rpc_bytes_total", "received")
SERVICE_REQUEST_SLOTS = {
    value: counter_slot("aomp_service_requests_total", value)
    for value in ("accepted", "rejected", "coalesced", "completed", "failed", "cancelled")
}
DISTRIBUTED_TEAMS_SPAWNED = counter_slot("aomp_distributed_teams_total", "spawned")
DISTRIBUTED_TEAMS_REUSED = counter_slot("aomp_distributed_teams_total", "reused")
DISTRIBUTED_TEAMS_RETIRED = counter_slot("aomp_distributed_teams_total", "retired")
MEMBER_MOVES = counter_slot("aomp_member_moves_total")


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

#: gauge label sets are stored as sorted ``(key, value)`` item tuples.
GaugeKey = "tuple[tuple[str, str], ...]"


class MetricsRegistry:
    """Per-process accumulator for the fixed metric catalogue."""

    def __init__(self, buckets: "Iterable[float] | None" = None) -> None:
        if buckets is None:
            from repro.runtime.config import get_config

            buckets = get_config().metrics_buckets
        self.buckets: "tuple[float, ...]" = tuple(float(b) for b in buckets)
        self._nb = len(self.buckets) + 1  # + the +Inf overflow bucket
        self._hist_base: "dict[str, int]" = {}
        index = NUM_COUNTER_SLOTS
        for name, _help in HISTOGRAM_SPECS:
            self._hist_base[name] = index
            index += self._nb + 1  # bucket cells + integer-ns sum cell
        self.num_slots = index
        self._lock = threading.Lock()
        self._buffers: "list[list[int]]" = []
        self._local = threading.local()
        self._external = [0] * self.num_slots
        self._gauges: "dict[tuple[str, Any], float]" = {}
        self._collectors: "list[Callable[[], Iterable[tuple[str, Any, float]]]]" = []

    # -- summable hot path ---------------------------------------------------

    def cells(self) -> "list[int]":
        """The calling thread's private cell vector (registered on first use)."""
        try:
            return self._local.cells
        except AttributeError:
            cells = [0] * self.num_slots
            with self._lock:
                self._buffers.append(cells)
            self._local.cells = cells
            return cells

    def add(self, slot: int, amount: int = 1) -> None:
        self.cells()[slot] += amount

    def hist_base(self, name: str) -> int:
        """First slot of a histogram's cell block (buckets then ns-sum)."""
        return self._hist_base[name]

    def observe(self, base: int, seconds: float) -> None:
        """Record one observation into the histogram whose block starts at ``base``."""
        cells = self.cells()
        cells[base + bisect_left(self.buckets, seconds)] += 1
        cells[base + self._nb] += int(seconds * 1e9)

    # -- gauges and collectors ----------------------------------------------

    def set_gauge(self, name: str, labels: "dict[str, Any] | None", value: float) -> None:
        key = tuple(sorted((k, str(v)) for k, v in (labels or {}).items()))
        self._gauges[(name, key)] = float(value)

    def clear_gauge(self, name: str, labels: "dict[str, Any] | None" = None) -> None:
        key = tuple(sorted((k, str(v)) for k, v in (labels or {}).items()))
        self._gauges.pop((name, key), None)

    def register_collector(self, collector: "Callable[[], Iterable[tuple[str, Any, float]]]") -> None:
        """Register a callable yielding ``(name, labels, value)`` gauge samples."""
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def unregister_collector(self, collector: "Callable[[], Iterable[tuple[str, Any, float]]]") -> None:
        with self._lock:
            try:
                self._collectors.remove(collector)
            except ValueError:
                pass

    # -- merge / move --------------------------------------------------------

    def _summed(self) -> "list[int]":
        with self._lock:
            totals = list(self._external)
            buffers = list(self._buffers)
        for cells in buffers:
            for slot, value in enumerate(cells):
                if value:
                    totals[slot] += value
        return totals

    def flush_delta(self) -> "list[tuple[int, int]]":
        """Move every accumulated count out as sparse ``(slot, value)`` pairs.

        Counts are cleared as they are read, so a flush-ship-absorb chain
        counts each increment exactly once.  Callers flush at quiescent
        points (member completion, barrier frames) — a racing increment from
        another thread of the *same* process may slip to the next flush,
        never be lost to a reader.
        """
        totals = [0] * self.num_slots
        with self._lock:
            buffers = list(self._buffers)
            for slot in range(self.num_slots):
                value = self._external[slot]
                if value:
                    totals[slot] += value
                    self._external[slot] = 0
        for cells in buffers:
            for slot in range(self.num_slots):
                value = cells[slot]
                if value:
                    totals[slot] += value
                    cells[slot] = 0
        return [(slot, value) for slot, value in enumerate(totals) if value]

    def absorb(self, pairs: "Iterable[tuple[int, int]]") -> None:
        """Fold a flushed delta (possibly from another process) into this registry."""
        with self._lock:
            for slot, value in pairs:
                if 0 <= slot < self.num_slots:
                    self._external[slot] += value

    def reset(self) -> None:
        """Zero every count and drop gauges/collectors (tests, forked children)."""
        with self._lock:
            for cells in self._buffers:
                for slot in range(self.num_slots):
                    cells[slot] = 0
            self._external = [0] * self.num_slots
            self._gauges.clear()
            self._collectors.clear()

    # -- snapshot ------------------------------------------------------------

    def gauge_samples(self) -> "list[tuple[str, Any, float]]":
        with self._lock:
            items = [(name, key, value) for (name, key), value in self._gauges.items()]
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                for name, labels, value in collector():
                    key = tuple(sorted((k, str(v)) for k, v in (labels or {}).items()))
                    items.append((name, key, float(value)))
            except Exception:
                continue  # a dying monitor must not poison the snapshot
        return items

    def snapshot(self) -> "dict[str, Any]":
        """Merged, JSON-friendly view of every metric."""
        totals = self._summed()
        counters: "dict[str, Any]" = {}
        for name, _help, label, values in COUNTER_SPECS:
            if label is None:
                counters[name] = totals[_COUNTER_SLOTS[(name, None)]]
            else:
                counters[name] = {value: totals[_COUNTER_SLOTS[(name, value)]] for value in values}
        histograms: "dict[str, Any]" = {}
        for name, _help in HISTOGRAM_SPECS:
            base = self._hist_base[name]
            counts = totals[base : base + self._nb]
            histograms[name] = {
                "buckets": list(self.buckets),
                "counts": counts,
                "count": sum(counts),
                "sum": totals[base + self._nb] / 1e9,
            }
        gauges: "dict[str, dict[tuple, float]]" = {}
        for name, key, value in self.gauge_samples():
            gauges.setdefault(name, {})[key] = value
        return {"counters": counters, "histograms": histograms, "gauges": gauges}


# ---------------------------------------------------------------------------
# The process-wide registry and its module-level fast API
# ---------------------------------------------------------------------------

_registry: "MetricsRegistry | None" = None
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry, built lazily from the current bucket config."""
    reg = _registry
    if reg is None:
        with _registry_lock:
            reg = _registry
            if reg is None:
                globals()["_registry"] = reg = MetricsRegistry()
    return reg


def reset(buckets: "Iterable[float] | None" = None) -> MetricsRegistry:
    """Replace the process registry with a fresh, zeroed one (tests)."""
    with _registry_lock:
        globals()["_registry"] = reg = MetricsRegistry(buckets)
    return reg


def metrics_enabled() -> bool:
    """Cheap predicate mirroring ``RuntimeConfig.metrics``."""
    from repro.runtime.config import get_config

    return get_config().metrics


def inc(slot: int, amount: int = 1) -> None:
    get_registry().add(slot, amount)


def observe(histogram: str, seconds: float) -> None:
    reg = get_registry()
    reg.observe(reg.hist_base(histogram), seconds)


def set_gauge(name: str, labels: "dict[str, Any] | None", value: float) -> None:
    get_registry().set_gauge(name, labels, value)


def clear_gauge(name: str, labels: "dict[str, Any] | None" = None) -> None:
    get_registry().clear_gauge(name, labels)


def register_collector(collector: "Callable[[], Iterable[tuple[str, Any, float]]]") -> None:
    get_registry().register_collector(collector)


def unregister_collector(collector: "Callable[[], Iterable[tuple[str, Any, float]]]") -> None:
    get_registry().unregister_collector(collector)


def flush_delta() -> "list[tuple[int, int]]":
    return get_registry().flush_delta()


def absorb(pairs: "Iterable[tuple[int, int]]") -> None:
    get_registry().absorb(pairs)


def _after_fork_in_child() -> None:
    # The child inherited the parent's cell vectors; shipping them would
    # double-count everything the parent already holds.  Drop the registry so
    # the child rebuilds zeroed on first use.
    globals()["_registry"] = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI
    os.register_at_fork(after_in_child=_after_fork_in_child)
