"""Admission control: bounded queueing, per-tenant caps, request coalescing.

The admission queue is the synchronous heart of the service — plain
``threading`` primitives, no asyncio — so dispatch workers block on it
directly and the asyncio front-end bridges through
``loop.call_soon_threadsafe`` waiter callbacks.

Backpressure is a *bounded wait queue*: a submit past ``queue_limit``
waiting requests is rejected immediately with ``queue_full`` (the 429 of
this protocol) instead of being accepted into an unbounded backlog the
service cannot serve before the client gives up.

Per-tenant fairness is a *running-request cap*: claim order is FIFO except
that a tenant already running ``tenant_cap`` requests is skipped, letting
other tenants' work pass until one of its slots frees.

Coalescing folds concurrent identical submissions of a *deterministic*
kernel onto the in-flight leader: followers get the leader's request id (and
therefore its result) and only one region runs.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from typing import Any, Callable

import repro.obs.registry as obsreg
from repro.runtime.config import get_config

#: finished requests kept pollable after completion (bounded history).
HISTORY_LIMIT = 1024

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: states a request can still be coalesced onto / cancelled in.
_LIVE_STATES = (QUEUED, RUNNING)


class AdmissionError(Exception):
    """Base for admission rejections; ``code`` is the wire error code."""

    code = "rejected"


class QueueFull(AdmissionError):
    """The bounded wait queue is at capacity (back off and retry)."""

    code = "queue_full"


class Draining(AdmissionError):
    """The service is draining and accepts no new work."""

    code = "draining"


class Request:
    """One admitted compute request and its lifecycle bookkeeping."""

    def __init__(self, request_id: str, tenant: str, kernel: str, params: "dict[str, Any]") -> None:
        self.id = request_id
        self.tenant = tenant
        self.kernel = kernel
        self.params = params
        self.state = QUEUED
        self.created = time.monotonic()
        self.started = 0.0
        self.finished = 0.0
        self.value: Any = None
        self.elapsed = 0.0
        self.error: "str | None" = None
        self.error_code: "str | None" = None
        self.cancel_requested = False
        #: followers coalesced onto this request (diagnostics).
        self.merged = 0
        self.done = threading.Event()
        #: ``(loop, future)`` pairs resolved via call_soon_threadsafe on finish.
        self._waiters: "list[tuple[Any, Any]]" = []

    # -- wire views ----------------------------------------------------------

    def payload(self) -> "dict[str, Any]":
        """The JSON-safe completion/status view clients receive."""
        out: "dict[str, Any]" = {
            "id": self.id,
            "tenant": self.tenant,
            "kernel": self.kernel,
            "status": self.state,
            "merged": self.merged,
        }
        if self.state in (DONE, FAILED, CANCELLED):
            out["queued_seconds"] = (self.started or self.finished) - self.created
            out["total_seconds"] = self.finished - self.created
        if self.state == DONE:
            out["value"] = self.value
            out["elapsed"] = self.elapsed
        if self.error is not None:
            out["error"] = self.error
        if self.error_code is not None:
            out["error_code"] = self.error_code
        return out

    # -- waiter plumbing (called by the asyncio front-end) -------------------

    def add_waiter(self, loop: Any, future: Any) -> None:
        notify = False
        with _WAITER_LOCK:
            if self.done.is_set():
                notify = True
            else:
                self._waiters.append((loop, future))
        if notify:
            _resolve_waiter(loop, future, self)

    def discard_waiter(self, future: Any) -> None:
        """Detach a waiter whose client went away; the request keeps running."""
        with _WAITER_LOCK:
            self._waiters = [(lp, fut) for lp, fut in self._waiters if fut is not future]

    def _notify(self) -> None:
        with _WAITER_LOCK:
            waiters, self._waiters = self._waiters, []
            self.done.set()
        for loop, future in waiters:
            _resolve_waiter(loop, future, self)


#: waiter registration vs completion ordering (shared: contention is nil).
_WAITER_LOCK = threading.Lock()


def _resolve_waiter(loop: Any, future: Any, request: Request) -> None:
    def complete() -> None:
        if not future.done():
            future.set_result(request)

    try:
        loop.call_soon_threadsafe(complete)
    except RuntimeError:
        pass  # the waiter's event loop already closed (client is gone)


def _coalesce_key(tenant: str, kernel: str, params: "dict[str, Any]") -> "tuple[Any, ...]":
    return (tenant, kernel, tuple(sorted(params.items())))


class AdmissionQueue:
    """Thread-safe bounded admission queue with caps and coalescing."""

    def __init__(self, *, queue_limit: int, tenant_cap: int) -> None:
        self.queue_limit = queue_limit
        self.tenant_cap = tenant_cap
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._pending: "list[Request]" = []
        self._running: "dict[str, int]" = {}  # tenant -> running count
        self._requests: "OrderedDict[str, Request]" = OrderedDict()
        self._by_key: "dict[tuple[Any, ...], Request]" = {}
        self._ids = itertools.count(1)
        self._draining = False

    # -- metrics -------------------------------------------------------------

    def _count(self, event: str) -> None:
        if get_config().metrics:
            obsreg.inc(obsreg.SERVICE_REQUEST_SLOTS[event])

    def gauge_samples(self) -> "list[tuple[str, dict, float]]":
        """Queue-depth/running gauges (registered as an obs collector)."""
        with self._lock:
            depth = len(self._pending)
            running = sum(self._running.values())
        return [
            ("aomp_service_queue_depth", {}, float(depth)),
            ("aomp_service_running", {}, float(running)),
        ]

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        *,
        tenant: str,
        kernel: str,
        params: "dict[str, Any]",
        coalescable: bool = False,
    ) -> "tuple[Request, bool]":
        """Admit one request; returns ``(request, coalesced)``.

        Raises :class:`Draining` once a drain started and :class:`QueueFull`
        when the wait queue is at capacity.  ``coalescable`` submissions of
        an identical live request return the leader instead of a new entry.
        """
        key = _coalesce_key(tenant, kernel, params)
        with self._lock:
            if self._draining:
                self._count("rejected")
                raise Draining("service is draining; not accepting new requests")
            if coalescable:
                leader = self._by_key.get(key)
                if leader is not None and leader.state in _LIVE_STATES and not leader.cancel_requested:
                    leader.merged += 1
                    self._count("coalesced")
                    return leader, True
            if len(self._pending) >= self.queue_limit:
                self._count("rejected")
                raise QueueFull(
                    f"admission queue is full ({self.queue_limit} waiting); retry with backoff"
                )
            request = Request(f"r-{next(self._ids)}", tenant, kernel, params)
            self._pending.append(request)
            self._requests[request.id] = request
            if coalescable:
                self._by_key[key] = request
            self._trim_history()
            self._work_ready.notify()
        self._count("accepted")
        return request, False

    def get(self, request_id: str) -> "Request | None":
        with self._lock:
            return self._requests.get(request_id)

    # -- dispatch side -------------------------------------------------------

    def claim(self, timeout: "float | None" = None) -> "Request | None":
        """Block for the next dispatchable request (FIFO, tenants under cap).

        Returns ``None`` on timeout — dispatch workers poll so they can
        observe shutdown.  The claimed request is in ``RUNNING`` state and
        counted against its tenant until :meth:`finish`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                for index, request in enumerate(self._pending):
                    if self._running.get(request.tenant, 0) < self.tenant_cap:
                        del self._pending[index]
                        request.state = RUNNING
                        request.started = time.monotonic()
                        self._running[request.tenant] = self._running.get(request.tenant, 0) + 1
                        return request
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._work_ready.wait(remaining)

    def finish(
        self,
        request: Request,
        *,
        value: Any = None,
        elapsed: float = 0.0,
        error: "str | None" = None,
        error_code: "str | None" = None,
        cancelled: bool = False,
    ) -> None:
        """Record a running request's outcome and wake its waiters."""
        with self._lock:
            request.finished = time.monotonic()
            if cancelled:
                request.state = CANCELLED
                request.error = error or "cancelled"
                request.error_code = error_code or "cancelled"
            elif error is not None:
                request.state = FAILED
                request.error = error
                request.error_code = error_code or "kernel_error"
            else:
                request.state = DONE
                request.value = value
                request.elapsed = elapsed
            count = self._running.get(request.tenant, 0) - 1
            if count > 0:
                self._running[request.tenant] = count
            else:
                self._running.pop(request.tenant, None)
            # a freed tenant slot may unblock a skipped request
            self._work_ready.notify_all()
            self._idle.notify_all()
        self._count("cancelled" if request.state == CANCELLED else
                    "failed" if request.state == FAILED else "completed")
        if get_config().metrics:
            obsreg.observe("aomp_service_request_seconds", request.finished - request.created)
        request._notify()

    # -- cancellation --------------------------------------------------------

    def cancel(self, request_id: str, *, abort_running: "Callable[[Request], bool] | None" = None) -> str:
        """Cancel a request; returns the resulting status string.

        Queued requests are removed immediately.  Running requests are marked
        ``cancel_requested`` and ``abort_running`` (the dispatch hook that
        aborts the live team) is invoked; the dispatch worker records the
        final ``cancelled`` state when the region unwinds.
        """
        with self._lock:
            request = self._requests.get(request_id)
            if request is None:
                return "unknown"
            if request.state == QUEUED:
                self._pending.remove(request)
                request.state = CANCELLED
                request.finished = time.monotonic()
                request.error = "cancelled before dispatch"
                request.error_code = "cancelled"
                self._idle.notify_all()
            elif request.state == RUNNING:
                request.cancel_requested = True
            else:
                return request.state  # already finished; nothing to do
        if request.state == CANCELLED:
            self._count("cancelled")
            request._notify()
            return CANCELLED
        if abort_running is not None:
            abort_running(request)
        return "cancelling"

    # -- drain ---------------------------------------------------------------

    def drain(self) -> None:
        """Stop admitting; already-queued and running work continues."""
        with self._lock:
            self._draining = True
            self._work_ready.notify_all()

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def wait_idle(self, timeout: "float | None" = None) -> bool:
        """Block until no request is queued or running; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._pending or self._running:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    def live_request_ids(self) -> "list[str]":
        """Ids of every queued or running request (drain stragglers)."""
        with self._lock:
            return [rid for rid, req in self._requests.items() if req.state in _LIVE_STATES]

    def snapshot(self) -> "dict[str, Any]":
        """Point-in-time stats for the ``stats`` op and tests."""
        with self._lock:
            states: "dict[str, int]" = {}
            for request in self._requests.values():
                states[request.state] = states.get(request.state, 0) + 1
            return {
                "queued": len(self._pending),
                "running": sum(self._running.values()),
                "running_by_tenant": dict(self._running),
                "draining": self._draining,
                "queue_limit": self.queue_limit,
                "tenant_cap": self.tenant_cap,
                "requests_by_state": states,
            }

    def _trim_history(self) -> None:
        """Drop the oldest *finished* requests past the bound (lock held).

        ``_requests`` is in creation order, so the walk stops at the
        ``excess``-th finished entry: a submit examines the live requests
        older than it and no more, however long the history.
        """
        excess = len(self._requests) - HISTORY_LIMIT
        if excess <= 0:
            return
        finished = []
        for request_id, request in self._requests.items():
            if request.state not in _LIVE_STATES:
                finished.append(request_id)
                if len(finished) == excess:
                    break
        for request_id in finished:
            request = self._requests.pop(request_id)
            key = _coalesce_key(request.tenant, request.kernel, request.params)
            if self._by_key.get(key) is request:
                del self._by_key[key]
