"""Dispatch: worker threads that run admitted requests on warm backends.

Each :class:`DispatchWorker` owns a *private* instance of any backend that
keeps workers between regions — under ``processes`` its own
:class:`PersistentProcessPool`, pre-spawned at service start (``prewarm``),
under ``distributed`` its own parked team — so concurrent requests never
contend for one pool lock or one parked team and the start cost is paid once,
not per request.  In-process backends (threads/serial) are stateless and
shared.

Per-tenant tuning: the worker wraps each request in a
:class:`repro.tune.tuner_scope` carrying the tenant's own
:class:`~repro.tune.LoopTuner` (persisted to ``<tune_dir>/<tenant>.json``
when configured), so ``schedule="auto"`` convergence amortises across that
tenant's requests without tenants polluting each other's caches.

Cancellation: the worker watches region entry (``watch_teams``) to learn the
live :class:`Team` handles; an external cancel aborts the team barrier —
members fail fast at their next sync point — and, for pooled process teams,
condemns the pool (PR-7 ``condemn``/``heal`` machinery) so even a *wedged*
team is torn down and rebuilt rather than leaked.
"""

from __future__ import annotations

import os
import threading
from typing import Any

from repro.runtime.backend import Backend, resolve_backend
from repro.runtime.team import watch_teams
from repro.service.admission import AdmissionQueue, Request
from repro.service.kernels import KERNELS
from repro.tune.tuner import LoopTuner, tuner_scope

#: how long a worker blocks in ``claim`` before re-checking for shutdown.
_CLAIM_POLL_SECONDS = 0.1


def _make_backend(name: str) -> Backend:
    """A backend instance for one dispatch worker.

    A backend that keeps workers between regions (it says so by having
    ``live_workers``) gets a *fresh private* instance: the shared registry
    instance guards its one pool with a non-blocking lock and falls back to
    fork-per-region under contention, and parks only one distributed team —
    exactly what a warm service must avoid.  Everything else resolves
    through the shared registry.
    """
    backend = resolve_backend(name or None)
    if hasattr(backend, "live_workers"):
        return type(backend)()
    return backend


class TenantTuners:
    """Lazily-built per-tenant tuner map shared by all dispatch workers."""

    def __init__(self, tune_dir: "str | None") -> None:
        self._tune_dir = tune_dir
        self._lock = threading.Lock()
        self._tuners: "dict[str, LoopTuner]" = {}

    def for_tenant(self, tenant: str) -> LoopTuner:
        with self._lock:
            tuner = self._tuners.get(tenant)
            if tuner is None:
                cache_path = None
                if self._tune_dir:
                    os.makedirs(self._tune_dir, exist_ok=True)
                    cache_path = os.path.join(self._tune_dir, f"{tenant}.json")
                tuner = LoopTuner(cache_path=cache_path)
                self._tuners[tenant] = tuner
            return tuner

    def save_all(self) -> None:
        """Persist every tenant cache (drain path)."""
        with self._lock:
            tuners = list(self._tuners.values())
        for tuner in tuners:
            try:
                tuner.save()
            except Exception:
                continue  # a read-only tune_dir must not block the drain


class DispatchWorker(threading.Thread):
    """One request-execution thread owning one warm backend."""

    def __init__(
        self,
        index: int,
        queue: AdmissionQueue,
        *,
        backend_name: str,
        tuners: TenantTuners,
        default_num_threads: int,
    ) -> None:
        super().__init__(name=f"aomp-dispatch-{index}", daemon=True)
        self.index = index
        self._queue = queue
        self._backend = _make_backend(backend_name)
        self._tuners = tuners
        self._default_num_threads = default_num_threads
        self._halt = threading.Event()
        self._current: "Request | None" = None
        self._teams: "list[Any]" = []
        self._state_lock = threading.Lock()

    @property
    def backend(self) -> Backend:
        return self._backend

    def warm(self, team_size: int) -> bool:
        """Pre-spawn this worker's pool so the first request finds it hot."""
        prewarm = getattr(self._backend, "prewarm", None)
        if prewarm is None:
            return False
        return bool(prewarm(max(1, team_size - 1)))

    # -- execution loop ------------------------------------------------------

    def run(self) -> None:
        while not self._halt.is_set():
            request = self._queue.claim(timeout=_CLAIM_POLL_SECONDS)
            if request is not None:
                self._execute(request)

    def _execute(self, request: Request) -> None:
        with self._state_lock:
            self._current = request
            self._teams = []
        try:
            kernel = KERNELS[request.kernel]
            num_threads = int(request.params.get("num_threads") or self._default_num_threads or 0) or None
            with tuner_scope(self._tuners.for_tenant(request.tenant)):
                with watch_teams(self._note_team):
                    outcome = kernel.run(
                        size=request.params.get("size", "tiny"),
                        num_threads=num_threads,
                        backend=self._backend,
                        on_failure=request.params.get("on_failure"),
                    )
            if request.cancel_requested:
                # The region finished before (or despite) the abort — honour
                # the cancel: the client was already told it took effect.
                self._queue.finish(request, cancelled=True)
            else:
                self._queue.finish(request, value=outcome["value"], elapsed=outcome["elapsed"])
        except Exception as exc:
            if request.cancel_requested:
                self._queue.finish(request, cancelled=True, error=f"cancelled: {exc}")
            else:
                self._queue.finish(request, error=f"{type(exc).__name__}: {exc}")
        finally:
            with self._state_lock:
                self._current = None
                self._teams = []

    def _note_team(self, team: Any) -> None:
        with self._state_lock:
            self._teams.append(team)

    # -- external control ----------------------------------------------------

    def abort_request(self, request: Request) -> bool:
        """Abort ``request`` if it is live on this worker (cancel path).

        Breaks every team barrier the request's region stack holds — members
        fail fast at their next sync point instead of draining the loop — and
        condemns the process pool so a wedged pooled team is rebuilt, not
        leaked.  Returns whether an abort was issued.
        """
        with self._state_lock:
            if self._current is not request:
                return False
            teams = list(self._teams)
        for team in teams:
            try:
                team.abort()
            except Exception:
                continue
        condemn = getattr(self._backend, "condemn_pool", None)
        if condemn is not None:
            condemn()
        return bool(teams)

    def shutdown(self, timeout: float = 10.0) -> None:
        self._halt.set()
        self.join(timeout=timeout)
        shutdown = getattr(self._backend, "shutdown", None)
        if shutdown is not None:
            shutdown()


class DispatchPool:
    """The set of dispatch workers plus their shared tenant tuners."""

    def __init__(
        self,
        queue: AdmissionQueue,
        *,
        workers: int,
        backend_name: str = "",
        tune_dir: "str | None" = None,
        default_num_threads: int = 0,
    ) -> None:
        self._queue = queue
        self.tuners = TenantTuners(tune_dir)
        self.workers = [
            DispatchWorker(
                index,
                queue,
                backend_name=backend_name,
                tuners=self.tuners,
                default_num_threads=default_num_threads,
            )
            for index in range(max(1, workers))
        ]

    def start(self, *, warm_team_size: int = 0) -> None:
        for worker in self.workers:
            if warm_team_size > 1:
                worker.warm(warm_team_size)
            worker.start()

    def abort_request(self, request: Request) -> bool:
        return any(worker.abort_request(request) for worker in self.workers)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop workers and their warm pools; persists tenant tune caches."""
        for worker in self.workers:
            worker._halt.set()
        for worker in self.workers:
            worker.shutdown(timeout=timeout)
        self.tuners.save_all()

    def leaked_workers(self) -> "list[Any]":
        """Worker processes the backends still keep after shutdown (must be empty)."""
        leaked: "list[Any]" = []
        for worker in self.workers:
            live_workers = getattr(worker.backend, "live_workers", None)
            if live_workers is not None:
                leaked.extend(live_workers())
        return leaked
