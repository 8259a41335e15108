"""Compute-service configuration: the ``AOMP_SERVICE_*`` environment contract.

Follows the same discipline as :mod:`repro.runtime.config`: every parser
rejects garbage *loudly*, naming the exact variable the user set — a typo'd
setting that silently does nothing is worse than a crash at startup.  All
variables are also overridable per :class:`ServiceConfig` instance, which is
what tests and embedded services use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.runtime.config import usable_cpus


def _default_service_host() -> str:
    """Bind address from ``AOMP_SERVICE_HOST`` (default loopback only)."""
    env = (os.environ.get("AOMP_SERVICE_HOST") or "").strip()
    return env or "127.0.0.1"


def _default_service_port() -> int:
    """Listen port from ``AOMP_SERVICE_PORT`` (0..65535; 0 = ephemeral)."""
    env = (os.environ.get("AOMP_SERVICE_PORT") or "").strip()
    if not env:
        return 0
    try:
        value = int(env)
    except ValueError:
        raise ValueError(f"AOMP_SERVICE_PORT must be an integer in 0..65535; got {env!r}") from None
    if not 0 <= value <= 65535:
        raise ValueError(f"AOMP_SERVICE_PORT must be an integer in 0..65535; got {env!r}")
    return value


def _default_service_workers() -> int:
    """Dispatch worker count from ``AOMP_SERVICE_WORKERS`` (int >= 1).

    Each dispatch worker owns a private warm backend (its own persistent
    process pool under the ``processes`` backend), so the default stays
    modest: enough for overlap, not enough to oversubscribe the host with
    ``workers x team_size`` processes.
    """
    env = (os.environ.get("AOMP_SERVICE_WORKERS") or "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"AOMP_SERVICE_WORKERS must be an integer >= 1; got {env!r}") from None
        if value < 1:
            raise ValueError(f"AOMP_SERVICE_WORKERS must be an integer >= 1; got {env!r}")
        return value
    return max(1, min(4, usable_cpus() // 2))


def _default_service_queue() -> int:
    """Admission queue bound from ``AOMP_SERVICE_QUEUE`` (int >= 1).

    Requests beyond this many *waiting* (running requests do not count) are
    rejected with ``queue_full`` — bounded queues are the backpressure story:
    reject early and cheaply instead of accepting work the service cannot
    start before the client gives up.
    """
    env = (os.environ.get("AOMP_SERVICE_QUEUE") or "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"AOMP_SERVICE_QUEUE must be an integer >= 1; got {env!r}") from None
        if value < 1:
            raise ValueError(f"AOMP_SERVICE_QUEUE must be an integer >= 1; got {env!r}")
        return value
    return 64


def _default_service_tenant_cap() -> int:
    """Per-tenant running-request cap from ``AOMP_SERVICE_TENANT_CAP`` (>= 1).

    A tenant at its cap keeps its queued requests waiting while other
    tenants' requests are dispatched past them — FIFO within a tenant,
    fair-share across tenants.
    """
    env = (os.environ.get("AOMP_SERVICE_TENANT_CAP") or "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"AOMP_SERVICE_TENANT_CAP must be an integer >= 1; got {env!r}") from None
        if value < 1:
            raise ValueError(f"AOMP_SERVICE_TENANT_CAP must be an integer >= 1; got {env!r}")
        return value
    return 2


def _default_service_backend() -> str:
    """Execution backend from ``AOMP_SERVICE_BACKEND``.

    Empty means "use the runtime default" (``AOMP_BACKEND``).  Like
    ``AOMP_BACKEND`` itself, validity is checked loudly at use by
    ``backend_by_name`` so plugin backends registered after import resolve.
    """
    env = (os.environ.get("AOMP_SERVICE_BACKEND") or "").strip().lower()
    return env


def _default_service_tune_dir() -> "str | None":
    """Directory for per-tenant tuner caches from ``AOMP_SERVICE_TUNE_DIR``.

    Unset disables persistent per-tenant caches (tenants still get isolated
    in-memory tuners).  Each tenant's cache lands in ``<dir>/<tenant>.json``
    — the per-request analogue of ``AOMP_TUNE_CACHE``.
    """
    env = (os.environ.get("AOMP_SERVICE_TUNE_DIR") or "").strip()
    return env or None


@dataclass(frozen=True)
class ServiceConfig:
    """Frozen snapshot of the compute service's settings."""

    host: str = field(default_factory=_default_service_host)
    port: int = field(default_factory=_default_service_port)
    workers: int = field(default_factory=_default_service_workers)
    queue_limit: int = field(default_factory=_default_service_queue)
    tenant_cap: int = field(default_factory=_default_service_tenant_cap)
    backend: str = field(default_factory=_default_service_backend)
    tune_dir: "str | None" = field(default_factory=_default_service_tune_dir)
    #: default team size per request (requests may override); 0 = runtime default.
    num_threads: int = 0
    #: seconds a drain waits for in-flight requests before cancelling them.
    drain_timeout: float = 30.0

    def with_overrides(self, **overrides) -> "ServiceConfig":
        return replace(self, **overrides)
