"""Compute-service configuration.

Seeded from the ``AOMP_SERVICE_*`` rows of the environment contract
(:data:`repro.runtime.config.ENV_VARS`); every field is also overridable per
:class:`ServiceConfig` instance, which is what tests and embedded services
use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.runtime.config import env_field


@dataclass(frozen=True)
class ServiceConfig:
    """Frozen snapshot of the compute service's settings."""

    #: bind address (loopback only by default).
    host: str = env_field("AOMP_SERVICE_HOST")
    #: listen port; 0 = ephemeral.
    port: int = env_field("AOMP_SERVICE_PORT")
    #: dispatch workers, each owning a private warm backend (its own
    #: persistent pool under ``processes``) — modest by default, so
    #: ``workers x team_size`` processes do not oversubscribe the host.
    workers: int = env_field("AOMP_SERVICE_WORKERS")
    #: waiting requests (running ones do not count) beyond which a submit is
    #: rejected with ``queue_full``: reject early and cheaply instead of
    #: accepting work the service cannot start before the client gives up.
    queue_limit: int = env_field("AOMP_SERVICE_QUEUE")
    #: running requests per tenant; a tenant at its cap keeps its queued
    #: requests waiting while other tenants' are dispatched past them.
    tenant_cap: int = env_field("AOMP_SERVICE_TENANT_CAP")
    #: execution backend; empty means the runtime default (``AOMP_BACKEND``).
    backend: str = env_field("AOMP_SERVICE_BACKEND")
    #: directory of per-tenant tuner caches (``<dir>/<tenant>.json``); ``None``
    #: keeps tenants' isolated tuners in memory only.
    tune_dir: "str | None" = env_field("AOMP_SERVICE_TUNE_DIR")
    #: default team size per request (requests may override); 0 = runtime default.
    num_threads: int = 0
    #: seconds a drain waits for in-flight requests before cancelling them.
    drain_timeout: float = 30.0

    def with_overrides(self, **overrides) -> "ServiceConfig":
        return replace(self, **overrides)
