"""The always-on compute service: a threaded TCP front door over warm teams.

ROADMAP item 3: wrap the runtime in a long-lived server so the SPMD kernels
the paper ran once per script are served per-request to concurrent clients.

Layers (one module each, front to back):

* :mod:`repro.service.server` — the TCP front door speaking
  newline-delimited JSON (submit / poll / wait / cancel / stats), one thread
  per connection, a ``wait`` blocked on its request's own event; graceful
  drain on SIGTERM.  It imports no ``asyncio``, so the service master and
  the pool workers it forks load no OpenSSL;
* :mod:`repro.service.admission` — bounded queue with backpressure
  (``queue_full`` rejections), per-tenant concurrency caps and duplicate
  coalescing;
* :mod:`repro.service.dispatch` — worker threads owning *warm* backends
  (pre-spawned persistent process pools) and per-tenant tuners, with
  external cancellation via ``team.abort()`` + pool condemnation;
* :mod:`repro.service.kernels` — the servable kernel catalogue (JGF drivers
  plus a cancellation-friendly sleep kernel);
* :mod:`repro.service.config` — the ``AOMP_SERVICE_*`` environment contract;
* :mod:`repro.service.client` — a small blocking client for tests, benches
  and CI drivers.

Request metrics land in the existing :mod:`repro.obs` registry, so the
``AOMP_METRICS_PORT`` endpoint exposes them with zero new exposition code.
"""

from repro.service.admission import AdmissionQueue, Draining, QueueFull, Request
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.dispatch import DispatchPool
from repro.service.kernels import KERNELS
from repro.service.server import ComputeService, ServiceThread

__all__ = [
    "AdmissionQueue",
    "ComputeService",
    "DispatchPool",
    "Draining",
    "KERNELS",
    "QueueFull",
    "Request",
    "ServiceClient",
    "ServiceConfig",
    "ServiceThread",
]
