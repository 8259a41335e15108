"""Runtime observability: metrics registry, aggregation and exposition.

The tracing layer (:mod:`repro.runtime.trace`) answers *what did this
execution do* — a full event log, replayable by the perf model.  This
package answers *what is the system doing right now*: monotonically
increasing counters, point-in-time gauges and fixed-bucket histograms,
cheap enough to leave on in production and exposable to a scraper.

Design rules (the PR-2 tracing discipline, applied to metrics):

* **One predicate per guard site.**  Every instrumentation point in the
  runtime is guarded by a single boolean (``team.metrics``, cached from
  ``RuntimeConfig.metrics`` at team construction, or ``get_config().metrics``
  off the hot path).  With ``AOMP_METRICS`` unset the hot path pays one
  attribute load and a branch — nothing else exists.

* **Per-thread append-only accumulation, merged on read.**  Counter and
  histogram increments go to a per-thread cell vector with no locking
  (:class:`~repro.obs.registry.MetricsRegistry`); snapshots merge the
  vectors.  Hot loops batch: one ``add()`` per claim batch, not per chunk.

* **Team-wide aggregation.**  Fork and pool workers flush their
  deltas into a :class:`~repro.obs.arena.MetricsArena` of int64 cells over
  the same pluggable ``cells=`` storage the heartbeat arena uses; socket
  plane workers piggyback ``(slot, value)`` deltas on their barrier and
  result frames.  Flushes *move* counts (flush-and-clear), so a member's
  contribution is counted exactly once no matter which process ran it.

* **Exposition.**  :func:`stats` returns a programmatic snapshot,
  :func:`render_prometheus` the text-format 0.0.4 document, and
  :func:`ensure_exporter` serves it over a stdlib HTTP endpoint when
  ``AOMP_METRICS_PORT`` is set.  ``scripts/aomp_top.py`` builds a live
  terminal view on the scrape endpoint.
"""

from repro.obs.arena import MetricsArena
from repro.obs.exposition import (
    ensure_exporter,
    exporter_port,
    render_prometheus,
    stats,
    stop_exporter,
    suppress_exporter,
)
from repro.obs.registry import (
    MetricsRegistry,
    absorb,
    clear_gauge,
    flush_delta,
    get_registry,
    inc,
    metrics_enabled,
    observe,
    register_collector,
    reset,
    set_gauge,
    unregister_collector,
)

__all__ = [
    "MetricsArena",
    "MetricsRegistry",
    "absorb",
    "clear_gauge",
    "ensure_exporter",
    "exporter_port",
    "flush_delta",
    "get_registry",
    "inc",
    "metrics_enabled",
    "observe",
    "register_collector",
    "render_prometheus",
    "reset",
    "set_gauge",
    "stats",
    "stop_exporter",
    "suppress_exporter",
    "unregister_collector",
]
