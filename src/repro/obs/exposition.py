"""Metric exposition: snapshots, Prometheus text format, HTTP scrape endpoint.

Three surfaces over the same registry snapshot:

* :func:`stats` — the programmatic view (plain dicts, JSON-friendly);
* :func:`render_prometheus` — text-format 0.0.4, the exchange format every
  scraper understands;
* :func:`ensure_exporter` — an opt-in stdlib ``ThreadingHTTPServer`` on
  ``AOMP_METRICS_PORT`` serving ``GET /metrics``, started idempotently from
  region entry when metrics are on.  Worker processes suppress it
  (:func:`suppress_exporter`) — only the master, which aggregates team-wide
  counts, has anything worth scraping — and a failed bind (port already
  taken) disables the endpoint with one warning instead of failing regions.

``http.server`` is imported only once a port is configured: it brings
``http.client``, ``ssl``, ``email`` and ``socketserver`` with it, which a
process that never serves a scrape (every worker, and every master without
a port) would otherwise carry for its whole life.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import TYPE_CHECKING, Any

import repro.obs.registry as _registry_mod
from repro.obs.registry import COUNTER_SPECS, GAUGE_HELP, HISTOGRAM_SPECS

if TYPE_CHECKING:  # pragma: no cover
    from http.server import ThreadingHTTPServer

#: scrape endpoints bind loopback only, like the socket data plane.
EXPORTER_HOST = "127.0.0.1"

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def stats() -> "dict[str, Any]":
    """A merged programmatic snapshot of every counter, histogram and gauge.

    Gauge label sets are rendered as ``{label="value", ...}`` strings (empty
    string for the unlabelled sample), so the result is JSON-serialisable.
    The ``meta`` section carries the scrape endpoint's *actually bound* port
    (``None`` when no endpoint is running) — with ``AOMP_METRICS_PORT=0`` the
    kernel picks an ephemeral port, and this is the race-free way for the
    embedding program to discover it.
    """
    snapshot = _registry_mod.get_registry().snapshot()
    gauges: "dict[str, dict[str, float]]" = {}
    for name, samples in snapshot["gauges"].items():
        gauges[name] = {_label_string(key): value for key, value in samples.items()}
    snapshot["gauges"] = gauges
    snapshot["meta"] = {"exporter_port": exporter_port(), "pid": os.getpid()}
    return snapshot


def _label_string(key: "tuple[tuple[str, str], ...]") -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{_escape(v)}"' for k, v in key) + "}"


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_bound(bound: float) -> str:
    text = f"{bound:g}"
    return text


def render_prometheus() -> str:
    """The current snapshot as a Prometheus text-format 0.0.4 document."""
    reg = _registry_mod.get_registry()
    totals = reg._summed()
    lines: "list[str]" = []
    for name, help_text, label, values in COUNTER_SPECS:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} counter")
        if label is None:
            lines.append(f"{name} {totals[_registry_mod.counter_slot(name)]}")
        else:
            for value in values:
                lines.append(
                    f'{name}{{{label}="{value}"}} {totals[_registry_mod.counter_slot(name, value)]}'
                )
    nb = len(reg.buckets) + 1
    for name, help_text in HISTOGRAM_SPECS:
        base = reg.hist_base(name)
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for index, bound in enumerate(reg.buckets):
            cumulative += totals[base + index]
            lines.append(f'{name}_bucket{{le="{_format_bound(bound)}"}} {cumulative}')
        cumulative += totals[base + nb - 1]
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_sum {totals[base + nb] / 1e9:.9f}")
        lines.append(f"{name}_count {cumulative}")
    seen_gauges: "set[str]" = set()
    for name, key, value in sorted(reg.gauge_samples()):
        if name not in seen_gauges:
            seen_gauges.add(name)
            help_text = GAUGE_HELP.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{_label_string(key)} {value:g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# HTTP scrape endpoint
# ---------------------------------------------------------------------------

_exporter_lock = threading.Lock()
_server: "ThreadingHTTPServer | None" = None
_serve_thread: "threading.Thread | None" = None
_suppressed = False
_failed = False


def ensure_exporter(port: "int | None" = None) -> "int | None":
    """Start the scrape endpoint once; return its bound port (or ``None``).

    ``port=None`` reads ``RuntimeConfig.metrics_port``; ``None``/unset means
    no endpoint.  Idempotent and cheap after the first call, so region entry
    can call it unconditionally when metrics are enabled.
    """
    global _server, _serve_thread, _failed
    with _exporter_lock:
        if _suppressed or _failed:
            return None
        if _server is not None:
            return _server.server_address[1]
        if port is None:
            from repro.runtime.config import get_config

            port = get_config().metrics_port
        if port is None:
            return None
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class MetricsHandler(BaseHTTPRequestHandler):
            server_version = "aomp-metrics/1.0"

            def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
                path = self.path.split("?", 1)[0].rstrip("/") or "/metrics"
                if path != "/metrics":
                    self.send_error(404, "only /metrics is served here")
                    return
                body = render_prometheus().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
                pass  # scrapes must not spam the embedding application's stderr

        try:
            server = ThreadingHTTPServer((EXPORTER_HOST, int(port)), MetricsHandler)
        except OSError as exc:
            _failed = True
            warnings.warn(
                f"metrics endpoint could not bind {EXPORTER_HOST}:{port} ({exc}); "
                "scraping is disabled for this process",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever, name="aomp-metrics-http", daemon=True)
        thread.start()
        _server = server
        _serve_thread = thread
        return server.server_address[1]


def exporter_port() -> "int | None":
    """The bound port of the running scrape endpoint, if any."""
    with _exporter_lock:
        return None if _server is None else _server.server_address[1]


def stop_exporter() -> None:
    """Shut the endpoint down and allow a later ``ensure_exporter``.

    Idempotent (a second call is a no-op) and leak-free under repeated
    start/stop cycles: the accept-loop thread is joined, not abandoned, so a
    service that cycles the exporter per drain/restart does not accumulate
    one ``aomp-metrics-http`` thread per cycle.
    """
    global _server, _serve_thread, _failed
    with _exporter_lock:
        server, _server = _server, None
        thread, _serve_thread = _serve_thread, None
        _failed = False
    if server is not None:
        server.shutdown()
        server.server_close()
    if thread is not None:
        thread.join(timeout=5.0)


def suppress_exporter() -> None:
    """Mark this process as a worker: never start a scrape endpoint here."""
    global _suppressed
    with _exporter_lock:
        _suppressed = True
