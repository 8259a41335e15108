"""The front door: newline-delimited JSON over TCP, one thread per connection.

Protocol: one JSON object per line in each direction.  Every request names
an ``op``; every response is ``{"ok": true, ...}`` or ``{"ok": false,
"error": "...", "code": "..."}``.

=========  ==================================================================
op         semantics
=========  ==================================================================
ping       liveness probe; returns the protocol version
kernels    the servable kernel catalogue
submit     admit a request (``kernel``, ``size``, ``tenant``,
           ``num_threads``, ``on_failure``); ``wait=true`` blocks for the
           result, otherwise returns the request id immediately.
           Rejections: ``queue_full`` (backpressure), ``draining``,
           ``bad_tenant`` (a tenant name that is not a file-name stem).
poll       non-blocking status/result for a request id
wait       block (with optional ``timeout``) for a request to finish
cancel     cancel a request (queued: immediate; running: aborts the team)
stats      admission snapshot + metrics endpoint metadata
drain      stop admissions, wait for in-flight work, then shut down
=========  ==================================================================

An accept thread (``aomp-service-accept``) hands each connection to a
thread of its own (``aomp-service-conn``), which reads a line, answers it
and reads the next.  A ``wait`` blocks that thread on the request's own
:class:`threading.Event`; a client that disconnects mid-``wait`` leaves the
request running and pollable from another connection.  Nothing here imports
``asyncio`` (which loads OpenSSL), so neither the service master nor the
pool workers it forks carry it.

Lifecycle: :meth:`ComputeService.drain` (SIGTERM in ``scripts/aomp_serve.py``,
or the ``drain`` op) stops admissions and the listener, waits for in-flight
requests (bounded by ``drain_timeout``, then cancels stragglers via the
team-abort path), stops the dispatch workers and their pools, unregisters the
service's gauge collector, and then hangs up on every connection and joins
its thread; the connection that asked for the drain gets its reply first.
Repeated start/stop cycles leak neither threads nor collectors.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any

import repro.obs.registry as obsreg
from repro.runtime.config import get_config
from repro.service.admission import AdmissionError, AdmissionQueue
from repro.service.config import ServiceConfig
from repro.service.dispatch import DispatchPool
from repro.service.kernels import KERNELS

PROTOCOL_VERSION = 1

#: request line size bound (a kernel submission is tiny; oversized lines are
#: a protocol error, not a memory commitment).
MAX_LINE_BYTES = 64 * 1024

#: longest a drain waits for a connection's thread once it hung up on it (a
#: thread still blocked in a ``wait`` leaves when its request finishes).
_HANGUP_JOIN = 10.0


def _hang_up(sock: socket.socket, how: int) -> None:
    try:
        sock.shutdown(how)
    except OSError:
        pass  # already closed by its own thread, or never connected


class ComputeService:
    """One service instance: admission queue + dispatch pool + TCP listener."""

    def __init__(self, config: "ServiceConfig | None" = None, **overrides: Any) -> None:
        base = config if config is not None else ServiceConfig()
        self.config = base.with_overrides(**overrides) if overrides else base
        self.queue = AdmissionQueue(
            queue_limit=self.config.queue_limit, tenant_cap=self.config.tenant_cap
        )
        self.dispatch = DispatchPool(
            self.queue,
            workers=self.config.workers,
            backend_name=self.config.backend,
            tune_dir=self.config.tune_dir,
            default_num_threads=self.config.num_threads,
        )
        self._listener: "socket.socket | None" = None
        self._acceptor: "threading.Thread | None" = None
        #: open connections and the thread serving each; ``_lock`` also
        #: guards ``_draining``.
        self._connections: "dict[socket.socket, threading.Thread]" = {}
        self._lock = threading.Lock()
        self._collector = self.queue.gauge_samples
        self._metrics_port: "int | None" = None
        self._draining = False
        self._drained = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "tuple[str, int]":
        """Start dispatch workers (warming pools), bind the listener, accept."""
        warm_size = self.config.num_threads or get_config().num_threads
        self.dispatch.start(warm_team_size=warm_size)
        if get_config().metrics:
            obsreg.register_collector(self._collector)
            obsreg.set_gauge("aomp_service_workers", None, float(len(self.dispatch.workers)))
            from repro.obs.exposition import ensure_exporter

            self._metrics_port = ensure_exporter()
        host = self.config.host
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, self.config.port), family=family, backlog=100)
        self._acceptor = threading.Thread(target=self._accept_loop, name="aomp-service-accept", daemon=True)
        self._acceptor.start()
        return self.address

    @property
    def address(self) -> "tuple[str, int]":
        assert self._listener is not None, "service not started"
        host, port = self._listener.getsockname()[:2]
        return host, port

    @property
    def metrics_port(self) -> "int | None":
        return self._metrics_port

    def serve_forever(self) -> None:
        """Block until a drain has finished and every connection is closed
        (the ``aomp_serve`` main thread)."""
        self._drained.wait()
        self._join_connections()

    def drain(self) -> "dict[str, Any]":
        """Graceful shutdown: reject new work, finish in-flight, tear down."""
        with self._lock:
            already, self._draining = self._draining, True
        if already:
            self._drained.wait()
            return {"drained": True, "forced_cancels": 0}
        self.queue.drain()
        if self._listener is not None:
            _hang_up(self._listener, socket.SHUT_RDWR)  # wakes the accept thread
            self._acceptor.join()
            self._listener.close()
        # Bounded wait for in-flight work; stragglers are cancelled through
        # the same team-abort path a client cancel uses, so a wedged region
        # cannot hold the drain hostage.
        forced = 0
        if not self.queue.wait_idle(self.config.drain_timeout):
            for request_id in self.queue.live_request_ids():
                self.queue.cancel(request_id, abort_running=self.dispatch.abort_request)
                forced += 1
            self.queue.wait_idle(10.0)
        self.dispatch.shutdown()
        if get_config().metrics:
            obsreg.unregister_collector(self._collector)
            obsreg.clear_gauge("aomp_service_workers")
        # A hung-up connection reads end-of-file at its next line, after the
        # reply it may still be writing (the drain op's own, for one); a line
        # already received is still answered, and then the connection closes.
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            _hang_up(conn, socket.SHUT_RD)
        self._drained.set()
        self._join_connections()
        return {"drained": True, "forced_cancels": forced}

    def _join_connections(self) -> None:
        with self._lock:
            threads = list(self._connections.values())
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(_HANGUP_JOIN)

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                if self._draining:
                    return  # the drain shut the listener
                time.sleep(0.1)  # out of descriptors, or a peer gone before its accept: retry
                continue
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), name="aomp-service-conn", daemon=True
            )
            with self._lock:
                self._connections[conn] = thread
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        try:
            while not self._drained.is_set():  # a line read after a drain is answered, then the door closes
                try:
                    line = reader.readline(MAX_LINE_BYTES + 1)
                except OSError:
                    break
                if not line:
                    break  # client closed its end (or the drain hung up); in-flight requests continue
                if len(line) > MAX_LINE_BYTES:
                    self._send(conn, {"ok": False, "error": "request line too long", "code": "bad_request"})
                    break
                if not self._send(conn, self._dispatch_op(line)):
                    break
        finally:
            with self._lock:
                del self._connections[conn]
            reader.close()
            conn.close()

    @staticmethod
    def _send(conn: socket.socket, payload: "dict[str, Any]") -> bool:
        try:
            conn.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        except OSError:
            return False
        return True

    def _dispatch_op(self, line: bytes) -> "dict[str, Any]":
        try:
            message = json.loads(line)
        except ValueError:
            return {"ok": False, "error": "request is not valid JSON", "code": "bad_json"}
        if not isinstance(message, dict):
            return {"ok": False, "error": "request must be a JSON object", "code": "bad_request"}
        op = message.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}", "code": "unknown_op"}
        try:
            return handler(message)
        except AdmissionError as exc:
            return {"ok": False, "error": str(exc), "code": exc.code}
        except Exception as exc:  # a malformed field must not kill the connection
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}", "code": "bad_request"}

    # -- ops -----------------------------------------------------------------

    def _op_ping(self, message: "dict[str, Any]") -> "dict[str, Any]":
        return {"ok": True, "pong": True, "version": PROTOCOL_VERSION}

    def _op_kernels(self, message: "dict[str, Any]") -> "dict[str, Any]":
        return {"ok": True, "kernels": [kernel.describe() for kernel in KERNELS.values()]}

    def _op_submit(self, message: "dict[str, Any]") -> "dict[str, Any]":
        kernel_name = message.get("kernel")
        kernel = KERNELS.get(kernel_name)
        if kernel is None:
            return {
                "ok": False,
                "error": f"unknown kernel {kernel_name!r}; have {sorted(KERNELS)}",
                "code": "unknown_kernel",
            }
        params: "dict[str, Any]" = {"size": message.get("size", "tiny")}
        if message.get("num_threads") is not None:
            params["num_threads"] = int(message["num_threads"])
        if message.get("on_failure") is not None:
            params["on_failure"] = str(message["on_failure"])
        coalescable = kernel.deterministic and bool(message.get("coalesce", True))
        request, coalesced = self.queue.submit(
            tenant=str(message.get("tenant", "default")),
            kernel=kernel.name,
            params=params,
            coalescable=coalescable,
        )
        if message.get("wait"):
            return self._await_request(request, message.get("timeout"))
        return {"ok": True, "id": request.id, "status": request.state, "coalesced": coalesced}

    def _op_poll(self, message: "dict[str, Any]") -> "dict[str, Any]":
        request = self.queue.get(str(message.get("id")))
        if request is None:
            return {"ok": False, "error": "unknown request id", "code": "not_found"}
        return {"ok": True, **request.payload()}

    def _op_wait(self, message: "dict[str, Any]") -> "dict[str, Any]":
        request = self.queue.get(str(message.get("id")))
        if request is None:
            return {"ok": False, "error": "unknown request id", "code": "not_found"}
        return self._await_request(request, message.get("timeout"))

    def _op_cancel(self, message: "dict[str, Any]") -> "dict[str, Any]":
        request_id = str(message.get("id"))
        status = self.queue.cancel(request_id, abort_running=self.dispatch.abort_request)
        if status == "unknown":
            return {"ok": False, "error": "unknown request id", "code": "not_found"}
        return {"ok": True, "id": request_id, "status": status}

    def _op_stats(self, message: "dict[str, Any]") -> "dict[str, Any]":
        return {
            "ok": True,
            "service": self.queue.snapshot(),
            "workers": len(self.dispatch.workers),
            "backend": self.config.backend or get_config().backend,
            "metrics_port": self._metrics_port,
            "version": PROTOCOL_VERSION,
        }

    def _op_drain(self, message: "dict[str, Any]") -> "dict[str, Any]":
        return {"ok": True, **self.drain()}

    @staticmethod
    def _await_request(request: Any, timeout: Any) -> "dict[str, Any]":
        if not request.done.wait(float(timeout) if timeout is not None else None):
            return {"ok": True, **request.payload(), "timed_out": True}
        return {"ok": True, **request.payload()}


class ServiceThread:
    """A :class:`ComputeService` behind the blocking start/drain surface that
    the tests, ``bench/`` and embedding programs drive.

    The service serves on its own accept and connection threads, so this is
    only a holder: :meth:`start` returns once it listens, :meth:`drain` once
    it is down.
    """

    def __init__(self, config: "ServiceConfig | None" = None, **overrides: Any) -> None:
        self.service = ComputeService(config, **overrides)

    def start(self) -> "tuple[str, int]":
        return self.service.start()

    @property
    def address(self) -> "tuple[str, int]":
        return self.service.address

    def drain(self) -> "dict[str, Any]":
        """Blocking graceful shutdown from any thread."""
        return self.service.drain()
