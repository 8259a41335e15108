"""The asyncio front-end: newline-delimited JSON over TCP.

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

A client that disconnects mid-``wait`` merely detaches its waiter — the
request keeps running and stays pollable from another connection.

Lifecycle: :meth:`ComputeService.drain` (wired to SIGTERM in
``scripts/aomp_serve.py``) stops admissions, waits for in-flight requests
(bounded by ``drain_timeout``, then cancels stragglers via the team-abort
path), stops the dispatch workers and their pools, and unregisters the
service's gauge collector — repeated start/stop cycles leak neither threads
nor collectors.
"""

from __future__ import annotations

import asyncio
import json
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
        self._server: "asyncio.base_events.Server | None" = None
        self._collector = self.queue.gauge_samples
        self._metrics_port: "int | None" = None
        self._draining = False
        self._drained = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "tuple[str, int]":
        """Start dispatch workers (warming pools) and the TCP listener."""
        warm_size = self.config.num_threads or get_config().num_threads
        self.dispatch.start(warm_team_size=warm_size)
        if get_config().metrics:
            obsreg.register_collector(self._collector)
            obsreg.set_gauge("aomp_service_workers", None, float(len(self.dispatch.workers)))
            from repro.obs.exposition import ensure_exporter

            self._metrics_port = ensure_exporter()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        return self.address

    @property
    def address(self) -> "tuple[str, int]":
        assert self._server is not None, "service not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def metrics_port(self) -> "int | None":
        return self._metrics_port

    async def serve_forever(self) -> None:
        """Serve until :meth:`drain` completes (the aomp_serve main loop)."""
        await self._drained.wait()

    async def drain(self) -> "dict[str, Any]":
        """Graceful shutdown: reject new work, finish in-flight, tear down."""
        if self._draining:
            await self._drained.wait()
            return {"drained": True, "forced_cancels": 0}
        self._draining = True
        self.queue.drain()
        if self._server is not None:
            self._server.close()
        # Bounded wait for in-flight work; stragglers are cancelled through
        # the same team-abort path a client cancel uses, so a wedged region
        # cannot hold the drain hostage.
        loop = asyncio.get_running_loop()
        idle = await loop.run_in_executor(
            None, lambda: self.queue.wait_idle(self.config.drain_timeout)
        )
        forced = 0
        if not idle:
            for request_id in self.queue.live_request_ids():
                self.queue.cancel(request_id, abort_running=self.dispatch.abort_request)
                forced += 1
            await loop.run_in_executor(None, lambda: self.queue.wait_idle(10.0))
        await loop.run_in_executor(None, self.dispatch.shutdown)
        if get_config().metrics:
            obsreg.unregister_collector(self._collector)
            obsreg.clear_gauge("aomp_service_workers")
        if self._server is not None:
            await self._server.wait_closed()
        self._drained.set()
        return {"drained": True, "forced_cancels": forced}

    # -- connection handling -------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break  # client closed its end; in-flight requests continue
                if len(line) > MAX_LINE_BYTES:
                    await self._send(writer, {"ok": False, "error": "request line too long", "code": "bad_request"})
                    break
                response = await self._dispatch_op(line)
                try:
                    await self._send(writer, response)
                except (ConnectionError, RuntimeError):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, payload: "dict[str, Any]") -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()

    async def _dispatch_op(self, line: bytes) -> "dict[str, Any]":
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
            return await handler(message)
        except AdmissionError as exc:
            return {"ok": False, "error": str(exc), "code": exc.code}
        except Exception as exc:  # a malformed field must not kill the connection
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}", "code": "bad_request"}

    # -- ops -----------------------------------------------------------------

    async def _op_ping(self, message: "dict[str, Any]") -> "dict[str, Any]":
        return {"ok": True, "pong": True, "version": PROTOCOL_VERSION}

    async def _op_kernels(self, message: "dict[str, Any]") -> "dict[str, Any]":
        return {"ok": True, "kernels": [kernel.describe() for kernel in KERNELS.values()]}

    async def _op_submit(self, message: "dict[str, Any]") -> "dict[str, Any]":
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
            return await self._await_request(request, message.get("timeout"))
        return {"ok": True, "id": request.id, "status": request.state, "coalesced": coalesced}

    async def _op_poll(self, message: "dict[str, Any]") -> "dict[str, Any]":
        request = self.queue.get(str(message.get("id")))
        if request is None:
            return {"ok": False, "error": "unknown request id", "code": "not_found"}
        return {"ok": True, **request.payload()}

    async def _op_wait(self, message: "dict[str, Any]") -> "dict[str, Any]":
        request = self.queue.get(str(message.get("id")))
        if request is None:
            return {"ok": False, "error": "unknown request id", "code": "not_found"}
        return await self._await_request(request, message.get("timeout"))

    async def _op_cancel(self, message: "dict[str, Any]") -> "dict[str, Any]":
        request_id = str(message.get("id"))
        status = self.queue.cancel(request_id, abort_running=self.dispatch.abort_request)
        if status == "unknown":
            return {"ok": False, "error": "unknown request id", "code": "not_found"}
        return {"ok": True, "id": request_id, "status": status}

    async def _op_stats(self, message: "dict[str, Any]") -> "dict[str, Any]":
        return {
            "ok": True,
            "service": self.queue.snapshot(),
            "workers": len(self.dispatch.workers),
            "backend": self.config.backend or get_config().backend,
            "metrics_port": self._metrics_port,
            "version": PROTOCOL_VERSION,
        }

    async def _op_drain(self, message: "dict[str, Any]") -> "dict[str, Any]":
        result = await self.drain()
        return {"ok": True, **result}

    async def _await_request(self, request: Any, timeout: Any) -> "dict[str, Any]":
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        request.add_waiter(loop, future)
        try:
            await asyncio.wait_for(
                asyncio.shield(future), float(timeout) if timeout is not None else None
            )
        except asyncio.TimeoutError:
            return {"ok": True, **request.payload(), "timed_out": True}
        finally:
            request.discard_waiter(future)
            future.cancel()
        return {"ok": True, **request.payload()}


class ServiceThread:
    """Run a :class:`ComputeService` on a dedicated event-loop thread.

    The synchronous harness tests, ``bench/`` and ``scripts/aomp_serve.py``'s
    signal handling all need a service that *blocks someone else* — this
    wrapper owns the event loop thread and exposes a blocking start/stop API.
    """

    def __init__(self, config: "ServiceConfig | None" = None, **overrides: Any) -> None:
        import threading

        self.service = ComputeService(config, **overrides)
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, name="aomp-service", daemon=True)
        self._start_error: "BaseException | None" = None

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.service.start()
        except BaseException as exc:
            self._start_error = exc
            self._started.set()
            return
        self._started.set()
        await self.service.serve_forever()
        # One extra turn so a connection that *requested* the drain gets its
        # response written before asyncio.run tears the loop down.
        await asyncio.sleep(0.1)

    def start(self, timeout: float = 30.0) -> "tuple[str, int]":
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("service failed to start within the timeout")
        if self._start_error is not None:
            raise RuntimeError(f"service failed to start: {self._start_error}") from self._start_error
        return self.service.address

    @property
    def address(self) -> "tuple[str, int]":
        return self.service.address

    def drain(self, timeout: float = 60.0) -> "dict[str, Any]":
        """Blocking graceful shutdown from any thread."""
        assert self._loop is not None, "service not started"
        future = asyncio.run_coroutine_threadsafe(self.service.drain(), self._loop)
        result = future.result(timeout)
        self._thread.join(timeout=10.0)
        return result
