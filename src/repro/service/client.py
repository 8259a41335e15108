"""A small blocking client for the compute service's line-JSON protocol.

Used by the end-to-end tests, ``bench/``'s ``service_open`` workload and the
CI ``service`` job — anything that needs to speak to the service from plain
synchronous code.  One socket per client; thread-safe for *sequential* use
per instance (drive concurrency with one client per thread, like real
callers would).
"""

from __future__ import annotations

import json
import socket
from typing import Any


class ServiceError(RuntimeError):
    """A ``{"ok": false}`` response; ``code`` is the wire error code."""

    def __init__(self, message: str, code: str) -> None:
        super().__init__(message)
        self.code = code


class ServiceClient:
    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")

    # -- protocol ------------------------------------------------------------

    def call(self, op: str, **fields: Any) -> "dict[str, Any]":
        """One round-trip; raises :class:`ServiceError` on ``ok: false``."""
        payload = {"op": op, **{k: v for k, v in fields.items() if v is not None}}
        self._sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        line = self._file.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServiceError(response.get("error", "request failed"), response.get("code", "error"))
        return response

    # -- convenience wrappers ------------------------------------------------

    def ping(self) -> "dict[str, Any]":
        return self.call("ping")

    def kernels(self) -> "list[dict[str, Any]]":
        return self.call("kernels")["kernels"]

    def submit(
        self,
        kernel: str,
        *,
        size: "str | int" = "tiny",
        tenant: str = "default",
        num_threads: "int | None" = None,
        on_failure: "str | None" = None,
        coalesce: bool = True,
        wait: bool = False,
        timeout: "float | None" = None,
    ) -> "dict[str, Any]":
        return self.call(
            "submit",
            kernel=kernel,
            size=size,
            tenant=tenant,
            num_threads=num_threads,
            on_failure=on_failure,
            coalesce=coalesce,
            wait=wait or None,
            timeout=timeout,
        )

    def poll(self, request_id: str) -> "dict[str, Any]":
        return self.call("poll", id=request_id)

    def wait(self, request_id: str, *, timeout: "float | None" = None) -> "dict[str, Any]":
        return self.call("wait", id=request_id, timeout=timeout)

    def cancel(self, request_id: str) -> "dict[str, Any]":
        return self.call("cancel", id=request_id)

    def stats(self) -> "dict[str, Any]":
        return self.call("stats")

    def drain(self) -> "dict[str, Any]":
        return self.call("drain")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
