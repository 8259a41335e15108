"""The modules a runtime process loads only when it runs the tier that needs them.

OpenSSL comes in through ``secrets``/``hashlib``/``hmac`` (the socket plane's
token check needs ``hmac``, master-side), and the HTTP stack through
``http.server`` (the opt-in scrape endpoint).  No other tier uses either.

Shared by ``tests/runtime/test_footprint.py`` (the master, in a fresh
interpreter) and ``tests/runtime/test_warm_distributed.py`` (a spawned
worker).  This module imports nothing but the runtime, so a worker that
unpickles :class:`LoadedModules` loads nothing through it that the check
would count — a test module would (``pytest`` imports ``email``).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.runtime import context as ctx
from repro.runtime import shm

HEAVY_MODULES = ("ssl", "_ssl", "_hashlib", "hashlib", "hmac", "secrets", "http.server", "http.client", "email")

#: the socket plane, which only the ``distributed`` backend imports.
SOCKET_PLANE = "repro.runtime.dataplane"


def heavy_loaded() -> "list[str]":
    """Which of :data:`HEAVY_MODULES` this process has loaded."""
    return [name for name in HEAVY_MODULES if name in sys.modules]


class LoadedModules:
    """``process_safe`` SPMD body: member ``k`` writes, into row ``k`` of a
    shared array, how many of :data:`HEAVY_MODULES` its process has loaded
    and whether it has loaded the socket plane (rows of members that did not
    run stay ``-1``)."""

    process_safe = True

    def __init__(self, size: int) -> None:
        self.rows = shm.shared_zeros((size, 2), dtype=np.int64)
        self.rows.np[:] = -1

    def run(self) -> None:
        self.rows[ctx.get_thread_id()] = (len(heavy_loaded()), SOCKET_PLANE in sys.modules)

    def report(self) -> "list[tuple[int, int]]":
        return [(int(heavy), int(plane)) for heavy, plane in self.rows.np]

    def close(self) -> None:
        self.rows.close()
