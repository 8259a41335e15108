"""Probe: can this build host PEP-734 subinterpreters that import numpy?

The runtime has no subinterpreter backend; its isolated-heap bodies run on the
``processes`` and ``distributed`` tiers.  What is left is the live capability
probe :func:`subinterpreters_available`, whose only reader is the benchmark
harness's ``environment()`` host record (``bench/harness.py``).  It creates a
throwaway interpreter and imports numpy inside it, because C-extension
support inside subinterpreters varies by CPython version and build.
"""

from __future__ import annotations

import importlib
import threading
from typing import Any

from repro.runtime.member import path_prelude

#: candidate module names for the PEP-734 API, newest first.  3.14+ ships the
#: high-level ``concurrent.interpreters``; 3.13 the low-level
#: ``_interpreters``; 3.12 the experimental ``_xxsubinterpreters``.
_MODULE_CANDIDATES = (
    "concurrent.interpreters",
    "interpreters",
    "_interpreters",
    "_xxsubinterpreters",
)


class _InterpretersAPI:
    """Version adapter over the PEP-734 module family.

    Normalises the churn between the high-level object API (``Interpreter``
    with ``exec``/``close``) and the low-level id-based modules
    (``create()``/``run_string``/``destroy``): ``create`` returns an opaque
    handle, ``exec`` raises on failure, ``destroy`` releases the handle.
    """

    def __init__(self, module: Any) -> None:
        self._module = module

    def create(self) -> Any:
        try:
            return self._module.create()
        except TypeError:  # pragma: no cover - some low-level revisions require a config
            return self._module.create("isolated")

    def exec(self, handle: Any, code: str) -> None:
        run = getattr(handle, "exec", None) or getattr(handle, "exec_sync", None)
        if run is not None:  # high-level Interpreter object
            run(code)
            return
        module = self._module
        entry = getattr(module, "exec", None) or getattr(module, "run_string", None)
        if entry is None:  # pragma: no cover - unknown module revision
            raise RuntimeError(
                f"interpreters module {module.__name__!r} has no exec/run_string entry point"
            )
        failure = entry(handle, code)
        if failure:  # low-level revisions return a failure snapshot instead of raising
            raise RuntimeError(f"subinterpreter execution failed: {failure}")

    def destroy(self, handle: Any) -> None:
        close = getattr(handle, "close", None)
        if close is not None:
            close()
            return
        destroy = getattr(self._module, "destroy", None)
        if destroy is not None:
            destroy(handle)


# Reentrant: subinterpreters_available() probes under this lock, and the
# probe itself resolves the API through interpreters_api().
_api_lock = threading.RLock()
_api: "_InterpretersAPI | None" = None
_api_resolved = False
_probe_result: "bool | None" = None


def interpreters_api() -> "_InterpretersAPI | None":
    """The adapter over whichever PEP-734 module this build ships, or ``None``."""
    global _api, _api_resolved
    if not _api_resolved:
        with _api_lock:
            if not _api_resolved:
                for name in _MODULE_CANDIDATES:
                    try:
                        module = importlib.import_module(name)
                    except ImportError:
                        continue
                    if hasattr(module, "create"):
                        _api = _InterpretersAPI(module)
                        break
                _api_resolved = True
    return _api


def subinterpreters_available() -> bool:
    """Whether worker subinterpreters can actually host region bodies here.

    More than a module check: creates a throwaway interpreter and imports the
    backend's hard dependencies (numpy) inside it, because C-extension
    loading inside subinterpreters varies by CPython version and build.  The
    (somewhat costly) probe runs once per process and is cached.
    """
    global _probe_result
    if _probe_result is None:
        with _api_lock:
            if _probe_result is None:
                _probe_result = _probe()
    return _probe_result


def _probe() -> bool:
    api = interpreters_api()
    if api is None:
        return False
    code = path_prelude() + "import numpy\nimport pickle\n"
    try:
        handle = api.create()
        try:
            api.exec(handle, code)
        finally:
            api.destroy(handle)
    except BaseException:
        return False
    return True
