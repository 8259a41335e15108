"""Capability-matrix tests for ``Backend.resolve_for_region`` and friends.

Covers the full backend × region-shape matrix (team size, nesting level,
``requires_shared_locals``), the documented fallback order, the live
``true_parallel`` capability on every backend, and the loud fork-requirement
error of the components that cannot degrade (satellites of the GIL-free
execution tier).
"""

from __future__ import annotations

import sysconfig
from types import SimpleNamespace

import pytest

from repro.runtime import backend as backend_mod
from repro.runtime import shm
from repro.runtime.backend import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    backend_by_name,
    gil_enabled,
)
from repro.runtime import subinterp
from repro.runtime.config import config_override
from repro.runtime.exceptions import BackendError
from repro.runtime.subinterp import interpreters_api, subinterpreters_available

#: the (size, nesting_level, requires_shared_locals) shapes the matrix covers
REGION_SHAPES = [
    (1, 0, False),
    (1, 0, True),
    (4, 0, False),
    (4, 0, True),
    (4, 1, False),
    (4, 1, True),
]


class TestRegistry:
    def test_all_four_backends_registered(self):
        assert {"serial", "threads", "processes", "distributed"} <= set(available_backends())

    def test_an_unknown_name_names_the_valid_set(self):
        with pytest.raises(ValueError, match="unknown backend 'subinterp'; valid backends: .*distributed"):
            backend_by_name("subinterp")

    @pytest.mark.parametrize("name", ["subinterp", "subinterpreter", "subinterpreters", "interpreters"])
    def test_no_former_subinterpreter_name_resolves(self, name):
        """No alias is left behind: by name and through the configuration alike."""
        with pytest.raises(ValueError, match=f"unknown backend '{name}'; valid backends: "):
            backend_by_name(name)
        previous = backend_mod.set_backend(None)
        try:
            with config_override(backend=name), pytest.raises(ValueError, match=f"unknown backend '{name}'"):
                backend_mod.get_backend()
        finally:
            backend_mod.set_backend(previous)

    def test_capability_flags_per_backend(self):
        expectations = {
            "serial": (True, 1.0),
            "threads": (True, 1.0),
            "processes": (False, 4.0),
            "distributed": (False, 8.0),
        }
        for name, (shared_locals, spinup) in expectations.items():
            backend = backend_by_name(name)
            assert backend.supports_shared_locals == shared_locals, name
            assert backend.spinup_cost_scale == spinup, name

    def test_spinup_cost_ordering(self):
        # Isolated-heap teams cost more to spin up; the tuner's serial cutoff
        # scales with this, so the ordering is semantically meaningful.
        assert ThreadBackend().spinup_cost_scale < ProcessBackend().spinup_cost_scale


class TestSubinterpreterProbe:
    """The host capability the benchmark harness records."""

    def test_probe_is_cached_and_boolean(self):
        first = subinterpreters_available()
        assert isinstance(first, bool)
        assert subinterpreters_available() is first

    def test_api_adapter_consistency(self):
        api = interpreters_api()
        if subinterpreters_available():
            assert api is not None
        assert interpreters_api() is api

    def test_high_level_interpreter_objects_run_and_close_themselves(self):
        ran, closed = [], []
        handle = SimpleNamespace(exec=ran.append, close=lambda: closed.append(True))
        api = subinterp._InterpretersAPI(SimpleNamespace(create=lambda: handle))
        assert api.create() is handle
        api.exec(handle, "x = 1")
        api.destroy(handle)
        assert ran == ["x = 1"] and closed == [True]

    def test_a_low_level_failure_snapshot_raises(self):
        destroyed = []
        module = SimpleNamespace(
            __name__="_interpreters",
            create=lambda: 7,
            run_string=lambda handle, code: "ImportError: numpy" if "numpy" in code else None,
            destroy=destroyed.append,
        )
        api = subinterp._InterpretersAPI(module)
        api.exec(7, "x = 1")
        with pytest.raises(RuntimeError, match="ImportError: numpy"):
            api.exec(7, "import numpy")
        api.destroy(7)
        assert destroyed == [7]

    def test_the_probe_is_false_without_an_api(self, monkeypatch):
        monkeypatch.setattr(subinterp, "interpreters_api", lambda: None)
        assert subinterp._probe() is False

    @pytest.mark.parametrize("imports", [True, False])
    def test_the_probe_reports_whether_a_throwaway_interpreter_imports_numpy(self, monkeypatch, imports):
        created, destroyed = [], []

        def run(handle, code):
            assert "import numpy" in code
            if not imports:
                raise RuntimeError("numpy cannot load here")

        api = SimpleNamespace(create=lambda: created.append(object()) or created[-1], exec=run, destroy=destroyed.append)
        monkeypatch.setattr(subinterp, "interpreters_api", lambda: api)
        assert subinterp._probe() is imports
        assert destroyed == created and len(created) == 1  # the interpreter goes either way


class TestInProcessBackends:
    """Backends with one shared heap never need to fall back."""

    @pytest.mark.parametrize("size,nesting,shared_locals", REGION_SHAPES)
    def test_thread_backend_always_resolves_to_self(self, size, nesting, shared_locals):
        backend = ThreadBackend()
        assert (
            backend.resolve_for_region(size=size, nesting_level=nesting, requires_shared_locals=shared_locals)
            is backend
        )

    @pytest.mark.parametrize("size,nesting,shared_locals", REGION_SHAPES)
    def test_serial_backend_always_resolves_to_self(self, size, nesting, shared_locals):
        backend = SerialBackend()
        assert (
            backend.resolve_for_region(size=size, nesting_level=nesting, requires_shared_locals=shared_locals)
            is backend
        )


@pytest.mark.skipif(not shm.fork_available(), reason="process backend needs the fork start method")
class TestProcessResolution:
    def test_matrix(self):
        backend = ProcessBackend()
        # Teams of one stay on the backend (no workers to isolate).
        assert backend.resolve_for_region(size=1, nesting_level=0, requires_shared_locals=True) is backend
        # Plain top-level SPMD regions are the backend's home turf.
        assert backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=False) is backend
        # Nested regions become thread sub-teams (designed hierarchy, silent).
        assert backend.resolve_for_region(size=4, nesting_level=1, requires_shared_locals=False) is backend.fallback
        # Shared-heap constructs fall back loudly.
        with pytest.warns(RuntimeWarning, match="ProcessBackend.*shared Python heap"):
            resolved = backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=True)
        assert resolved is backend.fallback

    def test_fallback_is_a_thread_backend(self):
        assert isinstance(ProcessBackend().fallback, ThreadBackend)

    def test_no_fork_falls_back_with_warning(self, monkeypatch):
        monkeypatch.setattr(shm, "fork_available", lambda: False)
        backend = ProcessBackend()
        with pytest.warns(RuntimeWarning, match="ProcessBackend.*fork"):
            resolved = backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=False)
        assert resolved is backend.fallback


class TestTrueParallel:
    def test_serial_is_never_parallel(self):
        assert SerialBackend().true_parallel is False

    def test_threads_follow_the_live_gil_state(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "gil_enabled", lambda: True)
        assert ThreadBackend().true_parallel is False
        monkeypatch.setattr(backend_mod, "gil_enabled", lambda: False)
        assert ThreadBackend().true_parallel is True

    def test_processes_follow_fork_availability(self, monkeypatch):
        assert ProcessBackend().true_parallel == shm.fork_available()
        monkeypatch.setattr(shm, "fork_available", lambda: False)
        assert ProcessBackend().true_parallel is False

    def test_build_introspection_is_consistent(self):
        assert isinstance(gil_enabled(), bool)
        if not sysconfig.get_config_var("Py_GIL_DISABLED"):
            # A regular build cannot have its GIL disabled.
            assert gil_enabled() is True


class TestForkRequirement:
    """Components whose contract is fork inheritance fail loudly, not subtly."""

    def test_require_fork_passes_where_fork_exists(self):
        if shm.fork_available():
            shm.require_fork("a test component")  # must not raise

    def test_require_fork_raises_backend_error(self, monkeypatch):
        monkeypatch.setattr(shm, "fork_available", lambda: False)
        with pytest.raises(BackendError, match="fork.*start method") as excinfo:
            shm.require_fork("the persistent process pool")
        message = str(excinfo.value)
        assert "the persistent process pool" in message
        # The error points at the backends that do work here.
        assert "threads backend" in message and "distributed" in message

    def test_persistent_pool_refuses_to_build_without_fork(self, monkeypatch):
        from repro.runtime.procpool import PersistentProcessPool

        monkeypatch.setattr(shm, "fork_available", lambda: False)
        with pytest.raises(BackendError, match="persistent process pool"):
            PersistentProcessPool(2)
