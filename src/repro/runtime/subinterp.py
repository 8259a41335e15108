"""PEP-734 subinterpreter backend: per-interpreter GIL, shared-memory data plane.

Runs each non-master team member in its own CPython *subinterpreter*, hosted
on a dedicated OS thread.  Subinterpreters created through the PEP-734 family
of modules carry their own GIL, so members execute Python bytecode truly in
parallel — without fork (no COW page costs, works where fork does not exist)
and without pickling array data (all interpreters share one address space).

The catch is that almost nothing *else* is shared: Python objects, and with
them every ``threading``/``multiprocessing`` primitive, cannot cross an
interpreter boundary.  The backend therefore speaks to its workers entirely
through process-wide primitives:

* **data plane** — :class:`repro.runtime.shm.SharedArray` segments, attached
  by name exactly as the process backend's workers do;
* **synchronisation** — the same :class:`~repro.runtime.shm.SyncArena` /
  :class:`~repro.runtime.shm.TaskStealArena` /
  :class:`~repro.runtime.shm.TunePlanArena` logic, but built over shared
  int64 cells guarded by :class:`~repro.runtime.shm.PipeLock` (OS pipe fds
  are plain integers, valid in every interpreter of the process), plus the
  polling :class:`~repro.runtime.shm.InterpBarrier`;
* **region descriptors** — a pickle-free channel: each worker receives the
  region descriptor as a ``repr``'d literal of primitives (ints, strings,
  bytes, tuples) embedded in its bootstrap source.  Only the region *body*
  itself is pickled, under the same ``process_safe`` opt-in contract the
  persistent process pool uses;
* **results** — a length-prefixed payload written to a per-member pipe.

Because the worker interpreters must import :mod:`numpy` (for the shared
arrays) and this package, and C-extension support inside subinterpreters is
still rolling out across CPython versions, availability is established by a
one-time *probe* — create an interpreter, import the hard dependencies —
rather than by a version check.  Where the probe fails (no interpreters
module, or numpy cannot load there) the backend degrades to its thread
fallback with a one-time warning, so ``AOMP_BACKEND=subinterp`` is a safe
setting on every interpreter.
"""

from __future__ import annotations

import importlib
import os
import pickle
import threading
import time
import warnings
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.runtime import faults, shm
from repro.runtime.config import get_config
from repro.runtime.backend import (
    Backend,
    ThreadBackend,
    _decode_exception,
    _decode_result,
)
from repro.runtime.exceptions import WorkerProcessError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.team import Team

#: candidate module names for the PEP-734 API, newest first.  3.14+ ships the
#: high-level ``concurrent.interpreters``; 3.13 the low-level
#: ``_interpreters``; 3.12 the experimental ``_xxsubinterpreters``.
_MODULE_CANDIDATES = (
    "concurrent.interpreters",
    "interpreters",
    "_interpreters",
    "_xxsubinterpreters",
)

#: arena slot capacities for a per-region sync bundle (same defaults as the
#: process backend's arenas; must be multiples of ``shm.MAX_TEAM_LEVELS``).
ARENA_CAPACITY = 256
STEAL_CAPACITY = 64
TUNE_CAPACITY = 256


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
    code = _path_prelude() + "import numpy\nimport pickle\n"
    try:
        handle = api.create()
        try:
            api.exec(handle, code)
        finally:
            api.destroy(handle)
    except BaseException:
        return False
    return True


def _path_prelude() -> str:
    """Bootstrap fragment aligning the worker interpreter's ``sys.path``.

    Fresh interpreters initialise ``sys.path`` from the installation alone;
    entries added by the embedding application (``PYTHONPATH=src``, test
    harness insertions) must be replayed for ``repro`` to be importable.
    """
    import sys

    paths = [p for p in sys.path if p]
    return (
        "import sys\n"
        f"for _p in reversed({paths!r}):\n"
        "    if _p not in sys.path:\n"
        "        sys.path.insert(0, _p)\n"
    )


# ---------------------------------------------------------------------------
# Worker side: runs inside the subinterpreter.
# ---------------------------------------------------------------------------


def _bootstrap_source(descriptor: dict) -> str:
    """Self-contained source executed in the worker interpreter.

    The descriptor is embedded as a ``repr`` literal — a pickle-free channel
    of primitives (the only pickled object is the region body inside it,
    under the pool's ``process_safe`` contract).
    """
    return (
        _path_prelude()
        + "from repro.runtime import subinterp as _si\n"
        + f"_si._member_main({descriptor!r})\n"
    )


def _attach_sync(descriptor: dict) -> "shm.ProcessSync":
    """Reconstruct the region's sync bundle from shareable primitives."""
    b_name, b_fds = descriptor["barrier"]
    barrier = shm.InterpBarrier(
        cells=shm._attach_shared_array(b_name, (shm.InterpBarrier.CELLS,), "<i8"),
        lock=shm.PipeLock(fds=tuple(b_fds)),
    )
    a_name, a_fds = descriptor["arena"]
    arena = shm.SyncArena(
        ARENA_CAPACITY,
        cells=shm._attach_shared_array(a_name, (shm.SyncArena.CELLS_PER_SLOT * ARENA_CAPACITY,), "<i8"),
        lock=shm.PipeLock(fds=tuple(a_fds)),
        fresh=False,
    )
    s_name, s_fds, max_workers = descriptor["steal"]
    steal = shm.TaskStealArena(
        max_workers,
        STEAL_CAPACITY,
        cells=shm._attach_shared_array(
            s_name, (shm.TaskStealArena.cells_needed(max_workers, STEAL_CAPACITY),), "<i8"
        ),
        lock=shm.PipeLock(fds=tuple(s_fds)),
        fresh=False,
    )
    t_name, t_fds = descriptor["tune"]
    tune = shm.TunePlanArena(
        TUNE_CAPACITY,
        cells=shm._attach_shared_array(t_name, (shm.TunePlanArena.CELLS_PER_SLOT * TUNE_CAPACITY,), "<i8"),
        lock=shm.PipeLock(fds=tuple(t_fds)),
        fresh=False,
    )
    hb_name, hb_members = descriptor["heartbeat"]
    heartbeat = shm.HeartbeatArena(
        hb_members,
        cells=shm._attach_shared_array(hb_name, (shm.HeartbeatArena.CELLS_PER_MEMBER * hb_members,), "<i8"),
        fresh=False,
    )
    metrics = None
    shared_metrics = descriptor.get("metrics")
    if shared_metrics:
        from repro.obs.arena import MetricsArena

        m_name, m_capacity, m_slots = shared_metrics
        metrics = MetricsArena(
            m_capacity,
            slots=m_slots,
            cells=shm._attach_shared_array(m_name, (m_capacity * m_slots,), "<i8"),
            fresh=False,
        )
    return shm.ProcessSync(
        barrier, arena, pooled=False, steal=steal, tune=tune, heartbeat=heartbeat, metrics=metrics
    )


def _member_main(descriptor: dict) -> None:
    """Execute one team member inside a worker subinterpreter.

    Mirrors the persistent pool's ``_pool_worker``: reconstruct the team and
    execution context, run the (unpickled) body, ship the encoded result or
    exception back — here over the member's result pipe instead of a queue.
    """
    import struct

    import repro.obs.registry as obsreg
    from repro.obs.exposition import suppress_exporter
    from repro.runtime import context as ctx
    from repro.runtime.backend import _encode_exception, _encode_result
    from repro.runtime.config import config_override, get_config
    from repro.runtime.team import Team

    # This interpreter shares the master's process but not its module state;
    # a nested region in here must never race the master for the scrape port.
    suppress_exporter()
    thread_id = int(descriptor["thread_id"])
    result_fd = int(descriptor["result_fd"])
    sync = None
    try:
        sync = _attach_sync(descriptor)
        body = pickle.loads(descriptor["body"])
        team = Team(
            int(descriptor["size"]),
            region_id=int(descriptor["region_id"]),
            name=descriptor["name"],
            nesting_level=int(descriptor["nesting_level"]),
            process_sync=sync,
        )
        # SPMD agreement with the master: the fields that shape scheduling
        # decisions must match the master's live configuration, not this
        # fresh interpreter's environment defaults.  Nested regions spawned
        # inside a worker run as thread sub-teams, like the process backend.
        team.fault_region = int(descriptor.get("fault_region", 0))
        team.backend_name = "subinterp"
        if sync.heartbeat is not None:
            sync.heartbeat.register(thread_id)
        with config_override(tracing=False, backend="threads", **descriptor["config"]):
            # The Team above was built under this interpreter's inherited
            # config; the master's live metrics flag arrives in the descriptor.
            team.metrics = get_config().metrics
            frame = ctx.ExecutionContext(
                team=team, thread_id=thread_id, nesting_level=int(descriptor["nesting_level"])
            )
            ctx.push_context(frame)
            try:
                if faults.active():
                    # Subinterpreter members share the master's OS process: a
                    # "kill" action degrades to InjectedFault inside the plan
                    # (same pid), so the host process survives by design.
                    faults.fire(
                        "member",
                        member=thread_id,
                        region=team.fault_region,
                        backend="subinterp",
                        team=team,
                    )
                result = body()
            finally:
                ctx.pop_context()
                # Workers run the body directly (no ``run_member``), so the
                # team-wide aggregation flush must happen here.
                if sync.metrics is not None and get_config().metrics:
                    sync.metrics.flush_member(thread_id, obsreg.flush_delta())
    except BaseException as exc:  # noqa: BLE001 - shipped to the master
        if sync is not None:
            sync.barrier.abort()
        payload = (thread_id, None, _encode_exception(exc))
    else:
        payload = (thread_id, _encode_result(result), None)
    data = pickle.dumps(payload)
    os.write(result_fd, struct.pack("<I", len(data)) + data)


# ---------------------------------------------------------------------------
# Master side: the backend.
# ---------------------------------------------------------------------------


class SubinterpreterBackend(Backend):
    """Run team members in PEP-734 subinterpreters (one GIL each).

    Eligibility mirrors the process pool: only *picklable SPMD bodies whose
    owner opts in* (``process_safe`` — all mutable state in shared memory)
    can cross the interpreter boundary; everything else runs on the thread
    fallback.  Nested regions and regions needing a shared Python heap also
    resolve to the fallback, exactly like the process backend's hierarchy.
    """

    name = "subinterp"
    supports_shared_locals = False
    #: one OS process — but no shared *heap*, which is the property dispatch
    #: actually cares about (``Team.is_process_team`` keys off the sync
    #: bundle, not this flag).
    is_process_based = False
    #: interpreter creation + module imports per region: cheaper than a cold
    #: fork+pickle round-trip but far above a thread spawn.
    spinup_cost_scale = 6.0

    #: seconds granted to workers beyond the barrier timeout before the
    #: master declares them lost.
    JOIN_GRACE = 30.0

    def __init__(self, fallback: "Backend | None" = None) -> None:
        self._fallback = fallback if fallback is not None else ThreadBackend()
        self._warned_fallback: set[str] = set()

    @property
    def fallback(self) -> Backend:
        """The in-process backend used for regions subinterpreters cannot honour."""
        return self._fallback

    @property
    def true_parallel(self) -> bool:
        """Per-interpreter GIL: genuinely parallel wherever workers can exist."""
        return subinterpreters_available()

    # -- strategy hooks -------------------------------------------------------

    def resolve_for_region(self, *, size: int, nesting_level: int, requires_shared_locals: bool) -> Backend:
        if size <= 1:
            return self
        if not subinterpreters_available():
            self._warn_once(
                "platform",
                "no usable interpreters module on this build (PEP 734, CPython >= 3.12 "
                "with subinterpreter-capable numpy); using thread backend",
            )
            return self._fallback
        if nesting_level > 0:
            # Same designed hierarchy as the process backend: the interpreter
            # team forms the outer level; nested regions inside a worker run
            # as thread sub-teams within that interpreter.
            return self._fallback
        if requires_shared_locals:
            self._warn_once(
                "shared-locals",
                "region needs a shared Python heap (single/master broadcast, ordered, "
                "critical or reductions); using thread backend",
            )
            return self._fallback
        return self

    def create_process_sync(self, size: int, body: "Callable[[], Any] | None") -> "shm.ProcessSync | None":
        if size <= 1 or not subinterpreters_available():
            return None
        body_bytes = self._body_payload(body)
        if body_bytes is None:
            # run_team will see sync=None and delegate to the thread fallback.
            self._warn_once(
                "body",
                "region body is not a picklable process_safe SPMD callable; "
                "subinterpreter workers cannot receive it — using thread backend",
            )
            return None
        barrier_cells = shm.SharedArray.zeros(shm.InterpBarrier.CELLS, np.int64)
        arena_cells = shm.SharedArray.zeros(shm.SyncArena.CELLS_PER_SLOT * ARENA_CAPACITY, np.int64)
        max_workers = max(size, 2)
        steal_cells = shm.SharedArray.zeros(shm.TaskStealArena.cells_needed(max_workers, STEAL_CAPACITY), np.int64)
        tune_cells = shm.SharedArray.zeros(shm.TunePlanArena.CELLS_PER_SLOT * TUNE_CAPACITY, np.int64)
        heartbeat_cells = shm.SharedArray.zeros(shm.HeartbeatArena.CELLS_PER_MEMBER * max_workers, np.int64)
        locks = [shm.PipeLock() for _ in range(4)]
        barrier = shm.InterpBarrier(cells=barrier_cells, lock=locks[0])
        barrier.reset(size)
        metrics_arena = None
        metrics_cells = None
        if get_config().metrics:
            from repro.obs.arena import MetricsArena

            metrics_cells = shm.SharedArray.zeros(MetricsArena.cells_needed(max_workers), np.int64)
            metrics_arena = MetricsArena(max_workers, cells=metrics_cells, fresh=False)
        sync = shm.ProcessSync(
            barrier,
            shm.SyncArena(ARENA_CAPACITY, cells=arena_cells, lock=locks[1]),
            pooled=False,
            steal=shm.TaskStealArena(max_workers, STEAL_CAPACITY, cells=steal_cells, lock=locks[2]),
            tune=shm.TunePlanArena(TUNE_CAPACITY, cells=tune_cells, lock=locks[3]),
            heartbeat=shm.HeartbeatArena(max_workers, cells=heartbeat_cells),
            metrics=metrics_arena,
        )
        sync.body_bytes = body_bytes  # type: ignore[attr-defined]
        sync.resources = [barrier_cells, arena_cells, steal_cells, tune_cells, heartbeat_cells, *locks]  # type: ignore[attr-defined]
        sync.shareable = {  # type: ignore[attr-defined]
            "barrier": (barrier_cells.name, locks[0].fds),
            "arena": (arena_cells.name, locks[1].fds),
            "steal": (steal_cells.name, locks[2].fds, max_workers),
            "tune": (tune_cells.name, locks[3].fds),
            "heartbeat": (heartbeat_cells.name, max_workers),
        }
        if metrics_arena is not None:
            sync.resources.append(metrics_cells)  # type: ignore[attr-defined]
            sync.shareable["metrics"] = (metrics_cells.name, max_workers, metrics_arena.slots)  # type: ignore[attr-defined]
        return sync

    def finish_region(self, team: "Team") -> None:
        sync = team.process_sync
        for resource in getattr(sync, "resources", ()):
            resource.close()
        if sync is not None:
            sync.resources = []  # type: ignore[attr-defined]

    # -- execution ------------------------------------------------------------

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: "Callable[[], Any] | None" = None) -> Any:
        sync = team.process_sync
        if sync is None:
            return self._fallback.run_team(team, run_member, body)

        config = _spmd_config_fields()
        base = {
            "size": team.size,
            "region_id": team.region_id,
            "name": team.name,
            "nesting_level": team.nesting_level,
            "fault_region": team.fault_region,
            "body": sync.body_bytes,  # type: ignore[attr-defined]
            "config": config,
            **sync.shareable,  # type: ignore[attr-defined]
        }

        read_fds: dict[int, int] = {}
        bootstrap_errors: dict[int, BaseException] = {}
        hosts: list[threading.Thread] = []
        for member in team.members[1:]:
            read_fd, write_fd = os.pipe()
            read_fds[member.thread_id] = read_fd
            descriptor = dict(base, thread_id=member.thread_id, result_fd=write_fd)
            host = threading.Thread(
                target=self._host_member,
                args=(descriptor, write_fd, sync, bootstrap_errors),
                name=f"aomp-interp-{team.name}-{member.thread_id}",
                daemon=True,
            )
            member.thread = host
            hosts.append(host)
        for host in hosts:
            host.start()

        master_result: Any = None
        try:
            master_result = run_member(0)
        except BaseException:
            # Recorded on the member record; run_member already aborted the
            # team barrier so workers fail fast.
            pass
        finally:
            try:
                payloads = self._collect(read_fds, team)
                self._apply_payloads(team, payloads, bootstrap_errors)
                for host in hosts:
                    host.join(timeout=5.0)
            finally:
                for fd in read_fds.values():
                    try:
                        os.close(fd)
                    except OSError:  # pragma: no cover - already closed
                        pass
        return master_result

    def _host_member(
        self,
        descriptor: dict,
        write_fd: int,
        sync: "shm.ProcessSync",
        errors: "dict[int, BaseException]",
    ) -> None:
        """Host thread: own one worker interpreter for the region's duration."""
        api = interpreters_api()
        assert api is not None  # guarded by create_process_sync
        try:
            handle = api.create()
            try:
                api.exec(handle, _bootstrap_source(descriptor))
            finally:
                api.destroy(handle)
        except BaseException as exc:  # noqa: BLE001 - reported to the master
            errors[descriptor["thread_id"]] = exc
            # The worker may have died before reaching the team barrier;
            # break it so siblings (and the master) fail fast.
            sync.barrier.abort()
        finally:
            # Close the write end so the master's reader sees EOF instead of
            # waiting out the timeout when no payload was written.
            try:
                os.close(write_fd)
            except OSError:  # pragma: no cover - already closed
                pass

    def _collect(self, read_fds: "dict[int, int]", team: "Team") -> dict:
        """Read each member's length-prefixed payload off its result pipe."""
        deadline = time.monotonic() + shm.BARRIER_TIMEOUT + self.JOIN_GRACE
        payloads: dict[int, tuple] = {}
        for thread_id, fd in read_fds.items():
            data = _read_payload(fd, deadline)
            if data is None:
                team.abort()
                continue
            reported_id, result, exc = pickle.loads(data)
            payloads[reported_id] = (result, exc)
        return payloads

    def _apply_payloads(self, team: "Team", payloads: dict, bootstrap_errors: dict) -> None:
        for member in team.members[1:]:
            payload = payloads.get(member.thread_id)
            if payload is None:
                cause = bootstrap_errors.get(member.thread_id)
                detail = f": {cause}" if cause is not None else " (no payload received)"
                member.exception = WorkerProcessError(
                    f"subinterpreter worker for thread {member.thread_id} of {team.name} failed{detail}"
                )
                continue
            result, exc = payload
            if exc is not None:
                member.exception = _decode_exception(exc)
            else:
                member.result = _decode_result(result)

    # -- helpers --------------------------------------------------------------

    def _body_payload(self, body: "Callable[[], Any] | None") -> "bytes | None":
        """Pickle ``body`` for interpreter dispatch, or ``None`` when ineligible.

        Same contract as the process pool: crossing the boundary copies
        by-value state, so only callables whose owner declares itself
        ``process_safe`` (all mutable state in shared memory) are eligible.
        """
        owner = getattr(body, "__self__", None)
        if owner is None or not getattr(owner, "process_safe", False):
            return None
        try:
            return pickle.dumps(body)
        except Exception:
            return None

    def _warn_once(self, key: str, message: str) -> None:
        if key not in self._warned_fallback:
            self._warned_fallback.add(key)
            warnings.warn(f"SubinterpreterBackend: {message}", RuntimeWarning, stacklevel=3)


def _spmd_config_fields() -> dict:
    """The master's configuration fields workers must mirror for SPMD agreement."""
    from repro.runtime.config import get_config

    config = get_config()
    return {
        "num_threads": config.num_threads,
        "default_schedule": config.default_schedule,
        "default_chunk": config.default_chunk,
        "nested": config.nested,
        "max_active_levels": config.max_active_levels,
        # Workers must instrument iff the master does, and bucket layout must
        # match the master's so flushed slot deltas mean the same thing.
        "metrics": config.metrics,
        "metrics_buckets": config.metrics_buckets,
    }


def _read_payload(fd: int, deadline: float) -> "bytes | None":
    """Read one ``<I``-length-prefixed payload; ``None`` on EOF or timeout."""
    import struct

    os.set_blocking(fd, False)
    buffer = bytearray()
    needed: "int | None" = None
    while True:
        try:
            chunk = os.read(fd, 65536)
        except BlockingIOError:
            chunk = None
        if chunk == b"":  # EOF: host thread closed the write end, no payload coming
            return None
        if chunk:
            buffer.extend(chunk)
            if needed is None and len(buffer) >= 4:
                needed = struct.unpack("<I", buffer[:4])[0]
            if needed is not None and len(buffer) >= 4 + needed:
                return bytes(buffer[4 : 4 + needed])
        if time.monotonic() > deadline:
            return None
        if not chunk:
            time.sleep(0.001)
