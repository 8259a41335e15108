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
  :class:`~repro.runtime.shm.TunePlanArena` logic, built through the
  :func:`~repro.runtime.shm.pipe_cells` allocator: shared int64 cells
  guarded by :class:`~repro.runtime.shm.PipeLock` (OS pipe fds are plain
  integers, valid in every interpreter of the process), plus the polling
  :class:`~repro.runtime.shm.InterpBarrier`.  The master creates the arenas
  and ships each one's ``shareable()`` primitives; a worker attaches through
  :func:`~repro.runtime.shm.attached_cells` — one helper
  (:func:`_sync_arenas`) builds both sides;
* **region descriptors** — a pickle-free channel: each worker receives the
  region descriptor as a ``repr``'d literal of primitives (ints, strings,
  bytes, tuples) embedded in its bootstrap source.  Only the region *body*
  itself is pickled, under the same ``process_safe`` opt-in contract the
  persistent process pool uses;
* **results** — a :func:`~repro.runtime.member.send_frame` frame written to
  a per-member pipe, read with the other shipped tiers'
  :class:`~repro.runtime.member.FrameReader`.

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
import threading
from typing import TYPE_CHECKING, Any, Callable

import repro.obs.registry as obsreg
from repro.obs.exposition import suppress_exporter
from repro.runtime import shm
from repro.runtime.backend import ExternalBackend
from repro.runtime.config import get_config
from repro.runtime.exceptions import WorkerProcessError
from repro.runtime.member import (
    FrameReader,
    describe_region,
    join_team,
    path_prelude,
    run_shipped_member,
    send_frame,
)

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
        path_prelude()
        + "from repro.runtime import subinterp as _si\n"
        + f"_si._member_main({descriptor!r})\n"
    )


def _sync_arenas(max_workers: int, metric_slots: int, parties: "int | None", cells_for: Callable[[str], Any]) -> dict:
    """Every arena of a region's sync bundle, keyed by its ``ProcessSync`` field.

    ``cells_for(name)`` is the allocator arena ``name`` is built over.  The
    master creates the bundle (``parties`` given) over fresh
    :func:`~repro.runtime.shm.pipe_cells` storage; a worker interpreter
    attaches (``parties=None``) to what the master's ``shareable()`` tuples
    name.  Sizes are the arenas' own business either way.
    """
    fresh = parties is not None
    barrier = shm.InterpBarrier(parties, cells=cells_for("barrier"))
    arenas = {
        "barrier": barrier,
        "arena": shm.SyncArena(ARENA_CAPACITY, cells=cells_for("arena"), fresh=fresh),
        "steal": shm.TaskStealArena(max_workers, STEAL_CAPACITY, cells=cells_for("steal"), fresh=fresh),
        "tune": shm.TunePlanArena(barrier, TUNE_CAPACITY, cells=cells_for("tune"), fresh=fresh),
        "heartbeat": shm.HeartbeatArena(max_workers, cells=cells_for("heartbeat"), fresh=fresh),
    }
    if metric_slots:
        from repro.obs.arena import MetricsArena

        arenas["metrics"] = MetricsArena(max_workers, slots=metric_slots, cells=cells_for("metrics"), fresh=fresh)
    return arenas


def _attach_sync(descriptor: dict) -> "shm.ProcessSync":
    """Reconstruct the region's sync bundle from shareable primitives."""
    max_workers, metric_slots, shared = descriptor["sync"]
    return shm.ProcessSync(
        **_sync_arenas(max_workers, metric_slots, None, lambda name: shm.attached_cells(shared[name]))
    )


def _member_main(descriptor: dict) -> None:
    """Execute one team member inside a worker subinterpreter.

    The member shares the master's OS process (so an injected ``kill``
    degrades to ``InjectedFault`` and the host survives) but none of its
    module state; the reply goes out as one frame on the member's result
    pipe.
    """
    thread_id = descriptor["thread_id"]
    suppress_exporter()  # only the master serves scrapes: it alone holds the team-wide counts
    reply = run_shipped_member(descriptor, thread_id, _attach_sync(descriptor))
    send_frame(descriptor["result_fd"], (thread_id, reply))


# ---------------------------------------------------------------------------
# Master side: the backend.
# ---------------------------------------------------------------------------


class SubinterpreterBackend(ExternalBackend):
    """Run team members in PEP-734 subinterpreters (one GIL each).

    Eligibility mirrors the process pool: only *picklable SPMD bodies whose
    owner opts in* (``process_safe`` — all mutable state in shared memory)
    can cross the interpreter boundary; everything else runs on the thread
    fallback.  Nested regions and regions needing a shared Python heap also
    resolve to the fallback, exactly like the process backend's hierarchy.
    """

    name = "subinterp"
    #: one OS process — but no shared *heap*, which is the property dispatch
    #: actually cares about (``Team.is_process_team`` keys off the sync
    #: bundle, not this flag).
    is_process_based = False
    #: interpreter creation + module imports per region: cheaper than a cold
    #: fork+pickle round-trip but far above a thread spawn.
    spinup_cost_scale = 6.0

    @property
    def true_parallel(self) -> bool:
        """Per-interpreter GIL: genuinely parallel wherever workers can exist."""
        return subinterpreters_available()

    # -- strategy hooks -------------------------------------------------------

    def unavailable(self) -> "str | None":
        if subinterpreters_available():
            return None
        return (
            "no usable interpreters module on this build (PEP 734, CPython >= 3.12 "
            "with subinterpreter-capable numpy)"
        )

    def create_process_sync(self, size: int, body: "Callable[[], Any] | None") -> "shm.ProcessSync | None":
        if size <= 1 or not subinterpreters_available():
            return None
        body_bytes = self._shippable(body)
        if body_bytes is None:
            return None
        max_workers = max(size, 2)
        metric_slots = obsreg.get_registry().num_slots if get_config().metrics else 0
        arenas = _sync_arenas(max_workers, metric_slots, size, lambda name: shm.pipe_cells)
        shared = {name: arena.shareable() for name, arena in arenas.items()}
        return shm.ProcessSync(
            **arenas,
            body_bytes=body_bytes,
            # What finish_region closes, and what _attach_sync rebuilds from.
            owned=(arenas, {"sync": (max_workers, metric_slots, shared)}),
        )

    def finish_region(self, team: "Team") -> None:
        sync = team.process_sync
        if sync is not None and sync.owned is not None:
            for arena in sync.owned[0].values():
                arena.close()
            sync.owned = None

    # -- execution ------------------------------------------------------------

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: "Callable[[], Any] | None" = None) -> Any:
        sync = team.process_sync
        if sync is None:
            return self._fallback.run_team(team, run_member, body)

        base = {**describe_region(team, sync.body_bytes), **sync.owned[1]}
        read_fds: list[int] = []
        bootstrap_errors: dict[int, BaseException] = {}
        hosts: list[threading.Thread] = []
        for member in team.members[1:]:
            read_fd, write_fd = os.pipe()
            read_fds.append(read_fd)
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

        replies = FrameReader(read_fds)

        def reap(failed: bool) -> None:
            for host in hosts:
                host.join(timeout=5.0)
            replies.close()

        master_result = join_team(
            team,
            run_member,
            receive=replies.get,
            alive=lambda: any(host.is_alive() for host in hosts),
            # A worker interpreter cannot die on its own without taking the
            # process with it; what can fail is its bootstrap, on the host.
            dead_workers=lambda: [(thread_id, os.getpid(), None) for thread_id in list(bootstrap_errors)],
            reap=reap,
        )
        for thread_id, cause in bootstrap_errors.items():
            # The join's diagnosis names who was lost; the bootstrap error says why.
            lost = team.members[thread_id].exception
            if isinstance(lost, WorkerProcessError):
                lost.__cause__ = cause
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
            # waiting on a pipe nobody will write.
            try:
                os.close(write_fd)
            except OSError:  # pragma: no cover - already closed
                pass
