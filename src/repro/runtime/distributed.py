"""Distributed backend: team members in independent processes over sockets.

Runs each non-master team member in its own *spawned* worker process —
``sys.executable -c`` bootstrap, no fork, no inherited address space — and
connects every worker to the master's data-plane
:class:`~repro.runtime.dataplane.Coordinator` over loopback TCP.  This is
the runtime's sharding story: OpenMP constructs on top, an MPI-shaped
message plane underneath, with nothing in the worker's world but the wire
protocol (the same shape a multi-host deployment would need).

Division of labour with :mod:`repro.runtime.dataplane`:

* the data plane owns *state and transport* — coordinator, arenas,
  barrier, array mirrors, proxies;
* this module owns *membership* — spawning the workers, shipping the
  region descriptor, collecting results, and converting a dropped
  connection or missed heartbeats into the same
  :class:`~repro.runtime.exceptions.WorkerProcessError` diagnostics the
  forked path produces.

Round-trip economics mirror the paper's worksharing split: static/cyclic
schedules are pure functions of the member id and cost **zero** messages;
dynamic/guided claims go through the batched ``_claim_batch`` /
``guided_claim_batch`` shapes (one RPC claims many chunks); taskloop
steals ride the same per-tile RPCs the shm deck uses per-lock-round-trip.
Eligibility matches the pool/subinterpreter contract: only picklable
``process_safe`` SPMD bodies can cross the wire; everything else runs on
the thread fallback.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
import warnings
from typing import TYPE_CHECKING, Any, Callable

from repro.runtime import dataplane, faults, shm
from repro.runtime.barrier import _default_barrier_timeout
from repro.runtime.backend import (
    Backend,
    ThreadBackend,
    apply_member_payloads,
    collect_member_payloads,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.team import Team


def _path_prelude() -> str:
    """Bootstrap fragment replaying this process's ``sys.path`` in a worker.

    Spawned workers initialise ``sys.path`` from the installation alone;
    entries added by the embedding application (``PYTHONPATH=src``, test
    harness insertions) must be replayed for ``repro`` to be importable.
    """
    paths = [p for p in sys.path if p]
    return (
        "import sys\n"
        f"for _p in reversed({paths!r}):\n"
        "    if _p not in sys.path:\n"
        "        sys.path.insert(0, _p)\n"
    )


def _bootstrap_source(host: str, port: int, token: str, member: int) -> str:
    """Self-contained ``python -c`` source executed by a worker process."""
    return (
        _path_prelude()
        + "from repro.runtime import distributed as _dist\n"
        + f"_dist._worker_main({host!r}, {port}, {token!r}, {member})\n"
    )


# ---------------------------------------------------------------------------
# Worker side: runs in the spawned process.
# ---------------------------------------------------------------------------


def _worker_main(host: str, port: int, token: str, member: int) -> None:
    """Execute one team member in a spawned worker process.

    Mirrors the subinterpreter backend's ``_member_main``: connect and
    handshake (the hello response carries the region descriptor), rebuild
    the team over proxy synchronisation, run the unpickled body under the
    master's SPMD configuration, and ship the encoded result or exception
    back as the connection's final ``result`` frame.
    """
    import repro.obs.registry as obsreg
    from repro.obs.exposition import suppress_exporter
    from repro.runtime import context as ctx
    from repro.runtime.backend import _encode_exception, _encode_result
    from repro.runtime.config import config_override
    from repro.runtime.team import Team

    # Only the master aggregates team-wide counts; a worker must never race
    # it for the scrape port.
    suppress_exporter()
    session = dataplane.WorkerSession(host, port, token, member)
    descriptor = session.descriptor
    _install_fault_plan(descriptor)
    sync = None
    try:
        sync = dataplane.worker_process_sync(session, int(descriptor["size"]))
        body = pickle.loads(descriptor["body"])
        team = Team(
            int(descriptor["size"]),
            region_id=int(descriptor["region_id"]),
            name=descriptor["name"],
            nesting_level=int(descriptor["nesting_level"]),
            process_sync=sync,
        )
        team.fault_region = int(descriptor.get("fault_region", 0))
        team.backend_name = "distributed"
        if sync.heartbeat is not None:
            sync.heartbeat.register(member)
        with config_override(tracing=False, backend="threads", **descriptor["config"]):
            from repro.runtime.config import get_config

            # The Team above was built under this worker's inherited config;
            # the master's live metrics flag arrives with the descriptor.
            session.metrics = team.metrics = get_config().metrics
            frame = ctx.ExecutionContext(
                team=team, thread_id=member, nesting_level=int(descriptor["nesting_level"])
            )
            ctx.push_context(frame)
            try:
                if faults.active():
                    # Unlike pool/subinterpreter members, a distributed member
                    # has its own pid != the plan's (master) origin_pid, so an
                    # injected "kill" is a real SIGKILL — the connection drops
                    # and the coordinator's loss path takes over.
                    faults.fire(
                        "member",
                        member=member,
                        region=team.fault_region,
                        backend="distributed",
                        team=team,
                    )
                result = body()
            finally:
                ctx.pop_context()
    except BaseException as exc:  # noqa: BLE001 - shipped to the master
        if sync is not None:
            try:
                sync.barrier.abort()
            except Exception:
                pass  # connection already gone; the loss path reports us
        payload = (None, _encode_exception(exc))
    else:
        payload = (_encode_result(result), None)
    try:
        session.flush_arrays()
        # Final flush rides the result frame: counts accumulated since the
        # last barrier piggyback (including the barrier RPCs themselves).
        delta = obsreg.flush_delta() if session.metrics else None
        session.call("result", member, payload[0], payload[1], delta)
    finally:
        session.close()


def _install_fault_plan(descriptor: dict) -> None:
    """Arm this worker with the master's fault plan (or disarm explicitly).

    The plan is shipped as its round-trippable rule spec plus the *master's*
    pid as ``origin_pid`` — freshly parsing here would stamp the worker's own
    pid and silently downgrade every ``kill`` to an in-process exception.
    Shipping ``None`` still disarms explicitly, so a worker never resolves
    ``AOMP_FAULTS`` on its own with the wrong origin.
    """
    spec, origin_pid = descriptor.get("faults") or (None, None)
    if spec:
        plan = faults.parse_fault_spec(spec)
        plan.origin_pid = origin_pid
        faults.set_fault_plan(plan)
    else:
        faults.set_fault_plan(None)


def _fault_fields() -> "tuple[str, int] | None":
    """Serialise the master's installed fault plan for the region descriptor."""
    plan = faults.current_plan()
    if plan is None:
        return None
    spec = ";".join(repr(rule) for rule in plan.rules)
    if plan.seed is not None:
        spec = f"{spec};seed:{plan.seed}" if spec else f"seed:{plan.seed}"
    return spec, plan.origin_pid


# ---------------------------------------------------------------------------
# Master side: the backend.
# ---------------------------------------------------------------------------


class DistributedBackend(Backend):
    """Run team members in independent socket-connected worker processes.

    Capability-wise a process backend without the fork dependency: no shared
    Python heap (regions needing one fall back to threads), true parallelism
    (separate interpreters), and the steepest spin-up cost in the registry —
    every region pays interpreter start + import in each worker, which is the
    honest price of the distributed-memory shape until a persistent worker
    tier exists.
    """

    name = "distributed"
    supports_shared_locals = False
    is_process_based = True
    #: full interpreter spawn + package import per worker per region.
    spinup_cost_scale = 8.0

    #: seconds granted to workers beyond the barrier timeout before the
    #: master declares them lost.
    JOIN_GRACE = 30.0

    def __init__(self, fallback: "Backend | None" = None) -> None:
        self._fallback = fallback if fallback is not None else ThreadBackend()
        self._plane = dataplane.SocketDataPlane()
        self._warned_fallback: set[str] = set()

    @property
    def fallback(self) -> Backend:
        """The in-process backend used for regions sockets cannot honour."""
        return self._fallback

    @property
    def plane(self) -> dataplane.SocketDataPlane:
        """The socket data plane this backend constructs teams through."""
        return self._plane

    @property
    def true_parallel(self) -> bool:
        """Independent worker interpreters: genuinely parallel everywhere."""
        return True

    # -- strategy hooks -------------------------------------------------------

    def resolve_for_region(self, *, size: int, nesting_level: int, requires_shared_locals: bool) -> Backend:
        if size <= 1:
            return self
        if nesting_level > 0:
            # Same designed hierarchy as the other external-member backends:
            # the distributed team forms the outer level; nested regions
            # inside a worker run as thread sub-teams within that process.
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
        if size <= 1:
            return None
        body_bytes = self._body_payload(body)
        if body_bytes is None:
            # run_team will see sync=None and delegate to the thread fallback.
            self._warn_once(
                "body",
                "region body is not a picklable process_safe SPMD callable; "
                "socket-plane workers cannot receive it — using thread backend",
            )
            return None
        sync = self._plane.create_sync(size)
        sync.body_bytes = body_bytes  # type: ignore[attr-defined]
        return sync

    def finish_region(self, team: "Team") -> None:
        sync = team.process_sync
        if sync is not None:
            self._plane.release_sync(sync)

    # -- execution ------------------------------------------------------------

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: "Callable[[], Any] | None" = None) -> Any:
        sync = team.process_sync
        if sync is None:
            return self._fallback.run_team(team, run_member, body)
        coordinator: dataplane.Coordinator = sync.coordinator  # type: ignore[attr-defined]

        from repro.runtime.subinterp import _spmd_config_fields

        coordinator.descriptor = {
            "size": team.size,
            "region_id": team.region_id,
            "name": team.name,
            "nesting_level": team.nesting_level,
            "fault_region": team.fault_region,
            "body": sync.body_bytes,  # type: ignore[attr-defined]
            "config": _spmd_config_fields(),
            "faults": _fault_fields(),
        }

        workers: "dict[int, subprocess.Popen]" = {}
        try:
            for member in team.members[1:]:
                workers[member.thread_id] = subprocess.Popen(
                    [
                        sys.executable,
                        "-c",
                        _bootstrap_source(
                            dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, member.thread_id
                        ),
                    ],
                    stdin=subprocess.DEVNULL,
                )
        except BaseException:
            # A failed spawn (fd exhaustion, fork failure) must not leak the
            # workers already started: reap them now instead of leaving
            # orphan interpreters to discover the closed coordinator via RPC
            # timeouts.  finish_region releases the coordinator on this path.
            for proc in workers.values():
                proc.kill()
            for proc in workers.values():
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - unkillable child
                    pass
            raise

        def dead_workers() -> list:
            # A spawned worker that finished cleanly exits 0; abnormal exits
            # and connections the coordinator saw drop before a result frame
            # are both deaths (the latter catches a worker wedged after losing
            # its socket, which poll() alone would miss until process exit).
            dead = [
                (member_id, proc.pid, proc.poll())
                for member_id, proc in workers.items()
                if proc.poll() not in (None, 0)
            ]
            seen = {member_id for member_id, _pid, _code in dead}
            for member_id, pid in coordinator.lost_members():
                if member_id not in seen:
                    proc = workers.get(member_id)
                    dead.append((member_id, pid, proc.poll() if proc is not None else None))
            return dead

        monitor = faults.WorkerMonitor(team, dead_workers, heartbeat=coordinator.heartbeat)
        monitor.start()
        master_result: Any = None
        try:
            master_result = run_member(0)
        except BaseException:
            # Recorded on the member record; run_member already aborted the
            # coordinator barrier so workers fail fast.
            pass
        finally:
            # Track the *effective* barrier bound (AOMP_BARRIER_TIMEOUT), like
            # the workers' RPC timeout: a healthy worker legitimately blocked
            # in a long barrier must not be declared lost by a join deadline
            # shorter than the barrier's own.  With the bound disabled the
            # dead-worker and monitor-tripped checks still end the wait.
            barrier_bound = _default_barrier_timeout()
            payloads = collect_member_payloads(
                lambda wait: coordinator.results.get(timeout=wait),
                expected=team.size - 1,
                alive=lambda: any(proc.poll() is None for proc in workers.values()),
                abort=team.abort,
                timeout=float("inf") if barrier_bound is None else barrier_bound + self.JOIN_GRACE,
                accept=lambda item: (item[0], item[1]),
                tripped=lambda: monitor.tripped,
            )
            monitor.stop()
            apply_member_payloads(
                team, payloads, deaths=monitor.deaths, stalled=monitor.stalled, heartbeat=coordinator.heartbeat
            )
            failed = any(member.exception is not None for member in team.members)
            for proc in workers.values():
                try:
                    proc.wait(timeout=0.5 if failed else 5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    try:
                        proc.wait(timeout=1.0)
                    except subprocess.TimeoutExpired:  # pragma: no cover - unkillable child
                        pass
        return master_result

    # -- helpers --------------------------------------------------------------

    def _body_payload(self, body: "Callable[[], Any] | None") -> "bytes | None":
        """Pickle ``body`` for the wire, or ``None`` when ineligible.

        Same contract as the pool and subinterpreter backends: crossing the
        boundary copies by-value state, so only callables whose owner
        declares itself ``process_safe`` (all mutable state in shared
        memory — here, mirrored shared memory) are eligible.
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
            warnings.warn(f"DistributedBackend: {message}", RuntimeWarning, stacklevel=3)
