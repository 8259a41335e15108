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

import subprocess
import sys
from typing import TYPE_CHECKING, Any, Callable

from repro.runtime import dataplane, shm
from repro.runtime.barrier import _default_barrier_timeout
from repro.runtime.backend import Backend, ExternalBackend
from repro.runtime.member import describe_region, join_team, path_prelude, run_shipped_member

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.team import Team


# ---------------------------------------------------------------------------
# Worker side: runs in the spawned process.
# ---------------------------------------------------------------------------


def _bootstrap_source(host: str, port: int, token: str, member: int) -> str:
    """Self-contained ``python -c`` source executed by a worker process."""
    return (
        path_prelude()
        + "from repro.runtime import distributed as _dist\n"
        + f"_dist._worker_main({host!r}, {port}, {token!r}, {member})\n"
    )


def _worker_main(host: str, port: int, token: str, member: int) -> None:
    """Execute one team member in a spawned worker process.

    Connect and handshake (the hello response carries the region
    descriptor), run the member over proxy synchronisation, and send the
    reply as the connection's final ``result`` frame.  The worker's pid is
    not the fault plan's (master) origin pid, so an injected ``kill`` is a
    real SIGKILL here: the connection drops and the coordinator's loss path
    takes over.
    """
    session = dataplane.WorkerSession(host, port, token, member)
    try:
        descriptor = session.descriptor
        session.metrics = descriptor["config"]["metrics"]
        sync = dataplane.worker_process_sync(session, descriptor["size"])
        session.send_result(member, *run_shipped_member(descriptor, member, sync))
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Master side: the backend.
# ---------------------------------------------------------------------------


class DistributedBackend(ExternalBackend):
    """Run team members in independent socket-connected worker processes.

    Capability-wise a process backend without the fork dependency: no shared
    Python heap (regions needing one fall back to threads), true parallelism
    (separate interpreters), and the steepest spin-up cost in the registry —
    every region pays interpreter start + import in each worker, which is the
    honest price of the distributed-memory shape until a persistent worker
    tier exists.
    """

    name = "distributed"
    is_process_based = True
    #: full interpreter spawn + package import per worker per region.
    spinup_cost_scale = 8.0

    def __init__(self, fallback: "Backend | None" = None) -> None:
        super().__init__(fallback)
        self._plane = dataplane.SocketDataPlane()

    @property
    def plane(self) -> dataplane.SocketDataPlane:
        """The socket data plane this backend constructs teams through."""
        return self._plane

    @property
    def true_parallel(self) -> bool:
        """Independent worker interpreters: genuinely parallel everywhere."""
        return True

    # -- strategy hooks -------------------------------------------------------

    def create_process_sync(self, size: int, body: "Callable[[], Any] | None") -> "shm.ProcessSync | None":
        body_bytes = self._shippable(body) if size > 1 else None
        if body_bytes is None:
            return None
        sync = self._plane.create_sync(size)
        sync.body_bytes = body_bytes
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
        coordinator: dataplane.Coordinator = sync.owned
        # Served to each worker in its hello response.
        coordinator.descriptor = describe_region(team, sync.body_bytes)

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

        def reap(failed: bool) -> None:
            for proc in workers.values():
                try:
                    proc.wait(timeout=0.5 if failed else 5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    try:
                        proc.wait(timeout=1.0)
                    except subprocess.TimeoutExpired:  # pragma: no cover - unkillable child
                        pass

        return join_team(
            team,
            run_member,
            receive=lambda wait: coordinator.results.get(timeout=wait),
            alive=lambda: any(proc.poll() is None for proc in workers.values()),
            dead_workers=dead_workers,
            # The coordinator barrier honours AOMP_BARRIER_TIMEOUT (as the
            # workers' RPC timeout does); with the bound disabled the
            # dead-worker and monitor-tripped checks still end the wait.
            barrier_bound=_default_barrier_timeout(),
            reap=reap,
        )
