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
  region descriptor, collecting results, converting a dropped connection
  or missed heartbeats into the same
  :class:`~repro.runtime.exceptions.WorkerProcessError` diagnostics the
  forked path produces, and deciding how long a team of workers lives: a
  team outlives its region (the next one costs a hand-off, not an
  interpreter start) and is retired by the master, without anyone asking,
  once it has waited for work as long as starting it took.

Round-trip economics mirror the paper's worksharing split: static/cyclic
schedules are pure functions of the member id and cost **zero** messages;
dynamic/guided claims go through the batched ``claim_batch`` /
``claim_guided_batch`` slot ops (one RPC claims many chunks); taskloop
steals ride the same per-tile RPCs the shm deck uses per-lock-round-trip.
Eligibility matches the persistent pool's contract: only picklable
``process_safe`` SPMD bodies can cross the wire; everything else runs on
the thread fallback.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import sys
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

import repro.obs.registry as obsreg
from repro.obs.exposition import suppress_exporter
from repro.runtime import dataplane, shm
from repro.runtime.backend import Backend, ExternalBackend
from repro.runtime.config import get_config
from repro.runtime.member import WorkerState, describe_region, join_team, path_prelude, run_shipped_member

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.team import Team

#: Longest a parked team waits for its next region.  The wait itself is the
#: measured start of the team's workers (waiting longer than a start costs
#: would cost more than the start it saves); the cap keeps a slow start from
#: holding idle interpreters for long, and keeps every worker gone well inside
#: a second of the last region without anyone calling :meth:`shutdown`.
LINGER_CAP = 0.5


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
    """Execute team member ``member`` in a spawned worker process, region after region.

    The pool worker's loop over a :class:`~repro.runtime.dataplane.WorkerSession`:
    connect and handshake (the hello response carries the first region's
    descriptor), run the member over proxy synchronisation, send the reply as
    the region's ``result`` frame, then block in ``next_region`` until the
    master hands over another descriptor or sends the worker home.  A worker
    that dies drops its connection, and the coordinator's loss path takes
    over.

    Never returns: interpreter finalisation after numpy's import costs about
    half as much again as the start did, and nothing it does is wanted, so
    the worker runs the exit hooks (the shared arrays' safety nets), flushes
    stdio and leaves through ``os._exit`` as ``multiprocessing`` children do.
    """
    code = 0
    suppress_exporter()  # only the master serves scrapes: it alone holds the team-wide counts
    try:
        session, state = dataplane.WorkerSession(host, port, token, member), WorkerState()
        try:
            descriptor = session.descriptor
            while descriptor is not None:
                session.metrics = descriptor["config"]["metrics"]
                sync = dataplane.worker_process_sync(session, descriptor["size"])
                session.send_result(member, *run_shipped_member(descriptor, member, sync, state))
                descriptor = session.next_region()
        finally:
            session.close()
    except BaseException:  # noqa: BLE001 - reported, then turned into the exit status
        import traceback  # here, not at module level: every worker start pays for this module's imports

        traceback.print_exc()
        code = 1
    finally:
        try:
            atexit._run_exitfuncs()
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


# ---------------------------------------------------------------------------
# Master side: a team of workers, and the backend that rents it out.
# ---------------------------------------------------------------------------


class _WorkerTeam:
    """A coordinator and the worker processes connected to it.

    What a region rents from the backend: built (and its workers spawned) by
    the first region that finds no parked team of its size, handed back by
    every region that ends clean, retired otherwise.
    """

    def __init__(self, size: int) -> None:
        coordinator = self.coordinator = dataplane.Coordinator(size)
        coordinator.start()
        self.sync = shm.ProcessSync(coordinator.barrier, coordinator.slots, heartbeat=coordinator.heartbeat, owned=self)
        self.workers: "dict[int, subprocess.Popen]" = {}
        self._spawned_at = 0.0
        #: the timer that retires the team when no region comes for it
        self.linger: "threading.Timer | None" = None

    def fits(self, size: int) -> bool:
        """Whether a region of ``size`` members can run on this parked team."""
        return (
            self.coordinator.size == size
            and self.coordinator.reusable
            and all(proc.poll() is None for proc in self.workers.values())
        )

    def spawn(self, members: "list[int]") -> None:
        """Start one worker process per member id (they seat themselves)."""
        coordinator = self.coordinator
        self._spawned_at = time.perf_counter()
        try:
            for member in members:
                self.workers[member] = subprocess.Popen(
                    [
                        sys.executable,
                        "-c",
                        _bootstrap_source(dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, member),
                    ],
                    stdin=subprocess.DEVNULL,
                )
        except BaseException:
            # A failed spawn (fd exhaustion, fork failure) must not leave the
            # workers already started to discover the closed coordinator by
            # themselves; the region's release reaps them.
            for proc in self.workers.values():
                proc.kill()
            raise

    @property
    def start_seconds(self) -> float:
        """What starting this team's workers cost: first ``Popen`` to last hello."""
        return max(0.0, self.coordinator.seated_at - self._spawned_at)

    def dead_workers(self) -> list:
        """``(member, pid, exitcode)`` of every worker that is gone.

        A retired worker exits 0; abnormal exits and connections the
        coordinator saw drop before a result frame are both deaths (the
        latter catches a worker wedged after losing its socket, which
        ``poll()`` alone would miss until process exit).
        """
        dead = [
            (member, proc.pid, proc.poll()) for member, proc in self.workers.items() if proc.poll() not in (None, 0)
        ]
        seen = {member for member, _pid, _code in dead}
        for member, pid in self.coordinator.lost_members():
            if member not in seen:
                proc = self.workers.get(member)
                dead.append((member, pid, proc.poll() if proc is not None else None))
        return dead

    def retire(self, grace: float) -> None:
        """Send the workers home and reap them; kill what is not gone after ``grace``."""
        self.coordinator.shutdown()
        for proc in self.workers.values():
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                try:
                    proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - unkillable child
                    pass


def _count(slot: int) -> None:
    """``aomp_distributed_teams_total``: was it warm?"""
    if get_config().metrics:
        obsreg.inc(slot)


class DistributedBackend(ExternalBackend):
    """Run team members in independent socket-connected worker processes.

    Capability-wise a process backend without the fork dependency: no shared
    Python heap (regions needing one fall back to threads), true parallelism
    (separate interpreters), and the steepest *first* region in the registry
    — interpreter start + import in each worker.  The team outlives its
    region: a region that ends clean (no member exception, no lost member,
    barrier unbroken) parks its coordinator and connected workers, and the
    next region of the same size takes them over for the price of a
    descriptor hand-off.  At most one team is parked; a region that finds
    none (first region, other size, a concurrent region holding it, the last
    one failed) builds and spawns its own, and a team that is not handed back
    is retired.

    Nobody has to call :meth:`shutdown`.  A parked team waits for its next
    region only as long as starting it took (rent or buy: waiting longer
    costs more than the start it would save), capped at :data:`LINGER_CAP`;
    then the master sends the workers home and reaps them.  :meth:`shutdown`
    and interpreter exit do the same at once.
    """

    name = "distributed"
    is_process_based = True
    #: full interpreter spawn + package import per worker, paid by the first
    #: region of a burst only (the tuner prices the cold case).
    spinup_cost_scale = 8.0

    def __init__(self, fallback: "Backend | None" = None) -> None:
        super().__init__(fallback)
        self._parked: "_WorkerTeam | None" = None
        self._lock = threading.Lock()
        self._exit_hook = False

    @property
    def true_parallel(self) -> bool:
        """Independent worker interpreters: genuinely parallel everywhere."""
        return True

    # -- strategy hooks: a region acquires a team here and releases it below --

    def create_process_sync(self, size: int, body: "Callable[[], Any] | None") -> "shm.ProcessSync | None":
        body_bytes = self._shippable(body) if size > 1 else None
        if body_bytes is None:
            return None
        workers = self._take_parked()
        if workers is not None and not workers.fits(size):
            self._retire(workers, 5.0, wait=False)
            workers = None
        if workers is None:
            workers = _WorkerTeam(size)
        else:
            _count(obsreg.DISTRIBUTED_TEAMS_REUSED)
        workers.sync.body_bytes = body_bytes
        return workers.sync

    def finish_region(self, team: "Team") -> None:
        sync = team.process_sync
        if sync is None:
            return
        workers: _WorkerTeam = sync.owned
        if workers.coordinator.reusable and not any(member.exception is not None for member in team.members):
            workers.coordinator.end_region()
            self._park(workers)
        else:
            # A failed region may leave a wedged worker behind (a member
            # stalled in a long sleep): don't wait out its sleep, reap it.
            self._retire(workers, 0.5)

    # -- execution ------------------------------------------------------------

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: "Callable[[], Any] | None" = None) -> Any:
        sync = team.process_sync
        if sync is None:
            return self._fallback.run_team(team, run_member, body)
        workers: _WorkerTeam = sync.owned
        # Parked workers are handed the descriptor now, spawned ones in their
        # hello response.
        workers.coordinator.begin_region(describe_region(team, sync.body_bytes))
        if not workers.workers:
            workers.spawn([member.thread_id for member in team.members[1:]])
            _count(obsreg.DISTRIBUTED_TEAMS_SPAWNED)
        return join_team(
            team,
            run_member,
            # ``results`` is a fresh queue per region: read it per call.
            receive=lambda wait: workers.coordinator.results.get(timeout=wait),
            alive=lambda: any(proc.poll() is None for proc in workers.workers.values()),
            dead_workers=workers.dead_workers,
        )

    # -- the parked team ------------------------------------------------------

    def _take_parked(self) -> "_WorkerTeam | None":
        with self._lock:
            workers, self._parked = self._parked, None
        if workers is not None:
            workers.linger.cancel()
        return workers

    def _park(self, workers: _WorkerTeam) -> None:
        linger = min(workers.start_seconds, LINGER_CAP)
        workers.linger = threading.Timer(linger, self._linger_out, args=(workers,))
        workers.linger.daemon = True
        with self._lock:
            displaced, self._parked = self._parked, workers
            if not self._exit_hook:
                self._exit_hook = True
                atexit.register(self.shutdown)
        workers.linger.start()
        if displaced is not None:
            # Two regions ran at once; one team is enough to keep.
            displaced.linger.cancel()
            self._retire(displaced, 5.0, wait=False)

    def _linger_out(self, workers: _WorkerTeam) -> None:
        with self._lock:
            if self._parked is not workers:
                return  # a region took it just now
            self._parked = None
        self._retire(workers, 5.0)

    def _retire(self, workers: _WorkerTeam, grace: float, *, wait: bool = True) -> None:
        _count(obsreg.DISTRIBUTED_TEAMS_RETIRED)
        if wait:
            workers.retire(grace)
        else:
            # Off the entering (or leaving) region's critical path.
            threading.Thread(target=workers.retire, args=(grace,), name="aomp-dist-retire", daemon=True).start()

    def live_workers(self) -> "list[subprocess.Popen]":
        """Worker processes of the parked team that are still running."""
        with self._lock:
            workers = self._parked
        return [proc for proc in workers.workers.values() if proc.poll() is None] if workers is not None else []

    def shutdown(self) -> None:
        """Retire the parked team now (also runs at interpreter exit); idempotent."""
        workers = self._take_parked()
        if workers is not None:
            self._retire(workers, 5.0)
