"""Fast failure detection: the monitor that turns a lost worker into an error.

:class:`WorkerMonitor` watches one process-backed region: on its own daemon
thread for forked and distributed teams, driven by the persistent pool's
long-lived watcher for pooled ones (the one
:func:`repro.runtime.member.join_team` sets up either).  The master normally
learns about a dead worker only after its own barrier wait times out (120s);
the monitor polls worker liveness every ``AOMP_HEARTBEAT_INTERVAL`` seconds
and *aborts the team barrier* the moment a worker dies, converting the hang
into a diagnosed :class:`~repro.runtime.exceptions.WorkerProcessError` within
fractions of a second.  Optionally (``AOMP_HEARTBEAT_TIMEOUT``) it also
treats a member whose :class:`~repro.runtime.shm.HeartbeatArena` cell has
gone stale as lost, catching live-but-wedged workers.
"""

from __future__ import annotations

import signal
import threading
from typing import Any, Callable, Optional

import repro.obs.registry as obsreg
from repro.runtime.config import env
from repro.runtime.trace import EventKind


class WorkerMonitor:
    """Watch a process-backed team's workers and abort the barrier on death.

    Without it, the master learns of a dead worker only when its own barrier
    wait times out (120s).  The monitor polls ``dead_workers`` — a callable
    returning ``(member_id_or_None, pid, exitcode)`` triples for exited
    workers — every ``interval`` seconds; on the first death (or, when a
    stall cutoff is configured, the first stale heartbeat) it records a
    ``WORKER_DEAD`` trace event, aborts the team, and exits.  The region
    driver reads :attr:`deaths` afterwards to attach pid/signal diagnostics
    to the resulting ``WorkerProcessError``.
    """

    def __init__(
        self,
        team: Any,
        dead_workers: Callable[[], "list[tuple[Optional[int], Optional[int], Optional[int]]]"],
        *,
        heartbeat: Any = None,
        interval: "float | None" = None,
        stall_timeout: "float | None" = None,
    ) -> None:
        self._team = team
        self._dead_workers = dead_workers
        self._heartbeat = heartbeat
        #: seconds between liveness checks (whoever drives :meth:`check_once`).
        self.interval = interval if interval is not None else env("AOMP_HEARTBEAT_INTERVAL")
        self._stall_timeout = stall_timeout if stall_timeout is not None else env("AOMP_HEARTBEAT_TIMEOUT")
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._metrics = bool(getattr(team, "metrics", False))
        self._collector: "Callable[[], list[tuple[str, dict, float]]] | None" = None
        #: ``(member_id_or_None, pid, exitcode)`` per dead worker; filled once.
        self.deaths: list[tuple[Optional[int], Optional[int], Optional[int]]] = []
        #: member ids whose heartbeat went stale past the configured cutoff.
        self.stalled: list[int] = []

    @property
    def tripped(self) -> bool:
        """Whether the monitor already diagnosed a loss and aborted the team."""
        return bool(self.deaths or self.stalled)

    def rearm(self, team: Any) -> None:
        """Watch ``team`` from now on, with nothing diagnosed yet: how one
        long-lived watcher's monitor (the persistent pool's) serves region
        after region."""
        self._team = team
        self._metrics = bool(getattr(team, "metrics", False))
        self.deaths = []
        self.stalled = []

    def start(self) -> None:
        if self._thread is not None:
            return  # idempotent: a second start must not orphan the first thread
        self._stop.clear()  # a stopped monitor may be started again
        self.publish_liveness()
        thread = threading.Thread(
            target=self._watch, name=f"aomp-monitor-{self._team.name}", daemon=True
        )
        self._thread = thread
        thread.start()

    def stop(self) -> None:
        """Stop polling and unregister the liveness collector.

        Idempotent: services cycle monitors per drain/restart, so a second
        ``stop()`` (or a stop with no prior start) is a safe no-op and the
        registry never accumulates dead collectors.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.withdraw_liveness()

    def publish_liveness(self) -> None:
        """Register the live member gauges (metrics on only; idempotent)."""
        if self._metrics and self._collector is None:
            self._collector = self._liveness_samples
            obsreg.register_collector(self._collector)

    def withdraw_liveness(self) -> None:
        """Unregister the live member gauges (idempotent)."""
        if self._collector is not None:
            obsreg.unregister_collector(self._collector)
            self._collector = None

    def _liveness_samples(self) -> "list[tuple[str, dict, float]]":
        """Live gauge samples: per-member liveness and last-beat age.

        Registered as a registry collector while the monitor runs, so an
        ``aomp.stats()`` snapshot or a scrape taken mid-region sees the
        current heartbeat picture without any polling of its own.
        """
        lost = {member for member, _pid, _code in self.deaths if member is not None}
        lost.update(self.stalled)
        samples: "list[tuple[str, dict, float]]" = []
        for member in self._team.members:
            labels = {"member": member.thread_id}
            samples.append(("aomp_member_alive", labels, 0.0 if member.thread_id in lost else 1.0))
            if self._heartbeat is not None:
                age = self._heartbeat.age(member.thread_id)
                if age is not None:
                    samples.append(("aomp_member_last_beat_age_seconds", labels, age))
        return samples

    def _watch(self) -> None:
        while not self._stop.wait(self.interval):
            if self.check_once():
                return

    def check_once(self) -> bool:
        """One liveness check; ``True`` once there is nothing left to watch.

        The single statement of the detection logic: the monitor's own thread
        calls it every :attr:`interval` on the fork and distributed paths, the
        persistent pool's long-lived watcher calls it for whichever region is
        in flight.  On the first death — or stale heartbeat, when a stall
        cutoff is configured — it records the diagnosis, aborts the team and
        returns ``True``.
        """
        team = self._team
        try:
            dead = list(self._dead_workers())
        except Exception:  # pragma: no cover - teardown race
            return True
        if dead:
            self.deaths = dead
        elif self._stall_timeout is not None and self._heartbeat is not None:
            self.stalled = [
                member.thread_id
                for member in team.members[1:]
                if (age := self._heartbeat.age(member.thread_id)) is not None
                and age > self._stall_timeout
            ]
        if not self.tripped:
            return False
        self._note_losses()
        self._record_deaths()
        team.abort()
        return True

    def _note_losses(self) -> None:
        """Count the diagnosed losses and pin their liveness gauges to 0.

        The explicit ``set_gauge`` outlives the monitor's collector, so a
        snapshot taken after the failed region still shows the dead member.
        """
        if not self._metrics:
            return
        obsreg.inc(obsreg.WORKER_DEATHS, len(self.deaths) + len(self.stalled))
        for member, _pid, _code in self.deaths:
            if member is not None:
                obsreg.set_gauge("aomp_member_alive", {"member": member}, 0.0)
        for member in self.stalled:
            obsreg.set_gauge("aomp_member_alive", {"member": member}, 0.0)

    def _record_deaths(self) -> None:
        team = self._team
        if not getattr(team, "tracing", False):
            return
        for member, pid, exitcode in self.deaths:
            sig = None
            if exitcode is not None and exitcode < 0:
                try:
                    sig = signal.Signals(-exitcode).name
                except ValueError:
                    sig = str(-exitcode)
            team.recorder.record(
                EventKind.WORKER_DEAD,
                team.region_id,
                member if member is not None else 0,
                member=member,
                pid=pid,
                exitcode=exitcode,
                signal=sig,
            )
        for member in self.stalled:
            team.recorder.record(
                EventKind.WORKER_DEAD,
                team.region_id,
                member,
                member=member,
                pid=self._heartbeat.pid(member) or None if self._heartbeat is not None else None,
                exitcode=None,
                signal="stalled",
            )
