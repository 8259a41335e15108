"""Deterministic fault injection and fast failure detection.

The robustness floor for the runtime's failure story has two halves:

**Injection** — the ``AOMP_FAULTS`` environment variable (or a plan installed
programmatically with :func:`set_fault_plan`) describes *deterministic* faults
the runtime fires at well-defined sites, so tests and chaos runs can reproduce
a failure exactly::

    AOMP_FAULTS="kill:member=1,region=2"          # SIGKILL member 1's process
                                                  # in the 3rd region
    AOMP_FAULTS="raise:chunk=3"                   # raise InjectedFault on the
                                                  # 4th dispatched loop chunk
    AOMP_FAULTS="stall:barrier=1,seconds=5"       # sleep 5s at the 2nd barrier
    AOMP_FAULTS="raise:member=1,p=0.5;seed:42"    # probabilistic, seeded

A spec is a ``;``-separated list of rules, each ``action:key=value,...``:

===========  ================================================================
``kill``     SIGKILL the member's worker process.  *Backend-aware*: when the
             member shares the master's process (threads, serial — or the
             master itself), a real SIGKILL would take down the whole
             program, so the action degrades to raising
             :class:`~repro.runtime.exceptions.InjectedFault` instead.
``raise``    Raise :class:`InjectedFault` in the member.
``stall``    Sleep ``seconds`` (default 1.0) at the site, simulating a hung
             member so heartbeat/timeout paths can be exercised.
===========  ================================================================

Selectors: ``member=N`` (team-relative id), ``region=N`` (the N-th region
*executed while the plan is active*, counted per process), ``chunk=N`` /
``barrier=N`` (the member's N-th chunk dispatch / barrier arrival — these
also pick the injection *site*; without them a rule fires at member start).
All occurrence indices are 0-based like member ids: ``region=0`` is the
process's first region.  Remaining selectors:
``backend=NAME``, ``times=N`` (how often the rule may fire, default 1),
``p=F`` (fire with probability F, drawn from the plan's seeded RNG; add a
``seed:N`` rule for reproducibility).

**Detection** — :class:`WorkerMonitor` watches one process-backed region: on
its own daemon thread for forked and distributed teams,
driven by the persistent pool's long-lived watcher for pooled ones (the one
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

import functools
import os
import random
import signal
import threading
import time
from typing import Any, Callable, Iterable, Optional

import repro.obs.registry as obsreg
from repro.runtime.config import env
from repro.runtime.exceptions import FaultSpecError, InjectedFault
from repro.runtime.trace import EventKind

ACTIONS = ("kill", "raise", "stall")
SITES = ("member", "chunk", "barrier")

_INT_KEYS = frozenset({"member", "region", "chunk", "barrier", "times"})
_FLOAT_KEYS = frozenset({"seconds", "p"})


class FaultRule:
    """One parsed ``action:selectors`` rule of an ``AOMP_FAULTS`` spec."""

    __slots__ = ("action", "site", "member", "region", "index", "backend", "seconds", "times", "p", "fired")

    def __init__(
        self,
        action: str,
        *,
        site: str = "member",
        member: "int | None" = None,
        region: "int | None" = None,
        index: "int | None" = None,
        backend: "str | None" = None,
        seconds: float = 1.0,
        times: int = 1,
        p: "float | None" = None,
    ) -> None:
        if action not in ACTIONS:
            raise FaultSpecError(f"unknown fault action {action!r}; valid actions: {', '.join(ACTIONS)}")
        if site not in SITES:
            raise FaultSpecError(f"unknown fault site {site!r}; valid sites: {', '.join(SITES)}")
        if times < 1:
            raise FaultSpecError(f"times must be >= 1, got {times}")
        if p is not None and not 0.0 < p <= 1.0:
            raise FaultSpecError(f"p must be in (0, 1], got {p}")
        if seconds < 0:
            raise FaultSpecError(f"seconds must be >= 0, got {seconds}")
        self.action = action
        self.site = site
        self.member = member
        self.region = region
        self.index = index
        self.backend = backend
        self.seconds = seconds
        self.times = times
        self.p = p
        self.fired = 0

    def matches(self, *, site: str, seq: int, member: int, region: "int | None", backend: "str | None") -> bool:
        if site != self.site:
            return False
        if self.member is not None and member != self.member:
            return False
        if self.region is not None and region != self.region:
            return False
        if self.index is not None and seq != self.index:
            return False
        if self.backend is not None and backend != self.backend:
            return False
        return True

    def __repr__(self) -> str:
        parts = []
        if self.member is not None:
            parts.append(f"member={self.member}")
        if self.region is not None:
            parts.append(f"region={self.region}")
        if self.index is not None:
            parts.append(f"{self.site}={self.index}")
        if self.backend is not None:
            parts.append(f"backend={self.backend}")
        if self.action == "stall":
            parts.append(f"seconds={self.seconds}")
        if self.times != 1:
            parts.append(f"times={self.times}")
        if self.p is not None:
            parts.append(f"p={self.p}")
        return f"{self.action}:{','.join(parts)}" if parts else self.action


class FaultPlan:
    """A set of fault rules plus the per-process state needed to fire them.

    Chunk/barrier occurrence counters are kept *per (site, member)* so a
    selector like ``chunk=3`` means "this member's 4th chunk dispatch",
    deterministic regardless of how members interleave.  The plan also owns
    the region occurrence counter that ``region=N`` selectors match against
    (stamped on each team as ``fault_region`` and shipped to worker
    processes with the region descriptor).
    """

    def __init__(self, rules: Iterable[FaultRule], *, seed: "int | None" = None) -> None:
        self.rules = list(rules)
        self.seed = seed
        self.origin_pid = os.getpid()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, int], int] = {}
        self._region_counter = 0

    def next_region(self) -> int:
        """Claim the next region occurrence index (0-based)."""
        with self._lock:
            index = self._region_counter
            self._region_counter += 1
            return index

    def fire(
        self,
        site: str,
        *,
        member: int,
        region: "int | None" = None,
        backend: "str | None" = None,
        team: Any = None,
    ) -> None:
        """Fire the first armed rule matching this occurrence, if any.

        ``kill`` sends a real SIGKILL only when the calling member runs in a
        *different process* than the one that created the plan; in-process
        members (threads, the master) raise
        :class:`InjectedFault` instead so the program under test survives.
        """
        with self._lock:
            key = (site, member)
            seq = self._counters[key] = self._counters.get(key, -1) + 1
            chosen: "FaultRule | None" = None
            for rule in self.rules:
                if rule.fired >= rule.times:
                    continue
                if not rule.matches(site=site, seq=seq, member=member, region=region, backend=backend):
                    continue
                if rule.p is not None and self._rng.random() >= rule.p:
                    continue
                rule.fired += 1
                chosen = rule
                break
        if chosen is None:
            return
        metrics = getattr(team, "metrics", None)
        if metrics is None:
            from repro.runtime.config import get_config

            metrics = get_config().metrics
        if metrics:
            obsreg.inc(obsreg.FAULT_SLOTS.get(chosen.action, obsreg.FAULT_SLOTS["other"]))
        if team is not None and getattr(team, "tracing", False):
            team.record(
                EventKind.FAULT_INJECTED,
                action=chosen.action,
                site=site,
                member=member,
                fault_region=region,
                rule=repr(chosen),
            )
        if chosen.action == "stall":
            time.sleep(chosen.seconds)
            return
        if chosen.action == "kill" and os.getpid() != self.origin_pid:
            os.kill(os.getpid(), signal.SIGKILL)
            return  # pragma: no cover - not reached
        raise InjectedFault(
            f"injected {chosen.action!r} fault at {site} site "
            f"(member {member}, region {region}): {chosen!r}",
            action=chosen.action,
            site=site,
        )


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse an ``AOMP_FAULTS`` spec string into a :class:`FaultPlan`."""
    rules: list[FaultRule] = []
    seed: "int | None" = None
    for raw in spec.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        action, _, selector_text = raw.partition(":")
        action = action.strip().lower()
        if action == "seed":
            try:
                seed = int(selector_text.strip())
            except ValueError:
                raise FaultSpecError(f"seed needs an integer, got {selector_text.strip()!r}") from None
            continue
        selectors: dict[str, Any] = {}
        for pair in filter(None, (p.strip() for p in selector_text.split(","))):
            key, eq, value = pair.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if not eq or not value:
                raise FaultSpecError(f"malformed selector {pair!r} in rule {raw!r} (expected key=value)")
            if key in _INT_KEYS:
                try:
                    selectors[key] = int(value)
                except ValueError:
                    raise FaultSpecError(f"selector {key!r} needs an integer, got {value!r}") from None
            elif key in _FLOAT_KEYS:
                try:
                    selectors[key] = float(value)
                except ValueError:
                    raise FaultSpecError(f"selector {key!r} needs a number, got {value!r}") from None
            elif key == "backend":
                selectors[key] = value.lower()
            else:
                raise FaultSpecError(
                    f"unknown selector {key!r} in rule {raw!r}; valid selectors: "
                    "member, region, chunk, barrier, backend, seconds, times, p"
                )
        if "chunk" in selectors and "barrier" in selectors:
            raise FaultSpecError(f"rule {raw!r} names both chunk and barrier sites")
        site, index = "member", None
        if "chunk" in selectors:
            site, index = "chunk", selectors.pop("chunk")
        elif "barrier" in selectors:
            site, index = "barrier", selectors.pop("barrier")
        rules.append(
            FaultRule(
                action,
                site=site,
                index=index,
                member=selectors.get("member"),
                region=selectors.get("region"),
                backend=selectors.get("backend"),
                seconds=selectors.get("seconds", 1.0),
                times=selectors.get("times", 1),
                p=selectors.get("p"),
            )
        )
    if not rules:
        raise FaultSpecError(f"fault spec {spec!r} contains no rules")
    return FaultPlan(rules, seed=seed)


# ---------------------------------------------------------------------------
# Module-level plan: resolved lazily from AOMP_FAULTS, overridable by tests.
# The hot path (one active() call per region / workshared loop / barrier)
# must stay a plain attribute read once resolved.
# ---------------------------------------------------------------------------

_plan: "FaultPlan | None" = None
_resolved = False
_state_lock = threading.Lock()


def _resolve() -> "FaultPlan | None":
    global _plan, _resolved
    with _state_lock:
        if not _resolved:
            spec = env("AOMP_FAULTS")
            _plan = parse_fault_spec(spec) if spec else None
            _resolved = True
    return _plan


def active() -> bool:
    """Whether a fault plan is installed (fast check for injection hooks)."""
    if not _resolved:
        _resolve()
    return _plan is not None


def current_plan() -> "FaultPlan | None":
    """The installed fault plan, resolving ``AOMP_FAULTS`` on first use."""
    if not _resolved:
        return _resolve()
    return _plan


def set_fault_plan(plan: "FaultPlan | None") -> "FaultPlan | None":
    """Install ``plan`` (``None`` disarms injection); returns the previous plan.

    Tests install parsed plans directly instead of mutating the environment.
    May be called at any time: fork-per-region workers inherit the installed
    plan through fork, and every other tier's workers — a pool that was
    already warm included — receive it with each region descriptor
    (:func:`repro.runtime.member.describe_region`).
    """
    global _plan, _resolved
    with _state_lock:
        previous = _plan if _resolved else None
        _plan = plan
        _resolved = True
    return previous


def reset_fault_plan() -> None:
    """Forget any resolved plan so ``AOMP_FAULTS`` is re-read on next use."""
    global _plan, _resolved
    with _state_lock:
        _plan = None
        _resolved = False


def next_region() -> int:
    """Region occurrence index for a region starting now (0 when inactive)."""
    plan = current_plan()
    return plan.next_region() if plan is not None else 0


def fire(
    site: str,
    *,
    member: int,
    region: "int | None" = None,
    backend: "str | None" = None,
    team: Any = None,
) -> None:
    """Injection hook: delegate to the installed plan, no-op when inactive."""
    plan = current_plan()
    if plan is not None:
        plan.fire(site, member=member, region=region, backend=backend, team=team)


def wrap_chunk_body(body: Callable[..., Any], *, member: int, team: Any) -> Callable[..., Any]:
    """Wrap a loop body so each chunk dispatch passes the chunk fault site.

    Installed by ``run_for`` only while a plan is active, so inactive runs
    pay exactly one ``active()`` check per loop.
    """
    region = getattr(team, "fault_region", None)
    backend = getattr(team, "backend_name", "") or None

    @functools.wraps(body)
    def fault_body(*args: Any, **kwargs: Any) -> Any:
        fire("chunk", member=member, region=region, backend=backend, team=team)
        return body(*args, **kwargs)

    # Read by the dynamic/guided claim loop: with a plan armed it dispatches
    # chunk by chunk, so ``chunk=N`` keeps meaning the member's N-th chunk.
    fault_body.chunk_site = True
    return fault_body


# ---------------------------------------------------------------------------
# Fast failure detection
# ---------------------------------------------------------------------------


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
