"""Per-loop-site adaptive schedule tuning (``schedule="auto"``).

The tuner is the runtime's answer to ``OMP_SCHEDULE=auto``: instead of the
programmer hand-picking a schedule and chunk size per loop, each *tune site*
— a work-shared loop identified by its name and a trip-count bucket —
measures successive invocations under a small set of candidate schedules and
converges on the fastest one.

How a site evolves
------------------

1. **Probe** — the first invocation runs ``static_block`` and measures the
   loop's wall time (master's dispatch + implicit barrier ≈ the loop phase
   makespan).  If that time is below the serial cutoff — the loop is too
   small to amortise the *measured team spin-up cost* (see
   :attr:`repro.perf.cost.CostModel.team_spinup_seconds`) — the site
   converges immediately to the **serial fallback**: the master executes the
   whole range and the other members skip straight to the barrier.  Every
   member of a probe also reports what its own share cost
   (:func:`member_seconds`), and the site takes all of ``static_block``'s
   samples as probes: if the lower of their imbalances (:func:`imbalance`)
   is below :data:`BALANCED_IMBALANCE`, it converges on ``static_block``
   (transition ``"balanced"``) — a claiming schedule has nothing to win back.
2. **Explore** — otherwise (and always for ``nowait`` loops, whose members
   cannot report behind a barrier) each candidate in
   {static_block, static_cyclic, dynamic, guided} × chunk sizes is measured
   ``samples_per_candidate`` times (minimum kept, which filters scheduling
   jitter).
3. **Converged** — the fastest candidate wins and is used from then on.
   Every converged observation is drift-checked: if the measured time
   exceeds the converged best by ``drift_tolerance`` for ``drift_patience``
   consecutive invocations, the site re-enters exploration (the workload
   changed shape under the same trip count).  A *trip-count* regime change
   (different power-of-two bucket) maps to a different site altogether, so
   re-exploration there is automatic.

Decisions persist to a JSON cache (``AOMP_TUNE_CACHE``; see
:mod:`repro.tune.cache`), so a warmed process starts converged — and worker
processes forked before any tuning happened seed themselves from the same
file.  A cached entry is on probation: its first observation that has not
drifted confirms it (``"cache-confirmed"``), and only ``drift_patience``
drifted ones in a row reject it (``"cache-rejected"``) and re-explore.
Every decision the runtime acts on is recorded as a ``TUNE_DECISION`` trace
event by the work-sharing executor.

The tuner does not execute anything itself: it maps ``(site, invocation)``
to a :class:`Candidate` and consumes wall-time observations.  It does know
the *identity and spin-up cost* of the backend running each site (sites are
keyed per backend, and the serial cutoff scales with
:attr:`repro.runtime.backend.Backend.spinup_cost_scale`) — a loop tuned
under GIL-bound threads must not dictate the plan for the same loop under
processes or distributed workers.  Cross-member agreement is the work-sharing
executor's job: member 0 publishes the plan into the team's
plan-publication arena and the others read it (see
:func:`repro.runtime.worksharing.run_for`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.runtime.config import get_config
from repro.runtime.scheduler import Schedule
from repro.tune.cache import load_cache, save_cache

def _default_team_spinup_seconds() -> float:
    """The un-calibrated team spin-up estimate.

    Single source of truth is :attr:`repro.perf.cost.CostModel.team_spinup_seconds`
    (the order of magnitude of an empty 2-member region); imported lazily so the tune package stays importable without
    pulling in the whole perf package at module-import time.
    """
    from repro.perf.cost import CostModel

    return CostModel.team_spinup_seconds

#: Integer codes for shm plan publication (``repro.runtime.shm.TunePlanArena``
#: slots carry (schedule_code, chunk, flags)).
_SCHEDULE_CODES: dict[Schedule, int] = {
    Schedule.STATIC_BLOCK: 0,
    Schedule.STATIC_CYCLIC: 1,
    Schedule.DYNAMIC: 2,
    Schedule.GUIDED: 3,
}
_CODE_SCHEDULES = {code: schedule for schedule, code in _SCHEDULE_CODES.items()}
_FLAG_SERIAL = 1
#: plan flag: every member reports the time its share took (:func:`member_seconds`).
FLAG_REPORT = 2

#: A site whose static probes all read at least this imbalance keeps
#: searching; below it, ``static_block`` is committed as ``"balanced"``.  On
#: a 2-vCPU host, single probes of the balanced 16k-iteration loop of
#: ``irregular_claims`` read 0.00-0.20 (threads and pool, quiet and with four
#: spinning processes beside them), while triangular and random sleep loops
#: (the ``perfgate`` targets and the tuner tests) read 0.29-0.51.
BALANCED_IMBALANCE = 0.25

#: A member whose CPU seconds are at least this share of the time its share
#: took on a processor of its own is CPU-bound and reports CPU seconds: GIL
#: hand-offs and a loaded host do not inflate them.  Otherwise it reports
#: that own-processor time, the only clock that sees a sleeping or blocking
#: share.  Same host: CPU-bound members read 0.44-1.0, sleeping ones 0.01-0.19.
CPU_BOUND_SHARE = 0.3


def share_clock() -> "tuple[float, float, float]":
    """The three clocks a member reads around its share: wall, CPU, and the
    time the thread waited runnable for a processor (Linux schedstat; 0
    where the kernel does not say)."""
    try:
        with open("/proc/thread-self/schedstat", "rb") as stat:
            waited = int(stat.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        waited = 0.0
    return time.perf_counter(), time.thread_time(), waited


def member_seconds(began: "tuple[float, float, float]") -> float:
    """What the calling member's share cost since :func:`share_clock` gave
    ``began``: CPU seconds when CPU-bound, own-processor seconds otherwise
    (wall minus the run-queue wait; see :data:`CPU_BOUND_SHARE`)."""
    wall, cpu, waited = (now - then for now, then in zip(share_clock(), began))
    own = max(wall - waited, cpu)
    return cpu if cpu >= CPU_BOUND_SHARE * own else own


def imbalance(times: "Sequence[float]") -> float:
    """``1 - mean/max`` over the members' times: 0 when every member took as
    long as the slowest, approaching 1 when one member did all the work."""
    slowest = max(times, default=0.0)
    return 1.0 - sum(times) / len(times) / slowest if slowest > 0 else 0.0


@dataclass(frozen=True, slots=True)
class Candidate:
    """One concrete scheduling choice the tuner can run a loop with."""

    schedule: Schedule
    chunk: int = 1
    #: serial fallback: the master executes the whole range, the team skips.
    serial: bool = False

    @property
    def label(self) -> str:
        if self.serial:
            return "serial"
        return f"{self.schedule.value},{self.chunk}"

    def encode(self) -> tuple[int, int, int]:
        """``(schedule_code, chunk, flags)`` for the shm plan slot."""
        return (
            _SCHEDULE_CODES[self.schedule],
            int(self.chunk),
            _FLAG_SERIAL if self.serial else 0,
        )

    @classmethod
    def decode(cls, schedule_code: int, chunk: int, flags: int) -> "Candidate":
        return cls(
            schedule=_CODE_SCHEDULES[int(schedule_code)],
            chunk=max(1, int(chunk)),
            serial=bool(flags & _FLAG_SERIAL),
        )


@dataclass(frozen=True, slots=True)
class SiteKey:
    """Identity of a tune site: loop name × trip-count bucket × team size.

    ``backend`` additionally separates sites by the backend that executes the
    team: a loop that converged to ``dynamic,64`` under threads may want the
    serial fallback under processes (the same trip count no longer amortises
    the spin-up), so decisions must not leak across backends.  Empty for
    callers that never learned the backend; the cache key then keeps the
    pre-backend format, so existing persisted caches stay valid.
    """

    loop: str
    bucket: int
    team: int
    backend: str = ""

    def cache_key(self) -> str:
        base = f"{self.loop}|{self.bucket}|{self.team}"
        return f"{base}|{self.backend}" if self.backend else base


def trip_bucket(total: int) -> int:
    """Power-of-two bucket of a trip count (1000 and 1023 share a bucket).

    Bucketing keeps jittery trip counts from fragmenting a site while making
    a genuine regime change (10^3 → 10^6 iterations) a *different* site that
    re-explores from scratch.
    """
    return int(total).bit_length()


def candidates_for(total: int, team: int) -> tuple[Candidate, ...]:
    """The candidate set searched for a loop of ``total`` iterations.

    Chunk sizes are derived from the per-member share so the dynamic
    candidates span "fine-grained, balances anything" to "coarse, near-zero
    claim traffic"; duplicates collapse for small loops.
    """
    per_member = max(1, total // max(1, team))
    seen: dict[tuple[Schedule, int], Candidate] = {}
    for candidate in (
        Candidate(Schedule.STATIC_BLOCK),
        Candidate(Schedule.STATIC_CYCLIC, 1),
        Candidate(Schedule.DYNAMIC, max(1, per_member // 16)),
        Candidate(Schedule.DYNAMIC, max(1, per_member // 4)),
        Candidate(Schedule.GUIDED, 1),
    ):
        seen.setdefault((candidate.schedule, candidate.chunk), candidate)
    return tuple(seen.values())


@dataclass(slots=True)
class TuneTicket:
    """One loop invocation's scheduling decision, to be observed after it ran."""

    site: "TuneSite"
    candidate: Candidate
    invocation: int
    phase: str  # "probe" | "explore" | "confirm" | "converged" | "serial"
    #: whether every member reports the time its share took; only a probe asks.
    report: bool = False


class TuneSite:
    """Tuning state for one ``(loop, trip-bucket, team-size)`` site."""

    __slots__ = (
        "key",
        "total_hint",
        "candidates",
        "samples",
        "counts",
        "invocations",
        "converged",
        "choice",
        "best_seconds",
        "probation",
        "drift_strikes",
        "reexplorations",
        "imbalances",
        "_samples_needed",
        "_serial_cutoff",
        "_drift_tolerance",
        "_drift_floor",
        "_drift_patience",
    )

    def __init__(
        self,
        key: SiteKey,
        total_hint: int,
        *,
        samples_per_candidate: int,
        serial_cutoff: float,
        drift_tolerance: float,
        drift_patience: int,
        drift_floor: float = 0.0,
        seeded: "Mapping[str, Any] | None" = None,
    ) -> None:
        self.key = key
        self.total_hint = total_hint
        self.candidates = candidates_for(total_hint, key.team)
        self.samples: dict[Candidate, float] = {}
        self.counts: dict[Candidate, int] = {}
        self.invocations = 0
        self.converged = False
        self.choice: Candidate | None = None
        self.best_seconds: float | None = None
        self.probation = False
        self.drift_strikes = 0
        self.reexplorations = 0
        #: imbalances of the static probes that came with member times.
        self.imbalances: list[float] = []
        self._samples_needed = max(1, samples_per_candidate)
        self._serial_cutoff = serial_cutoff
        self._drift_tolerance = drift_tolerance
        self._drift_floor = max(0.0, drift_floor)
        self._drift_patience = max(1, drift_patience)
        if seeded is not None:
            self._seed(seeded)

    # -- seeding from the persistent cache -----------------------------------

    def _seed(self, entry: Mapping[str, Any]) -> None:
        try:
            candidate = Candidate(
                schedule=Schedule.parse(entry["schedule"]) if not entry.get("serial") else Schedule.STATIC_BLOCK,
                chunk=max(1, int(entry.get("chunk", 1))),
                serial=bool(entry.get("serial", False)),
            )
            best = float(entry.get("best_seconds") or 0.0) or None
        except Exception:
            return  # malformed entry: start cold
        if not candidate.serial and Schedule.parse(entry["schedule"]) is Schedule.AUTO:
            return
        self.converged = True
        self.probation = True  # a live observation must confirm the cache
        self.choice = candidate
        self.best_seconds = best

    # -- decision / observation ------------------------------------------------

    def decide(self) -> TuneTicket:
        """Pick the candidate for the next invocation (tuner lock held)."""
        self.invocations += 1
        if self.converged:
            assert self.choice is not None
            phase = "serial" if self.choice.serial else ("confirm" if self.probation else "converged")
            return TuneTicket(self, self.choice, self.invocations, phase)
        static = self.candidates[0]
        if not self.counts or (self.imbalances and self.counts.get(static, 0) < self._samples_needed):
            # Probe with the cheapest static plan, first to learn the loop's
            # scale, then — once members report their shares — to take all
            # of its samples before the imbalance says whether to search.
            return TuneTicket(self, static, self.invocations, "probe", report=True)
        pending = min(self.candidates, key=lambda c: self.counts.get(c, 0))
        return TuneTicket(self, pending, self.invocations, "explore")

    def observe(
        self,
        candidate: Candidate,
        elapsed: float,
        invocation: "int | None" = None,
        member_times: "Sequence[float] | None" = None,
    ) -> dict[str, Any]:
        """Feed one wall-time observation; returns the trace-event payload.

        ``invocation`` is the ticket's invocation number (decisions can be
        handed out ahead of their observations when members pipeline loop
        executions, so the site counter may already be further along).
        ``member_times`` are what each member's share of a probe took
        (:func:`member_seconds`); without them the search runs in full.
        """
        elapsed = max(0.0, float(elapsed))
        transition: str | None = None
        spread = None
        if member_times is not None and not self.converged and candidate == self.candidates[0]:
            spread = imbalance(member_times)
            self.imbalances.append(spread)
        if self.converged:
            if self.choice is not None and candidate == self.choice:
                transition = self._observe_converged(elapsed)
            else:
                # Observation of a *different* candidate than the converged
                # choice (a stale plan published by a forked worker): fold it
                # into the search statistics, but it cannot advance or
                # regress the converged state.
                self._record_sample(candidate, elapsed)
        else:
            transition = self._observe_exploring(candidate, elapsed)
        payload = self._payload(candidate, elapsed, transition, invocation)
        if spread is not None:
            payload["imbalance"] = spread
        return payload

    def _observe_converged(self, elapsed: float) -> "str | None":
        reference = self.best_seconds
        if reference is not None and self._drifted(elapsed, reference):
            # A cached entry on probation gets a converged site's patience:
            # one slow sample (a loaded host) must not throw it away.
            self.drift_strikes += 1
            if self.drift_strikes < self._drift_patience:
                return None
            transition = "cache-rejected" if self.probation else "re-explore"
            self._reset_search()
            return transition
        # A serial convergence happens off the *parallel* probe measurement,
        # so the first observation of the choice itself sets the baseline.
        self.drift_strikes = 0
        self.best_seconds = elapsed if reference is None else min(elapsed, reference)
        if self.probation:
            self.probation = False
            return "cache-confirmed"
        return None

    def _drifted(self, elapsed: float, reference: float) -> bool:
        """Whether ``elapsed`` is slow enough, relatively *and* absolutely, to
        suggest the workload changed shape under the converged choice."""
        return (
            elapsed > reference * self._drift_tolerance
            and elapsed > reference + self._drift_floor
        )

    def _observe_exploring(self, candidate: Candidate, elapsed: float) -> "str | None":
        probe = not self.counts
        self._record_sample(candidate, elapsed)
        if probe and elapsed <= self._serial_cutoff:
            # The whole loop finished within a few team spin-ups: parallel
            # dispatch cannot pay for itself, stop searching and serialise.
            self.converged = True
            self.probation = False
            self.choice = Candidate(Schedule.STATIC_BLOCK, 1, serial=True)
            # The probe measured *parallel* dispatch; the serial baseline is
            # set by the first observation of the serial fallback itself.
            self.best_seconds = None
            return "serial"
        if len(self.imbalances) >= self._samples_needed and min(self.imbalances) < BALANCED_IMBALANCE:
            # Every member of the static plan finished at about the same
            # time: a claiming schedule has no imbalance to win back.
            return self._converge(self.candidates[0], "balanced")
        if all(self.counts.get(c, 0) >= self._samples_needed for c in self.candidates):
            return self._converge()
        return None

    def _record_sample(self, candidate: Candidate, elapsed: float) -> None:
        self.counts[candidate] = self.counts.get(candidate, 0) + 1
        best = self.samples.get(candidate)
        if best is None or elapsed < best:
            self.samples[candidate] = elapsed

    def _converge(self, choice: "Candidate | None" = None, transition: str = "converged") -> str:
        if choice is None:
            choice = min(self.candidates, key=lambda c: self.samples.get(c, float("inf")))
        self.choice = choice
        self.best_seconds = self.samples[choice]
        self.converged = True
        self.probation = False
        self.drift_strikes = 0
        return transition

    def _reset_search(self) -> None:
        self.converged = False
        self.probation = False
        self.choice = None
        self.best_seconds = None
        self.drift_strikes = 0
        self.samples.clear()
        self.counts.clear()
        self.imbalances.clear()
        self.reexplorations += 1

    # -- serialisation ---------------------------------------------------------

    def cache_entry(self) -> "dict[str, Any] | None":
        if not self.converged or self.choice is None:
            return None
        return {
            "schedule": self.choice.schedule.value,
            "chunk": self.choice.chunk,
            "serial": self.choice.serial,
            "best_seconds": self.best_seconds,
            "invocations": self.invocations,
        }

    def _payload(
        self, candidate: Candidate, elapsed: float, transition: "str | None", invocation: "int | None" = None
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "loop": self.key.loop,
            "bucket": self.key.bucket,
            "team": self.key.team,
            "schedule": "serial" if candidate.serial else candidate.schedule.value,
            "chunk": candidate.chunk,
            "serial": candidate.serial,
            "invocation": invocation if invocation is not None else self.invocations,
            "elapsed": elapsed,
            "converged": self.converged,
        }
        if transition is not None:
            payload["transition"] = transition
        if self.converged and self.choice is not None:
            payload["best_schedule"] = "serial" if self.choice.serial else self.choice.schedule.value
            payload["best_chunk"] = self.choice.chunk
            payload["best_seconds"] = self.best_seconds
        return payload


@dataclass
class TunerConfig:
    """Knobs of the adaptive tuner (defaults fit sub-second loops)."""

    #: observations per candidate before converging (minimum kept).
    samples_per_candidate: int = 2
    #: converged observations beyond ``best * drift_tolerance`` count as drift.
    drift_tolerance: float = 2.5
    #: ... but only when also ``best + drift_floor_seconds`` slower: micro
    #: loops resolve single-digit microseconds at best, and a pure ratio test
    #: would re-explore on timer noise.
    drift_floor_seconds: float = 2.0e-3
    #: consecutive drifting observations before the site re-explores.
    drift_patience: int = 3
    #: serial fallback when the probe finishes within ``margin`` team spin-ups.
    serial_margin: float = 4.0
    #: cost model supplying the measured team spin-up (``None``: module default).
    cost_model: Any = None
    #: extra entries merged into the candidate search (tests/benchmarks).
    extra_candidates: tuple = ()

    def team_spinup_seconds(self) -> float:
        spinup = getattr(self.cost_model, "team_spinup_seconds", None)
        # `is not None`, not truthiness: a calibrated 0.0 means "spin-up is
        # negligible, never take the serial fallback" and must be honoured.
        return float(spinup) if spinup is not None else _default_team_spinup_seconds()

    def serial_cutoff(self) -> float:
        return self.team_spinup_seconds() * self.serial_margin


#: sentinel: "resolve the cache path from the runtime configuration".
_CONFIGURED = object()


class LoopTuner:
    """Process-wide registry of :class:`TuneSite` states.

    One tuner serves every ``schedule="auto"`` loop in the process; the
    work-sharing executor asks it for a :class:`TuneTicket` per invocation
    (:meth:`begin_invocation`) and feeds the measured wall time back
    (:meth:`observe`).  Thread-safe; the persistent cache is loaded lazily on
    first use and rewritten whenever a site (re)converges.
    """

    def __init__(self, config: TunerConfig | None = None, *, cache_path: Any = _CONFIGURED) -> None:
        self.config = config if config is not None else TunerConfig()
        self._explicit_cache_path = cache_path
        self._lock = threading.Lock()
        self._sites: dict[SiteKey, TuneSite] = {}
        self._cache_entries: "dict[str, dict[str, Any]] | None" = None
        self._cache_loaded_for: Any = None

    # -- cache -----------------------------------------------------------------

    @property
    def cache_path(self) -> "str | None":
        if self._explicit_cache_path is not _CONFIGURED:
            return self._explicit_cache_path
        return get_config().tune_cache

    def _entries(self) -> dict[str, dict[str, Any]]:
        # Re-read when the resolved path changed (config-driven paths are
        # live: a tuner first used before AOMP_TUNE_CACHE/config.tune_cache
        # was set must not latch the empty cache forever).
        path = self.cache_path
        if self._cache_entries is None or path != self._cache_loaded_for:
            self._cache_entries = load_cache(path)
            self._cache_loaded_for = path
        return self._cache_entries

    def _persist_locked(self) -> None:
        path = self.cache_path
        if path is None:
            return
        stored = self._entries()
        entries = dict(stored)
        for site in self._sites.values():
            entry = site.cache_entry()
            if entry is not None:
                entries[site.key.cache_key()] = entry
        if entries == stored:
            return  # nothing to add or change: leave the file (or its absence) alone
        try:
            save_cache(path, entries)
        except OSError:
            return  # persistence is advisory; never fail the loop over it
        self._cache_entries = entries

    # -- sites -----------------------------------------------------------------

    def site(
        self, loop: str, total: int, team: int, *, backend: str = "", spinup_scale: float = 1.0
    ) -> TuneSite:
        """The tune site for ``loop`` at this trip-count bucket and team size.

        ``backend``/``spinup_scale`` carry the resolved execution backend's
        identity and relative team spin-up cost
        (:attr:`repro.runtime.backend.Backend.spinup_cost_scale`): sites are
        keyed per backend, and an expensive-to-start backend's serial-fallback
        cutoff scales up so small loops serialise sooner there.  The defaults
        preserve the historical backend-oblivious behaviour.
        """
        key = SiteKey(loop, trip_bucket(total), max(1, team), backend)
        with self._lock:
            return self._site_locked(key, total, spinup_scale=spinup_scale)

    def _site_locked(self, key: SiteKey, total: int, *, spinup_scale: float = 1.0) -> TuneSite:
        site = self._sites.get(key)
        if site is None:
            config = self.config
            site = TuneSite(
                key,
                total,
                samples_per_candidate=config.samples_per_candidate,
                serial_cutoff=config.serial_cutoff() * max(1.0, float(spinup_scale)),
                drift_tolerance=config.drift_tolerance,
                drift_patience=config.drift_patience,
                drift_floor=config.drift_floor_seconds,
                seeded=self._entries().get(key.cache_key()),
            )
            if config.extra_candidates:
                merged = dict.fromkeys(site.candidates)
                merged.update(dict.fromkeys(config.extra_candidates))
                site.candidates = tuple(merged)
            self._sites[key] = site
        return site

    def sites(self) -> list[TuneSite]:
        """Snapshot of every site (introspection/benchmarks)."""
        with self._lock:
            return list(self._sites.values())

    # -- the two calls the executor makes --------------------------------------

    def begin_invocation(
        self, loop: str, total: int, team: int, *, backend: str = "", spinup_scale: float = 1.0
    ) -> TuneTicket:
        """Decide the schedule for the next invocation of ``loop``.

        See :meth:`site` for the ``backend``/``spinup_scale`` semantics.
        """
        key = SiteKey(loop, trip_bucket(total), max(1, team), backend)
        with self._lock:
            return self._site_locked(key, total, spinup_scale=spinup_scale).decide()

    def observe(
        self, ticket: TuneTicket, elapsed: float, member_times: "Sequence[float] | None" = None
    ) -> dict[str, Any]:
        """Feed a wall-time observation; returns the TUNE_DECISION payload.

        ``member_times`` are the members' reports for a probe ticket (see
        :meth:`TuneSite.observe`).  Persists the cache whenever the
        observation (re)converged the site.
        """
        with self._lock:
            payload = ticket.site.observe(ticket.candidate, elapsed, ticket.invocation, member_times)
            if ticket.site.converged and "transition" in payload:
                self._persist_locked()
        return payload

    def save(self) -> None:
        """Persist converged sites to the cache now (the service drain path)."""
        with self._lock:
            self._persist_locked()


# ---------------------------------------------------------------------------
# process-wide tuner
# ---------------------------------------------------------------------------

_global_lock = threading.Lock()
_global_tuner: LoopTuner | None = None


def get_tuner() -> LoopTuner:
    """The process-wide tuner serving every ``schedule="auto"`` loop."""
    global _global_tuner
    tuner = _global_tuner
    if tuner is None:
        with _global_lock:
            tuner = _global_tuner
            if tuner is None:
                tuner = _global_tuner = LoopTuner()
    return tuner


def set_tuner(tuner: "LoopTuner | None") -> "LoopTuner | None":
    """Install ``tuner`` as the process-wide tuner; returns the previous one."""
    global _global_tuner
    with _global_lock:
        previous, _global_tuner = _global_tuner, tuner
    return previous


def reset_tuner() -> None:
    """Drop the process-wide tuner (tests; a fresh one is created lazily)."""
    set_tuner(None)


class tuner_override:
    """Context manager running a block under a specific tuner instance."""

    def __init__(self, tuner: "LoopTuner | None") -> None:
        self._tuner = tuner
        self._previous: "LoopTuner | None" = None

    def __enter__(self) -> "LoopTuner | None":
        self._previous = set_tuner(self._tuner)
        return self._tuner

    def __exit__(self, *exc_info) -> None:
        set_tuner(self._previous)


# ---------------------------------------------------------------------------
# thread-scoped tuners (per-tenant caches under concurrent callers)
# ---------------------------------------------------------------------------

_scope_local = threading.local()


def scoped_tuner() -> "LoopTuner | None":
    """The calling thread's scoped tuner, if inside a :class:`tuner_scope`."""
    return getattr(_scope_local, "tuner", None)


def tuner_for_team(team: Any) -> LoopTuner:
    """The tuner serving ``team``'s ``schedule="auto"`` loops.

    Regions started under a :class:`tuner_scope` stamp the scoped tuner onto
    the team at creation (see ``_execute_region``), so *every* member — not
    just the thread that entered the scope — agrees on it: member 0 opens an
    auto invocation, and a nested team's member 0 is a member thread of its
    parent.  Teams without a stamp use the process-wide tuner.
    """
    tuner = getattr(team, "tuner", None)
    return tuner if tuner is not None else get_tuner()


class tuner_scope:
    """Run a block under a tuner visible only to the *calling thread*.

    Unlike :class:`tuner_override`, which swaps the process-wide tuner and is
    therefore racy when several threads serve different tenants concurrently,
    this override is thread-local: the compute service's dispatch workers
    each enter the scope of their current tenant's tuner, and regions started
    on that thread (plus their teams, via the team stamp) tune against that
    tenant's cache without disturbing anyone else.  Nests: the innermost
    scope wins; ``None`` re-exposes the process-wide tuner.
    """

    def __init__(self, tuner: "LoopTuner | None") -> None:
        self._tuner = tuner
        self._previous: "LoopTuner | None" = None

    def __enter__(self) -> "LoopTuner | None":
        self._previous = getattr(_scope_local, "tuner", None)
        _scope_local.tuner = self._tuner
        return self._tuner

    def __exit__(self, *exc_info) -> None:
        _scope_local.tuner = self._previous
