"""Global runtime configuration, and the one environment contract.

Mirrors the role of OpenMP environment variables (``OMP_NUM_THREADS``,
``OMP_SCHEDULE``, ``OMP_NESTED``): a process-wide default consulted when an
individual parallel region or for-method does not specify its own settings.

Every variable the library reads is one row of :data:`ENV_VARS` — its name,
the ``OMP_*`` spelling it falls back to (if any), its parse rule and its
default — and :func:`env` is the only reader of the process environment.  A
blank value means unset.  Garbage is rejected *loudly*, naming the exact
variable the user set: a typo'd setting that silently does nothing is worse
than a crash at startup.  ``AOMP_BACKEND``, ``AOMP_SCHEDULE`` and
``AOMP_SERVICE_BACKEND`` are read as words or text here and validated where
they are used (the backend registry and the schedule parser), so plugin
backends registered after import still resolve.  A variable the table does
not list is never read.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple


def usable_cpus() -> int:
    """Processors this process may run on — its affinity mask, which ``taskset``,
    a cpuset or a container shrinks — not the number installed.  The mask read
    is the main thread's: a team member's own may be the one processor its
    master was on (``ThreadBackend``)."""
    try:
        return len(os.sched_getaffinity(os.getpid()))
    except (AttributeError, OSError):  # no such call on this platform
        return os.cpu_count() or 1


ON_FAILURE_POLICIES = ("raise", "retry", "degrade")

#: default histogram bucket boundaries (seconds): log-scale from 1 us to 10 s,
#: covering everything from a hot barrier round to a wedged worker.
DEFAULT_METRICS_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

#: Upper bound on how long any member waits in a team barrier by default, on
#: every tier (thread, shm and socket barriers): a deadlocked team (e.g. a
#: nested inner team whose sibling died) breaks the barrier with an error
#: instead of hanging the process — the test-tier watchdogs rely on this
#: backstop.  Raise (or disable, with ``<= 0``) via ``AOMP_BARRIER_TIMEOUT``
#: when a legitimately serialised phase (e.g. an ``auto`` loop's serial
#: fallback over a huge range) keeps siblings waiting longer than the default.
DEFAULT_BARRIER_TIMEOUT = 120.0


class Rule(NamedTuple):
    """How a variable's stripped, non-blank value parses: ``parse(raw)`` raises
    ``ValueError`` or ``KeyError`` on garbage, and the error says ``what`` a
    valid value is."""

    what: str
    parse: Callable[[str], Any]


def _integer(low: int, high: "int | None" = None) -> Rule:
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low or (high is not None and value > high):
            raise ValueError(raw)
        return value

    return Rule(f"an integer >= {low}" if high is None else f"an integer in {low}..{high}", parse)


def _seconds(floor: "str | None") -> Rule:
    """Seconds, bounded below by ``floor`` (``">= 0"`` or ``"> 0"``); without
    one, ``<= 0`` reads as ``None``: no bound at all."""

    def parse(raw: str) -> "float | None":
        value = float(raw)
        if floor is None:
            return value if value > 0 else None
        if value < 0 or (value == 0 and floor == "> 0"):
            raise ValueError(raw)
        return value

    return Rule(f"a number of seconds {floor or '(<= 0 disables the bound)'}", parse)


def _choice(*options: str) -> Rule:
    """A case-insensitive word; with no ``options``, any word (validated at use)."""

    def parse(raw: str) -> str:
        word = raw.lower()
        if options and word not in options:
            raise ValueError(raw)
        return word

    return Rule(f"one of {', '.join(options)}", parse)


def _buckets(raw: str) -> "tuple[float, ...]":
    bounds = tuple(float(piece) for piece in raw.split(",") if piece.strip())
    if not bounds or bounds[0] <= 0 or any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(raw)
    return bounds


_BOOLEAN_WORDS = dict.fromkeys(("1", "on", "true", "yes"), True) | dict.fromkeys(("0", "false", "no", "off"), False)
_BOOLEAN = Rule("a boolean word (1/on/true/yes or 0/false/no/off)", lambda raw: _BOOLEAN_WORDS[raw.lower()])
_BUCKETS = Rule("comma-separated increasing positive seconds", _buckets)
_TEXT = Rule("text", str)


class EnvVar(NamedTuple):
    """One row of the environment contract."""

    name: str
    #: the ``OMP_*`` spelling read when ``name`` is unset or blank
    fallback: "str | None"
    rule: Rule
    #: the value when both are unset or blank; a callable is called each time
    default: Any


#: The environment contract, in the order README's table lists it.
ENV_VARS = (
    EnvVar("AOMP_NUM_THREADS", "OMP_NUM_THREADS", _integer(1), usable_cpus),
    EnvVar("AOMP_BACKEND", None, _choice(), "threads"),
    EnvVar("AOMP_SCHEDULE", "OMP_SCHEDULE", _TEXT, "static_block"),
    EnvVar("AOMP_TUNE_CACHE", None, _TEXT, None),
    EnvVar("AOMP_NESTED", "OMP_NESTED", _BOOLEAN, True),
    EnvVar("AOMP_MAX_ACTIVE_LEVELS", "OMP_MAX_ACTIVE_LEVELS", _integer(1), 4),
    EnvVar("AOMP_BARRIER_TIMEOUT", None, _seconds(None), DEFAULT_BARRIER_TIMEOUT),
    EnvVar("AOMP_HEARTBEAT_INTERVAL", None, _seconds("> 0"), 0.25),
    EnvVar("AOMP_HEARTBEAT_TIMEOUT", None, _seconds(None), None),
    EnvVar("AOMP_ON_FAILURE", None, _choice(*ON_FAILURE_POLICIES), "raise"),
    EnvVar("AOMP_MAX_RETRIES", None, _integer(0), 2),
    EnvVar("AOMP_RETRY_BACKOFF", None, _seconds(">= 0"), 0.05),
    EnvVar("AOMP_METRICS", None, _BOOLEAN, False),
    EnvVar("AOMP_METRICS_PORT", None, _integer(0, 65535), None),
    EnvVar("AOMP_METRICS_BUCKETS", None, _BUCKETS, DEFAULT_METRICS_BUCKETS),
    EnvVar("AOMP_SERVICE_HOST", None, _TEXT, "127.0.0.1"),
    EnvVar("AOMP_SERVICE_PORT", None, _integer(0, 65535), 0),
    EnvVar("AOMP_SERVICE_WORKERS", None, _integer(1), lambda: max(1, min(4, usable_cpus() // 2))),
    EnvVar("AOMP_SERVICE_QUEUE", None, _integer(1), 64),
    EnvVar("AOMP_SERVICE_TENANT_CAP", None, _integer(1), 2),
    EnvVar("AOMP_SERVICE_BACKEND", None, _choice(), ""),
    EnvVar("AOMP_SERVICE_TUNE_DIR", None, _TEXT, None),
)

_ROWS = {row.name: row for row in ENV_VARS}


def env(name: str) -> Any:
    """The current value of contract variable ``name``.

    Read on every call, so a variable set mid-process affects what is
    constructed afterwards (every team reads ``AOMP_BARRIER_TIMEOUT``); each
    distinct raw value is parsed once.
    """
    row = _ROWS[name]
    var, raw = name, os.environ.get(name, "").strip()
    if not raw and row.fallback:
        var, raw = row.fallback, os.environ.get(row.fallback, "").strip()
    if raw:
        return _parse(name, var, raw)
    return row.default() if callable(row.default) else row.default


@functools.lru_cache(maxsize=256)
def _parse(name: str, var: str, raw: str) -> Any:
    """``raw`` under ``name``'s rule; a rejection (never cached) blames ``var``,
    the spelling the user set."""
    rule = _ROWS[name].rule
    try:
        return rule.parse(raw)
    except (KeyError, ValueError):
        raise ValueError(f"{var} must be {rule.what}; got {raw!r}") from None


def env_field(name: str) -> Any:
    """A dataclass field seeded from contract variable ``name`` at construction."""
    return field(default_factory=functools.partial(env, name))


@dataclass(frozen=True)
class RuntimeConfig:
    """Process-wide defaults for the PyAOmpLib runtime.

    Every field but ``default_chunk`` and ``tracing`` is seeded from its
    environment variable (README's environment table lists them all).

    Attributes
    ----------
    num_threads:
        Default team size for parallel regions that do not specify one
        (``AOMP_NUM_THREADS``/``OMP_NUM_THREADS``; the processors this
        process may use when unset).
    backend:
        Name of the default execution backend (``"serial"``, ``"threads"``,
        ``"processes"`` or ``"distributed"``; ``AOMP_BACKEND``).  Overridden
        globally by :func:`repro.runtime.backend.set_backend` and per-region
        via the ``backend=`` argument of ``parallel_region``.
    default_schedule:
        Default loop schedule spec (``"static_block"``, ``"static_cyclic"``,
        ``"dynamic"``, ``"guided"`` or ``"auto"``, optionally with an
        OpenMP-style chunk suffix such as ``"dynamic,4"``;
        ``AOMP_SCHEDULE``/``OMP_SCHEDULE``).  Consulted by work-shared loops
        that do not pass an explicit ``schedule=``.
    default_chunk:
        Default chunk size for dynamic/guided schedules.
    tune_cache:
        Path of the adaptive tuner's persistent decision cache (``None``
        disables persistence; ``AOMP_TUNE_CACHE``).  See :mod:`repro.tune`.
    nested:
        Whether nested parallel regions create new teams (OpenMP
        ``OMP_NESTED``; ``AOMP_NESTED``).  When ``False`` a nested region
        executes with a team of one.
    max_active_levels:
        Cap on the number of *active* nesting levels — enclosing teams with
        more than one member — mirroring OpenMP's
        ``omp_set_max_active_levels`` (``AOMP_MAX_ACTIVE_LEVELS``/
        ``OMP_MAX_ACTIVE_LEVELS``).  A region whose enclosing contexts
        already hold this many active teams gets a team of one; serialised
        (size-1) levels do not consume the budget.
    tracing:
        Whether the runtime records :class:`~repro.runtime.trace.TraceRecorder`
        events (needed by :mod:`repro.perf`).
    on_failure:
        Default region failure policy (``"raise"``, ``"retry"`` or
        ``"degrade"``; ``AOMP_ON_FAILURE``).  ``retry`` re-runs a region
        whose failure was recoverable infrastructure (dead worker, broken
        barrier) with exponential backoff; ``degrade``
        additionally walks down the backend fallback chain (processes →
        threads → serial) once the retry budget is exhausted.  Both only act
        on bodies marked ``retry_safe`` — see
        :func:`repro.runtime.team.parallel_region`.
    max_retries:
        Retry budget per backend level under ``retry``/``degrade``
        (``AOMP_MAX_RETRIES``).
    retry_backoff:
        Base delay in seconds before a retry, doubling each attempt
        (``AOMP_RETRY_BACKOFF``).
    metrics:
        Whether the runtime accumulates :mod:`repro.obs` metrics (counters,
        gauges, histograms; ``AOMP_METRICS``).  Off by default: every
        instrumentation site is guarded by this single predicate, so the hot
        path pays one attribute load when disabled.
    metrics_port:
        TCP port of the opt-in stdlib-HTTP Prometheus scrape endpoint
        (``AOMP_METRICS_PORT``; ``None`` disables it, ``0`` binds an
        ephemeral port reported by ``repro.obs.exporter_port()``).
    metrics_buckets:
        Histogram bucket boundaries in seconds, strictly increasing
        (``AOMP_METRICS_BUCKETS``).  They fix the metrics slot layout
        process-wide, so workers inherit them through the environment.
    """

    num_threads: int = env_field("AOMP_NUM_THREADS")
    backend: str = env_field("AOMP_BACKEND")
    default_schedule: str = env_field("AOMP_SCHEDULE")
    default_chunk: int = 1
    tune_cache: "str | None" = env_field("AOMP_TUNE_CACHE")
    nested: bool = env_field("AOMP_NESTED")
    max_active_levels: int = env_field("AOMP_MAX_ACTIVE_LEVELS")
    tracing: bool = True
    on_failure: str = env_field("AOMP_ON_FAILURE")
    max_retries: int = env_field("AOMP_MAX_RETRIES")
    retry_backoff: float = env_field("AOMP_RETRY_BACKOFF")
    metrics: bool = env_field("AOMP_METRICS")
    metrics_port: "int | None" = env_field("AOMP_METRICS_PORT")
    metrics_buckets: "tuple[float, ...]" = env_field("AOMP_METRICS_BUCKETS")

    def with_updates(self, **kwargs) -> "RuntimeConfig":
        """Return a copy of this configuration with the given fields replaced."""
        return replace(self, **kwargs)


_lock = threading.Lock()
_config = RuntimeConfig()


def get_config() -> RuntimeConfig:
    """Return the current global configuration."""
    return _config


def set_config(config: RuntimeConfig) -> RuntimeConfig:
    """Install ``config`` as the global configuration and return the previous one."""
    global _config
    with _lock:
        previous, _config = _config, config
    return previous


def set_num_threads(n: int) -> None:
    """Set the default number of threads used by parallel regions."""
    if n < 1:
        raise ValueError(f"number of threads must be >= 1, got {n}")
    global _config
    with _lock:
        _config = _config.with_updates(num_threads=int(n))


def get_num_threads() -> int:
    """Return the default number of threads used by parallel regions."""
    return _config.num_threads


class config_override:
    """Context manager temporarily overriding global configuration fields.

    Example
    -------
    >>> with config_override(num_threads=2, tracing=False):
    ...     ...
    """

    def __init__(self, **kwargs) -> None:
        self._kwargs = kwargs
        self._previous: RuntimeConfig | None = None

    def __enter__(self) -> RuntimeConfig:
        self._previous = get_config()
        set_config(self._previous.with_updates(**self._kwargs))
        return get_config()

    def __exit__(self, *exc_info) -> None:
        assert self._previous is not None
        set_config(self._previous)
