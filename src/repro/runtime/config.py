"""Global runtime configuration.

Mirrors the role of OpenMP environment variables (``OMP_NUM_THREADS``,
``OMP_SCHEDULE``, ``OMP_NESTED``): a process-wide default consulted when an
individual parallel region or for-method does not specify its own settings.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace


def _env_pair(primary: str, fallback: "str | None" = None) -> "tuple[str, str | None]":
    """``(variable_name, value)`` for the first of two variables that is set.

    The variable *name* travels with the value so a parse failure can blame
    the exact variable the user set — every ``AOMP_*`` parser here rejects
    garbage loudly rather than silently substituting a default (a typo'd
    setting that silently does nothing is worse than a crash at import).
    """
    env = os.environ.get(primary)
    if env:
        return primary, env
    if fallback is not None:
        env = os.environ.get(fallback)
        if env:
            return fallback, env
    return primary, None


def usable_cpus() -> int:
    """Processors this process may run on — its affinity mask, which ``taskset``,
    a cpuset or a container shrinks — not the number installed.  The mask read
    is the main thread's: a team member's own may be the one processor its
    master was on (``ThreadBackend``)."""
    try:
        return len(os.sched_getaffinity(os.getpid()))
    except (AttributeError, OSError):  # no such call on this platform
        return os.cpu_count() or 1


def _default_backend() -> str:
    """Backend name from ``AOMP_BACKEND`` (``serial`` | ``threads`` |
    ``processes`` | ``distributed``).

    Validity is checked loudly — but *at use*, by ``backend_by_name`` (which
    names the valid set), so plugin backends registered after import still
    resolve.
    """
    env = (os.environ.get("AOMP_BACKEND") or "").strip().lower()
    return env or "threads"


def _default_schedule() -> str:
    """Default loop schedule from ``AOMP_SCHEDULE`` (or ``OMP_SCHEDULE``).

    OpenMP-style ``"kind[,chunk]"`` specs are accepted (e.g. ``"dynamic,4"``
    or ``"auto"``); parsing/validation happens at loop-execution time.
    """
    env = (os.environ.get("AOMP_SCHEDULE") or os.environ.get("OMP_SCHEDULE") or "").strip()
    return env or "static_block"


def _default_tune_cache() -> "str | None":
    """Path of the adaptive tuner's persistent cache from ``AOMP_TUNE_CACHE``."""
    env = (os.environ.get("AOMP_TUNE_CACHE") or "").strip()
    return env or None


def _default_num_threads() -> int:
    """Default team size from ``AOMP_NUM_THREADS``/``OMP_NUM_THREADS`` (int >= 1)."""
    name, env = _env_pair("AOMP_NUM_THREADS", "OMP_NUM_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{name} must be an integer >= 1; got {env!r}") from None
        if value < 1:
            raise ValueError(f"{name} must be an integer >= 1; got {env!r}")
        return value
    return usable_cpus()


_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})

ON_FAILURE_POLICIES = ("raise", "retry", "degrade")


def _default_on_failure() -> str:
    """Region failure policy from ``AOMP_ON_FAILURE`` (``raise``/``retry``/``degrade``)."""
    env = (os.environ.get("AOMP_ON_FAILURE") or "").strip().lower()
    if not env:
        return "raise"
    if env not in ON_FAILURE_POLICIES:
        raise ValueError(
            f"AOMP_ON_FAILURE must be one of {', '.join(ON_FAILURE_POLICIES)}; got {env!r}"
        )
    return env


def _default_max_retries() -> int:
    """Retry budget per backend level from ``AOMP_MAX_RETRIES`` (>= 0)."""
    env = os.environ.get("AOMP_MAX_RETRIES")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"AOMP_MAX_RETRIES must be an integer >= 0; got {env!r}") from None
        if value < 0:
            raise ValueError(f"AOMP_MAX_RETRIES must be an integer >= 0; got {env!r}")
        return value
    return 2


def _default_retry_backoff() -> float:
    """Base retry delay in seconds from ``AOMP_RETRY_BACKOFF`` (doubles per attempt)."""
    env = os.environ.get("AOMP_RETRY_BACKOFF")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise ValueError(f"AOMP_RETRY_BACKOFF must be a number of seconds >= 0; got {env!r}") from None
        if value < 0.0:
            raise ValueError(f"AOMP_RETRY_BACKOFF must be a number of seconds >= 0; got {env!r}")
        return value
    return 0.05


def _default_nested() -> bool:
    """Whether nested regions create real teams, from ``AOMP_NESTED``/``OMP_NESTED``."""
    name, env = _env_pair("AOMP_NESTED", "OMP_NESTED")
    if env is None or not env.strip():
        return True
    word = env.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(
        f"{name} must be a boolean word ({'/'.join(sorted(_TRUE_WORDS))} or "
        f"{'/'.join(sorted(_FALSE_WORDS))}); got {env!r}"
    )


def _default_max_active_levels() -> int:
    """Nesting-depth cap from ``AOMP_MAX_ACTIVE_LEVELS``/``OMP_MAX_ACTIVE_LEVELS``.

    Counts *active* levels — enclosing teams with more than one member —
    exactly like OpenMP's ``omp_set_max_active_levels``.
    """
    name, env = _env_pair("AOMP_MAX_ACTIVE_LEVELS", "OMP_MAX_ACTIVE_LEVELS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{name} must be an integer >= 1; got {env!r}") from None
        if value < 1:
            raise ValueError(f"{name} must be an integer >= 1; got {env!r}")
        return value
    return 4


def _default_metrics() -> bool:
    """Whether the runtime accumulates metrics, from ``AOMP_METRICS``."""
    env = os.environ.get("AOMP_METRICS")
    if env is None or not env.strip():
        return False
    word = env.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(
        f"AOMP_METRICS must be a boolean word ({'/'.join(sorted(_TRUE_WORDS))} or "
        f"{'/'.join(sorted(_FALSE_WORDS))}); got {env!r}"
    )


def _default_metrics_port() -> "int | None":
    """TCP port of the opt-in metrics scrape endpoint, from ``AOMP_METRICS_PORT``.

    ``None`` (unset/empty) disables the endpoint; ``0`` asks for an ephemeral
    port (the bound port is reported by ``repro.obs.exporter_port()``).
    """
    env = os.environ.get("AOMP_METRICS_PORT")
    if env is None or not env.strip():
        return None
    try:
        value = int(env)
    except ValueError:
        raise ValueError(f"AOMP_METRICS_PORT must be an integer port (0..65535); got {env!r}") from None
    if not 0 <= value <= 65535:
        raise ValueError(f"AOMP_METRICS_PORT must be an integer port (0..65535); got {env!r}")
    return value


#: default histogram bucket boundaries (seconds): log-scale from 1 us to 10 s,
#: covering everything from a hot barrier round to a wedged worker.
DEFAULT_METRICS_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


def _default_metrics_buckets() -> "tuple[float, ...]":
    """Histogram bucket boundaries from ``AOMP_METRICS_BUCKETS``.

    Comma-separated, strictly increasing, positive seconds.  The boundaries
    fix the metrics slot layout process-wide, so workers inherit them through
    the environment rather than per-region plumbing.
    """
    env = os.environ.get("AOMP_METRICS_BUCKETS")
    if env is None or not env.strip():
        return DEFAULT_METRICS_BUCKETS
    bounds: "list[float]" = []
    for piece in env.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            value = float(piece)
        except ValueError:
            raise ValueError(
                f"AOMP_METRICS_BUCKETS must be comma-separated increasing positive "
                f"seconds; got {env!r}"
            ) from None
        bounds.append(value)
    if not bounds or any(b <= 0 for b in bounds) or any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(
            f"AOMP_METRICS_BUCKETS must be comma-separated increasing positive "
            f"seconds; got {env!r}"
        )
    return tuple(bounds)


@dataclass(frozen=True)
class RuntimeConfig:
    """Process-wide defaults for the PyAOmpLib runtime.

    Attributes
    ----------
    num_threads:
        Default team size for parallel regions that do not specify one.
    backend:
        Name of the default execution backend (``"serial"``, ``"threads"``,
        ``"processes"`` or ``"distributed"``), seeded from the ``AOMP_BACKEND``
        environment variable.  Overridden globally by
        :func:`repro.runtime.backend.set_backend` and per-region via the
        ``backend=`` argument of ``parallel_region``.
    default_schedule:
        Default loop schedule spec (``"static_block"``, ``"static_cyclic"``,
        ``"dynamic"``, ``"guided"`` or ``"auto"``, optionally with an
        OpenMP-style chunk suffix such as ``"dynamic,4"``), seeded from the
        ``AOMP_SCHEDULE``/``OMP_SCHEDULE`` environment variables.  Consulted
        by work-shared loops that do not pass an explicit ``schedule=``.
    default_chunk:
        Default chunk size for dynamic/guided schedules.
    tune_cache:
        Path of the adaptive tuner's persistent decision cache (``None``
        disables persistence), seeded from ``AOMP_TUNE_CACHE``.  See
        :mod:`repro.tune`.
    nested:
        Whether nested parallel regions create new teams (OpenMP ``OMP_NESTED``),
        seeded from the ``AOMP_NESTED``/``OMP_NESTED`` environment variables.
        When ``False`` a nested region executes with a team of one.
    max_active_levels:
        Cap on the number of *active* nesting levels — enclosing teams with
        more than one member — mirroring OpenMP's
        ``omp_set_max_active_levels``/``OMP_MAX_ACTIVE_LEVELS`` (seeded from
        ``AOMP_MAX_ACTIVE_LEVELS`` too).  A region whose enclosing contexts
        already hold this many active teams gets a team of one; serialised
        (size-1) levels do not consume the budget.
    tracing:
        Whether the runtime records :class:`~repro.runtime.trace.TraceRecorder`
        events (needed by :mod:`repro.perf`).
    on_failure:
        Default region failure policy (``"raise"``, ``"retry"`` or
        ``"degrade"``), seeded from ``AOMP_ON_FAILURE``.  ``retry`` re-runs a
        region whose failure was recoverable infrastructure (dead worker,
        broken barrier, injected fault) with exponential backoff; ``degrade``
        additionally walks down the backend fallback chain (processes →
        threads → serial) once the retry budget is exhausted.  Both only act
        on bodies marked ``retry_safe`` — see
        :func:`repro.runtime.team.parallel_region`.
    max_retries:
        Retry budget per backend level under ``retry``/``degrade``, seeded
        from ``AOMP_MAX_RETRIES``.
    retry_backoff:
        Base delay in seconds before a retry (doubling each attempt), seeded
        from ``AOMP_RETRY_BACKOFF``.
    metrics:
        Whether the runtime accumulates :mod:`repro.obs` metrics (counters,
        gauges, histograms), seeded from ``AOMP_METRICS``.  Off by default:
        every instrumentation site is guarded by this single predicate, so
        the hot path pays one attribute load when disabled.
    metrics_port:
        TCP port of the opt-in stdlib-HTTP Prometheus scrape endpoint,
        seeded from ``AOMP_METRICS_PORT`` (``None`` disables it, ``0`` binds
        an ephemeral port).
    metrics_buckets:
        Histogram bucket boundaries in seconds (strictly increasing), seeded
        from ``AOMP_METRICS_BUCKETS``.
    """

    num_threads: int = field(default_factory=_default_num_threads)
    backend: str = field(default_factory=_default_backend)
    default_schedule: str = field(default_factory=_default_schedule)
    default_chunk: int = 1
    tune_cache: "str | None" = field(default_factory=_default_tune_cache)
    nested: bool = field(default_factory=_default_nested)
    max_active_levels: int = field(default_factory=_default_max_active_levels)
    tracing: bool = True
    on_failure: str = field(default_factory=_default_on_failure)
    max_retries: int = field(default_factory=_default_max_retries)
    retry_backoff: float = field(default_factory=_default_retry_backoff)
    metrics: bool = field(default_factory=_default_metrics)
    metrics_port: "int | None" = field(default_factory=_default_metrics_port)
    metrics_buckets: "tuple[float, ...]" = field(default_factory=_default_metrics_buckets)

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
