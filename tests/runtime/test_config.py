"""Table-driven coverage of every ``AOMP_*`` environment variable.

Contract under test, uniformly for each variable:

* **default** — unset (or empty) yields the documented default;
* **valid** — a well-formed value parses to the documented Python value,
  including the ``OMP_*`` fallback spellings where one exists;
* **garbage** — a malformed value is rejected *loudly* with an error naming
  the exact variable the user set, never silently replaced by the default
  (a typo'd setting that does nothing is worse than a crash at import).

Two variables are deliberately deferred-but-loud instead of parse-at-import:
``AOMP_BACKEND`` (validity depends on the backend registry, which plugins
may extend after import) and ``AOMP_SCHEDULE`` (validated by
``parse_schedule_spec`` at loop execution).  Their garbage cases assert the
*use-site* rejection names the valid forms.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.runtime.barrier import _default_barrier_timeout
from repro.runtime.config import (
    DEFAULT_METRICS_BUCKETS,
    ON_FAILURE_POLICIES,
    RuntimeConfig,
    _default_backend,
    _default_max_active_levels,
    _default_max_retries,
    _default_metrics,
    _default_metrics_buckets,
    _default_metrics_port,
    _default_nested,
    _default_num_threads,
    _default_on_failure,
    _default_retry_backoff,
    _default_schedule,
    _default_tune_cache,
    usable_cpus,
)
from repro.runtime.exceptions import FaultSpecError
from repro.runtime.faults import heartbeat_interval, heartbeat_timeout, parse_fault_spec
from repro.service.config import (
    _default_service_backend,
    _default_service_host,
    _default_service_port,
    _default_service_queue,
    _default_service_tenant_cap,
    _default_service_tune_dir,
    _default_service_workers,
)

ALL_VARS = (
    "AOMP_NUM_THREADS",
    "OMP_NUM_THREADS",
    "AOMP_BACKEND",
    "AOMP_SCHEDULE",
    "OMP_SCHEDULE",
    "AOMP_TUNE_CACHE",
    "AOMP_NESTED",
    "OMP_NESTED",
    "AOMP_MAX_ACTIVE_LEVELS",
    "OMP_MAX_ACTIVE_LEVELS",
    "AOMP_ON_FAILURE",
    "AOMP_MAX_RETRIES",
    "AOMP_RETRY_BACKOFF",
    "AOMP_BARRIER_TIMEOUT",
    "AOMP_HEARTBEAT_INTERVAL",
    "AOMP_HEARTBEAT_TIMEOUT",
    "AOMP_METRICS",
    "AOMP_METRICS_PORT",
    "AOMP_METRICS_BUCKETS",
    "AOMP_SERVICE_HOST",
    "AOMP_SERVICE_PORT",
    "AOMP_SERVICE_WORKERS",
    "AOMP_SERVICE_QUEUE",
    "AOMP_SERVICE_TENANT_CAP",
    "AOMP_SERVICE_BACKEND",
    "AOMP_SERVICE_TUNE_DIR",
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in ALL_VARS:
        monkeypatch.delenv(var, raising=False)


@dataclass(frozen=True)
class EnvVarCase:
    """One row of the parsing contract: how a variable defaults/parses/rejects."""

    var: str
    read: Callable[[], Any]
    default: Any
    valid: "tuple[tuple[str, Any], ...]"
    garbage: "tuple[str, ...]"
    #: (fallback_var, raw, expected) rows for the OMP_* spelling, if any.
    fallback: "tuple[tuple[str, str, Any], ...]" = field(default=())
    #: garbage values for the fallback spelling (error must blame *it*).
    fallback_garbage: "tuple[tuple[str, str], ...]" = field(default=())


#: the processors this process may use (its affinity mask), not the ones installed
_CPU_DEFAULT = usable_cpus()

CASES = (
    EnvVarCase(
        var="AOMP_NUM_THREADS",
        read=_default_num_threads,
        default=_CPU_DEFAULT,
        valid=(("3", 3), ("1", 1), ("64", 64)),
        garbage=("three", "0", "-2", "2.5", "4 threads"),
        fallback=(("OMP_NUM_THREADS", "5", 5),),
        fallback_garbage=(("OMP_NUM_THREADS", "junk"),),
    ),
    EnvVarCase(
        var="AOMP_NESTED",
        read=_default_nested,
        default=True,
        valid=(
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("false", False), ("No", False), ("off", False),
        ),
        garbage=("maybe", "2", "enabled"),
        fallback=(("OMP_NESTED", "false", False),),
        fallback_garbage=(("OMP_NESTED", "nope"),),
    ),
    EnvVarCase(
        var="AOMP_MAX_ACTIVE_LEVELS",
        read=_default_max_active_levels,
        default=4,
        valid=(("1", 1), ("8", 8)),
        garbage=("not-a-number", "0", "-1", "1.5"),
        fallback=(("OMP_MAX_ACTIVE_LEVELS", "3", 3),),
        fallback_garbage=(("OMP_MAX_ACTIVE_LEVELS", "deep"),),
    ),
    EnvVarCase(
        var="AOMP_ON_FAILURE",
        read=_default_on_failure,
        default="raise",
        valid=tuple((policy, policy) for policy in ON_FAILURE_POLICIES) + (("RETRY", "retry"),),
        garbage=("panic", "raise,retry"),
    ),
    EnvVarCase(
        var="AOMP_MAX_RETRIES",
        read=_default_max_retries,
        default=2,
        valid=(("0", 0), ("7", 7)),
        garbage=("many", "-1", "1.5"),
    ),
    EnvVarCase(
        var="AOMP_RETRY_BACKOFF",
        read=_default_retry_backoff,
        default=0.05,
        valid=(("0", 0.0), ("0.5", 0.5), ("2", 2.0)),
        garbage=("soon", "-0.1", "1s"),
    ),
    EnvVarCase(
        var="AOMP_BARRIER_TIMEOUT",
        read=_default_barrier_timeout,
        default=120.0,
        valid=(("300", 300.0), ("0", None), ("-1", None)),  # <= 0 disables the bound
        garbage=("junk", "2m", ""),
    ),
    EnvVarCase(
        var="AOMP_HEARTBEAT_INTERVAL",
        read=heartbeat_interval,
        default=0.25,
        valid=(("0.5", 0.5), ("2", 2.0)),
        garbage=("fast", "0", "-1"),  # a poll period must be > 0
    ),
    EnvVarCase(
        var="AOMP_HEARTBEAT_TIMEOUT",
        read=heartbeat_timeout,
        default=None,
        valid=(("2.5", 2.5), ("0", None), ("-3", None)),  # <= 0 disables explicitly
        garbage=("stale", "1 minute"),
    ),
    EnvVarCase(
        var="AOMP_METRICS",
        read=_default_metrics,
        default=False,
        valid=(
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("false", False), ("No", False), ("off", False),
        ),
        garbage=("maybe", "2", "metrics"),
    ),
    EnvVarCase(
        var="AOMP_METRICS_PORT",
        read=_default_metrics_port,
        default=None,  # unset means "no scrape endpoint"
        valid=(("0", 0), ("9464", 9464), ("65535", 65535)),
        garbage=("default", "-1", "65536", "8080http"),
    ),
    EnvVarCase(
        var="AOMP_METRICS_BUCKETS",
        read=_default_metrics_buckets,
        default=DEFAULT_METRICS_BUCKETS,
        valid=(
            ("0.001,0.01,0.1", (0.001, 0.01, 0.1)),
            ("1e-6,1e-3,1", (1e-6, 1e-3, 1.0)),
            ("0.5", (0.5,)),
        ),
        # must be increasing, positive, numeric
        garbage=("fast,slow", "0.1,0.1", "1,0.5", "0,1", "-1,1"),
    ),
    EnvVarCase(
        var="AOMP_SERVICE_HOST",
        read=_default_service_host,
        default="127.0.0.1",
        valid=(("0.0.0.0", "0.0.0.0"), ("service.internal", "service.internal")),
        garbage=(),  # free-form bind address; bind errors surface at listen
    ),
    EnvVarCase(
        var="AOMP_SERVICE_PORT",
        read=_default_service_port,
        default=0,  # 0 = ephemeral, the safe always-works default
        valid=(("0", 0), ("9465", 9465), ("65535", 65535)),
        garbage=("default", "-1", "65536", "9465tcp"),
    ),
    EnvVarCase(
        var="AOMP_SERVICE_WORKERS",
        read=_default_service_workers,
        default=max(1, min(4, _CPU_DEFAULT // 2)),
        valid=(("1", 1), ("8", 8)),
        garbage=("many", "0", "-1", "2.5"),
    ),
    EnvVarCase(
        var="AOMP_SERVICE_QUEUE",
        read=_default_service_queue,
        default=64,
        valid=(("1", 1), ("256", 256)),
        garbage=("unbounded", "0", "-1", "1.5"),
    ),
    EnvVarCase(
        var="AOMP_SERVICE_TENANT_CAP",
        read=_default_service_tenant_cap,
        default=2,
        valid=(("1", 1), ("16", 16)),
        garbage=("fair", "0", "-1"),
    ),
    EnvVarCase(
        var="AOMP_SERVICE_BACKEND",
        read=_default_service_backend,
        default="",  # empty = inherit AOMP_BACKEND; resolved loudly at use
        valid=(("threads", "threads"), ("PROCESSES", "processes")),
        garbage=(),  # deferred-but-loud, like AOMP_BACKEND itself
    ),
    EnvVarCase(
        var="AOMP_SERVICE_TUNE_DIR",
        read=_default_service_tune_dir,
        default=None,  # unset disables persistent per-tenant caches
        valid=(("/tmp/aomp-tune", "/tmp/aomp-tune"),),
        garbage=(),  # free-form path; IO errors surface at persist time
    ),
)

_IDS = [case.var for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=_IDS)
class TestEnvVarTable:
    def test_default_when_unset(self, case):
        assert case.read() == case.default

    def test_valid_values_parse(self, case, monkeypatch):
        for raw, expected in case.valid:
            monkeypatch.setenv(case.var, raw)
            assert case.read() == expected, f"{case.var}={raw!r}"

    def test_garbage_is_rejected_naming_the_variable(self, case, monkeypatch):
        for raw in case.garbage:
            if not raw:
                continue  # empty means unset, covered by the default test
            monkeypatch.setenv(case.var, raw)
            with pytest.raises(ValueError, match=re.escape(case.var)):
                case.read()
            monkeypatch.delenv(case.var)

    def test_empty_value_means_unset(self, case, monkeypatch):
        monkeypatch.setenv(case.var, "")
        assert case.read() == case.default

    def test_fallback_spelling(self, case, monkeypatch):
        for fallback_var, raw, expected in case.fallback:
            monkeypatch.setenv(fallback_var, raw)
            assert case.read() == expected
            monkeypatch.delenv(fallback_var)

    def test_fallback_garbage_blames_the_fallback_variable(self, case, monkeypatch):
        for fallback_var, raw in case.fallback_garbage:
            monkeypatch.setenv(fallback_var, raw)
            with pytest.raises(ValueError, match=re.escape(fallback_var)):
                case.read()
            monkeypatch.delenv(fallback_var)

    def test_primary_spelling_wins_over_fallback(self, case, monkeypatch):
        for fallback_var, _raw, _expected in case.fallback:
            raw, expected = case.valid[0]
            monkeypatch.setenv(case.var, raw)
            monkeypatch.setenv(fallback_var, "garbage-the-primary-must-shadow")
            assert case.read() == expected


class TestDeferredButLoudVariables:
    """Registry/loop-time validated variables still reject garbage loudly at use."""

    def test_backend_default_and_normalisation(self, monkeypatch):
        assert _default_backend() == "threads"
        monkeypatch.setenv("AOMP_BACKEND", "PROCESSES")
        assert _default_backend() == "processes"

    def test_backend_garbage_rejected_at_resolution(self):
        from repro.runtime.backend import backend_by_name

        with pytest.raises(ValueError, match="no-such-backend"):
            backend_by_name("no-such-backend")

    def test_schedule_default_and_chunk_spec(self, monkeypatch):
        from repro.runtime.scheduler import Schedule, parse_schedule_spec

        assert _default_schedule() == "static_block"
        monkeypatch.setenv("AOMP_SCHEDULE", "dynamic,4")
        schedule, chunk = parse_schedule_spec(_default_schedule())
        assert schedule is Schedule.DYNAMIC and chunk == 4

    def test_schedule_garbage_rejected_at_parse(self, monkeypatch):
        from repro.runtime.exceptions import SchedulingError
        from repro.runtime.scheduler import parse_schedule_spec

        monkeypatch.setenv("AOMP_SCHEDULE", "sometimes,maybe")
        with pytest.raises(SchedulingError):
            parse_schedule_spec(_default_schedule())

    def test_omp_schedule_fallback(self, monkeypatch):
        monkeypatch.setenv("OMP_SCHEDULE", "guided,8")
        assert _default_schedule() == "guided,8"

    def test_tune_cache_is_free_form(self, monkeypatch):
        assert _default_tune_cache() is None
        monkeypatch.setenv("AOMP_TUNE_CACHE", "/tmp/tune.json")
        assert _default_tune_cache() == "/tmp/tune.json"

    def test_faults_spec_garbage_rejected_at_parse(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("explode:everything")
        plan = parse_fault_spec("kill:member=1,region=0")
        assert plan is not None and len(plan.rules) == 1


class TestRuntimeConfigIntegration:
    def test_construction_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("AOMP_NUM_THREADS", "3")
        monkeypatch.setenv("AOMP_ON_FAILURE", "degrade")
        monkeypatch.setenv("AOMP_MAX_RETRIES", "1")
        monkeypatch.setenv("AOMP_RETRY_BACKOFF", "0.01")
        config = RuntimeConfig()
        assert config.num_threads == 3
        assert config.on_failure == "degrade"
        assert config.max_retries == 1
        assert config.retry_backoff == 0.01

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks here")
    def test_defaults_count_the_processors_the_process_may_use(self):
        """Under ``taskset``/a cpuset every default follows the mask, not the box:
        teams, pools and dispatch workers sized for processors the process
        never gets only queue behind each other."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        script = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            f"sys.path.insert(0, {src!r})\n"
            "from repro.runtime.config import RuntimeConfig, usable_cpus\n"
            "from repro.service.config import ServiceConfig\n"
            "print(usable_cpus(), RuntimeConfig().num_threads, ServiceConfig().workers)\n"
            "from repro.runtime.backend import ProcessBackend\n"
            "pool = ProcessBackend()\n"
            "if pool.prewarm(1):\n"
            "    print(len(pool.live_workers()))\n"
            "pool.shutdown()\n"
        )
        env = {key: value for key, value in os.environ.items() if key not in ALL_VARS}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() in (["1", "1", "1", "1"], ["1", "1", "1"])  # the pool needs fork

    def test_construction_fails_loudly_on_garbage(self, monkeypatch):
        monkeypatch.setenv("AOMP_RETRY_BACKOFF", "whenever")
        with pytest.raises(ValueError, match="AOMP_RETRY_BACKOFF"):
            RuntimeConfig()
