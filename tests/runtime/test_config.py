"""Table-driven coverage of every row of the environment contract.

Contract under test, uniformly for each variable, read through ``env(name)``:

* **default** — unset (or blank) yields the documented default;
* **valid** — a well-formed value parses to the documented Python value,
  including the ``OMP_*`` fallback spellings where one exists;
* **garbage** — a malformed value is rejected *loudly* with an error naming
  the exact variable the user set, never silently replaced by the default
  (a typo'd setting that does nothing is worse than a crash at import).

Three variables are deliberately deferred-but-loud instead of parse-at-import:
``AOMP_BACKEND`` and ``AOMP_SERVICE_BACKEND`` (validity depends on the
backend registry, which plugins may extend after import) and ``AOMP_SCHEDULE``
(validated by ``parse_schedule_spec`` at loop execution).  Their garbage
cases assert the *use-site* rejection names the valid forms.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import pytest

from repro.runtime.config import (
    DEFAULT_METRICS_BUCKETS,
    ENV_VARS,
    ON_FAILURE_POLICIES,
    RuntimeConfig,
    env,
    usable_cpus,
)

#: every name the contract reads: each row's variable and its OMP_* fallback
ALL_VARS = tuple(name for row in ENV_VARS for name in (row.name, row.fallback) if name)

#: read as words or text by the table, validated where they are used
VALIDATED_AT_USE = ("AOMP_BACKEND", "AOMP_SCHEDULE", "AOMP_SERVICE_BACKEND")

SRC = Path(__file__).resolve().parents[2] / "src"
README = Path(__file__).resolve().parents[2] / "README.md"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in ALL_VARS:
        monkeypatch.delenv(var, raising=False)


@dataclass(frozen=True)
class EnvVarCase:
    """One row of the parsing contract: how a variable defaults/parses/rejects."""

    var: str
    default: Any
    valid: "tuple[tuple[str, Any], ...]"
    garbage: "tuple[str, ...]"
    #: (fallback_var, raw, expected) rows for the OMP_* spelling, if any.
    fallback: "tuple[tuple[str, str, Any], ...]" = field(default=())
    #: garbage values for the fallback spelling (error must blame *it*).
    fallback_garbage: "tuple[tuple[str, str], ...]" = field(default=())

    def read(self) -> Any:
        return env(self.var)


#: the processors this process may use (its affinity mask), not the ones installed
_CPU_DEFAULT = usable_cpus()

CASES = (
    EnvVarCase(
        var="AOMP_NUM_THREADS",
        default=_CPU_DEFAULT,
        valid=(("3", 3), ("1", 1), ("64", 64)),
        garbage=("three", "0", "-2", "2.5", "4 threads"),
        fallback=(("OMP_NUM_THREADS", "5", 5),),
        fallback_garbage=(("OMP_NUM_THREADS", "junk"),),
    ),
    EnvVarCase(
        var="AOMP_BACKEND",
        default="threads",
        valid=(("processes", "processes"), ("PROCESSES", "processes")),
        garbage=(),  # resolved loudly at use by backend_by_name
    ),
    EnvVarCase(
        var="AOMP_SCHEDULE",
        default="static_block",
        valid=(("dynamic,4", "dynamic,4"), ("auto", "auto")),
        garbage=(),  # parsed loudly at loop execution by parse_schedule_spec
        fallback=(("OMP_SCHEDULE", "guided,8", "guided,8"),),
    ),
    EnvVarCase(
        var="AOMP_TUNE_CACHE",
        default=None,  # unset disables the persistent cache
        valid=(("/tmp/tune.json", "/tmp/tune.json"),),
        garbage=(),  # free-form path; IO errors surface at persist time
    ),
    EnvVarCase(
        var="AOMP_NESTED",
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
        default=4,
        valid=(("1", 1), ("8", 8)),
        garbage=("not-a-number", "0", "-1", "1.5"),
        fallback=(("OMP_MAX_ACTIVE_LEVELS", "3", 3),),
        fallback_garbage=(("OMP_MAX_ACTIVE_LEVELS", "deep"),),
    ),
    EnvVarCase(
        var="AOMP_ON_FAILURE",
        default="raise",
        valid=tuple((policy, policy) for policy in ON_FAILURE_POLICIES) + (("RETRY", "retry"),),
        garbage=("panic", "raise,retry"),
    ),
    EnvVarCase(
        var="AOMP_MAX_RETRIES",
        default=2,
        valid=(("0", 0), ("7", 7)),
        garbage=("many", "-1", "1.5"),
    ),
    EnvVarCase(
        var="AOMP_RETRY_BACKOFF",
        default=0.05,
        valid=(("0", 0.0), ("0.5", 0.5), ("2", 2.0)),
        garbage=("soon", "-0.1", "1s"),
    ),
    EnvVarCase(
        var="AOMP_BARRIER_TIMEOUT",
        default=120.0,
        valid=(("300", 300.0), ("0", None), ("-1", None)),  # <= 0 disables the bound
        garbage=("junk", "2m", ""),
    ),
    EnvVarCase(
        var="AOMP_HEARTBEAT_INTERVAL",
        default=0.25,
        valid=(("0.5", 0.5), ("2", 2.0)),
        garbage=("fast", "0", "-1"),  # a poll period must be > 0
    ),
    EnvVarCase(
        var="AOMP_HEARTBEAT_TIMEOUT",
        default=None,
        valid=(("2.5", 2.5), ("0", None), ("-3", None)),  # <= 0 disables explicitly
        garbage=("stale", "1 minute"),
    ),
    EnvVarCase(
        var="AOMP_METRICS",
        default=False,
        valid=(
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("false", False), ("No", False), ("off", False),
        ),
        garbage=("maybe", "2", "metrics"),
    ),
    EnvVarCase(
        var="AOMP_METRICS_PORT",
        default=None,  # unset means "no scrape endpoint"
        valid=(("0", 0), ("9464", 9464), ("65535", 65535)),
        garbage=("default", "-1", "65536", "8080http"),
    ),
    EnvVarCase(
        var="AOMP_METRICS_BUCKETS",
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
        default="127.0.0.1",
        valid=(("0.0.0.0", "0.0.0.0"), ("service.internal", "service.internal")),
        garbage=(),  # free-form bind address; bind errors surface at listen
    ),
    EnvVarCase(
        var="AOMP_SERVICE_PORT",
        default=0,  # 0 = ephemeral, the safe always-works default
        valid=(("0", 0), ("9465", 9465), ("65535", 65535)),
        garbage=("default", "-1", "65536", "9465tcp"),
    ),
    EnvVarCase(
        var="AOMP_SERVICE_WORKERS",
        default=max(1, min(4, _CPU_DEFAULT // 2)),
        valid=(("1", 1), ("8", 8)),
        garbage=("many", "0", "-1", "2.5"),
    ),
    EnvVarCase(
        var="AOMP_SERVICE_QUEUE",
        default=64,
        valid=(("1", 1), ("256", 256)),
        garbage=("unbounded", "0", "-1", "1.5"),
    ),
    EnvVarCase(
        var="AOMP_SERVICE_TENANT_CAP",
        default=2,
        valid=(("1", 1), ("16", 16)),
        garbage=("fair", "0", "-1"),
    ),
    EnvVarCase(
        var="AOMP_SERVICE_BACKEND",
        default="",  # empty = inherit AOMP_BACKEND; resolved loudly at use
        valid=(("threads", "threads"), ("PROCESSES", "processes")),
        garbage=(),  # deferred-but-loud, like AOMP_BACKEND itself
    ),
    EnvVarCase(
        var="AOMP_SERVICE_TUNE_DIR",
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
        for blank in ("", "   "):
            monkeypatch.setenv(case.var, blank)
            assert case.read() == case.default, f"{case.var}={blank!r}"

    def test_fallback_spelling(self, case, monkeypatch):
        for fallback_var, raw, expected in case.fallback:
            monkeypatch.setenv(fallback_var, raw)
            assert case.read() == expected
            monkeypatch.delenv(fallback_var)

    def test_blank_primary_does_not_hide_the_fallback(self, case, monkeypatch):
        for fallback_var, raw, expected in case.fallback:
            monkeypatch.setenv(case.var, "   ")
            monkeypatch.setenv(fallback_var, raw)
            assert case.read() == expected

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

    def test_backend_garbage_rejected_at_resolution(self):
        from repro.runtime.backend import backend_by_name

        with pytest.raises(ValueError, match="no-such-backend"):
            backend_by_name("no-such-backend")

    def test_schedule_default_and_chunk_spec(self, monkeypatch):
        from repro.runtime.scheduler import Schedule, parse_schedule_spec

        monkeypatch.setenv("AOMP_SCHEDULE", "dynamic,4")
        schedule, chunk = parse_schedule_spec(env("AOMP_SCHEDULE"))
        assert schedule is Schedule.DYNAMIC and chunk == 4

    def test_schedule_garbage_rejected_at_parse(self, monkeypatch):
        from repro.runtime.exceptions import SchedulingError
        from repro.runtime.scheduler import parse_schedule_spec

        monkeypatch.setenv("AOMP_SCHEDULE", "sometimes,maybe")
        with pytest.raises(SchedulingError):
            parse_schedule_spec(env("AOMP_SCHEDULE"))


class TestOneContract:
    """One table, one reader, and every row of it tested and documented."""

    def test_only_the_config_module_reads_the_environment(self):
        readers = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                    touched = isinstance(node.value, ast.Name) and node.value.id == "os"
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    touched = any(alias.name in ("environ", "getenv") for alias in node.names)
                else:
                    continue
                if touched:
                    readers.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert readers and all(where.startswith("repro/runtime/config.py:") for where in readers), readers

    def test_every_variable_has_a_test_row(self):
        tested = {case.var for case in CASES} | {name for case in CASES for name, *_ in case.fallback}
        assert tested | set(VALIDATED_AT_USE) == set(ALL_VARS)
        assert len(ALL_VARS) == len(set(ALL_VARS)) == 26

    def test_a_variable_the_table_does_not_list_is_ignored(self, monkeypatch):
        """``AOMP_FAULTS`` once armed fault injection; left set, it changes nothing."""
        from repro.runtime.team import parallel_region

        baseline = RuntimeConfig()
        monkeypatch.setenv("AOMP_FAULTS", "kill:member=1,region=0")
        assert "AOMP_FAULTS" not in ALL_VARS
        assert RuntimeConfig() == baseline
        with pytest.raises(KeyError):
            env("AOMP_FAULTS")
        ran = []
        parallel_region(lambda: ran.append(1), num_threads=2, name="stale-variable")
        assert ran == [1, 1]

    def test_validated_at_use_rows_accept_any_word(self, monkeypatch):
        for name in VALIDATED_AT_USE:
            monkeypatch.setenv(name, "no-such-thing")
            assert env(name) == "no-such-thing"  # the registry or parser at use rejects it

    def test_readme_table_lists_the_contract_in_order(self):
        listed = []
        for line in README.read_text().splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if line.startswith("| `") and re.fullmatch(r"`A?OMP_[A-Z_]+`", cells[0]):
                listed.append((cells[0].strip("`"), cells[1].strip("`") if cells[1] != "—" else None))
        assert listed == [(row.name, row.fallback) for row in ENV_VARS]


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
