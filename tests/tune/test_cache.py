"""Tune-cache persistence: schema round-trip, corruption tolerance, wiring."""

from __future__ import annotations

import json

from repro.runtime.config import RuntimeConfig, config_override
from repro.tune import (
    SCHEMA_VERSION,
    Candidate,
    LoopTuner,
    TunerConfig,
    candidates_for,
    load_cache,
    save_cache,
)

#: synthetic costs far above the default serial cutoff (~0.24 ms).
BASE_COST = 0.050


def converge(tuner: LoopTuner, costs, *, loop="loop", total=1000, team=4, limit=40):
    """Drive the tuner with ``costs(candidate)`` until converged; returns invocations."""
    for invocation in range(1, limit + 1):
        ticket = tuner.begin_invocation(loop, total, team)
        tuner.observe(ticket, costs(ticket.candidate))
        site = tuner.site(loop, total, team)
        if site.converged and not site.probation:
            return invocation
    raise AssertionError(f"no convergence within {limit} invocations")


def make_costs(best: Candidate, *, best_seconds=BASE_COST, other_seconds=2 * BASE_COST):
    def costs(candidate: Candidate) -> float:
        return best_seconds if candidate == best else other_seconds

    return costs


class TestDocumentRoundTrip:
    def test_save_then_load_preserves_entries(self, tmp_path):
        path = tmp_path / "cache.json"
        entries = {
            "loop|10|4": {"schedule": "dynamic", "chunk": 4, "serial": False, "best_seconds": 0.01},
            "tiny|7|2": {"schedule": "static_block", "chunk": 1, "serial": True, "best_seconds": None},
        }
        save_cache(path, entries)
        assert load_cache(path) == entries

    def test_document_schema(self, tmp_path):
        path = tmp_path / "cache.json"
        save_cache(path, {"loop|10|4": {"schedule": "guided", "chunk": 1, "serial": False}})
        document = json.loads(path.read_text())
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["generated_by"] == "repro.tune"
        assert set(document["sites"]) == {"loop|10|4"}

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_cache(tmp_path / "nope.json") == {}
        assert load_cache(None) == {}

    def test_corrupt_file_loads_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ not json !")
        assert load_cache(path) == {}

    def test_wrong_schema_version_loads_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"schema_version": 999, "sites": {"k": {"schedule": "dynamic"}}}))
        assert load_cache(path) == {}

    def test_malformed_entries_are_dropped(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "sites": {
                        "good|1|2": {"schedule": "dynamic"},
                        "no-schedule|1|2": {"chunk": 3},
                        "not-a-dict|1|2": 42,
                    },
                }
            )
        )
        assert set(load_cache(path)) == {"good|1|2"}


class TestTunerPersistence:
    def test_converged_site_written_and_warm_start_confirms_in_one_invocation(self, tmp_path):
        """The headline persistence property: warmed tuners converge in <= 2 invocations."""
        path = tmp_path / "cache.json"
        best = candidates_for(1000, 4)[2]

        cold = LoopTuner(TunerConfig(), cache_path=str(path))
        cold_invocations = converge(cold, make_costs(best))
        assert cold_invocations > 2  # the cold run actually had to search
        entries = load_cache(path)
        key = "loop|10|4"
        assert entries[key]["schedule"] == best.schedule.value
        assert entries[key]["chunk"] == best.chunk

        warm = LoopTuner(TunerConfig(), cache_path=str(path))
        ticket = warm.begin_invocation("loop", 1000, 4)
        assert ticket.candidate == best  # decided from the cache, invocation 1
        assert ticket.phase == "confirm"
        warm.observe(ticket, BASE_COST)
        site = warm.site("loop", 1000, 4)
        assert site.converged and not site.probation  # confirmed: 1 invocation

    def test_stale_cache_entry_is_rejected_and_reexplored(self, tmp_path):
        path = tmp_path / "cache.json"
        best = candidates_for(1000, 4)[0]
        cold = LoopTuner(TunerConfig(), cache_path=str(path))
        converge(cold, make_costs(best))

        warm = LoopTuner(TunerConfig(), cache_path=str(path))
        patience = warm.config.drift_patience
        payloads = []
        for _ in range(patience):  # the cached choice is now terrible, every time
            ticket = warm.begin_invocation("loop", 1000, 4)
            assert ticket.phase == "confirm"
            payloads.append(warm.observe(ticket, 100 * BASE_COST))
        assert [p.get("transition") for p in payloads] == [None] * (patience - 1) + ["cache-rejected"]
        assert not warm.site("loop", 1000, 4).converged

    def test_one_slow_sample_does_not_reject_a_cached_entry(self, tmp_path):
        path = tmp_path / "cache.json"
        best = candidates_for(1000, 4)[0]
        converge(LoopTuner(TunerConfig(), cache_path=str(path)), make_costs(best))

        warm = LoopTuner(TunerConfig(), cache_path=str(path))
        outlier = warm.observe(warm.begin_invocation("loop", 1000, 4), 100 * BASE_COST)
        assert "transition" not in outlier  # a loaded host, once
        site = warm.site("loop", 1000, 4)
        assert site.converged and site.probation
        ticket = warm.begin_invocation("loop", 1000, 4)
        assert ticket.candidate == best and ticket.phase == "confirm"
        assert warm.observe(ticket, BASE_COST)["transition"] == "cache-confirmed"
        assert site.converged and not site.probation and site.drift_strikes == 0

    def test_serial_decision_roundtrips(self, tmp_path):
        path = tmp_path / "cache.json"
        cold = LoopTuner(TunerConfig(), cache_path=str(path))
        ticket = cold.begin_invocation("tiny", 64, 4)
        cold.observe(ticket, 1e-6)  # far below the serial cutoff
        assert load_cache(path)["tiny|7|4"]["serial"] is True

        warm = LoopTuner(TunerConfig(), cache_path=str(path))
        assert warm.begin_invocation("tiny", 64, 4).candidate.serial

    def test_save_writes_only_an_entry_to_add_or_change(self, tmp_path):
        path = tmp_path / "cache.json"
        tuner = LoopTuner(TunerConfig(), cache_path=str(path))
        tuner.observe(tuner.begin_invocation("loop", 1000, 4), BASE_COST)  # still searching
        tuner.save()
        assert not path.exists()  # no converged site: no document at all

        converge(tuner, make_costs(candidates_for(1000, 4)[2]))
        assert set(load_cache(path)) == {"loop|10|4"}
        path.unlink()
        tuner.save()
        assert not path.exists()  # nothing changed since the last write

        ticket = tuner.begin_invocation("loop", 1000, 4)
        tuner.observe(ticket, BASE_COST / 2)  # a faster converged observation
        tuner.save()
        assert load_cache(path)["loop|10|4"]["best_seconds"] == BASE_COST / 2

    def test_cache_path_resolves_from_runtime_config(self, tmp_path):
        path = tmp_path / "from_config.json"
        with config_override(tune_cache=str(path)):
            tuner = LoopTuner(TunerConfig())
            assert tuner.cache_path == str(path)
        assert LoopTuner(TunerConfig(), cache_path=None).cache_path is None

    def test_env_variable_seeds_the_config(self, monkeypatch, tmp_path):
        monkeypatch.setenv("AOMP_TUNE_CACHE", str(tmp_path / "env.json"))
        assert RuntimeConfig().tune_cache == str(tmp_path / "env.json")
        monkeypatch.delenv("AOMP_TUNE_CACHE")
        assert RuntimeConfig().tune_cache is None

    def test_schedule_env_variable_seeds_the_config(self, monkeypatch):
        monkeypatch.setenv("AOMP_SCHEDULE", "dynamic,4")
        assert RuntimeConfig().default_schedule == "dynamic,4"
        monkeypatch.setenv("AOMP_SCHEDULE", "auto")
        assert RuntimeConfig().default_schedule == "auto"
        monkeypatch.delenv("AOMP_SCHEDULE")
        monkeypatch.delenv("OMP_SCHEDULE", raising=False)
        assert RuntimeConfig().default_schedule == "static_block"
