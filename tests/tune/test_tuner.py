"""Convergence properties of the adaptive tuner (synthetic observations).

These tests drive :class:`repro.tune.LoopTuner` directly — decide, then feed
a deterministic synthetic wall time per candidate — so convergence bounds are
exact and independent of machine noise.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.scheduler import Schedule
from repro.tune import Candidate, LoopTuner, TunerConfig, candidates_for, trip_bucket

#: synthetic costs far above the default serial cutoff (~0.24 ms).
BASE_COST = 0.050


def converge(tuner: LoopTuner, costs, *, loop="loop", total=1000, team=4, limit=40):
    """Drive the tuner with ``costs[candidate]`` until converged; returns invocations."""
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


class TestStationaryConvergence:
    def test_converges_within_samples_times_candidates(self):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        candidates = candidates_for(1000, 4)
        best = candidates[1]
        invocations = converge(tuner, make_costs(best))
        site = tuner.site("loop", 1000, 4)
        assert site.choice == best
        assert invocations <= TunerConfig().samples_per_candidate * len(candidates) + 1

    def test_converged_site_keeps_returning_the_choice(self):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        best = candidates_for(1000, 4)[2]
        converge(tuner, make_costs(best))
        for _ in range(5):
            ticket = tuner.begin_invocation("loop", 1000, 4)
            assert ticket.candidate == best
            assert ticket.phase == "converged"
            tuner.observe(ticket, BASE_COST)

    def test_payload_reports_decision_and_convergence(self):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        ticket = tuner.begin_invocation("loop", 1000, 4)
        payload = tuner.observe(ticket, BASE_COST)
        assert payload["loop"] == "loop"
        assert payload["schedule"] == ticket.candidate.schedule.value
        assert payload["invocation"] == 1
        assert payload["elapsed"] == pytest.approx(BASE_COST)

    @settings(max_examples=25, deadline=None)
    @given(
        costs_ms=st.lists(
            st.integers(min_value=10, max_value=1000), min_size=5, max_size=5, unique=True
        )
    )
    def test_property_converges_to_the_cheapest_candidate(self, costs_ms):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        candidates = candidates_for(1000, 4)
        table = {c: ms / 1000.0 for c, ms in zip(candidates, costs_ms)}
        converge(tuner, lambda c: table[c])
        site = tuner.site("loop", 1000, 4)
        assert table[site.choice] == min(table.values())


class TestRegimeChanges:
    def test_trip_count_regime_change_reexplores(self):
        """A converged loop re-enters exploration when its trip count jumps buckets."""
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        best = candidates_for(1000, 4)[0]
        converge(tuner, make_costs(best), total=1000)
        assert trip_bucket(1_000_000) != trip_bucket(1000)

        ticket = tuner.begin_invocation("loop", 1_000_000, 4)
        new_site = tuner.site("loop", 1_000_000, 4)
        assert not new_site.converged  # fresh exploration for the new regime
        assert ticket.phase in ("probe", "explore")
        # ... while the old regime's site stays converged.
        assert tuner.site("loop", 1000, 4).converged

    def test_same_bucket_totals_share_a_site(self):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        assert tuner.site("loop", 1000, 4) is tuner.site("loop", 1023, 4)
        assert tuner.site("loop", 1000, 4) is not tuner.site("loop", 1024, 4)

    def test_cost_drift_reexplores_after_patience(self):
        """A converged site whose choice got slow re-explores and re-converges."""
        config = TunerConfig(drift_floor_seconds=1e-4)
        tuner = LoopTuner(config, cache_path=None)
        candidates = candidates_for(1000, 4)
        first_best, second_best = candidates[0], candidates[3]
        converge(tuner, make_costs(first_best))

        # The workload changes shape: the old choice becomes 10x slower.
        for _ in range(config.drift_patience):
            ticket = tuner.begin_invocation("loop", 1000, 4)
            assert ticket.candidate == first_best
            payload = tuner.observe(ticket, 10 * BASE_COST)
        assert payload["transition"] == "re-explore"
        site = tuner.site("loop", 1000, 4)
        assert not site.converged
        assert site.reexplorations == 1

        converge(tuner, make_costs(second_best))
        assert tuner.site("loop", 1000, 4).choice == second_best

    def test_noise_below_drift_floor_does_not_reexplore(self):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        best = candidates_for(1000, 4)[0]
        costs = make_costs(best, best_seconds=1e-5, other_seconds=2e-5)  # microsecond loop
        # Microsecond-scale "loops" would trip a pure ratio test on jitter;
        # the absolute floor keeps them converged.  Serial cutoff must not
        # trigger first, so disable it.
        tuner.config.serial_margin = 0.0
        converge(tuner, costs)
        for _ in range(10):
            ticket = tuner.begin_invocation("loop", 1000, 4)
            tuner.observe(ticket, 10e-5)  # 10x ratio, microseconds absolute
        assert tuner.site("loop", 1000, 4).converged


class TestSerialFallback:
    def test_tiny_loop_routes_to_serial(self):
        """A probe faster than the serial cutoff converges to the serial fallback."""
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        cutoff = TunerConfig().serial_cutoff()
        ticket = tuner.begin_invocation("tiny", 64, 4)
        assert ticket.phase == "probe"
        payload = tuner.observe(ticket, cutoff / 2)
        assert payload["transition"] == "serial"
        site = tuner.site("tiny", 64, 4)
        assert site.converged and site.choice.serial

        follow_up = tuner.begin_invocation("tiny", 64, 4)
        assert follow_up.candidate.serial
        assert follow_up.phase == "serial"

    def test_cost_model_spinup_drives_the_cutoff(self):
        from repro.perf.cost import CostModel

        expensive_spinup = TunerConfig(cost_model=CostModel(team_spinup_seconds=0.05))
        assert expensive_spinup.serial_cutoff() == pytest.approx(0.05 * expensive_spinup.serial_margin)
        default = TunerConfig()
        assert default.serial_cutoff() < expensive_spinup.serial_cutoff()

    def test_big_loop_does_not_serialize(self):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        ticket = tuner.begin_invocation("big", 10_000, 4)
        payload = tuner.observe(ticket, 1.0)
        assert payload.get("transition") is None
        assert not tuner.site("big", 10_000, 4).converged


class TestEncoding:
    @pytest.mark.parametrize(
        "candidate",
        [
            Candidate(Schedule.STATIC_BLOCK),
            Candidate(Schedule.STATIC_CYCLIC, 7),
            Candidate(Schedule.DYNAMIC, 32),
            Candidate(Schedule.GUIDED, 2),
            Candidate(Schedule.STATIC_BLOCK, 1, serial=True),
        ],
    )
    def test_shm_plan_roundtrip(self, candidate):
        assert Candidate.decode(*candidate.encode()) == candidate


class TestBackendKeyedSites:
    """Sites are keyed per execution backend, with spinup-scaled cutoffs."""

    def test_cache_key_separates_backends_and_keeps_legacy_format(self):
        from repro.tune.tuner import SiteKey

        legacy = SiteKey("loop", 10, 4)
        assert legacy.cache_key() == "loop|10|4"  # pre-backend caches stay valid
        threads = SiteKey("loop", 10, 4, "threads")
        distributed = SiteKey("loop", 10, 4, "distributed")
        assert threads.cache_key() == "loop|10|4|threads"
        assert threads.cache_key() != distributed.cache_key()

    def test_sites_are_independent_per_backend(self):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        threads_site = tuner.site("loop", 1000, 4, backend="threads")
        distributed_site = tuner.site("loop", 1000, 4, backend="distributed")
        legacy_site = tuner.site("loop", 1000, 4)
        assert len({id(threads_site), id(distributed_site), id(legacy_site)}) == 3
        # A decision learned on one backend never leaks into another's site.
        converge(tuner, make_costs(candidates_for(1000, 4)[0]), loop="loop")
        assert not tuner.site("loop", 1000, 4, backend="threads").converged

    def test_spinup_scale_raises_the_serial_cutoff(self):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        cheap = tuner.site("cheap", 1000, 4, backend="threads", spinup_scale=1.0)
        costly = tuner.site("costly", 1000, 4, backend="distributed", spinup_scale=6.0)
        assert costly._serial_cutoff == pytest.approx(cheap._serial_cutoff * 6.0)

    def test_scale_below_one_never_lowers_the_cutoff(self):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        base = tuner.site("base", 1000, 4)
        clamped = tuner.site("clamped", 1000, 4, spinup_scale=0.25)
        assert clamped._serial_cutoff == pytest.approx(base._serial_cutoff)

    def test_spinup_scale_flips_the_serialise_decision(self):
        """One wall time, two backends: serial where teams are expensive."""
        cutoff = TunerConfig().serial_cutoff()
        elapsed = cutoff * 3  # above the plain cutoff, below the 6x-scaled one
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        ticket = tuner.begin_invocation("flip", 1000, 4, backend="threads", spinup_scale=1.0)
        tuner.observe(ticket, elapsed)
        assert not tuner.site("flip", 1000, 4, backend="threads").converged
        ticket = tuner.begin_invocation("flip", 1000, 4, backend="distributed", spinup_scale=6.0)
        tuner.observe(ticket, elapsed)
        site = tuner.site("flip", 1000, 4, backend="distributed")
        assert site.converged and site.choice.serial


class TestBalancedVerdict:
    """Member times on the static probes decide whether the site searches at all."""

    @staticmethod
    def drive(tuner, member_times, *, limit=40, total=1000, team=4):
        """Converge with every probe reporting ``member_times``; returns the payloads."""
        payloads = []
        costs = make_costs(candidates_for(total, team)[2])
        for _ in range(limit):
            ticket = tuner.begin_invocation("loop", total, team)
            times = member_times if ticket.report else None
            payloads.append(tuner.observe(ticket, costs(ticket.candidate), times))
            if tuner.site("loop", total, team).converged:
                return payloads
        raise AssertionError(f"no convergence within {limit} invocations")

    def test_balanced_probes_commit_static_block_on_the_second_invocation(self):
        from repro.tune.tuner import BALANCED_IMBALANCE, imbalance

        times = [0.010, 0.0101, 0.0098, 0.0102]
        assert imbalance(times) < BALANCED_IMBALANCE
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        payloads = self.drive(tuner, times)
        assert len(payloads) == 2
        assert [p["schedule"] for p in payloads] == ["static_block", "static_block"]
        assert payloads[-1]["transition"] == "balanced"
        assert payloads[-1]["imbalance"] == pytest.approx(imbalance(times))
        site = tuner.site("loop", 1000, 4)
        assert site.choice == Candidate(Schedule.STATIC_BLOCK) and not site.probation
        assert site.best_seconds == 2 * BASE_COST  # the static samples' minimum

    def test_imbalanced_probes_search_every_candidate_as_before(self):
        from repro.tune.tuner import BALANCED_IMBALANCE, imbalance

        times = [0.040, 0.030, 0.020, 0.010]  # the triangular shape: 0.375
        assert imbalance(times) >= BALANCED_IMBALANCE
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        payloads = self.drive(tuner, times)
        candidates = candidates_for(1000, 4)
        assert len(payloads) == TunerConfig().samples_per_candidate * len(candidates)
        assert [p["schedule"] for p in payloads[:2]] == ["static_block", "static_block"]
        assert payloads[-1]["transition"] == "converged"
        assert tuner.site("loop", 1000, 4).choice == candidates[2]

    def test_one_balanced_probe_is_enough_when_the_other_is_not(self):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        first = tuner.begin_invocation("loop", 1000, 4)
        tuner.observe(first, BASE_COST, [0.04, 0.01, 0.01, 0.01])  # a noisy probe
        second = tuner.begin_invocation("loop", 1000, 4)
        assert second.phase == "probe" and second.candidate == first.candidate
        payload = tuner.observe(second, BASE_COST, [0.01, 0.01, 0.01, 0.01])
        assert payload["transition"] == "balanced"

    def test_absent_member_times_keep_todays_search_order(self):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        candidates = candidates_for(1000, 4)
        seen = []
        for _ in range(len(candidates)):
            ticket = tuner.begin_invocation("loop", 1000, 4)
            seen.append(ticket.candidate)
            payload = tuner.observe(ticket, BASE_COST)
            assert "imbalance" not in payload
        assert seen == list(candidates)  # probe, then every other candidate once
        assert tuner.site("loop", 1000, 4).imbalances == []

    def test_only_a_probe_asks_for_member_times(self):
        tuner = LoopTuner(TunerConfig(), cache_path=None)
        payloads = self.drive(tuner, [0.01] * 4)
        assert payloads[-1]["transition"] == "balanced"
        ticket = tuner.begin_invocation("loop", 1000, 4)
        assert ticket.phase == "converged" and not ticket.report

    def test_member_seconds_counts_cpu_only_for_a_cpu_bound_share(self, monkeypatch):
        from repro.tune import tuner

        def reading(wall, cpu, waited):
            monkeypatch.setattr(tuner, "share_clock", lambda: (wall, cpu, waited))
            return tuner.member_seconds((0.0, 0.0, 0.0))

        assert reading(0.010, 0.009, 0.0) == 0.009  # computing
        assert reading(0.020, 0.009, 0.0) == 0.009  # computing, a GIL hand-off in its wall
        assert reading(0.030, 0.004, 0.020) == 0.004  # computing on a loaded host
        assert reading(0.010, 0.0002, 0.0) == 0.010  # sleeping: only the wall sees it
        assert reading(0.030, 0.0002, 0.020) == pytest.approx(0.010)  # ... less its run-queue wait

    def test_reexploration_forgets_the_old_imbalances(self):
        tuner = LoopTuner(TunerConfig(drift_patience=1), cache_path=None)
        self.drive(tuner, [0.01] * 4)
        site = tuner.site("loop", 1000, 4)
        ticket = tuner.begin_invocation("loop", 1000, 4)
        assert tuner.observe(ticket, 100 * BASE_COST)["transition"] == "re-explore"
        assert site.imbalances == []
        assert tuner.begin_invocation("loop", 1000, 4).report
