"""Performance invariants stated as ratios or bounds, not as a host's speed.

Marked ``perfgate`` and left out of tier-1 (``pytest.ini``): they time real
work, so run them on a quiet machine with ``python -m pytest -q -m perfgate``.

* Enabled metrics add at most :data:`METRICS_BOUND` per dispatched chunk
  (plus :data:`SMOKE_FLOOR`, what one smoke-sized timing resolves).
* A batched socket-plane claim costs less per chunk than one proxy
  ``fetch_add`` round trip: the amortisation distributed dynamic/guided
  loops are built on.
* ``schedule="auto"`` on three seeded sleep loops (sleeps release the GIL,
  so imbalance shows in wall time on one core): within 10% of the best
  static schedule on the uniform and triangular loops, at least 1.5x faster
  than the worst on the random one, and a tuner warmed from its cache file
  converges within 2 invocations.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.runtime import context as ctx
from repro.runtime import dataplane
from repro.runtime.config import config_override
from repro.runtime.scheduler import make_scheduler, oracle_chunks
from repro.runtime.team import Team, parallel_region
from repro.runtime.worksharing import run_for
from repro.tune import LoopTuner, TunerConfig, candidates_for, tuner_override

pytestmark = pytest.mark.perfgate

#: seconds enabled metrics may add to one dispatched chunk ...
METRICS_BOUND = 1e-6
#: ... above what one smoke-sized timing can resolve at all.
SMOKE_FLOOR = 50e-6


def best_of(repeats: int, measure) -> float:
    return min(measure() for _ in range(repeats))


# -- enabled metrics ------------------------------------------------------------


def dispatch_seconds_per_chunk(schedule: str, iterations: int = 400) -> float:
    """What ``run_for`` adds per scheduling chunk over calling the body directly.

    It runs as member 0 of a 2-member team on the calling thread with
    ``nowait``: member 0 claims deterministically, free of thread noise.
    """
    calls = []

    def body(start: int, end: int, step: int) -> None:
        calls.append(start)

    ctx.push_context(ctx.ExecutionContext(team=Team(2, name="perfgate"), thread_id=0, nesting_level=0))
    try:
        start = time.perf_counter()
        run_for(body, 0, iterations, 1, schedule=schedule, chunk=1, nowait=True)
        elapsed = time.perf_counter() - start
    finally:
        ctx.pop_context()
    start = time.perf_counter()
    for i in range(len(calls)):  # the same number of body calls, made directly
        body(i, i + 1, 1)
    baseline = time.perf_counter() - start
    chunks = sum(1 for _ in oracle_chunks(make_scheduler(schedule, 1), 0, 2, 0, iterations, 1))
    return max(0.0, (elapsed - baseline) / chunks)


@pytest.mark.parametrize("schedule", ["static_block", "static_cyclic", "dynamic", "guided"])
def test_enabled_metrics_add_at_most_a_microsecond_per_chunk(schedule):
    added = float("inf")
    for _ in range(3):  # back-to-back pairs; the least noisy pair is the cost
        with config_override(tracing=False, metrics=False):
            off = dispatch_seconds_per_chunk(schedule)
        with config_override(tracing=False, metrics=True):
            on = dispatch_seconds_per_chunk(schedule)
        added = min(added, max(0.0, on - off))
    assert added <= METRICS_BOUND + SMOKE_FLOOR, f"{schedule}: metrics add {added * 1e6:.1f} us per chunk"


# -- socket-plane amortisation --------------------------------------------------


def test_a_batched_claim_costs_less_per_chunk_than_one_proxy_round_trip():
    reps, batch = 200, 8
    coordinator = dataplane.Coordinator(2)
    coordinator.start()
    session = dataplane.WorkerSession(
        dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, 1, install_hook=False
    )
    try:
        arena = dataplane.RemoteArena(session, "arena")
        counter, claims = arena.slot(0), arena.slot(1)

        def per_call(call) -> float:
            start = time.perf_counter()
            for _ in range(reps):
                call()
            return (time.perf_counter() - start) / reps

        round_trip = best_of(3, lambda: per_call(lambda: counter.fetch_add(1)))
        per_chunk = best_of(3, lambda: per_call(lambda: claims.claim_batch(batch, 2, reps * batch * 4))) / batch
    finally:
        session.close()
        coordinator.shutdown()
    assert per_chunk < round_trip, f"{per_chunk * 1e6:.1f} us per batched chunk vs {round_trip * 1e6:.1f} us a claim"


# -- adaptive scheduling --------------------------------------------------------

THREADS, ITERATIONS, SLEEP_SECONDS, REPEATS, MAX_INVOCATIONS = 4, 64, 0.045, 2, 30
#: the ``random`` loop's seed: its contiguous block partition is adversarial
#: (~1.9x the ideal share) while no single iteration dominates.
RANDOM_SEED = 174


def sleep_loop(kind: str):
    if kind == "random":
        rng = random.Random(RANDOM_SEED)
        weights = [rng.random() ** 4 * 16 + 0.2 for _ in range(ITERATIONS)]
    else:
        weights = [1.0 if kind == "uniform" else float(ITERATIONS - i) for i in range(ITERATIONS)]
    scale = SLEEP_SECONDS / sum(weights)

    def loop(start: int, end: int, step: int) -> None:
        for i in range(start, end, step):
            time.sleep(weights[i] * scale)

    return loop


def region_seconds(loop, name: str, schedule, chunk: int = 1) -> float:
    start = time.perf_counter()
    parallel_region(
        lambda: run_for(loop, 0, ITERATIONS, 1, schedule=schedule, chunk=chunk, loop_name=name),
        num_threads=THREADS,
        backend="threads",
    )
    return time.perf_counter() - start


def converge(tuner: LoopTuner, loop, name: str) -> int:
    """Invocations of ``schedule="auto"`` until the site leaves exploration."""
    with tuner_override(tuner):
        for invocation in range(1, MAX_INVOCATIONS + 1):
            region_seconds(loop, name, "auto")
            sites = tuner.sites()
            if sites and sites[0].converged and not sites[0].probation:
                return invocation
    return MAX_INVOCATIONS


def auto_against_static(kind: str) -> "tuple[float, float, float]":
    """(converged auto, best static, worst static) seconds of one region."""
    loop, name = sleep_loop(kind), f"perfgate.{kind}"
    static = [
        best_of(REPEATS, lambda: region_seconds(loop, name, c.schedule, c.chunk))
        for c in candidates_for(ITERATIONS, THREADS)
        if not c.serial
    ]
    tuner = LoopTuner(TunerConfig(), cache_path=None)
    converge(tuner, loop, name)
    with tuner_override(tuner):
        auto = best_of(REPEATS, lambda: region_seconds(loop, name, "auto"))
    return auto, min(static), max(static)


def test_auto_meets_its_targets_on_seeded_sleep_loops(tmp_path):
    with config_override(tracing=False, num_threads=THREADS):
        timings = {kind: auto_against_static(kind) for kind in ("uniform", "triangular", "random")}
        cache, loop = str(tmp_path / "tune.json"), sleep_loop("uniform")
        converge(LoopTuner(TunerConfig(), cache_path=cache), loop, "perfgate.cache")
        warm = converge(LoopTuner(TunerConfig(), cache_path=cache), loop, "perfgate.cache")
    targets = {
        "uniform_within_10pct": timings["uniform"][0] <= 1.10 * timings["uniform"][1],
        "triangular_within_10pct": timings["triangular"][0] <= 1.10 * timings["triangular"][1],
        "random_target_met": timings["random"][2] >= 1.5 * timings["random"][0],
        "cache_warm_within_2_invocations": warm <= 2,
    }
    report = {kind: "auto %.1f, best %.1f, worst %.1f ms" % tuple(s * 1e3 for s in t) for kind, t in timings.items()}
    assert all(targets.values()), f"missed: {[n for n, ok in targets.items() if not ok]}; {report}; warm {warm}"
