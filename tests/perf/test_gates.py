"""Performance invariants stated as ratios or bounds, not as a host's speed.

Marked ``perfgate`` and left out of tier-1 (``pytest.ini``): they time real
work, so run them on a quiet machine with ``python -m pytest -q -m perfgate``.

* Enabled metrics add at most :data:`METRICS_BOUND` per dispatched chunk
  (plus :data:`SMOKE_FLOOR`, what a timing of thousands of chunks resolves).
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

import repro.obs.registry as obsreg
from repro.runtime import context as ctx
from repro.runtime import dataplane
from repro.runtime.config import config_override
from repro.runtime.team import Team, parallel_region
from repro.runtime.worksharing import run_for
from repro.tune import LoopTuner, TunerConfig, candidates_for, tuner_override

pytestmark = pytest.mark.perfgate

#: seconds enabled metrics may add to one dispatched chunk ...
METRICS_BOUND = 1e-6
#: ... above what a timing of :data:`CHUNKS_PER_SAMPLE` chunks resolves (ten
#: repetitions on a 2-vCPU host read at most 0.65 us under ``static_block``,
#: whose member 0 dispatches one chunk per loop, and 0.3 us elsewhere).
SMOKE_FLOOR = 1e-6


def best_of(repeats: int, measure) -> float:
    return min(measure() for _ in range(repeats))


# -- enabled metrics ------------------------------------------------------------

#: chunks each timed sample dispatches: at least this many, whatever the
#: schedule hands member 0 per loop (one under ``static_block``, 200 under
#: ``static_cyclic``, 400 under ``dynamic``, 10 under ``guided``).
CHUNKS_PER_SAMPLE = 4000


def loop_seconds(schedule: str, loops: int, iterations: int = 400) -> float:
    """Wall time of ``loops`` work-shared loops of an empty body.

    They run as member 0 of a 2-member team on the calling thread with
    ``nowait``: member 0 claims deterministically, free of thread noise.
    """
    ctx.push_context(ctx.ExecutionContext(team=Team(2, name="perfgate"), thread_id=0, nesting_level=0))
    try:
        start = time.perf_counter()
        for _ in range(loops):
            run_for(lambda start, end, step: None, 0, iterations, 1, schedule=schedule, chunk=1, nowait=True)
        return time.perf_counter() - start
    finally:
        ctx.pop_context()


def chunks_per_loop(schedule: str) -> int:
    """Scheduling chunks one such loop dispatches, as the chunk counter counts them."""
    obsreg.reset()
    with config_override(tracing=False, metrics=True):
        loop_seconds(schedule, 1)
    return sum(obsreg.get_registry().snapshot()["counters"]["aomp_chunks_total"].values())


def metrics_seconds_per_chunk(schedule: str, pairs: int = 5) -> float:
    """What enabled metrics add to one dispatched chunk: the best sample with
    metrics on less the best with them off, over ``pairs`` back-to-back
    pairs, each sample at least :data:`CHUNKS_PER_SAMPLE` chunks."""
    per_loop = chunks_per_loop(schedule)
    loops = -(-CHUNKS_PER_SAMPLE // per_loop)
    off = on = float("inf")
    for _ in range(pairs):
        with config_override(tracing=False, metrics=False):
            off = min(off, loop_seconds(schedule, loops))
        with config_override(tracing=False, metrics=True):
            on = min(on, loop_seconds(schedule, loops))
    return max(0.0, on - off) / (loops * per_loop)


@pytest.mark.parametrize("schedule", ["static_block", "static_cyclic", "dynamic", "guided"])
def test_enabled_metrics_add_at_most_a_microsecond_per_chunk(schedule):
    added = metrics_seconds_per_chunk(schedule)
    assert added <= METRICS_BOUND + SMOKE_FLOOR, f"{schedule}: metrics add {added * 1e6:.2f} us per chunk"


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
