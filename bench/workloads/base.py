"""What every workload provides to the driver in ``bench/run.py``."""

from __future__ import annotations

import random
import statistics
from typing import Any, Callable, Sequence

from bench.harness import TEAM, Tally, Tracer, median_metric, pair_ratios


class Workload:
    """One set of inputs the benchmark runs.

    A workload has two sides that the driver interleaves: ``system`` (the
    thing measured) and ``baseline`` (what ``speedup_vs_baseline`` is
    relative to).  Each side runs one *sweep*, validates every result it
    produced against the sequential reference, and returns the seconds its
    timed part took.  ``--seed`` reaches the workload only through
    :attr:`rng`; the program under test sees the generated inputs alone.
    """

    name = ""
    #: one line, copied into BENCHMARK.json
    why = ""
    #: what ``speedup_vs_baseline`` is relative to on this workload
    baseline_name = ""
    #: the backends whose members run truly in parallel (own interpreter
    #: each); the body-share estimate divides their body time by the team size
    parallel_backends = frozenset({"processes", "distributed"})
    #: a sweep's wall is the time to a solution (false for the service, where
    #: a sweep is a window of fixed length and a request is the unit)
    sweep_is_solve = True
    #: the baseline is one serial run of the same work, so the gated ratio
    #: is also the (ungated, issue-named) ``speedup_vs_serial``
    serial_baseline = True

    def __init__(self, seed: int, tracer: Tracer, tally: Tally, *, smoke: bool = False) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.tally = tally
        self.smoke = smoke
        #: per-phase walls of every sweep, ``side -> phase -> [seconds]``; a
        #: phase is named ``<backend>.<what>`` so the layer report can price it
        self.phases: "dict[str, dict[str, list[float]]]" = {}
        #: regions one sweep enters in each phase (x the probed region cost =
        #: the spawn share of the layer report)
        self.phase_regions: "dict[str, int]" = {}
        self._pool_sweeps = 0

    # -- the driver's surface -------------------------------------------------

    def setup(self) -> None:
        """Imports, generated inputs, shared arrays, warm pools, one warm-up
        sweep of the system side: everything before the first timed sweep."""
        raise NotImplementedError

    def system(self, side: str = "system") -> float:
        """One sweep of the measured side; a traced sweep is filed under
        ``side="traced"`` so it never mixes with the untraced samples."""
        raise NotImplementedError

    def baseline(self) -> float:
        raise NotImplementedError

    def speedup(self, samples: "dict[str, list[float]]") -> "dict[str, Any]":
        """``speedup_vs_baseline``: the median of the per-round ``baseline /
        system`` ratios (adjacent sweeps share the host's speed of the moment)."""
        return median_metric(pair_ratios(samples["baseline"], samples["system"]), "ratio")

    def extra_sides(self) -> "dict[str, Callable[[], float]]":
        """Further sides a ``--trace 1`` run interleaves (ungated numbers only)."""
        return {}

    def observe(self, seconds: float, samples: "dict[str, list[float]]") -> "dict[str, dict[str, Any]]":
        """Extra phases of a ``--trace 1`` run; returns per-layer metrics."""
        return {}

    def teardown(self) -> Sequence[Any]:
        """Stop what setup started; returns pool workers still alive."""
        return ()

    # -- helpers --------------------------------------------------------------

    def note_phase(self, side: str, phase: str, seconds: float, regions: int = 1) -> None:
        self.phases.setdefault(side, {}).setdefault(phase, []).append(seconds)
        self.phase_regions[phase] = regions

    def solve_samples(self, samples: "dict[str, list[float]]", side: str) -> "list[float]":
        """Times to a solution on ``side`` (``system`` or ``traced``)."""
        return samples.get(side, [])

    def body_seconds(self, layer: "dict[str, dict[str, Any]]") -> float:
        """The loop bodies' part of one system sweep, estimated from the
        baseline: a phase's serial time, divided by the team where the
        members really run side by side."""
        return sum(
            self.phase_median("baseline", phase) / (TEAM if phase.split(".")[0] in self.parallel_backends else 1)
            for phase in self.phases.get("baseline", {})
        )

    def phase_median(self, side: str, phase: str) -> float:
        samples = self.phases.get(side, {}).get(phase)
        return statistics.median(samples) if samples else 0.0

    def recycle_pool(self, pool: Any, warm_body: Any, *, every: int) -> None:
        """Restart the warm process pool every ``every`` system sweeps, untimed.

        A pooled region leaks the worker's mapping (and descriptor) of every
        shared array its body holds (bench/KNOWN_FAILURES.md #2), so a
        workload that sends hundreds of regions per sweep would run its
        worker out of descriptors within one run.  One warm-up region
        follows, so no timed region meets a cold pool.
        """
        from repro.runtime.team import parallel_region

        self._pool_sweeps += 1
        if self._pool_sweeps % every == 0:
            pool.shutdown()
            pool.prewarm(TEAM - 1)
            parallel_region(warm_body, num_threads=TEAM, backend=pool, name="bench-rewarm")

    def validate(self, value: Any, reference: Any, what: str) -> None:
        from repro.jgf.common import values_match

        with self.tracer.span("validate", what=what):
            self.tally.check(values_match(value, reference, 1e-8), f"{self.name}: {what} differs from its reference")
