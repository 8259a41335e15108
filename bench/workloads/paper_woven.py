"""``paper_woven``: the paper's Figure-13 question on all eight JGF kernels."""

from __future__ import annotations

import statistics
from typing import Any

from bench.harness import TEAM, geomean, metric, pair_ratios, timed
from bench.workloads.base import Workload

#: calls per kernel per sweep, so that every kernel's timed part is >= ~25 ms
#: at size ``small`` and no ratio rests on a 4 ms measurement
REPEATS = {"Crypt": 2, "SOR": 4, "Sparse": 6}


class PaperWoven(Workload):
    name = "paper_woven"
    why = (
        "all 8 JGF kernels, threads: woven run_aomp (construct+weave+run+unweave) vs hand-threaded "
        "run_threaded; weaver, worksharing, barrier, single/master, critical, thread-local do the work"
    )
    baseline_name = "hand-written JGF-MT run_threaded, geometric mean over the 8 kernels"
    serial_baseline = False

    def setup(self) -> None:
        from repro.jgf import BENCHMARKS

        self.size = "tiny" if self.smoke else "small"
        self.kernels = list(BENCHMARKS.items())
        self.rng.shuffle(self.kernels)  # the seed fixes the order the kernels run in
        self.reference = {name: module.run_sequential(self.size).value for name, module in self.kernels}
        self.system()

    def _sweep(self, side: str, driver: str) -> float:
        total = 0.0
        for name, module in self.kernels:
            run = getattr(module, driver)
            seconds = 0.0
            for _ in range(1 if self.smoke else REPEATS.get(name, 1)):
                with self.tracer.span(driver, kernel=name):
                    once, result = timed(lambda: run(self.size, TEAM))
                seconds += once
                self.validate(result.value, self.reference[name], f"{name} {driver}")
            self.note_phase(side, f"threads.{name}", seconds)
            total += seconds
        return total

    def system(self, side: str = "system") -> float:
        return self._sweep(side, "run_aomp")

    def baseline(self) -> float:
        return self._sweep("baseline", "run_threaded")

    def speedup(self, samples: "dict[str, list[float]]") -> "dict[str, Any]":
        # Per kernel the median of its per-round ratios, then the geometric
        # mean over the kernels: every kernel weighs the same.  The spread
        # shown with it is that of the per-round geometric means.
        per_kernel = [
            pair_ratios(self.phases["baseline"][phase], self.phases["system"][phase])
            for phase in self.phases["baseline"]
        ]
        per_round = [geomean(ratios) for ratios in zip(*per_kernel)]
        return metric(geomean(statistics.median(ratios) for ratios in per_kernel), "ratio", per_round)

    def body_seconds(self, layer: "dict[str, dict[str, Any]]") -> float:
        # The baseline is itself threaded; the body is the sequential kernel.
        repeats = 1 if self.smoke else None
        return sum(layer[f"jgf.body_s.{name}"]["value"] * (repeats or REPEATS.get(name, 1)) for name, _module in self.kernels)

    def observe(self, seconds: float, samples: "dict[str, list[float]]") -> "dict[str, dict[str, Any]]":
        # The paper's orientation (woven / hand-written, lower is better), per
        # kernel from the medians, then the geometric mean.
        ratios = [
            statistics.median(self.phases["system"][phase]) / statistics.median(self.phases["baseline"][phase])
            for phase in self.phases["baseline"]
        ]
        return {"woven_over_handwritten": metric(geomean(ratios), "ratio", ratios)}
