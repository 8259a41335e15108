"""``irregular_claims``: one irregular loop under every claiming schedule."""

from __future__ import annotations

from typing import Any

from bench.harness import TEAM, geomean, metric, timed
from bench.workloads.base import Workload

#: iterations of the loop; a sweep is 9 regions over it (plus 9 serial ones)
ITERATIONS = 16_000

#: ``label -> (schedule, chunk)``; ``taskloop`` is the tiled, stolen form
SCHEDULES = {"dynamic_1": ("dynamic", 1), "dynamic_16": ("dynamic", 16), "guided": ("guided", 1), "auto": ("auto", 1)}

PHASES = [(backend, label) for backend in ("threads", "processes") for label in SCHEDULES] + [("threads", "taskloop")]


class IrregularLoop:
    """``out[i] = 0 + 1 + ... + (weights[i] - 1)``: 0-15 cheap inner steps per
    iteration, all state in shared memory so the pool can run it."""

    process_safe = True

    def __init__(self, weights) -> None:
        import numpy as np

        from repro.runtime import shm

        self.weights = shm.as_shared(np.asarray(weights, dtype=np.int64))
        self.out = shm.shared_zeros(len(weights), dtype=np.int64)
        self.expected = self.weights.np * (self.weights.np - 1) // 2
        self.label, self.schedule, self.chunk = "static_block", "static_block", 1

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["expected"]  # the reference stays with the master
        return state

    def body(self, start: int, end: int, step: int) -> None:
        weights, out = self.weights.np, self.out.np
        for i in range(start, end, step):
            acc = 0
            for k in range(weights[i]):
                acc += k
            out[i] = acc

    def loop(self) -> None:
        from repro.runtime.tasks import run_taskloop
        from repro.runtime.worksharing import run_for

        total, name = len(self.out.np), f"irregular_claims.{self.label}"
        if self.label == "taskloop":
            run_taskloop(self.body, 0, total, 1, grainsize=16, loop_name=name)
        else:
            run_for(self.body, 0, total, 1, schedule=self.schedule, chunk=self.chunk, loop_name=name)


class IrregularClaims(Workload):
    name = "irregular_claims"
    why = (
        "one 16k-iteration loop with seeded 0-15-step bodies under dynamic,1 / dynamic,16 / guided / auto "
        "on threads and the pool, plus a taskloop, vs serial: claim, steal and tuner cost decide it"
    )
    baseline_name = "the same loops on the serial backend"

    def setup(self) -> None:
        from repro.runtime.backend import backend_by_name
        from repro.tune import LoopTuner, TunerConfig, set_tuner

        total = ITERATIONS // 10 if self.smoke else ITERATIONS
        self.loop = IrregularLoop([self.rng.randrange(16) for _ in range(total)])
        self.pool = backend_by_name("processes")
        with self.tracer.span("prewarm"):
            self.pool.prewarm(TEAM - 1)
        # A fresh tuner, so every run converges its auto sites from cold.
        self.tuner = LoopTuner(TunerConfig(), cache_path=None)
        self.previous_tuner = set_tuner(self.tuner)
        self.invocations_to_converge = 0
        for _ in range(4 if self.smoke else 30):
            self.invocations_to_converge += 1
            self.system()
            sites = self.tuner.sites()
            if sites and all(site.converged and not site.probation for site in sites):
                break

    def _region(self, side: str, backend: str, label: str, *, target: "str | None" = None) -> float:
        from repro.runtime.team import parallel_region

        loop = self.loop
        loop.label = label
        loop.schedule, loop.chunk = SCHEDULES.get(label, ("static_block", 1))
        loop.out.np.fill(-1)
        with self.tracer.span("parallel_region", backend=target or backend, schedule=label):
            seconds, _ = timed(
                lambda: parallel_region(loop.loop, num_threads=TEAM, backend=target or backend, name=loop.label)
            )
        self.note_phase(side, f"{backend}.{label}", seconds)
        with self.tracer.span("validate", what=label):
            self.tally.check(
                bool((loop.out.np == loop.expected).all()),
                f"irregular_claims: {label} on {target or backend} wrote a wrong array",
            )
        return seconds

    def system(self, side: str = "system") -> float:
        self.recycle_pool(self.pool, self.loop.loop, every=32)
        return sum(self._region(side, backend, label) for backend, label in PHASES)

    def baseline(self) -> float:
        return sum(self._region("baseline", backend, label, target="serial") for backend, label in PHASES)

    def observe(self, seconds: float, samples: "dict[str, list[float]]") -> "dict[str, dict[str, Any]]":
        # static_block never claims: recorded beside the claiming schedules,
        # kept out of the sweep so solve_s stays a claim-path number.
        for _ in range(2 if self.smoke else 7):
            for backend in ("threads", "processes"):
                self._region("extra", backend, "static_block")
        auto_over_fixed = [
            self.phase_median("system", f"{backend}.auto")
            / min(self.phase_median("system", f"{backend}.{label}") for label in SCHEDULES if label != "auto")
            for backend in ("threads", "processes")
        ]
        return {
            "tune.invocations_to_converge": metric(self.invocations_to_converge, "count"),
            "tune.auto_over_best_fixed": metric(geomean(auto_over_fixed), "ratio", auto_over_fixed),
        }

    def teardown(self):
        from repro.tune import set_tuner

        set_tuner(self.previous_tuner)
        self.pool.shutdown()
        self.loop.weights.close()
        self.loop.out.close()
        return ()
