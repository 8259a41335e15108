"""``jgf_coarse``: two body-dominated JGF kernels on the warm process pool."""

from __future__ import annotations

from bench.harness import TEAM, timed
from bench.workloads.base import Workload


class JgfCoarse(Workload):
    name = "jgf_coarse"
    why = (
        "Series+Crypt python bodies on 2 pooled processes vs sequential: body-dominated, so runtime, "
        "service and weaver changes must show no change here; a kernel change shows"
    )
    baseline_name = "run_sequential of the same problems"

    def setup(self) -> None:
        from repro.jgf.crypt import parallel as crypt
        from repro.jgf.series import parallel as series
        from repro.runtime.backend import backend_by_name

        # The seed picks the problem sizes inside a narrow band and the order
        # the kernels run in; the work stays within a few percent of Series
        # 256 + Crypt 16 KiB so a sweep pair fits ~20 times into a run.
        scale = 8 if self.smoke else 1
        self.problems = [
            ("Series", series, self.rng.randrange(248, 265) // scale),
            ("Crypt", crypt, 8 * (self.rng.randrange(1984, 2113) // scale)),
        ]
        self.rng.shuffle(self.problems)
        self.backend = backend_by_name("processes")
        with self.tracer.span("prewarm"):
            self.backend.prewarm(TEAM - 1)
        self.reference = {name: module.run_sequential(size).value for name, module, size in self.problems}
        self.system()

    def system(self, side: str = "system") -> float:
        total = 0.0
        for name, module, size in self.problems:
            with self.tracer.span("run_backend", kernel=name, backend="processes"):
                seconds, result = timed(lambda: module.run_backend(size, num_threads=TEAM, backend=self.backend))
            self.note_phase(side, f"processes.{name}", seconds)
            self.validate(result.value, self.reference[name], f"{name} on processes")
            total += seconds
        return total

    def baseline(self) -> float:
        total = 0.0
        for name, module, size in self.problems:
            with self.tracer.span("run_sequential", kernel=name):
                seconds, result = timed(lambda: module.run_sequential(size))
            self.note_phase("baseline", f"processes.{name}", seconds)
            self.validate(result.value, self.reference[name], f"{name} sequential")
            total += seconds
        return total

    def teardown(self):
        self.backend.shutdown()
        return ()
