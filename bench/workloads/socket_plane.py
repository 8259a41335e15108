"""``socket_plane``: three JGF kernels on spawned workers over the socket data plane."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Any, Callable

from bench.harness import TEAM, median_metric, pair_ratios, timed
from bench.workloads.base import Workload


class SocketPlane(Workload):
    name = "socket_plane"
    why = (
        "Series+Crypt+SOR on the distributed backend vs the bare start of its workers: spawned workers, "
        "authenticated RPC claims and per-barrier RemoteArray gather/publish, bypassed by every other workload"
    )
    baseline_name = (
        "the floor of a spawn-per-region design: per region, one bare worker interpreter started that "
        "imports repro.runtime.distributed and exits"
    )
    #: the gated baseline is the spawn floor (same nature as the system side,
    #: so the host's noise cancels); the serial baseline is an extra side of
    #: a traced run and gives the ungated speedup_vs_serial
    serial_baseline = False

    def setup(self) -> None:
        from repro.jgf.crypt import parallel as crypt
        from repro.jgf.series import parallel as series
        from repro.jgf.sor import parallel as sor

        # Sparse is left out on purpose: see bench/KNOWN_FAILURES.md.  SOR's
        # iteration count comes with its named size, so only Series and Crypt
        # take a seeded size; SOR `a` is the one with a barrier (and a gather
        # and publish of the grid) every half-sweep.
        if self.smoke:
            self.problems = [("SOR", sor, "tiny")]
        else:
            self.problems = [
                ("Series", series, self.rng.randrange(60, 69)),
                ("Crypt", crypt, 8 * self.rng.randrange(496, 529)),
                ("SOR", sor, "a"),
            ]
            self.rng.shuffle(self.problems)
        self.reference = {name: module.run_sequential(size).value for name, module, size in self.problems}
        paths = [path for path in sys.path if path and os.path.isdir(path)]
        self.bare_worker = [
            sys.executable,
            "-c",
            f"import sys; sys.path[:0] = {paths!r}; import repro.runtime.distributed",
        ]
        self.system()

    def _sweep(self, side: str, backend: str) -> float:
        total = 0.0
        for name, module, size in self.problems:
            with self.tracer.span("run_backend", kernel=name, backend=backend):
                seconds, result = timed(lambda: module.run_backend(size, num_threads=TEAM, backend=backend))
            self.note_phase(side, f"distributed.{name}", seconds)
            self.validate(result.value, self.reference[name], f"{name} on {backend}")
            total += seconds
        return total

    def system(self, side: str = "system") -> float:
        return self._sweep(side, "distributed")

    def baseline(self) -> float:
        began = time.perf_counter()
        for _region in self.problems:
            for _member in range(TEAM - 1):
                with self.tracer.span("bare_worker"):
                    done = subprocess.run(self.bare_worker, stdin=subprocess.DEVNULL)
                self.tally.check(done.returncode == 0, f"bare worker interpreter exited {done.returncode}")
        return time.perf_counter() - began

    def extra_sides(self) -> "dict[str, Callable[[], float]]":
        return {"serial": lambda: self._sweep("serial", "serial")}

    def body_seconds(self, layer: "dict[str, dict[str, Any]]") -> float:
        return sum(self.phase_median("serial", phase) / TEAM for phase in self.phases.get("serial", {}))

    def observe(self, seconds: float, samples: "dict[str, list[float]]") -> "dict[str, dict[str, Any]]":
        return {"speedup_vs_serial": median_metric(pair_ratios(samples["serial"], samples["system"]), "ratio")}
