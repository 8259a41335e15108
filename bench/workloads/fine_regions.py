"""``fine_regions``: a program made of many tiny statically-scheduled regions."""

from __future__ import annotations

import time

from bench.harness import TEAM
from bench.workloads.base import Workload

#: regions per sweep and backend, sized so each phase is 40-60 % of a sweep
#: (a pooled region costs ~7x a threaded one on the reference box)
REGIONS = {"threads": 420, "processes": 60}


class TinyLoop:
    """A region body whose only state is a shared output array, so the
    process backend ships it to the warm pool instead of forking."""

    process_safe = True

    def __init__(self, capacity: int) -> None:
        from repro.runtime import shm

        self.out = shm.shared_zeros(capacity)
        self.trips = capacity
        self.tag = 0

    def body(self, start: int, end: int, step: int) -> None:
        out, tag = self.out.np, self.tag
        for i in range(start, end, step):
            out[i] = i + tag

    def loop(self) -> None:
        from repro.runtime.worksharing import run_for

        run_for(self.body, 0, self.trips, 1, schedule="static_block", loop_name="fine_regions.loop")


class FineRegions(Workload):
    name = "fine_regions"
    why = (
        "~480 tiny static_block regions per sweep on threads and the warm pool vs serial: spawn, join, "
        "barrier and result return dominate; worksharing's zero-claim path, never the claim path"
    )
    baseline_name = "the same program on the serial backend"

    def setup(self) -> None:
        from repro.runtime.backend import backend_by_name

        scale = 10 if self.smoke else 1
        # The seed draws every region's trip count around 512 iterations.
        self.program = [
            (backend, [self.rng.randrange(448, 577) for _ in range(max(2, count // scale))])
            for backend, count in REGIONS.items()
        ]
        self.loop = TinyLoop(577)
        self.pool = backend_by_name("processes")
        with self.tracer.span("prewarm"):
            self.pool.prewarm(TEAM - 1)
        self.system()

    def _sweep(self, side: str, serial: bool) -> float:
        from repro.runtime.team import parallel_region

        loop, total = self.loop, 0.0
        for backend, trip_counts in self.program:
            target = "serial" if serial else backend
            phase = 0.0  # the regions alone; the per-region check is not timed
            with self.tracer.span("phase", backend=target, regions=len(trip_counts)):
                for tag, trips in enumerate(trip_counts):
                    loop.trips, loop.tag = trips, tag
                    with self.tracer.span("parallel_region", backend=target):
                        began = time.perf_counter()
                        parallel_region(loop.loop, num_threads=TEAM, backend=target, name="fine_regions")
                        phase += time.perf_counter() - began
                    out = loop.out.np
                    self.tally.check(
                        out[0] == tag and out[trips - 1] == trips - 1 + tag,
                        f"fine_regions: region {tag} on {target} wrote a wrong array",
                    )
            self.note_phase(side, f"{backend}.static_block", phase, regions=len(trip_counts))
            total += phase
        return total

    def system(self, side: str = "system") -> float:
        self.recycle_pool(self.pool, self.loop.loop, every=8)
        return self._sweep(side, serial=False)

    def baseline(self) -> float:
        return self._sweep("baseline", serial=True)

    def teardown(self):
        self.pool.shutdown()
        self.loop.out.close()
        return ()
