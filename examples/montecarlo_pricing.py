"""Domain example: Monte Carlo pricing sweep with tasks and futures.

Demonstrates the task-oriented part of the library (``@FutureTask`` / future
results) together with a work-shared parallel region: several pricing
scenarios are spawned as future tasks, and each scenario internally runs a
work-shared Monte Carlo sweep over its sample paths.  The futures are spawned
outside any parallel region, where a task is undeferred (OpenMP's implicit
team of one thread): each scenario runs when it is spawned, one after the
other, and ``get()`` returns its value at once.

Run with ``python examples/montecarlo_pricing.py``.
"""

from __future__ import annotations

from repro.core import ForCyclic, FutureTaskAspect, ParallelRegion, Weaver, call
from repro.jgf.montecarlo.kernel import MonteCarloPaths
from repro.runtime.tasks import FutureResult

RUNS_PER_SCENARIO = 120
THREADS = 4


class PricingDesk:
    """Launches one Monte Carlo valuation per volatility scenario."""

    def __init__(self, volatilities: list[float]) -> None:
        self.volatilities = volatilities

    def value_scenario(self, volatility: float) -> tuple[float, float]:
        """Run one scenario (advised to run as a future task)."""
        simulation = MonteCarloPaths(RUNS_PER_SCENARIO)
        simulation.SIGMA = volatility
        expected = simulation.run()
        return volatility, expected


def main() -> None:
    weaver = Weaver()
    # Scenario valuations become future tasks; the Monte Carlo sweep inside
    # each scenario is a work-shared parallel region.  Spawned outside any
    # region, each future task runs at once on this thread.
    weaver.weave(ForCyclic(call("MonteCarloPaths.run_samples")), MonteCarloPaths)
    weaver.weave(ParallelRegion(call("MonteCarloPaths.run"), threads=THREADS), MonteCarloPaths)
    weaver.weave(FutureTaskAspect(call("PricingDesk.value_scenario")), PricingDesk)
    try:
        desk = PricingDesk([0.10, 0.20, 0.35, 0.50])
        futures: list[FutureResult] = [desk.value_scenario(v) for v in desk.volatilities]
        print("scenarios spawned as future tasks, each run in turn as it was spawned; collecting results:\n")
        for future in futures:
            volatility, expected = future.get(timeout=120)
            print(f"  sigma = {volatility:4.2f}  ->  annualised expected return = {expected:+.4f}")
    finally:
        weaver.unweave_all()
    print("\nEach scenario ran as an undeferred future task; each valuation sweep was work-shared across the team.")


if __name__ == "__main__":
    main()
