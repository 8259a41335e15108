"""Calibrated performance model.

The runtime records *what* a parallel execution did (which member ran which
iterations, where barriers fell, how much time was serialised), a cost model
records *how expensive* each unit of work is (calibrated from a
single-member run), and a machine model describes the hardware.  Replaying a
trace against the two yields a predicted speedup; ``bench/`` reports it
beside the measured one as ``perf.predicted_over_measured``.
"""

from repro.perf.calibrate import measure_critical_overhead, measure_lock_overhead, measure_reduction_cost
from repro.perf.cost import CostModel, LoopCost
from repro.perf.machines import MachineModel
from repro.perf.model import MakespanModel, PhaseBreakdown, SpeedupEstimate, phase_duration

__all__ = [
    "measure_lock_overhead",
    "measure_critical_overhead",
    "measure_reduction_cost",
    "CostModel",
    "LoopCost",
    "MachineModel",
    "MakespanModel",
    "SpeedupEstimate",
    "PhaseBreakdown",
    "phase_duration",
]
