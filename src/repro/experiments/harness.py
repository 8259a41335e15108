"""Calibrate a cost model from a single-member trace.

Run the AOmp version of a benchmark with a **team of one** and a trace
recorder: per work-shared loop, the trace says how long the Python kernel
took per unit of work, free of GIL interference.
:func:`calibrate_cost_model_from_trace` turns that into a
:class:`~repro.perf.cost.CostModel`, which :class:`~repro.perf.model.MakespanModel`
replays a parallel trace against.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.perf.calibrate import measure_critical_overhead, measure_lock_overhead, measure_reduction_cost
from repro.perf.cost import CostModel, LoopCost
from repro.runtime.trace import EventKind, TraceRecorder


def calibrate_cost_model_from_trace(
    recorder: TraceRecorder,
    *,
    weight_fns: Mapping[str, Callable[[int], float]] | None = None,
    memory_bound_fractions: Mapping[str, float] | None = None,
    reduction_elements: float = 0.0,
) -> CostModel:
    """Build a cost model from a single-threaded calibration trace.

    For every loop seen in the trace, ``seconds_per_unit`` is the measured
    elapsed time divided by the total weight (iteration count, or the supplied
    weight function evaluated over the executed iterations).  Synchronisation
    unit costs are micro-benchmarked on the host.
    """
    weight_fns = dict(weight_fns or {})
    memory_bound_fractions = dict(memory_bound_fractions or {})
    totals: dict[str, dict[str, float]] = {}
    for event in recorder.events(EventKind.CHUNK):
        loop = event.data.get("loop", "<loop>")
        elapsed = event.data.get("elapsed")
        if elapsed is None:
            continue
        short = loop.rsplit(".", 1)[-1]
        weight_fn = weight_fns.get(loop) or weight_fns.get(short)
        if event.data.get("weight") is not None:
            weight = float(event.data["weight"])
        elif weight_fn is not None:
            weight = float(sum(weight_fn(i) for i in range(event.data["start"], event.data["end"], event.data.get("step", 1))))
        else:
            weight = float(event.data.get("count", 0))
        entry = totals.setdefault(loop, {"elapsed": 0.0, "weight": 0.0})
        entry["elapsed"] += float(elapsed)
        entry["weight"] += weight

    loops: dict[str, LoopCost] = {}
    for loop, entry in totals.items():
        if entry["weight"] <= 0:
            continue
        short = loop.rsplit(".", 1)[-1]
        loops[loop] = LoopCost(
            seconds_per_unit=entry["elapsed"] / entry["weight"],
            weight_fn=weight_fns.get(loop) or weight_fns.get(short) or (lambda _i: 1.0),
            memory_bound_fraction=memory_bound_fractions.get(loop, memory_bound_fractions.get(short, 0.0)),
        )

    return CostModel(
        loops=loops,
        critical_overhead=measure_critical_overhead(samples=5000),
        lock_overhead=measure_lock_overhead(samples=5000),
        reduction_cost_per_element=measure_reduction_cost(elements=50000),
        reduction_elements=reduction_elements,
    )
