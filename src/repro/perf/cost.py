"""Cost models for replaying execution traces.

A cost model answers, for each work-shared loop, "how long would this chunk of
iterations take on one core of the modelled machine?", and gives prices for
the synchronisation mechanisms (critical sections, fine-grained locks,
reductions).  Loop unit costs are calibrated from a single-member trace of
the actual Python kernels (:mod:`repro.experiments.harness`) and the
synchronisation prices are measured on the host (:mod:`repro.perf.calibrate`),
so relative magnitudes come from measurements, not from guesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


WeightFn = Callable[[int], float]

#: sentinel distinguishing "never resolved" from a resolved default (None).
_UNRESOLVED = object()


def uniform_weight(_: int) -> float:
    """Weight function for loops whose iterations all cost the same."""
    return 1.0


@dataclass
class LoopCost:
    """Cost description of one work-shared loop.

    ``seconds_per_unit`` converts the loop's *weight units* (as recorded in
    the trace, or recomputed from ``weight_fn``) into seconds.
    """

    seconds_per_unit: float
    weight_fn: WeightFn = uniform_weight
    #: fraction of the loop's time that is memory-bandwidth-bound (0..1);
    #: consumed by MachineModel.effective_parallelism.
    memory_bound_fraction: float = 0.0
    #: memoised weight sums per chunk range — the makespan model replays the
    #: same chunk boundaries once per modelled machine configuration, and the
    #: O(iterations) weight summation dominated replay time for large traces.
    #: init=False: dataclasses.replace()-style copies must not share the memo
    #: (a copy with a different weight_fn would serve stale sums).
    _weight_sums: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def chunk_cost(self, start: int, end: int, step: int, recorded_weight: float | None = None) -> float:
        """Cost (seconds) of executing iterations ``range(start, end, step)``."""
        if recorded_weight is not None:
            units = recorded_weight
        else:
            key = (start, end, step)
            units = self._weight_sums.get(key)
            if units is None:
                units = self._weight_sums[key] = float(
                    sum(self.weight_fn(i) for i in range(start, end, step))
                )
        return units * self.seconds_per_unit


@dataclass
class CostModel:
    """All the unit costs needed to replay a trace.

    Attributes
    ----------
    loops:
        Mapping from loop name (as recorded in ``CHUNK`` events — the for
        method's qualified name) to its :class:`LoopCost`.
    default_loop:
        Fallback used for loops without an explicit entry.
    critical_overhead:
        Cost of acquiring/releasing a named critical lock once (seconds); adds
        to the serialised time of every ``CRITICAL`` event.
    lock_overhead:
        Cost of one fine-grained lock acquisition (``LOCK_ACQUIRE`` events).
    reduction_cost_per_element:
        Cost per element per merged copy of a reduction (``REDUCTION`` events
        provide the element count through the per-experiment configuration).
    reduction_elements:
        Default number of elements per reduction, used when a ``REDUCTION``
        trace event does not carry its own ``elements`` field (e.g. the
        MolDyn force-array reduction over 3N doubles).
    task_spawn_overhead:
        Cost of creating/seeding one task (``TASK_SPAWN`` events carry a
        ``count`` for taskloop tile decks).  Parallel-only work: the
        sequential program spawns nothing.
    task_steal_overhead:
        Cost of one successful steal from another member's deque
        (``TASK_STEAL`` events) — a cross-member cache-line transfer plus
        claim arbitration, priced higher than a local spawn.
    team_spinup_seconds:
        Measured cost of spinning up (and joining) a parallel team, used by
        the adaptive tuner's serial-fallback arbitration: a loop predicted to
        finish within a few team spin-ups is routed to the serial fallback
        instead of being dispatched to the team.  The default is the order
        of magnitude of an empty 2-member region (``bench/``'s
        ``team.region_us.*``); calibrated models may overwrite it.
    replicated_seconds:
        Per-region, per-thread replicated (non-work-shared) work, in seconds.
        Most JGF kernels have negligible replicated work; LUFact's pivot
        search is the notable exception and is modelled explicitly by its
        experiment configuration.
    """

    loops: dict[str, LoopCost] = field(default_factory=dict)
    default_loop: LoopCost = field(default_factory=lambda: LoopCost(seconds_per_unit=1e-6))
    critical_overhead: float = 2.0e-7
    lock_overhead: float = 1.2e-7
    reduction_cost_per_element: float = 4.0e-9
    reduction_elements: float = 0.0
    replicated_seconds: float = 0.0
    task_spawn_overhead: float = 1.0e-6
    task_steal_overhead: float = 3.0e-6
    team_spinup_seconds: float = 6.0e-5
    #: memoised ``loop_cost`` resolutions (queried name -> matching ``loops``
    #: key, or None for the default) — the suffix-matching fallback is a scan
    #: over every registered loop, paid once per name instead of once per
    #: replayed CHUNK event.  The memo stores *keys*, not LoopCost objects
    #: (so replacing a value under an existing key takes effect immediately),
    #: and is cleared whenever the *key set* of ``loops`` changes (so adding,
    #: removing or renaming loops re-resolves every name).
    _resolved: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _resolved_for: tuple = field(init=False, default=(), repr=False, compare=False)

    def loop_cost(self, loop_name: str) -> LoopCost:
        """Return the cost description for ``loop_name`` (matching by suffix too)."""
        keys = tuple(self.loops)
        if keys != self._resolved_for:
            self._resolved.clear()
            self._resolved_for = keys
        key = self._resolved.get(loop_name, _UNRESOLVED)
        if key is _UNRESOLVED:
            key = self._resolve_loop_key(loop_name)
            self._resolved[loop_name] = key
        return self.loops[key] if key is not None else self.default_loop

    def _resolve_loop_key(self, loop_name: str) -> "str | None":
        if loop_name in self.loops:
            return loop_name
        # Qualified names ("MolDyn.compute_forces") should match entries
        # registered under the bare method name and vice versa.
        short = loop_name.rsplit(".", 1)[-1]
        if short in self.loops:
            return short
        for key in self.loops:
            if key.rsplit(".", 1)[-1] == short:
                return key
        return None

