"""Makespan and speedup estimation.

Two entry points:

* :class:`MakespanModel` — replays an execution trace produced by the runtime
  (:class:`~repro.runtime.trace.TraceRecorder`) against a
  :class:`~repro.perf.cost.CostModel` and a
  :class:`~repro.perf.machines.MachineModel`, and estimates the parallel
  makespan, sequential time and speedup the modelled machine would achieve.
* :class:`AnalyticScenario` — the same phase algebra applied to analytically
  constructed phases, used for problem sizes too large to execute (the 256k
  and 500k particle points of Figure 15).

The phase algebra: a parallel region is a sequence of *phases* delimited by
team barriers.  The duration of one phase is bounded below by

* the longest per-thread work in the phase (load imbalance),
* the total work divided by the machine's effective parallelism (limited
  cores / SMT yield / memory bandwidth), and
* the total serialised (critical-section) time in the phase (Amdahl).

The makespan is the sum of phase durations plus barrier overheads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.perf.cost import CostModel
from repro.perf.machines import MachineModel
from repro.runtime.trace import EventKind, TraceRecorder


def phase_duration(
    compute_per_thread: Mapping[int, float],
    serialized_per_thread: Mapping[int, float],
    machine: MachineModel,
    num_threads: int,
    memory_bound_fraction: float = 0.0,
) -> float:
    """Duration of one phase under the three lower bounds described above."""
    compute_values = [compute_per_thread.get(t, 0.0) for t in range(num_threads)]
    serialized_values = [serialized_per_thread.get(t, 0.0) for t in range(num_threads)]
    per_thread_max = max(
        (c + s for c, s in zip(compute_values, serialized_values)), default=0.0
    )
    total_work = sum(compute_values) + sum(serialized_values)
    parallelism = machine.effective_parallelism(num_threads, memory_bound_fraction)
    bandwidth_bound = total_work / parallelism if parallelism > 0 else total_work
    serial_bound = sum(serialized_values)
    return max(per_thread_max, bandwidth_bound, serial_bound)


@dataclass
class PhaseBreakdown:
    """Per-phase accounting produced while replaying a trace (for reports/tests)."""

    index: int
    compute_per_thread: dict[int, float] = field(default_factory=dict)
    serialized_per_thread: dict[int, float] = field(default_factory=dict)
    weighted_memory_bound: float = 0.0
    weight_total: float = 0.0
    duration: float = 0.0

    @property
    def memory_bound_fraction(self) -> float:
        if self.weight_total <= 0.0:
            return 0.0
        return self.weighted_memory_bound / self.weight_total


@dataclass
class SpeedupEstimate:
    """Result of a makespan estimation."""

    name: str
    num_threads: int
    sequential_time: float
    makespan: float
    phases: list[PhaseBreakdown] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Estimated speedup over the sequential execution."""
        if self.makespan <= 0.0:
            return 1.0
        return self.sequential_time / self.makespan

    @property
    def efficiency(self) -> float:
        """Speedup divided by the number of threads."""
        return self.speedup / max(1, self.num_threads)

    def as_dict(self) -> dict:
        """Plain-dict form used by the experiment reports."""
        return {
            "name": self.name,
            "threads": self.num_threads,
            "sequential_time": self.sequential_time,
            "makespan": self.makespan,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
        }


class MakespanModel:
    """Replay a runtime trace against a cost model and a machine model."""

    def __init__(self, cost_model: CostModel, machine: MachineModel) -> None:
        self.cost_model = cost_model
        self.machine = machine

    def estimate(
        self,
        recorder: TraceRecorder,
        num_threads: int,
        *,
        name: str = "trace",
        regions: Iterable[int] | None = None,
        extra_sequential_time: float = 0.0,
    ) -> SpeedupEstimate:
        """Estimate makespan/speedup for the regions recorded in ``recorder``.

        ``extra_sequential_time`` adds purely sequential work that exists in
        both the sequential program and the parallel one outside any region
        (e.g. initialisation), lowering the achievable speedup accordingly.

        Nested regions are replayed **per level**: a region whose
        ``REGION_BEGIN`` names a ``parent_region`` in the same trace is not a
        top-level lane of its own — its estimated makespan is folded into the
        *spawning member's* compute time in the parent region, placed in the
        phase that member was in when the child began.  Only root regions
        contribute directly to the total, so a team-of-teams is priced as the
        hierarchy it is instead of double-counted as siblings.
        """
        events = recorder.events()
        begins = {e.region: e for e in events if e.kind is EventKind.REGION_BEGIN}
        region_ids = sorted(begins)
        if regions is not None:
            wanted = set(regions)
            region_ids = [r for r in region_ids if r in wanted]
        selected = set(region_ids)

        # Child regions grouped under their parent (only parents that are
        # themselves replayed; an orphan child is treated as a root).
        children: dict[int, list[int]] = {}
        roots: list[int] = []
        for region_id in region_ids:
            parent = begins[region_id].data.get("parent_region")
            if parent is not None and parent in selected and parent != region_id:
                children.setdefault(parent, []).append(region_id)
            else:
                roots.append(region_id)

        total_makespan = extra_sequential_time
        total_sequential = extra_sequential_time
        all_phases: list[PhaseBreakdown] = []

        def replay(region_id: int, *, root: bool) -> tuple[float, float]:
            """Replay ``region_id`` (children first) → (makespan, sequential)."""
            nested_work = []
            child_sequential = 0.0
            for child in children.get(region_id, ()):  # depth-first: leaves price first
                child_makespan, child_seq = replay(child, root=False)
                begin = begins[child]
                nested_work.append(
                    (begin.seq, begin.data.get("parent_thread") or 0, child_makespan)
                )
                child_sequential += child_seq
            # Root regions are priced at the caller's thread count (the
            # modelled machine scenario); nested teams at their recorded size.
            size = num_threads if root else (begins[region_id].data.get("size") or num_threads)
            region_events = [e for e in events if e.region == region_id]
            makespan, sequential, phases = self._replay_region(
                region_events, size, nested_work=nested_work
            )
            all_phases.extend(phases)
            return makespan, sequential + child_sequential

        for region_id in roots:
            makespan, sequential = replay(region_id, root=True)
            total_makespan += makespan
            total_sequential += sequential

        return SpeedupEstimate(
            name=name,
            num_threads=num_threads,
            sequential_time=total_sequential,
            makespan=total_makespan,
            phases=all_phases,
        )

    # -- internals -------------------------------------------------------------

    def _replay_region(self, events, num_threads: int, nested_work=()):
        cost_model = self.cost_model
        phases: dict[int, PhaseBreakdown] = {}
        phase_of_thread: dict[int, int] = {}
        sequential_time = 0.0
        barrier_rounds = 0

        def phase_for(thread_id: int) -> PhaseBreakdown:
            index = phase_of_thread.get(thread_id, 0)
            breakdown = phases.get(index)
            if breakdown is None:
                breakdown = PhaseBreakdown(index=index)
                phases[index] = breakdown
            return breakdown

        # Nested-region makespans land as compute on the spawning member, in
        # whatever phase that member occupies when the child region begins —
        # merged into the replay by the recorder-wide seq stamp.
        pending_nested = sorted(nested_work)  # (seq, thread, makespan)
        nested_cursor = 0

        def flush_nested(up_to_seq: float) -> None:
            # Child *sequential* time is accumulated by the caller (replay's
            # `sequential + child_sequential`), not here: only the makespan
            # lands on the spawning member's lane.
            nonlocal nested_cursor
            while nested_cursor < len(pending_nested) and pending_nested[nested_cursor][0] <= up_to_seq:
                _, spawner, child_makespan = pending_nested[nested_cursor]
                nested_cursor += 1
                breakdown = phase_for(spawner)
                breakdown.compute_per_thread[spawner] = (
                    breakdown.compute_per_thread.get(spawner, 0.0) + child_makespan
                )

        for event in events:
            if pending_nested:
                flush_nested(event.seq)
            thread = event.thread_id
            if event.kind is EventKind.CHUNK:
                loop_name = event.data.get("loop", "<loop>")
                loop_cost = cost_model.loop_cost(loop_name)
                cost = loop_cost.chunk_cost(
                    event.data["start"],
                    event.data["end"],
                    event.data.get("step", 1),
                    recorded_weight=event.data.get("weight"),
                )
                breakdown = phase_for(thread)
                breakdown.compute_per_thread[thread] = breakdown.compute_per_thread.get(thread, 0.0) + cost
                breakdown.weighted_memory_bound += cost * loop_cost.memory_bound_fraction
                breakdown.weight_total += cost
                sequential_time += cost
            elif event.kind is EventKind.CRITICAL:
                held = float(event.data.get("held", 0.0))
                acquisitions = float(event.data.get("count", 1.0))
                breakdown = phase_for(thread)
                serialized = held + cost_model.critical_overhead * acquisitions
                breakdown.serialized_per_thread[thread] = breakdown.serialized_per_thread.get(thread, 0.0) + serialized
                # The work done inside the critical section also exists in the
                # sequential program; the lock overhead does not.
                sequential_time += held
            elif event.kind is EventKind.LOCK_ACQUIRE:
                acquisitions = float(event.data.get("count", 1.0))
                breakdown = phase_for(thread)
                breakdown.compute_per_thread[thread] = (
                    breakdown.compute_per_thread.get(thread, 0.0) + cost_model.lock_overhead * acquisitions
                )
            elif event.kind in (EventKind.MASTER, EventKind.SINGLE):
                elapsed = float(event.data.get("elapsed", 0.0))
                breakdown = phase_for(thread)
                breakdown.compute_per_thread[thread] = breakdown.compute_per_thread.get(thread, 0.0) + elapsed
                sequential_time += elapsed
            elif event.kind is EventKind.TASK_SPAWN:
                count = float(event.data.get("count", 1.0))
                breakdown = phase_for(thread)
                breakdown.compute_per_thread[thread] = (
                    breakdown.compute_per_thread.get(thread, 0.0) + cost_model.task_spawn_overhead * count
                )
                # Spawning is parallel-only overhead: not added to sequential.
            elif event.kind is EventKind.TASK_STEAL:
                count = float(event.data.get("count", 1.0))
                breakdown = phase_for(thread)
                breakdown.compute_per_thread[thread] = (
                    breakdown.compute_per_thread.get(thread, 0.0) + cost_model.task_steal_overhead * count
                )
            elif event.kind is EventKind.TASK_COMPLETE:
                # Explicitly spawned task bodies (taskloop tiles are CHUNK
                # events instead): the body's work exists sequentially too.
                elapsed = float(event.data.get("elapsed", 0.0))
                breakdown = phase_for(thread)
                breakdown.compute_per_thread[thread] = breakdown.compute_per_thread.get(thread, 0.0) + elapsed
                sequential_time += elapsed
            elif event.kind is EventKind.REDUCTION:
                elements = float(event.data.get("elements", 0.0)) or float(cost_model.reduction_elements or 0.0)
                copies = float(event.data.get("count", num_threads))
                cost = cost_model.reduction_cost_per_element * elements * copies
                breakdown = phase_for(thread)
                breakdown.compute_per_thread[thread] = breakdown.compute_per_thread.get(thread, 0.0) + cost
                # Reductions are parallel-only work: not added to sequential.
            elif event.kind is EventKind.TUNE_DECISION:
                # Instant marker from the adaptive scheduler: the decided
                # schedule's chunks already appear as CHUNK events and the
                # decision itself is a dictionary lookup — no modelled cost.
                # Replayed explicitly (rather than falling through) so the
                # serial fallback's single-owner chunk pattern and the tuner's
                # exploration are first-class citizens of the phase algebra.
                continue
            elif event.kind is EventKind.BARRIER:
                phase_of_thread[thread] = phase_of_thread.get(thread, 0) + 1
                if thread == 0:
                    barrier_rounds += 1

        if pending_nested:
            flush_nested(float("inf"))

        if cost_model.replicated_seconds:
            first = phases.setdefault(0, PhaseBreakdown(index=0))
            for thread in range(num_threads):
                first.compute_per_thread[thread] = (
                    first.compute_per_thread.get(thread, 0.0) + cost_model.replicated_seconds
                )
            sequential_time += cost_model.replicated_seconds

        makespan = 0.0
        ordered = [phases[i] for i in sorted(phases)]
        for breakdown in ordered:
            breakdown.duration = phase_duration(
                breakdown.compute_per_thread,
                breakdown.serialized_per_thread,
                self.machine,
                num_threads,
                breakdown.memory_bound_fraction,
            )
            makespan += breakdown.duration
        makespan += barrier_rounds * self.machine.barrier_cost(num_threads)
        return makespan, sequential_time, ordered


@dataclass
class AnalyticPhase:
    """One phase of an analytically constructed scenario."""

    work_per_thread: list[float]
    serialized_per_thread: list[float] | None = None
    memory_bound_fraction: float = 0.0
    overhead: float = 0.0

    def duration(self, machine: MachineModel, num_threads: int) -> float:
        compute = {t: w for t, w in enumerate(self.work_per_thread)}
        serialized = {t: s for t, s in enumerate(self.serialized_per_thread or [])}
        return (
            phase_duration(compute, serialized, machine, num_threads, self.memory_bound_fraction)
            + self.overhead
        )


@dataclass
class AnalyticScenario:
    """A sequence of analytic phases plus the sequential reference time."""

    name: str
    phases: list[AnalyticPhase]
    sequential_time: float
    num_threads: int

    def makespan(self, machine: MachineModel) -> float:
        """Total modelled parallel time."""
        return sum(phase.duration(machine, self.num_threads) for phase in self.phases)

    def estimate(self, machine: MachineModel) -> SpeedupEstimate:
        """Speedup estimate under ``machine``."""
        return SpeedupEstimate(
            name=self.name,
            num_threads=self.num_threads,
            sequential_time=self.sequential_time,
            makespan=self.makespan(machine),
        )
