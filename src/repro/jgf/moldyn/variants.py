"""MolDyn parallelisation strategies (paper Figure 15).

The paper's key demonstration is that *multiple parallelisation approaches can
be experimented with (and simultaneously supported) without modifying the base
program*: the JGF approach (a thread-local force array reduced at the end of
the sweep), a critical region around the force update, and one lock per
particle.  Each strategy below is expressed purely as a bundle of aspects
attached to the unchanged :class:`~repro.jgf.moldyn.kernel.MolDyn` kernel.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core import (
    BarrierAfterAspect,
    CriticalAspect,
    ForCyclic,
    ForStatic,
    ForWorkSharing,
    MethodAspect,
    ParallelRegion,
    ReduceAspect,
    ThreadLocalFieldAspect,
    Weaver,
    call,
)
from repro.core.weaver.joinpoint import JoinPoint
from repro.jgf.moldyn.kernel import MolDyn
from repro.runtime import context as ctx
from repro.runtime.locks import StripedLocks, global_locks
from repro.runtime.threadlocal import ArrayReducer
from repro.runtime.trace import EventKind, TraceRecorder

#: The three strategies compared in Figure 15.
STRATEGIES = ("jgf", "critical", "locks")


class LockPerParticleAspect(MethodAspect):
    """Fine-grained locking strategy: one (striped) lock per particle.

    Two modes:

    * ``exact`` — the advice performs the update itself, particle by particle,
      holding that particle's stripe lock (plus a dedicated lock for the
      energy accumulators).  Fully faithful but slow in pure Python; used by
      the correctness tests at small particle counts.
    * ``modelled`` — the advice performs the vectorised update under a single
      guard lock (so results stay correct despite the GIL-level interleaving)
      and records one aggregate ``LOCK_ACQUIRE`` trace event counting the
      per-particle acquisitions the strategy would perform; the performance
      model prices them individually.  Used for the large Figure 15 sizes.
    """

    abstraction = "LOCKS"

    def __init__(self, pointcut, *, stripes: int = 4096, mode: str = "modelled", name: str | None = None) -> None:
        super().__init__(pointcut, name=name)
        if mode not in ("exact", "modelled"):
            raise ValueError(f"unknown lock mode {mode!r}")
        self.mode = mode
        self.locks = StripedLocks(stripes)
        self.energy_lock_key = ("moldyn", "energy", id(self))
        self.guard_key = ("moldyn", "guard", id(self))

    def around(self, joinpoint: JoinPoint) -> Any:
        kernel: MolDyn = joinpoint.target
        i, j_indices, pair_forces, potential, virial = joinpoint.args
        context = ctx.current_context()
        if self.mode == "exact":
            return self._exact_update(kernel, int(i), j_indices, pair_forces, float(potential), float(virial), context)
        # Modelled mode: one guard lock keeps the numbers right; the trace
        # records the acquisitions a per-particle scheme would need.
        guard = global_locks.get(self.guard_key)
        with guard:
            result = joinpoint.proceed()
        if context is not None and context.team.tracing:
            context.team.record(
                EventKind.LOCK_ACQUIRE,
                key="per-particle",
                count=int(len(j_indices)) + 2,  # one per neighbour + particle i + energy
            )
        return result

    def _exact_update(self, kernel, i, j_indices, pair_forces, potential, virial, context) -> None:
        forces = kernel.forces
        acquisitions = 0
        with self.locks.acquire(i):
            forces[i] += pair_forces.sum(axis=0)
            acquisitions += 1
        for offset, j in enumerate(np.asarray(j_indices)):
            with self.locks.acquire(int(j)):
                forces[int(j)] -= pair_forces[offset]
                acquisitions += 1
        energy_lock = global_locks.get(self.energy_lock_key)
        with energy_lock:
            kernel.energy = kernel.energy + np.array([potential, virial])
            acquisitions += 1
        if context is not None and context.team.tracing:
            context.team.record(EventKind.LOCK_ACQUIRE, key="per-particle", count=acquisitions)


def _force_sweep_aspect(schedule: "str | None"):
    """The for aspect of the force sweep: cyclic by default, overridable.

    The triangular per-iteration cost (particle i interacts with the n-1-i
    particles above it) is what cyclic scheduling balances; no weight
    function is attached here.  Passing ``schedule`` (e.g. ``"auto"``)
    swaps the paper's cyclic choice for an explicit one — ``"auto"`` lets the adaptive tuner discover the balanced
    schedule the paper hand-picks.
    """
    if schedule is None:
        return ForCyclic(call("MolDyn.compute_forces"))
    return ForWorkSharing(call("MolDyn.compute_forces"), schedule=schedule)


def _structure_aspects(num_threads: int, recorder: TraceRecorder | None, schedule: "str | None" = None) -> list:
    """Aspects common to every strategy: the region and the work-shared loops.

    The force sweep uses a cyclic distribution (the triangular cost profile of
    Newton's-third-law loops is why the paper picks cyclic for MolDyn).  A
    barrier after ``zero_forces`` keeps a fast thread from accumulating into
    arrays another thread is still about to reset.
    """
    return [
        ForStatic(call("MolDyn.advance_positions")),
        _force_sweep_aspect(schedule),
        ForStatic(call("MolDyn.update_velocities")),
        BarrierAfterAspect(call("MolDyn.zero_forces")),
        ParallelRegion(call("MolDyn.runiters"), threads=num_threads, recorder=recorder),
    ]


def build_aspects(
    strategy: str,
    num_threads: int,
    recorder: TraceRecorder | None = None,
    *,
    lock_mode: str = "modelled",
    schedule: str | None = None,
) -> list:
    """Build the aspect bundle for one Figure 15 strategy.

    The returned list is ordered innermost-first, ready for ``Weaver.weave_all``.
    ``schedule`` overrides the force sweep's cyclic distribution (``"auto"``
    defers to the adaptive tuner).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown MolDyn strategy {strategy!r}; expected one of {STRATEGIES}")

    structure = _structure_aspects(num_threads, recorder, schedule)
    if strategy == "critical":
        return [CriticalAspect(call("MolDyn.apply_pair_forces"), lock_id="moldyn-forces")] + structure
    if strategy == "locks":
        return [LockPerParticleAspect(call("MolDyn.apply_pair_forces"), mode=lock_mode)] + structure

    # "jgf": thread-local force array and energy accumulators, reduced once per sweep.
    forces_field = ThreadLocalFieldAspect("forces", classes=[MolDyn], copy_value=np.copy)
    energy_field = ThreadLocalFieldAspect("energy", classes=[MolDyn], copy_value=np.copy)
    return [
        forces_field,
        energy_field,
        ForStatic(call("MolDyn.advance_positions")),
        _force_sweep_aspect(schedule),
        ReduceAspect(
            call("MolDyn.compute_forces"),
            field_aspect=forces_field,
            reducer=ArrayReducer(),
            include_shared=False,
        ),
        ReduceAspect(
            call("MolDyn.compute_forces"),
            field_aspect=energy_field,
            reducer=ArrayReducer(),
            include_shared=False,
        ),
        ForStatic(call("MolDyn.update_velocities")),
        BarrierAfterAspect(call("MolDyn.zero_forces")),
        ParallelRegion(call("MolDyn.runiters"), threads=num_threads, recorder=recorder),
    ]


def run_variant(
    strategy: str,
    n_particles: int,
    *,
    num_threads: int = 4,
    moves: int = 2,
    recorder: TraceRecorder | None = None,
    lock_mode: str = "modelled",
    schedule: str | None = None,
):
    """Run one MolDyn parallelisation strategy and return (kernel, checksum).

    Weaving happens before the kernel is instantiated (load-time weaving
    order) so thread-local field introductions are in place for ``__init__``.
    """
    from repro.jgf.moldyn.kernel import MolDyn as Kernel

    weaver = Weaver()
    weaver.weave_all(
        build_aspects(strategy, num_threads, recorder, lock_mode=lock_mode, schedule=schedule), Kernel
    )
    try:
        kernel = Kernel(n_particles, moves=moves)
        checksum = kernel.runiters()
    finally:
        weaver.unweave_all()
    return kernel, checksum
