"""Modelled machine descriptions.

A machine model turns a requested team size into an effective parallelism
factor, accounting for physical cores and the lower yield of SMT
(hyper-threaded) logical cores, plus a memory-bandwidth ceiling used by
memory-bound kernels (the paper notes LUFact and SOR "scale poorly due to
the lack of locality of memory accesses").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineModel:
    """A modelled multi-core machine.

    Attributes
    ----------
    name:
        Human-readable name used in reports.
    cores:
        Number of physical cores.
    hardware_threads:
        Number of hardware (SMT) threads.
    smt_yield:
        Fraction of a core's throughput contributed by each extra SMT thread
        beyond the physical cores (0.25 is a common rule of thumb).
    memory_bound_cap:
        Maximum effective parallelism for fully memory-bound work (models the
        shared memory-bandwidth ceiling).  ``None`` means no cap.
    sync_overhead_us:
        Cost of one team-wide barrier, in microseconds, at full team size
        (scaled linearly with log2(team) below that).
    """

    name: str
    cores: int
    hardware_threads: int
    smt_yield: float = 0.3
    memory_bound_cap: float | None = None
    sync_overhead_us: float = 5.0

    def effective_parallelism(self, num_threads: int, memory_bound_fraction: float = 0.0) -> float:
        """Effective parallelism achieved by ``num_threads`` software threads.

        ``memory_bound_fraction`` (0..1) expresses how memory-bound the kernel
        is; it interpolates between the compute ceiling and the
        memory-bandwidth ceiling.
        """
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        threads = min(num_threads, self.hardware_threads)
        if threads <= self.cores:
            compute = float(threads)
        else:
            compute = self.cores + (threads - self.cores) * self.smt_yield
        if self.memory_bound_cap is not None and memory_bound_fraction > 0.0:
            capped = min(compute, self.memory_bound_cap)
            compute = (1.0 - memory_bound_fraction) * compute + memory_bound_fraction * capped
        return max(1.0, compute)

    def barrier_cost(self, num_threads: int) -> float:
        """Modelled cost of one barrier (seconds)."""
        if num_threads <= 1:
            return 0.0
        import math

        scale = math.log2(min(num_threads, self.hardware_threads)) / max(1.0, math.log2(self.hardware_threads))
        return self.sync_overhead_us * 1e-6 * scale
