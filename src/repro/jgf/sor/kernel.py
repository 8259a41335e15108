"""JGF SOR benchmark — red/black successive over-relaxation.

Performs ``iterations`` Jacobi-like successive over-relaxation sweeps over a
random grid ``G`` (omega = 1.25), using the red/black ordering of the JGF
multi-threaded version: each sweep relaxes first the odd rows and then the
even rows, with a synchronisation between the two half-sweeps because every
row update reads its neighbouring rows.

The row loop of each half-sweep is the for method (:meth:`relax_rows`); its
``step`` parameter is 2, so the same method serves both colours by changing
the ``start`` parameter — a natural fit for the paper's for-method convention.
"""

from __future__ import annotations

import numpy as np

from repro.jgf.jgfrandom import JGFRandom
from repro.runtime import shm
from repro.runtime.worksharing import run_for


class SORBenchmark:
    """Refactored sequential SOR kernel.

    With ``shared=True`` the grid lives in :mod:`repro.runtime.shm` shared
    memory, making the kernel safe for the process backend (worker processes
    relax rows of the same physical grid; the red/black barrier between
    half-sweeps is the team's cross-process barrier).
    """

    OMEGA = 1.25

    #: selectable chunk-body implementations (see ``kernel=``)
    KERNELS = ("python", "vector")

    def __init__(
        self,
        grid_size: int,
        iterations: int = 20,
        seed: int = 10101010,
        *,
        shared: bool = False,
        kernel: str = "python",
    ) -> None:
        if grid_size < 3:
            raise ValueError("grid must be at least 3x3")
        if kernel not in self.KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; expected one of {self.KERNELS}")
        self.n = grid_size
        self.iterations = iterations
        self.shared = bool(shared)
        self.process_safe = self.shared
        self.kernel = kernel
        rng = JGFRandom(seed, left=-0.5, right=0.5)
        # Row-by-row generation keeps the values identical regardless of the
        # parallelisation applied later (data is created sequentially).
        grid = np.empty((grid_size, grid_size), dtype=np.float64)
        for i in range(grid_size):
            grid[i, :] = rng.doubles(grid_size)
        self.grid = shm.as_shared(grid) if shared else grid

    def release_shared(self) -> None:
        """Free the shared-memory segment (no-op for in-process grids)."""
        if shm.is_shared(self.grid):
            self.grid.close()

    # -- base program -----------------------------------------------------------

    def run(self) -> float:
        """Run all relaxation sweeps (the parallel-region method)."""
        for _ in range(self.iterations):
            # Odd (red) rows first, then even (black) rows: updates within one
            # colour are independent, so each half-sweep can be work-shared.
            self.relax_rows(1, self.n - 1, 2)
            self.relax_rows(2, self.n - 1, 2)
        return self.total()

    def run_spmd(self) -> float:
        """SPMD region body using the runtime work-sharing API directly.

        The implicit barrier after each work-shared half-sweep provides the
        red/black synchronisation; picklable, so the process backend can run
        it on its persistent worker pool.
        """
        for _ in range(self.iterations):
            run_for(self.relax_rows, 1, self.n - 1, 2, loop_name="SOR.red")
            run_for(self.relax_rows, 2, self.n - 1, 2, loop_name="SOR.black")
        return self.total()

    def relax_rows(self, start: int, end: int, step: int) -> None:
        """For method: relax rows ``start, start+step, ...`` below ``end``."""
        if self.kernel == "vector":
            self._relax_rows_vector(start, end, step)
        else:
            self._relax_rows_python(start, end, step)

    def _relax_rows_python(self, start: int, end: int, step: int) -> None:
        omega = self.OMEGA
        one_minus_omega = 1.0 - omega
        grid = np.asarray(self.grid)  # the view: a SharedArray/RemoteArray index is a Python call
        for i in range(start, end, step):
            grid[i, 1:-1] = (
                omega * 0.25 * (grid[i - 1, 1:-1] + grid[i + 1, 1:-1] + grid[i, :-2] + grid[i, 2:])
                + one_minus_omega * grid[i, 1:-1]
            )

    def _relax_rows_vector(self, start: int, end: int, step: int) -> None:
        """Vectorised chunk body: relax the whole same-colour row block at once.

        Rows of one colour only read rows of the *other* colour, so the block
        update is independent per row and the strided 2-D expression computes
        exactly the per-element arithmetic of the per-row body (same
        operations, same order) — results are bit-identical to the
        pure-Python path under any chunking.  The win is dropping the
        per-row Python loop: one numpy expression per chunk, GIL released
        inside it.
        """
        if start >= end:
            return
        omega = self.OMEGA
        one_minus_omega = 1.0 - omega
        grid = np.asarray(self.grid)
        rows = grid[start:end:step, 1:-1]
        rows[...] = (
            omega
            * 0.25
            * (
                grid[start - 1 : end - 1 : step, 1:-1]
                + grid[start + 1 : end + 1 : step, 1:-1]
                + grid[start:end:step, :-2]
                + grid[start:end:step, 2:]
            )
            + one_minus_omega * rows
        )

    # -- validation ------------------------------------------------------------------

    def total(self) -> float:
        """Validation value: the sum over the interior of the grid (JGF's Gtotal)."""
        return float(self.grid[1:-1, 1:-1].sum())
