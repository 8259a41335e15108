"""JGF SparseMatMult benchmark — sparse matrix-vector multiplication.

Multiplies a random sparse ``N x N`` matrix (``nz`` non-zeros stored in
unordered triplet/COO form, exactly like the JGF kernel) by a dense vector,
repeated for a number of iterations.  The scatter update ``y[row[k]] +=
val[k] * x[col[k]]`` creates a write-write conflict whenever two threads
handle non-zeros of the same row, which is why the JGF parallelisation (and
Table 2) needs a *case-specific* partitioning: the non-zeros are sorted by
row and split at row boundaries so each thread owns disjoint output rows.

:meth:`multiply_range` is the for method over non-zero indices; the
case-specific partitioning is provided by ``row_block_bounds`` and used by the
case-specific aspect in :mod:`repro.jgf.sparse.parallel`.
"""

from __future__ import annotations

import numpy as np

from repro.jgf.jgfrandom import JGFRandom
from repro.runtime import shm
from repro.runtime.worksharing import run_for


class SparseMatmult:
    """Refactored sequential sparse matrix-vector kernel.

    With ``shared=True`` the *output* vector ``y`` lives in
    :mod:`repro.runtime.shm` shared memory, making the kernel safe for
    isolated-heap backends (process / distributed teams): the read-only
    matrix triplets and input vector are shipped by value when the SPMD body
    is pickled (a one-time copy), but every member's row updates land in the
    one physical ``y``.
    """

    #: selectable chunk-body implementations (see ``kernel=``)
    KERNELS = ("python", "vector")

    def __init__(
        self,
        n: int,
        nz: int,
        iterations: int = 25,
        seed: int = 1966,
        *,
        shared: bool = False,
        kernel: str = "python",
    ) -> None:
        if nz < n:
            raise ValueError("need at least one non-zero per row on average")
        if kernel not in self.KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; expected one of {self.KERNELS}")
        self.n = n
        self.nz = nz
        self.iterations = iterations
        self.shared = bool(shared)
        self.process_safe = self.shared
        self.kernel = kernel
        rng = JGFRandom(seed)
        row = rng.ints(nz, n)
        col = rng.ints(nz, n)
        self.values = rng.doubles(nz)
        # Sort by row (the JGF kernel does the same) so that row-block
        # partitioning is possible; ties keep the generated order.
        order = np.argsort(row, kind="stable")
        self.row = row[order]
        self.col = col[order]
        self.values = self.values[order]
        self.x = JGFRandom(seed + 7).doubles(n)
        y = np.zeros(n, dtype=np.float64)
        self.y = shm.as_shared(y) if shared else y
        # CSR-style row pointers: non-zeros of row r live at indices
        # [row_ptr[r], row_ptr[r + 1]).  Possible because the triplets are
        # row-sorted above; enables the row-range for method, whose chunks
        # touch disjoint output rows under *any* generic schedule.
        self.row_ptr = np.searchsorted(self.row, np.arange(n + 1))

    def release_shared(self) -> None:
        """Free the shared-memory segment (no-op for in-process outputs)."""
        if shm.is_shared(self.y):
            self.y.close()

    def _y(self) -> np.ndarray:
        """The output vector as a plain ndarray (``np.add.at`` needs one).

        Zero-copy for an ``ndarray``, a ``SharedArray`` and a socket-plane
        worker's ``RemoteArray`` mirror alike.
        """
        return np.asarray(self.y)

    # -- base program -----------------------------------------------------------

    def run(self) -> float:
        """Run all multiplication iterations (the parallel-region method)."""
        for _ in range(self.iterations):
            self.multiply_range(0, self.nz, 1)
        return self.total()

    def run_rows(self) -> float:
        """Row-loop variant of :meth:`run` (the parallel-region method).

        Identical arithmetic, but iterating rows instead of non-zeros: a
        chunk of rows updates a disjoint slice of ``y``, so the loop is safe
        under *any* generic schedule — this is the for method the adaptive
        (``schedule="auto"``) parallelisation uses, where the tuner may pick
        dynamic or guided chunkings that ignore row boundaries of the
        non-zero range.
        """
        for _ in range(self.iterations):
            self.multiply_rows(0, self.n, 1)
        return self.total()

    def run_spmd(self) -> float:
        """SPMD region body using the runtime work-sharing API directly.

        Iterates the row-range for method (chunks touch disjoint output rows
        under any generic schedule); picklable, so isolated-heap backends can
        dispatch it — the shared output vector makes it ``process_safe``.
        """
        for _ in range(self.iterations):
            run_for(self.multiply_rows, 0, self.n, 1, loop_name="Sparse.rows")
        return self.total()

    def multiply_rows(self, start: int, end: int, step: int) -> None:
        """For method: apply the non-zeros of rows ``start <= r < end``."""
        if self.kernel == "vector":
            self._multiply_rows_vector(start, end, step)
            return
        row_ptr = self.row_ptr
        if step == 1:
            first, last = int(row_ptr[start]), int(row_ptr[end])
            self.multiply_range(first, last, 1)
            return
        for r in range(start, end, step):
            self.multiply_range(int(row_ptr[r]), int(row_ptr[r + 1]), 1)

    def _multiply_rows_vector(self, start: int, end: int, step: int) -> None:
        """Vectorised row-range body: per-row sums via ``np.add.reduceat``.

        The scatter ``np.add.at`` of the python path is unbuffered and
        GIL-bound per element group; here the chunk's products are reduced
        per row in one reduceat call.  Empty rows need care — reduceat's
        contract yields ``products[offsets[j]]`` (not 0) for a zero-length
        segment, and a trailing empty row's offset would fall off the end of
        the products array — so the reduction runs over the offsets of
        *non-empty* rows only.  A row's sum depends only on that row's
        products, so any chunking of the row range produces results
        bit-identical to the vectorised serial run; the per-row pairwise
        reduction differs from the python path's sequential scatter order at
        the ~1e-15 level.
        """
        if step != 1:
            for r in range(start, end, step):
                self._multiply_rows_vector(r, r + 1, 1)
            return
        row_ptr = self.row_ptr
        first, last = int(row_ptr[start]), int(row_ptr[end])
        if first == last:
            return
        products = self.values[first:last] * self.x[self.col[first:last]]
        offsets = (row_ptr[start:end] - first).astype(np.intp)
        counts = row_ptr[start + 1 : end + 1] - row_ptr[start:end]
        nonempty = np.flatnonzero(counts > 0)
        sums = np.add.reduceat(products, offsets[nonempty])
        y = self._y()
        y[start + nonempty] += sums

    def multiply_range(self, start: int, end: int, step: int) -> None:
        """For method: apply non-zero entries ``start <= k < end`` to the output."""
        row, col, values, x, y = self.row, self.col, self.values, self.x, self._y()
        if step == 1:
            # np.add.at handles repeated output rows correctly (unbuffered).
            np.add.at(y, row[start:end], values[start:end] * x[col[start:end]])
        else:
            indices = np.arange(start, end, step)
            np.add.at(y, row[indices], values[indices] * x[col[indices]])

    # -- case-specific partitioning ------------------------------------------------

    def row_block_bounds(self, num_threads: int) -> list[tuple[int, int]]:
        """Split the non-zero index range at row boundaries into ``num_threads`` blocks.

        Each block covers roughly ``nz / num_threads`` entries but never splits
        a row across blocks, so the scatter updates of different threads touch
        disjoint rows — the case-specific distribution the paper's Sparse row
        in Table 2 refers to.
        """
        bounds: list[tuple[int, int]] = []
        target = self.nz / num_threads
        begin = 0
        for t in range(num_threads):
            if t == num_threads - 1:
                end = self.nz
            else:
                end = int(round((t + 1) * target))
                # Move the split forward until the row changes.
                while 0 < end < self.nz and self.row[end] == self.row[end - 1]:
                    end += 1
            end = max(end, begin)
            bounds.append((begin, end))
            begin = end
        return bounds

    # -- validation ------------------------------------------------------------------

    def total(self) -> float:
        """Validation value: the sum of the output vector (JGF's ytotal)."""
        return float(self.y.sum())
