"""JGF LUFact benchmark — Linpack LU factorisation and solve.

This is the paper's Section III.E case study.  The kernel factorises a dense
``n x n`` matrix with partial pivoting (``dgefa``) and solves the resulting
triangular systems (``dgesl``), exactly following the Java Linpack structure:
the matrix is stored column-wise (``a[j]`` is column ``j``), the pivot search
(``idamax``), column scaling (``dscal``) and column update (``daxpy``) mirror
the BLAS-1 routines of the original.

Refactoring (paper Figure 6): the row-elimination loop has been moved into the
for method :meth:`reduce_all_cols`, and the pivot interchange into
:meth:`interchange`, so the parallelisation of Figure 7/8 can be expressed
purely with aspects/annotations:

* ``dgefa`` is the parallel region;
* ``reduce_all_cols`` gets the for work-sharing construct and a barrier after;
* ``interchange`` and ``dscal_pivot`` are master-only with barriers.

The parallelisation below uses the *annotation style* (paper Figure 8): the
PyAOmpLib annotations are placed directly on the base program's methods.  They
attach metadata only — the class behaves exactly like the sequential program
until :func:`repro.core.annotation_weaver.weave_annotations` is applied by the
AOmp driver, and reverts to it when the weaver is unplugged.
"""

from __future__ import annotations

import numpy as np

from repro.core import annotations as aomp
from repro.jgf.jgfrandom import JGFRandom


class Linpack:
    """Refactored sequential Linpack kernel (column-major storage, as in Java)."""

    def __init__(self, n: int, seed: int = 1325) -> None:
        if n < 2:
            raise ValueError("matrix order must be at least 2")
        self.n = n
        rng = JGFRandom(seed, left=-0.5, right=0.5)
        # a[j] is column j (lda == n); generated column-by-column as in Linpack.
        a = np.empty((n, n), dtype=np.float64)
        for j in range(n):
            a[j, :] = rng.doubles(n)
        # Right-hand side chosen so the exact solution is all ones.
        b = a.sum(axis=0).copy()
        self.a = a
        self.b = b
        self.ipvt = np.zeros(n, dtype=np.int64)
        self.a_original = a.copy()
        self.b_original = b.copy()

    # -- BLAS-1 style helpers -------------------------------------------------------

    @staticmethod
    def idamax(column: np.ndarray, offset: int) -> int:
        """Index (absolute, within the column) of the largest magnitude entry from ``offset`` on."""
        return int(offset + np.argmax(np.abs(column[offset:])))

    @aomp.master
    @aomp.barrier_before
    @aomp.barrier_after
    def interchange(self, k: int, pivot: int) -> None:
        """Swap the pivot element into place in column ``k`` (paper's ``interchange``)."""
        column = self.a[k]
        if pivot != k:
            column[k], column[pivot] = column[pivot], column[k]

    @aomp.master
    @aomp.barrier_after
    def dscal_pivot(self, k: int) -> None:
        """Compute the multipliers for column ``k`` (paper's ``dscal`` call)."""
        column = self.a[k]
        t = -1.0 / column[k]
        column[k + 1 :] *= t

    # -- base program (refactored as in paper Figure 6) -------------------------------

    @aomp.parallel
    def dgefa(self) -> int:
        """LU factorisation with partial pivoting; returns 0 on success."""
        n = self.n
        info = 0
        for k in range(n - 1):
            col_k = self.a[k]
            pivot = self.idamax(col_k, k)
            self.ipvt[k] = pivot
            if col_k[pivot] == 0.0:
                info = k
                continue
            self.interchange(k, pivot)
            self.dscal_pivot(k)
            self.reduce_all_cols(k + 1, n, 1, k, pivot)
        self.ipvt[n - 1] = n - 1
        if self.a[n - 1][n - 1] == 0.0:
            info = n - 1
        return info

    @aomp.for_loop(schedule="staticBlock")
    @aomp.barrier_after
    def reduce_all_cols(self, start: int, end: int, step: int, k: int, pivot: int) -> None:
        """For method: eliminate rows below the pivot in columns [start, end).

        Each column ``j`` swaps its pivot element and then applies the daxpy
        update ``a[j][k+1:] += t * col_k[k+1:]`` — columns are independent, so
        the loop is the work-shared source of parallelism (paper Figure 6).
        """
        col_k = self.a[k]
        for j in range(start, end, step):
            col_j = self.a[j]
            t = col_j[pivot]
            if pivot != k:
                col_j[pivot] = col_j[k]
                col_j[k] = t
            col_j[k + 1 :] += t * col_k[k + 1 :]

    def dgesl(self) -> np.ndarray:
        """Solve ``A x = b`` using the factorisation (sequential, as in JGF)."""
        n = self.n
        b = self.b
        # Forward elimination applying the stored multipliers.
        for k in range(n - 1):
            pivot = int(self.ipvt[k])
            t = b[pivot]
            if pivot != k:
                b[pivot] = b[k]
                b[k] = t
            b[k + 1 :] += t * self.a[k][k + 1 :]
        # Back substitution.
        for k in range(n - 1, -1, -1):
            b[k] /= self.a[k][k]
            t = -b[k]
            b[:k] += t * self.a[k][:k]
        return b

    def run(self) -> float:
        """Factorise and solve; returns the residual norm (validation value)."""
        self.dgefa()
        solution = self.dgesl()
        return self.residual(solution)

    # -- validation ------------------------------------------------------------------

    def residual(self, solution: np.ndarray) -> float:
        """Normalised residual ||A x - b|| / (n ||A|| ||x||), as Linpack reports."""
        ax = self.a_original.T @ solution
        numerator = float(np.abs(ax - self.b_original).max())
        norm_a = float(np.abs(self.a_original).max())
        norm_x = float(np.abs(solution).max())
        eps = np.finfo(np.float64).eps
        return numerator / (self.n * norm_a * norm_x * eps)
