"""Low-rank block compression: partially pivoted ACA plus recompression.

The cross approximation touches only single rows and columns of the target
block, so compressing an m-by-n block of rank k costs O(k*(m+n)) kernel
evaluations.  Pivoting is deterministic: the first pivot row is the first
local row, later pivot rows maximize the magnitude of the latest column
term over untouched rows, and all ties resolve to the lowest index.  The
stopping test compares the newest cross against an incrementally
accumulated Frobenius estimate of the partial sum.  The crosses are
written into preallocated factors, U in Fortran order (one contiguous
column per cross) and V in C order (one row per cross), so the residual
row, the residual column and the estimate's cross terms are each one
product with the earlier crosses.  The factors start with room for
``ACA_START_RANK`` crosses and double, up to min(m, n), when full.

Recompression takes one thin QR of U, the thin SVD of the k-by-n matrix
R V (U V = Q R V, so these are the singular values of U V), and truncates
relative to the largest singular value.  It never increases the rank and
is rank-stable under repetition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

EntryFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

# crosses the ACA factors have room for at first; they double when full.
# Room for all min(m, n) at once would put arrays of 4 MB and more (a 512
# block) on the heap, where numpy advises huge pages for them.
ACA_START_RANK = 16


@dataclass(frozen=True)
class LowRankBlock:
    """Outer-product factorization U @ V of one admissible block.

    ``row_start``/``col_start`` locate the block in tree-permuted matrix
    coordinates; U is (m, k) and V is (k, n).  Inside an ``HMatrix`` both
    are views of its level's sparse factors.
    """

    row_start: int
    col_start: int
    u: np.ndarray
    v: np.ndarray
    level: int = 0

    @property
    def shape(self) -> Tuple[int, int]:
        return self.u.shape[0], self.v.shape[1]

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def stored_entries(self) -> int:
        m, n = self.shape
        return self.rank * (m + n)


def aca(
    entry_fn: EntryFn,
    rows: np.ndarray,
    cols: np.ndarray,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Partially pivoted adaptive cross approximation of a matrix block.

    Parameters
    ----------
    entry_fn : callable
        Vectorized evaluator: ``entry_fn(i_array, j_array)`` returns the
        block of entries with shape ``(len(i_array), len(j_array))``.
    rows, cols : ndarray
        Global index arrays defining the block.
    tol : float
        Relative stopping tolerance: iteration ends once
        ``|u_k| * |v_k| <= tol * |S_k|_F`` with the accumulated estimate.

    Returns
    -------
    (U, V)
        Factors with shapes (m, k) and (k, n); k may be 0 for a zero block.
    """
    if tol < 0.0:
        raise ValueError("aca tolerance must be non-negative")
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    m, n = rows.size, cols.size

    k_max = min(m, n)
    u = np.empty((m, min(k_max, ACA_START_RANK)), dtype=np.complex128, order="F")
    v = np.empty((u.shape[1], n), dtype=np.complex128)
    k = 0
    row_used = np.zeros(m, dtype=bool)
    norm_sq = 0.0
    next_row = 0

    while k < k_max:
        if k == u.shape[1]:
            u, v = _grow(u, v, min(2 * k, k_max))
        # find a pivot row with a non-vanishing residual
        pivot_row = -1
        residual_row = v[k]
        probe = next_row
        while probe >= 0:
            row_used[probe] = True
            residual_row[...] = entry_fn(rows[probe : probe + 1], cols)[0]
            if k:
                residual_row -= u[probe, :k] @ v[:k]
            j_pivot = int(np.argmax(np.abs(residual_row)))
            # rows whose residual is pure roundoff against the accumulated
            # approximation count as exhausted, not as pivots
            noise_floor = 1e-13 * math.sqrt(max(norm_sq, 0.0) / m)
            if abs(residual_row[j_pivot]) > noise_floor:
                pivot_row = probe
                break
            untouched = np.flatnonzero(~row_used)
            probe = int(untouched[0]) if untouched.size else -1
        if pivot_row < 0:
            break

        v_new = residual_row
        v_new /= v_new[j_pivot]
        u_new = u[:, k]
        u_new[...] = entry_fn(rows, cols[j_pivot : j_pivot + 1])[:, 0]
        if k:
            u_new -= u[:, :k] @ v[:k, j_pivot]

        cross_sq = float(np.vdot(u_new, u_new).real * np.vdot(v_new, v_new).real)
        if k:
            # the conjugate of sum_l (u_l^H u_new)(v_l^H v_new) over earlier
            # crosses l, with the same real part
            norm_sq += 2.0 * float(((u_new.conj() @ u[:, :k]) @ (v[:k] @ v_new.conj())).real)
        norm_sq += cross_sq
        k += 1

        if cross_sq <= (tol**2) * max(norm_sq, 0.0):
            break

        untouched = np.flatnonzero(~row_used)
        if untouched.size == 0:
            break
        next_row = int(untouched[np.argmax(np.abs(u_new[untouched]))])

    return u[:, :k], v[:k]


def _grow(u: np.ndarray, v: np.ndarray, rank: int) -> Tuple[np.ndarray, np.ndarray]:
    """Room for ``rank`` crosses, the crosses so far copied over."""
    k = u.shape[1]
    grown_u = np.empty((u.shape[0], rank), dtype=np.complex128, order="F")
    grown_v = np.empty((rank, v.shape[1]), dtype=np.complex128)
    grown_u[:, :k] = u
    grown_v[:k] = v
    return grown_u, grown_v


def recompress(u: np.ndarray, v: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Re-orthogonalize an outer-product factorization and truncate.

    With U = Q R, U V = Q (R V): one thin QR of U and a thin SVD of the
    k-by-n matrix R V give the singular values of U V, and the rank kept
    is the number above ``tol`` times the largest.  ``tol = 0`` performs
    the lossless orthogonal reduction (only exactly zero directions can
    drop); the rank never exceeds min(k, m, n).
    """
    if tol < 0.0:
        raise ValueError("recompression tolerance must be non-negative")
    k = u.shape[1]
    if k == 0:
        return u.copy(), v.copy()
    q, r = np.linalg.qr(u)
    # R V = Y S X^H from the thin SVD of its conjugate transpose X S Y^H:
    # LAPACK's path for a tall matrix is the faster one
    x, sigma, yh = np.linalg.svd((r @ v).conj().T, full_matrices=False)
    if sigma[0] == 0.0:
        keep = 0
    elif tol == 0.0:
        keep = int(np.count_nonzero(sigma > 0.0))
    else:
        keep = int(np.count_nonzero(sigma > tol * sigma[0]))
    return q @ (yh[:keep].conj().T * sigma[:keep]), x[:, :keep].conj().T
