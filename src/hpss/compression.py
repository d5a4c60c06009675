"""Low-rank block compression: partially pivoted ACA plus recompression.

The cross approximation touches only single rows and columns of the target
block, so compressing an m-by-n block of rank k costs O(k*(m+n)) kernel
evaluations.  Pivoting is deterministic: the first pivot row is the first
local row, later pivot rows maximize the magnitude of the latest column
term over untouched rows, and all ties resolve to the lowest index.  The
stopping test compares the newest cross against an incrementally
accumulated Frobenius estimate of the partial sum.

Recompression orthogonalizes both factors with thin QR, takes the SVD of
the small k-by-k core, and truncates relative to the largest singular
value.  It never increases the rank and is rank-stable under repetition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

EntryFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


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

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    row_used = np.zeros(m, dtype=bool)
    norm_sq = 0.0
    next_row = 0

    while len(us) < min(m, n):
        # find a pivot row with a non-vanishing residual
        pivot_row = -1
        residual_row = None
        probe = next_row
        while probe >= 0:
            row_used[probe] = True
            r = entry_fn(rows[probe : probe + 1], cols)[0].astype(np.complex128)
            for u, v in zip(us, vs):
                r -= u[probe] * v
            j_pivot = int(np.argmax(np.abs(r)))
            # rows whose residual is pure roundoff against the accumulated
            # approximation count as exhausted, not as pivots
            noise_floor = 1e-13 * math.sqrt(max(norm_sq, 0.0) / m)
            if abs(r[j_pivot]) > noise_floor:
                pivot_row = probe
                residual_row = r
                break
            untouched = np.flatnonzero(~row_used)
            probe = int(untouched[0]) if untouched.size else -1
        if pivot_row < 0:
            break

        j_pivot = int(np.argmax(np.abs(residual_row)))
        v_new = residual_row / residual_row[j_pivot]
        u_new = entry_fn(rows, cols[j_pivot : j_pivot + 1])[:, 0].astype(np.complex128)
        for u, v in zip(us, vs):
            u_new -= v[j_pivot] * u

        cross_sq = float(np.vdot(u_new, u_new).real * np.vdot(v_new, v_new).real)
        for u, v in zip(us, vs):
            norm_sq += 2.0 * (np.vdot(u, u_new) * np.vdot(v, v_new)).real
        norm_sq += cross_sq
        us.append(u_new)
        vs.append(v_new)

        if cross_sq <= (tol**2) * max(norm_sq, 0.0):
            break

        untouched = np.flatnonzero(~row_used)
        if untouched.size == 0:
            break
        next_row = int(untouched[np.argmax(np.abs(u_new[untouched]))])

    if not us:
        return np.zeros((m, 0), dtype=np.complex128), np.zeros((0, n), dtype=np.complex128)
    return np.column_stack(us), np.vstack(vs)


def recompress(u: np.ndarray, v: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Re-orthogonalize an outer-product factorization and truncate.

    QR both factors, SVD the k-by-k core, and keep singular values above
    ``tol`` times the largest.  ``tol = 0`` performs the lossless
    orthogonal reduction (only exactly zero directions can drop).
    """
    if tol < 0.0:
        raise ValueError("recompression tolerance must be non-negative")
    k = u.shape[1]
    if k == 0:
        return u.copy(), v.copy()
    qu, ru = np.linalg.qr(u)
    qv, rv = np.linalg.qr(v.conj().T)
    core = ru @ rv.conj().T
    w, sigma, zh = np.linalg.svd(core)
    if sigma[0] == 0.0:
        keep = 0
    elif tol == 0.0:
        keep = int(np.count_nonzero(sigma > 0.0))
    else:
        keep = int(np.count_nonzero(sigma > tol * sigma[0]))
    u_new = qu @ (w[:, :keep] * sigma[:keep])
    v_new = zh[:keep] @ qv.conj().T
    return u_new, v_new
