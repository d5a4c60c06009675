"""Low-rank block compression: partially pivoted ACA plus recompression.

The cross approximation touches only single rows and columns of the target
block, so compressing an m-by-n block of rank k costs O(k*(m+n)) kernel
evaluations.  Pivoting is deterministic: the first pivot row is the first
local row, later pivot rows maximize the magnitude of the latest column
term over untouched rows, and all ties resolve to the lowest index.  The
stopping test compares the newest cross against an incrementally
accumulated Frobenius estimate of the partial sum.  A sampled row or
column with a non-finite entry raises ``BlockError``.

``aca`` takes a stack of same-shape blocks, one block being a stack of
one, and runs the stack in lockstep: each step samples the pivot rows of
every block still running with one ``entry_fn`` call and their pivot
columns with another, and the residuals, pivot choices and stopping tests
are array operations over the stack.  Every block follows the
single-block rules above and leaves the stack when it stops, so it gets
the pivots and rank it would get alone.  The crosses are written into
preallocated factors, one row of U and of V per cross, so the residual
row, the residual column and the estimate's cross terms are each one
batched product with the earlier crosses.  The factors start with room
for ``ACA_START_RANK`` crosses and double, up to min(m, n), when full, so
they never hold more than twice the entries of the stack's blocks.

Recompression takes one thin QR of U, the thin SVD of the k-by-n matrix
R V (U V = Q R V, so these are the singular values of U V), and truncates
relative to the largest singular value.  It never increases the rank and
is rank-stable under repetition.  It calls LAPACK's ``zgeqrf``, ``zungqr``
and ``zgesdd`` directly: on the small factors ACA leaves (a few crosses of
a few dozen entries), numpy's ``qr`` and ``svd`` wrappers cost more than
the LAPACK work they wrap.  These are the routines those wrappers run,
with the workspace sizes they query and operands in the layout they use,
so where scipy's LAPACK and numpy's agree the factors are numpy's bit for
bit (the tests compare them).

``check_tolerance`` states the one rule on the tolerance that ACA,
recompression and ``hmatrix.assemble`` share: it lies in [0, 1), since a
tolerance of 1 or more drops every singular value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Tuple

import numpy as np
from scipy.linalg import lapack

EntryFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
Factors = Tuple[np.ndarray, np.ndarray]

# crosses the ACA factors have room for at first; they double when full.
# Small, because a stack multiplies the room by its block count.
ACA_START_RANK = 4


def check_tolerance(tol: float) -> None:
    """The one compression tolerance rule, for ``assemble``, ``aca`` and
    ``recompress``: 0 <= tol < 1.  A NaN passes no comparison, and a tol of
    1 or more would truncate every singular value and so zero the far
    field."""
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"compression tolerance must be in [0, 1), got {tol:g}")


class BlockError(ValueError):
    """ACA failed on one block of a stack; ``index`` is its position there."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


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
) -> List[Factors]:
    """Partially pivoted adaptive cross approximation of a stack of blocks.

    Parameters
    ----------
    entry_fn : callable
        Vectorized evaluator: ``entry_fn(rows, cols)`` with rows (B, m)
        and cols (B, n) returns the entries, shape (B, m, n).
    rows, cols : ndarray
        Global indices of a stack of B same-shape blocks, (B, m) and
        (B, n); one block is a stack of one.
    tol : float
        Relative stopping tolerance in [0, 1) (``check_tolerance``): a
        block stops once ``|u_k| * |v_k| <= tol * |S_k|_F`` with its
        accumulated estimate.

    Returns
    -------
    list of B (U, V)
        Each block's factors, shapes (m, k) and (k, n); k may be 0 for a
        zero block.

    Raises
    ------
    BlockError
        When a sampled row or column holds a non-finite entry; ``index``
        names the block in the stack.
    """
    check_tolerance(tol)
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    if rows.ndim != 2 or cols.ndim != 2 or rows.shape[0] != cols.shape[0]:
        raise ValueError(f"aca takes (B, m) rows and (B, n) cols, got shapes {rows.shape} and {cols.shape}")
    # the arrays hold only the blocks still running, all with k crosses,
    # and lose a block's row when it stops
    count, m = rows.shape
    n = cols.shape[1]
    factors: List[Factors] = [None] * count  # type: ignore[list-item]
    ids = np.arange(count)  # each running block's position in the stack
    k_max = min(m, n)
    room = min(k_max, ACA_START_RANK)
    u = np.empty((count, room, m), dtype=np.complex128)  # cross l of block i is u[i, l]
    v = np.empty((count, room, n), dtype=np.complex128)
    row_used = np.zeros((count, m), dtype=bool)
    norm_sq = np.zeros(count)
    next_row = np.zeros(count, dtype=int)
    k = 0

    def retire(done: np.ndarray, rank: int) -> None:
        nonlocal ids, rows, cols, u, v, row_used, norm_sq, next_row
        # one copy, cut to their rank, for all the blocks that stop here
        done_u, done_v = u[done, :rank], v[done, :rank]
        for j, i in enumerate(ids[done]):
            factors[i] = done_u[j].T, done_v[j]
        keep = ~done
        ids, rows, cols, u, v = ids[keep], rows[keep], cols[keep], u[keep], v[keep]
        row_used, norm_sq, next_row = row_used[keep], norm_sq[keep], next_row[keep]

    while ids.size and k < k_max:
        if k == u.shape[1]:
            u, v = _grow(u, v, min(2 * k, k_max))
        # find each block's pivot row with a non-vanishing residual
        j_pivot = np.zeros(ids.size, dtype=int)
        found = np.zeros(ids.size, dtype=bool)
        probe = next_row.copy()
        pending = np.arange(ids.size)
        while pending.size:
            at = probe[pending]
            row_used[pending, at] = True
            sampled = entry_fn(rows[pending, at][:, None], cols[pending])[:, 0]
            _require_finite(sampled, ids[pending], "row", rows[pending, at])
            if k:
                sampled -= (u[pending, :k, at][:, None] @ v[pending, :k])[:, 0]
            magnitude = np.abs(sampled)
            j = np.argmax(magnitude, axis=1)
            # rows whose residual is pure roundoff against the accumulated
            # approximation count as exhausted, not as pivots
            noise_floor = 1e-13 * np.sqrt(np.maximum(norm_sq[pending], 0.0) / m)
            pivot = magnitude[np.arange(pending.size), j] > noise_floor
            hit = pending[pivot]
            v[hit, k] = sampled[pivot]
            j_pivot[hit] = j[pivot]
            found[hit] = True
            missed = pending[~pivot]
            probe[missed] = np.argmin(row_used[missed], axis=1)
            pending = missed[~row_used[missed].all(axis=1)]
        if not found.all():
            retire(~found, k)
            j_pivot = j_pivot[found]
            if not ids.size:
                break

        stack = np.arange(ids.size)
        v_new = v[:, k]
        v_new /= v_new[stack, j_pivot][:, None]
        sampled = entry_fn(rows, cols[stack, j_pivot][:, None])[:, :, 0]
        _require_finite(sampled, ids, "column", cols[stack, j_pivot])
        u_new = u[:, k]
        u_new[...] = sampled
        if k:
            u_new -= (v[stack, :k, j_pivot][:, None] @ u[:, :k])[:, 0]

        cross_sq = _sq_norms(u_new) * _sq_norms(v_new)
        if k:
            # the conjugate of sum_l (u_l^H u_new)(v_l^H v_new) over earlier
            # crosses l, with the same real part
            u_terms = (u[:, :k] @ u_new.conj()[:, :, None])[:, :, 0]
            v_terms = (v[:, :k] @ v_new.conj()[:, :, None])[:, :, 0]
            norm_sq += 2.0 * np.einsum("ik,ik->i", u_terms, v_terms).real
        norm_sq += cross_sq
        k += 1

        # a stopped block and one with no untouched row leave the stack
        done = (cross_sq <= (tol**2) * np.maximum(norm_sq, 0.0)) | row_used.all(axis=1)
        next_row = np.argmax(np.where(row_used, -1.0, np.abs(u_new)), axis=1)
        if done.any():
            retire(done, k)
    retire(np.ones(ids.size, dtype=bool), k)
    return factors


def _require_finite(sampled: np.ndarray, ids: np.ndarray, what: str, index: np.ndarray) -> None:
    """Raise ``BlockError`` for the first block whose sampled entries are not all finite."""
    bad = ~np.isfinite(sampled).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise BlockError(int(ids[i]), f"non-finite kernel entries in sampled {what} {int(index[i])}")


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each row of a complex array."""
    return np.einsum("ij,ij->i", x.conj(), x).real


def _grow(u: np.ndarray, v: np.ndarray, rank: int) -> Tuple[np.ndarray, np.ndarray]:
    """Room for ``rank`` crosses per block, the crosses so far copied over."""
    k = u.shape[1]
    grown_u = np.empty((u.shape[0], rank, u.shape[2]), dtype=np.complex128)
    grown_v = np.empty((v.shape[0], rank, v.shape[2]), dtype=np.complex128)
    grown_u[:, :k] = u
    grown_v[:, :k] = v
    return grown_u, grown_v


@lru_cache(maxsize=None)
def _workspace(m: int, k: int, n: int) -> Tuple[int, int, int]:
    """Optimal ``zgeqrf``, ``zungqr`` and ``zgesdd`` workspace lengths for
    recompressing an m-by-k U and a k-by-n V, queried once per shape."""
    p = min(m, k)
    qr_work = lapack.zgeqrf(np.empty((m, k), dtype=np.complex128), lwork=-1)[2]
    q_work = lapack.zungqr(np.empty((m, p), dtype=np.complex128), np.empty(p, dtype=np.complex128), lwork=-1)[1]
    svd_work = lapack.zgesdd_lwork(n, p, compute_uv=1, full_matrices=0)[0]
    return int(qr_work[0].real), int(q_work[0].real), int(svd_work.real)


def recompress(u: np.ndarray, v: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Re-orthogonalize an outer-product factorization and truncate.

    With U = Q R, U V = Q (R V): one thin QR of U and a thin SVD of the
    k-by-n matrix R V give the singular values of U V, and the rank kept
    is the number above ``tol`` times the largest, tol in [0, 1): a zero
    U V keeps none.  ``tol = 0`` performs the lossless orthogonal
    reduction (only exactly zero directions can drop); the rank never
    exceeds min(k, m, n).  A LAPACK failure, such as a non-finite factor,
    raises ``np.linalg.LinAlgError``.
    """
    check_tolerance(tol)
    m, k = u.shape
    if k == 0:
        return u.copy(), v.copy()
    p = min(m, k)
    qr_work, q_work, svd_work = _workspace(m, k, v.shape[1])
    # U = Q R with Q m-by-p and R p-by-k: Q from the first p reflectors,
    # R the upper trapezoid of the first p rows.  Both are C-ordered, as
    # numpy's are: a matrix-vector product sums in an order that follows
    # the layout
    qr, tau, _, info = lapack.zgeqrf(u, lwork=qr_work)
    _check("QR", info)
    q, _, info = lapack.zungqr(qr[:, :p], tau, lwork=q_work)
    _check("QR", info)
    q, r = np.ascontiguousarray(q), np.ascontiguousarray(qr[:p])
    for j in range(p - 1):
        r[j + 1 :, j] = 0.0
    # R V = Y S X^H from the thin SVD of its conjugate transpose X S Y^H:
    # LAPACK's path for a tall matrix is the faster one
    x, sigma, yh, info = lapack.zgesdd((r @ v).conj().T, full_matrices=0, lwork=svd_work)
    _check("SVD", info)
    keep = int(np.count_nonzero(sigma > tol * sigma[0]))
    return q @ (yh[:keep].conj().T * sigma[:keep]), x[:, :keep].conj().T


def _check(what: str, info: int) -> None:
    """Raise for a non-zero LAPACK ``info``: an argument LAPACK refused
    (a NaN factor makes ``zgesdd`` refuse its matrix) or no convergence."""
    if info:
        raise np.linalg.LinAlgError(f"{what} of the factors failed (LAPACK info {info})")
