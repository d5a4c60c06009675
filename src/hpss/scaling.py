"""Near-field scaling: the exact near-field solve and its level-0 check.

Left-multiplying the system by the inverse of the near field Z_N turns

    (Z_N + sum_l Z_Fl) x = b

into

    (I + sum_l U_l) x = Z_N^{-1} b,      U_l = Z_N^{-1} Z_Fl,

which is the fixed point the power-series chain factorizes.  The near
solve is one sparse LU factorization of Z_N^T, Z_N being the near field
the H-matrix stores (``NearField.csr``), whatever its shape, and
SuperLU's transposed solve of that factor, (Z_N^T)^T x = v.  That is
exact for any Z_N, reciprocal or not, and faster per call than the plain
solve of a factor of Z_N on strips and circles (by about a sixth at 1k-2k
unknowns, a tenth at 16k) and as fast on disks.  ``NearFactor.solve``
is the one near solve: the cascade and the level-0 check both call it.
Z_N is structurally symmetric (a leaf pair is near exactly when its
transpose is), so the factorization orders its columns by minimum degree
on A^T + A (Liu, ACM TOMS 11, 1985, as in SuperLU); on strips, circles
and disks that fills no more than COLAMD's unsymmetric ordering.

A far level stores Z_Fl = L_l R_l (``hmatrix.FarFactors``), so
U_l x = (Z_N^{-1} L_l)(R_l x)[swap].  ``NearFactor.solved_left`` makes
S_l = Z_N^{-1} L_l, a dense N x w_l matrix, by one blocked solve of
L_l's w_l columns, for each level whose N w_l entries are no more than
the factorization's nnz(L + U): a product with S_l then reads no more
entries than the near solve it replaces, and the cascade applies that
level without one.  Wider levels keep the near solve after each product.

The level-0 check measures the identity claim alpha * Z_N = I, alpha
being that near solve, on fixed random probe vectors x: the defect is
max |Z_N alpha(x) - x|.  A healthy system sits at rounding level, and
anything larger signals a near solve that does not invert the stored
Z_N.  The solver's guard turns that defect into a hard error before any
series is applied.
Before factoring Z_N, each diagonal leaf block is LU-factored once as a
pass/fail check, so that a singular leaf is named; those factors are not
solved with.  Every leaf has its diagonal block, because ``assemble``
stores each (leaf, leaf) pair in the near field; that is not re-checked
here.

None of this depends on the right-hand side, so it is done once per
near field: the first ``compute_scaling`` on an ``HMatrix`` keeps the near
factorization and its defect, a ``NearFactor``, with its near field, which
operators made by ``HMatrix.keep_levels`` share, and every ``ScaledSystem``
of that near field holds that one factor.  The factor keeps each S_l it
makes too, so those operators share them.  ``assemble`` has made the
near stacks read-only, so a write into a factored operator raises
instead of being solved with a stale LU.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor
from scipy.sparse.linalg import SuperLU, splu

from .hmatrix import FarFactors, HMatrix
from .solvers import check_finite_rhs

_DEFECT_PROBES = 2


@dataclass(frozen=True)
class NearFactor:
    """The right-hand-side-free part of ``compute_scaling``, one per operator.

    ``factorization`` is the LU factorization of Z_N^T, and ``solve`` its
    transposed solve: the near solve alpha every solution goes through.
    ``defect`` is the level-0 defect max |Z_N alpha(x) - x| over the probes
    x.  The max is a lower estimate of |alpha Z_N - I|, since the probes
    need not find its worst direction, and NaN when a probe is.
    ``solved`` keeps S_l per near-solved far level (see ``solved_left``).
    """

    factorization: SuperLU
    defect: float
    solved: Dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Exact x with Z_N x = v: (Z_N^T)^T x = v by the transposed solve.
        ``v`` is a vector or an N x k block; a block is solved column by
        column in one call, and its solution comes back Fortran-ordered."""
        return self.factorization.solve(v, trans="T")

    def solved_left(self, level: int, part: FarFactors) -> Optional[np.ndarray]:
        """S_l = Z_N^-1 L_l, dense N x w_l, for the far level ``level``
        whose factors are ``part``, or None when N w_l exceeds the entries
        of the near factorization, so that a product with S_l would read
        more than the near solve it replaces.

        It is made by one blocked solve on first request and kept here by
        level: the operators sharing this near field are those
        ``HMatrix.keep_levels`` makes, which share each level's factors
        too, so they all read the same S_l.
        """
        n, width = part.left.shape
        if n * width > self.factorization.nnz:
            return None
        if level not in self.solved:
            self.solved[level] = self.solve(part.left.toarray())
        return self.solved[level]


@dataclass
class ScaledSystem:
    """A right-hand side and the near factor of its operator's near field.

    ``near`` is the factor kept with that near field, its level-0 defect
    included, so the system serves every operator sharing the near field.
    Vectors live in tree-permuted coordinates throughout.
    """

    b: np.ndarray
    near: NearFactor

    def near_solve(self, v: np.ndarray) -> np.ndarray:
        """Exact x with Z_N x = v."""
        return self.near.solve(v)


def _factor_near_field(h: HMatrix) -> NearFactor:
    """Check every diagonal leaf block, factor Z_N and measure the level-0
    defect of that factorization; a singular block or near field raises.

    The near field holds every diagonal leaf block: ``assemble`` stores
    each (leaf, leaf) pair, which is never admissible, unmirrored."""
    for leaf_index, (start, block) in enumerate(h.near.diagonal_blocks()):
        stop = start + len(block)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", LinAlgWarning)
                lu_factor(block)
        except (np.linalg.LinAlgError, LinAlgWarning) as exc:
            raise ValueError(
                f"diagonal near block for leaf {leaf_index} (rows [{start}, {stop})) is singular: {exc}"
            ) from exc

    try:
        # Z_N's canonical CSR arrays, read as CSC, are Z_N^T
        factor = NearFactor(splu(h.near.csr().T, permc_spec="MMD_AT_PLUS_A"), 0.0)
    except RuntimeError as exc:
        raise ValueError(f"near-field matrix is singular: {exc}") from exc

    rng = np.random.default_rng(0)
    defect = 0.0
    for _ in range(_DEFECT_PROBES):
        x = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
        x /= np.linalg.norm(x)
        # np.maximum, unlike max, keeps a NaN probe, which the guard refuses
        defect = float(np.maximum(defect, np.linalg.norm(h.near_matvec(factor.solve(x)) - x)))
    return replace(factor, defect=defect)


def compute_scaling(h: HMatrix, b: np.ndarray) -> ScaledSystem:
    """``b`` paired with the near factor of ``h``'s near field; no solve.

    The first call on ``h`` factors its near field and keeps the result
    with it, in ``h.near`` (see the module docstring); later calls, on
    ``h`` or on an operator sharing that near field, reuse it and its
    level-0 defect.  A singular diagonal block raises with the offending
    leaf named; a NaN or infinite entry of ``b`` raises with its index.
    """
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (h.n,):
        raise ValueError(f"right-hand side must have length {h.n}")
    check_finite_rhs(b)
    if h.near.factor is None:
        h.near.factor = _factor_near_field(h)
    return ScaledSystem(b, h.near.factor)
