"""Near-field scaling: block-diagonal alpha and the exact near-field solve.

The scaling operator alpha is the exact blockwise inverse of the diagonal
near blocks (one per leaf), applied through stored LU factors rather than
explicit inverses.  Left-multiplying the system by the inverse of the
scaled near field turns

    (Z_N + sum_l Z_Fl) x = b

into

    (I + sum_l U_l) x = Z_N^{-1} b,      U_l = Z_N^{-1} Z_Fl,

which is the fixed point the power-series chain factorizes.  The scaled
near field (alpha Z_N) has identity diagonal blocks by construction, and
its inverse composed with alpha collapses to Z_N^{-1}, so the near-field
action here is a single sparse factorization of the Z_N the H-matrix
stores (``HMatrix.near_matrix``).  When the partition produced no
off-diagonal near blocks (single-leaf trees, or block-diagonal near
fields) that factorization degenerates to alpha itself.

The constructor also measures the residual defect of the identity claim
alpha * Z_N,diag = I on random probe vectors; a healthy system sits at
rounding level and anything larger signals a broken or synthetically
de-scaled alpha.  The solver's guard turns that defect into a hard error
before any series is applied.

``estimate_spectral_radius`` provides the radius estimates the solver uses
for its convergence guards: plain power iteration on each factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.sparse.linalg import splu

from .hmatrix import HMatrix

_DEFECT_PROBES = 2


@dataclass(frozen=True)
class NormEstimate:
    """Spectral-norm estimate tagged with how it was obtained."""

    value: float
    mode: str
    iterations: int


def estimate_spectral_radius(
    apply: Callable[[np.ndarray], np.ndarray],
    n: int,
    iters: int = 20,
    seed: int = 0,
) -> NormEstimate:
    """Dominant-eigenvalue magnitude estimate by plain power iteration.

    This is the quantity that decides whether the alternating power series
    for (I + T)^-1 converges: the spectral radius of T below one is
    necessary and sufficient, while the 2-norm is only sufficient.  The
    growth factors of the final two iterations are averaged geometrically
    to damp the odd/even oscillation a dominant complex-conjugate pair
    produces.
    """
    if n < 1:
        raise ValueError("operator dimension must be positive")
    if iters < 2:
        raise ValueError("iteration count must be at least 2")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    growth = []
    for _ in range(iters):
        w = apply(v)
        g = float(np.linalg.norm(w))
        if g == 0.0:
            return NormEstimate(0.0, "power-radius", iters)
        growth.append(g)
        v = w / g
    return NormEstimate(float(np.sqrt(growth[-1] * growth[-2])), "power-radius", iters)


@dataclass
class ScaledSystem:
    """Blockwise scaling, exact near-field solve, and the scaled RHS.

    Vectors live in tree-permuted coordinates throughout.
    """

    h: HMatrix
    leaf_ranges: List[Tuple[int, int]]
    lu_factors: List[Tuple[np.ndarray, np.ndarray]]
    b: np.ndarray
    b_tilde: np.ndarray
    alpha_scale: float
    scale_defect: float
    near_factorization: object = None

    @property
    def n(self) -> int:
        return self.h.n

    def _leaf_solve(self, x: np.ndarray) -> np.ndarray:
        """Solve each diagonal leaf block against its slice of x."""
        y = np.empty(self.n, dtype=np.complex128)
        for (start, stop), factors in zip(self.leaf_ranges, self.lu_factors):
            y[start:stop] = lu_solve(factors, x[start:stop])
        return y

    def alpha_apply(self, x: np.ndarray) -> np.ndarray:
        """alpha x: the leaf solve times the alpha_scale knob."""
        y = self._leaf_solve(x)
        if self.alpha_scale != 1.0:
            y *= self.alpha_scale
        return y

    def near_solve(self, v: np.ndarray) -> np.ndarray:
        """Exact x with Z_N x = v, independent of the alpha_scale knob."""
        if self.near_factorization is None:
            return self._leaf_solve(v)
        return np.ascontiguousarray(self.near_factorization.solve(v))

    def scaled_matvec(self, x: np.ndarray) -> np.ndarray:
        """Action of alpha Z with every assembled level included."""
        return self.alpha_apply(self.h.matvec(x))


def compute_scaling(
    h: HMatrix,
    b: np.ndarray,
    alpha_scale: float = 1.0,
    probe_seed: int = 0,
) -> ScaledSystem:
    """Factor the near field, build alpha, and scale the right-hand side.

    ``alpha_scale`` deliberately mis-scales alpha (diagnostic knob used to
    exercise the solver's convergence guard); production runs leave it at 1.
    A singular diagonal block raises with the offending leaf named.
    """
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (h.n,):
        raise ValueError(f"right-hand side must have length {h.n}")
    diag_blocks = h.diagonal_blocks()
    expected = sorted(h.tree.leaf_ranges())
    got = [(blk.row_start, blk.row_stop) for blk in diag_blocks]
    if got != expected:
        raise ValueError("near field is missing a diagonal block for some leaf")

    leaf_ranges: List[Tuple[int, int]] = []
    factors: List[Tuple[np.ndarray, np.ndarray]] = []
    for leaf_index, blk in enumerate(diag_blocks):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", LinAlgWarning)
                lu, piv = lu_factor(blk.data)
        except (np.linalg.LinAlgError, LinAlgWarning) as exc:
            raise ValueError(
                f"diagonal near block for leaf {leaf_index} "
                f"(rows [{blk.row_start}, {blk.row_stop})) is singular: {exc}"
            ) from exc
        if np.any(np.diag(lu) == 0.0):
            raise ValueError(
                f"diagonal near block for leaf {leaf_index} "
                f"(rows [{blk.row_start}, {blk.row_stop})) is singular to working precision"
            )
        leaf_ranges.append((blk.row_start, blk.row_stop))
        factors.append((lu, piv))

    near_factorization = None
    if any(not blk.is_diagonal for blk in h.near_blocks):
        try:
            near_factorization = splu(h.near_matrix())
        except RuntimeError as exc:
            raise ValueError(f"near-field matrix is singular: {exc}") from exc
        if np.any(near_factorization.U.diagonal() == 0.0):
            raise ValueError("near-field matrix is singular to working precision")

    system = ScaledSystem(
        h=h,
        leaf_ranges=leaf_ranges,
        lu_factors=factors,
        b=b,
        b_tilde=np.zeros_like(b),
        alpha_scale=float(alpha_scale),
        scale_defect=0.0,
        near_factorization=near_factorization,
    )
    system.b_tilde = system.alpha_apply(b)

    # measure |alpha Z_N,diag - I| blockwise on random probes; block-diagonal
    # structure makes the max over leaves the exact operator norm bound
    rng = np.random.default_rng(probe_seed)
    defect = 0.0
    for blk, (start, stop), facs in zip(diag_blocks, leaf_ranges, factors):
        m = stop - start
        for _ in range(_DEFECT_PROBES):
            x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            x /= np.linalg.norm(x)
            y = alpha_scale * lu_solve(facs, blk.data @ x) - x
            defect = max(defect, float(np.linalg.norm(y)))
    system.scale_defect = defect
    return system
