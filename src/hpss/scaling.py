"""Near-field scaling: the exact near-field solve and its level-0 check.

Left-multiplying the system by the inverse of the near field Z_N turns

    (Z_N + sum_l Z_Fl) x = b

into

    (I + sum_l U_l) x = Z_N^{-1} b,      U_l = Z_N^{-1} Z_Fl,

which is the fixed point the power-series chain factorizes.  The near
solve is one sparse LU factorization of the Z_N the H-matrix stores
(``HMatrix.near_matrix``), whatever the shape of the near field.

The constructor also LU-factors each diagonal leaf block, to name a
singular leaf and to measure the defect of the identity claim alpha *
Z_N,diag = I (alpha: the blockwise inverse of those blocks) on fixed
random probe vectors; a healthy system sits at rounding level and anything
larger signals a broken or synthetically de-scaled alpha.  The solver's
guard turns that defect into a hard error before any series is applied.

``estimate_spectral_radius`` provides the radius estimates the solver uses
for its convergence guards: plain power iteration on each factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.sparse.linalg import SuperLU, splu

from .hmatrix import HMatrix

_DEFECT_PROBES = 2


@dataclass(frozen=True)
class NormEstimate:
    """Spectral-norm estimate tagged with how it was obtained."""

    value: float
    mode: str


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
            return NormEstimate(0.0, "power-radius")
        growth.append(g)
        v = w / g
    return NormEstimate(float(np.sqrt(growth[-1] * growth[-2])), "power-radius")


@dataclass
class ScaledSystem:
    """The exact near-field solve, the right-hand side and the level-0 defect.

    Vectors live in tree-permuted coordinates throughout.
    """

    h: HMatrix
    b: np.ndarray
    scale_defect: float
    near_factorization: SuperLU

    def near_solve(self, v: np.ndarray) -> np.ndarray:
        """Exact x with Z_N x = v, independent of the alpha_scale knob."""
        return np.ascontiguousarray(self.near_factorization.solve(v))


def compute_scaling(
    h: HMatrix,
    b: np.ndarray,
    alpha_scale: float = 1.0,
) -> ScaledSystem:
    """Factor the near field and measure the level-0 scaling defect.

    ``alpha_scale`` deliberately mis-scales alpha in that measurement
    (diagnostic knob used to exercise the solver's convergence guard);
    production runs leave it at 1.  A singular diagonal block raises with
    the offending leaf named.
    """
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (h.n,):
        raise ValueError(f"right-hand side must have length {h.n}")
    diag_blocks = h.diagonal_blocks()
    expected = sorted(h.tree.leaf_ranges())
    got = [(blk.row_start, blk.row_stop) for blk in diag_blocks]
    if got != expected:
        raise ValueError("near field is missing a diagonal block for some leaf")

    # |alpha Z_N,diag - I| blockwise on fixed random probes; the max over
    # leaves and probes is a lower estimate of its operator norm, since two
    # probes per leaf need not find a block's worst direction
    rng = np.random.default_rng(0)
    defect = 0.0
    for leaf_index, blk in enumerate(diag_blocks):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", LinAlgWarning)
                factors = lu_factor(blk.data)
        except (np.linalg.LinAlgError, LinAlgWarning) as exc:
            raise ValueError(
                f"diagonal near block for leaf {leaf_index} "
                f"(rows [{blk.row_start}, {blk.row_stop})) is singular: {exc}"
            ) from exc
        if np.any(np.diag(factors[0]) == 0.0):
            raise ValueError(
                f"diagonal near block for leaf {leaf_index} "
                f"(rows [{blk.row_start}, {blk.row_stop})) is singular to working precision"
            )
        m = blk.row_stop - blk.row_start
        for _ in range(_DEFECT_PROBES):
            x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            x /= np.linalg.norm(x)
            y = alpha_scale * lu_solve(factors, blk.data @ x) - x
            defect = max(defect, float(np.linalg.norm(y)))

    try:
        near_factorization = splu(h.near_matrix())
    except RuntimeError as exc:
        raise ValueError(f"near-field matrix is singular: {exc}") from exc
    if np.any(near_factorization.U.diagonal() == 0.0):
        raise ValueError("near-field matrix is singular to working precision")
    return ScaledSystem(h, b, defect, near_factorization)
