"""Multi-level power-series solution of the scaled hierarchical system.

Left-multiplying ``(Z_N + sum_l Z_Fl) x = b`` by the exact near-field
inverse gives ``(I + sum_l U_l) x = Z_N^{-1} b`` with ``U_l = Z_N^{-1}
Z_Fl``: each factor is one tree level's far field seen through the solved
near field.  Nesting the exact factorization

    (I + U_1 + ... + U_L) = (I + T_1)(I + T_2)...(I + T_L)

level by level turns the inverse into a product of resolvents, each of
which is expanded as a finite alternating power series:

    T_1 = U_1,          Ap_1 ~ (I + T_1)^-1
    T_l = Ap_{l-1} o ... o Ap_1 o U_l,   Ap_l ~ (I + T_l)^-1

with ``Ap_l(v) = sum_{p=0..order} (-T_l)^p v`` evaluated Horner-style in
exactly ``order`` applications of ``T_l``.  The solution is the cascade
``x = Ap_L(...(Ap_1(Z_N^{-1} b))...)``.

Each expansion is valid exactly while the spectral radius of its operator
stays below one (necessary and sufficient; the 2-norm below one is merely
sufficient, and first-kind surface systems routinely combine a convergent
radius with a 2-norm above one).  The chain therefore estimates every
level's convergence radius by Arnoldi (``estimate_spectral_radius``): at
most ``RADIUS_ITERS`` products of T_l, fewer once its Krylov space closes,
give the largest Ritz value's modulus, with the Ritz residual as the
estimate's uncertainty.  Arnoldi reaches the dominant eigenvalue in far
fewer products than the power method (Saad, Numerical Methods for Large
Eigenvalue Problems, 2nd ed., SIAM 2011), which after 20 products can
still read a radius 29 % low.  The chain refuses to run past an estimate not below
``NORM_FAIL`` (1.0), a NaN included, recording a warning in the report
from ``NORM_WARN`` (0.1) up.
The same rule, stated once in ``FactorChain.guard``, covers the level-0
scaling: the construction promises that alpha, the near solve, times the
near field is the identity, and the defect ``scaling`` measures of that
promise (NaN if a probe is) is converted to the norm of the omitted
correction factor, so a near solve that does not invert Z_N is rejected
before any series runs.

The solve applies a fixed, input-independent number of level matvecs: no
residual-driven iteration hides anywhere, which is what makes the matvec
count reproducible across right-hand sides.  The count is a closed form
in the number L of levels in the chain: the i-th of them, coarsest first,
runs order (1 + order)^(L - 1 - i) products, (1 + order)^L - 1 in all
(operator products are never memoized), the accepted price of a
matvec-only cascade at desk scale.  The
H-matrix alone decides the levels: a far level it holds no blocks on, be
it skipped at assembly, without admissible pairs or with blocks of rank
zero only, has U_l = 0 and a factor that is exactly the identity, so the
chain runs the levels of ``h.level_factors`` and leaves the others out.
The cost grows with those levels, not with the tree depth (a strip's
level 1, whose two halves touch, is always empty).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .hmatrix import HMatrix
from .scaling import ScaledSystem

Apply = Callable[[np.ndarray], np.ndarray]

# guard thresholds on every factor's estimated radius, read at call time
NORM_WARN = 0.1
NORM_FAIL = 1.0
# at most this many products of T per radius estimate
RADIUS_ITERS = 16
# an orthogonalized product this small against the product closes the Krylov space
_KRYLOV_CLOSED = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when a series factor violates the norm-below-one condition."""


@dataclass(frozen=True)
class NormEstimate:
    """A convergence-factor estimate tagged with how it was obtained.

    ``residual`` is the estimate's uncertainty where its method gives one:
    for ``"arnoldi"``, the Ritz residual |T q - lambda q| of the unit Ritz
    vector q whose value lambda it reports; ``None`` otherwise.
    """

    value: float
    mode: str
    residual: Optional[float] = None


def estimate_spectral_radius(apply: Apply, n: int, seed: int = 0) -> NormEstimate:
    """Dominant-eigenvalue magnitude estimate by at most ``RADIUS_ITERS``
    Arnoldi steps, that constant read at call time.

    This is the quantity that decides whether the alternating power series
    for (I + T)^-1 converges: the spectral radius of T below one is
    necessary and sufficient, while the 2-norm is only sufficient.  Each
    step applies T once to the newest basis vector and orthogonalizes the
    product against the basis by classical Gram-Schmidt run twice (CGS2);
    the estimate is the largest |Ritz value| of the Hessenberg matrix so
    built.  The process stops early once the Krylov space closes, the
    orthogonalized product's norm being at rounding level relative to the
    product's, since the Ritz values are then eigenvalues of T.
    """
    if n < 1:
        raise ValueError("operator dimension must be positive")
    steps = RADIUS_ITERS
    rng = np.random.default_rng(seed)
    basis = np.empty((steps + 1, n), dtype=np.complex128)
    hessenberg = np.zeros((steps + 1, steps), dtype=np.complex128)
    basis[0] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    basis[0] /= np.linalg.norm(basis[0])
    for k in range(1, steps + 1):
        w = basis[k]
        w[...] = apply(basis[k - 1])
        scale = np.linalg.norm(w)
        for _ in range(2):
            # Q^H w as conj(Q conj(w)), which copies w, not the basis
            c = np.conj(basis[:k] @ np.conj(w))
            w -= c @ basis[:k]
            hessenberg[:k, k - 1] += c
        beta = np.linalg.norm(w)
        hessenberg[k, k - 1] = beta
        if beta <= _KRYLOV_CLOSED * scale:
            break
        w /= beta
    ritz, vectors = np.linalg.eig(hessenberg[:k, :k])
    i = int(np.argmax(np.abs(ritz)))
    return NormEstimate(float(np.abs(ritz[i])), "arnoldi", float(np.abs(hessenberg[k, k - 1] * vectors[k - 1, i])))


@dataclass(frozen=True)
class PssConfig:
    """Knobs of the power-series cascade.

    The levels it runs are not among them: they are the far levels of the
    H-matrix's ``level_factors``, chosen when it was assembled.
    """

    series_order: int = 2

    def __post_init__(self) -> None:
        if self.series_order < 1:
            raise ValueError(f"series_order must be at least 1, got {self.series_order}; order 0 would drop the level")


def neumann_apply(factor_apply: Apply, v: np.ndarray, order: int) -> np.ndarray:
    """Alternating truncated series sum_{p=0..order} (-T)^p v, Horner form.

    Runs exactly ``order`` applications of ``factor_apply``; order 0 is the
    identity (no applications).
    """
    result = v
    for _ in range(order):
        result = v - factor_apply(result)
    return result


def _implied_identity_factor_norm(defect: float) -> float:
    """Norm of the correction factor omitted by taking the scaled near
    field as identity: |(I + E)^-1 - I| <= e / (1 - e) for |E| = e < 1."""
    if defect >= 1.0:
        return float("inf")
    return defect / (1.0 - defect)


@dataclass
class FactorChain:
    """The guarded resolvent factors of one operator, leaf level last.

    Factor ``i`` belongs to tree level ``levels[i]``.  ``norms`` holds each
    level's radius estimate and, under key 0, the implied level-0 factor
    norm; ``warnings`` holds the guard's messages.  ``counts`` tallies the
    level matvecs run since it was last cleared; the near solves ride along
    one-for-one and are not counted.  The chain keeps the near solve and no
    right-hand side, so it serves any number of them.
    """

    h: HMatrix
    near_solve: Apply
    order: int
    levels: List[int]
    counts: Dict[int, int]
    norms: Dict[int, NormEstimate] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)

    def _resolve(self, i: int, v: np.ndarray) -> np.ndarray:
        """Ap_{i-1}(...(Ap_0(Z_N^{-1} v))...): the near solve, then the
        first ``i`` resolvents in order."""
        y = self.near_solve(v)
        for j in range(i):
            y = self.ap_apply(j, y)
        return y

    def t_apply(self, i: int, x: np.ndarray) -> np.ndarray:
        """T_i x: U_i = Z_N^{-1} Z_Fl at level ``levels[i]``, then every
        earlier resolvent in order."""
        level = self.levels[i]
        self.counts[level] += 1
        return self._resolve(i, self.h.matvec_level(level, x))

    def ap_apply(self, i: int, v: np.ndarray) -> np.ndarray:
        """Ap_i v, the truncated series for (I + T_i)^-1 v."""
        return neumann_apply(partial(self.t_apply, i), v, self.order)

    def apply(self, b: np.ndarray) -> np.ndarray:
        """The cascade x = Ap_L(...(Ap_1(Z_N^{-1} b))...)."""
        return self._resolve(len(self.levels), b)

    def guard(self, level: int, estimate: NormEstimate) -> None:
        """The one guard rule, for level 0's implied factor norm and each
        level's radius: raise :class:`ConvergenceError` on a value not below
        ``NORM_FAIL`` (NaN included), record a warning on one not below
        ``NORM_WARN``, and keep the estimate."""
        what = f"level-{level} series factor convergence radius" if level else "level-0 implied factor norm"
        value = _radius_text(estimate.value)
        if not estimate.value < NORM_FAIL:
            raise ConvergenceError(
                f"{what} {value} is not below {NORM_FAIL:g}; the power-series expansion of "
                "(I + T)^-1 requires the norm of T below one"
            )
        if not estimate.value < NORM_WARN:
            self.warnings.append(f"{what} {value} exceeds {NORM_WARN:g}; truncation error may dominate")
        self.norms[level] = estimate


def _radius_text(value: float, digits: int = 3) -> str:
    """``value`` to ``digits`` significant digits, or as many more as keep
    the printed number on the same side of ``NORM_FAIL`` as the value (so
    0.9996 never reads as 1)."""
    while digits < 17 and (float(f"{value:.{digits}g}") >= NORM_FAIL) != (value >= NORM_FAIL):
        digits += 1
    return f"{value:.{digits}g}"


def build_factor_chain(scaled: ScaledSystem, h: HMatrix, config: PssConfig) -> FactorChain:
    """Construct and norm-check the resolvent factors, leaf level last.

    The chain has one factor per level of ``h.level_factors``, in level
    order: the levels whose far blocks hold a rank above zero, since any
    other level's factor would be exactly the identity.  The
    implied level-0 factor norm, then each level's radius estimate, goes
    through ``FactorChain.guard``, so the first not below ``NORM_FAIL``
    raises :class:`ConvergenceError` before any later level is estimated.
    The chain's counts are then the guard's setup matvecs.  ``scaled``
    serves every operator whose near field keeps its near factor, one
    made by ``keep_levels`` included; another is refused.
    """
    if scaled.near is not h.near.factor:
        raise ValueError("scaled system's near solve does not invert this H-matrix's near field")
    active = sorted(h.level_factors)
    chain = FactorChain(h, scaled.near_solve, config.series_order, active, dict.fromkeys(active, 0))
    chain.guard(0, NormEstimate(_implied_identity_factor_norm(scaled.near.defect), "near-solve-defect"))
    for i, level in enumerate(active):
        chain.guard(level, estimate_spectral_radius(partial(chain.t_apply, i), h.n, seed=level))
    return chain


def expected_solve_counts(depth: int, active: Sequence[int], order: int) -> Dict[int, int]:
    """Closed-form matvec tally of one cascade application.

    Applying T_l costs one U_l plus one pass through every earlier
    resolvent, and each resolvent costs ``order`` applications of its T,
    so the i-th of the L active levels, coarsest first, runs
    ``order * (1 + order) ** (L - 1 - i)`` products: (1 + order)^L - 1 in
    all.  The tally is structural: it depends only on (active levels,
    order); ``depth`` is not read.
    """
    return {level: order * (1 + order) ** (len(active) - 1 - i) for i, level in enumerate(active)}


@dataclass
class SolveReport:
    """What the cascade did: norms, counts, timings, and the residual.

    ``residual`` is |h x - b| / |b| against the operator h (``None`` for
    b = 0), and ``residual_label`` names it: "relative residual", then
    h's ``HMatrix.scope``, so on an operator that is not ``complete`` it
    reads "relative residual (assembled operator, levels ...)".
    """

    order: int
    active_levels: List[int]
    factor_norms: Dict[int, NormEstimate]
    warnings: List[str]
    setup_matvec_counts: Dict[int, int]
    solve_matvec_counts: Dict[int, int]
    wall_time_s: float
    residual: Optional[float]
    residual_label: str

    @property
    def total_solve_matvecs(self) -> int:
        return sum(self.solve_matvec_counts.values())

    def to_text(self) -> str:
        lines = [
            "power-series solve report",
            f"series order: {self.order}",
            f"active levels: {','.join(str(l) for l in self.active_levels)}",
        ]
        for level in sorted(self.factor_norms):
            est = self.factor_norms[level]
            label = "implied level-0 factor" if level == 0 else f"level {level}"
            how = est.mode if est.residual is None else f"{est.mode}, Ritz residual {est.residual:.3g}"
            lines.append(f"convergence factor {label}: {_radius_text(est.value, 6)} [{how}]")
        lines.append(
            "setup matvecs per level: "
            + ", ".join(f"{l}:{c}" for l, c in sorted(self.setup_matvec_counts.items()))
        )
        lines.append(
            "solve matvecs per level: "
            + ", ".join(f"{l}:{c}" for l, c in sorted(self.solve_matvec_counts.items()))
        )
        lines.append(f"total solve matvecs: {self.total_solve_matvecs}")
        residual, *warnings = self.outcome_lines()
        lines += [residual, f"wall time: {self.wall_time_s:.3f} s", *warnings]
        return "\n".join(lines) + "\n"

    def outcome_lines(self) -> List[str]:
        """The labelled residual, then one ``warning:`` line per guard
        warning: what a run's summary shows of the cascade's accuracy."""
        value = "unavailable (zero right-hand side)" if self.residual is None else f"{self.residual:.6g}"
        return [f"{self.residual_label}: {value}", *(f"warning: {msg}" for msg in self.warnings)]


def solve(scaled: ScaledSystem, h: HMatrix, config: PssConfig) -> Tuple[np.ndarray, SolveReport]:
    """Run the cascade on the near-field-solved right-hand side.

    Returns the solution in tree-permuted coordinates together with a
    report.  With no far levels (single-leaf tree) the result is the exact
    blockwise near solve of b.  The relative residual is taken against
    ``h``; when ``h`` is not ``complete``, the report's label names the
    levels it holds.
    """
    start = time.perf_counter()
    chain = build_factor_chain(scaled, h, config)
    setup_counts = dict(chain.counts)
    chain.counts = dict.fromkeys(chain.counts, 0)
    x = chain.apply(scaled.b)

    residual = None
    bnorm = float(np.linalg.norm(scaled.b))
    if bnorm > 0.0:
        residual = float(np.linalg.norm(h.matvec(x) - scaled.b)) / bnorm

    report = SolveReport(
        order=config.series_order,
        active_levels=chain.levels,
        factor_norms=chain.norms,
        warnings=chain.warnings,
        setup_matvec_counts=setup_counts,
        solve_matvec_counts=chain.counts,
        wall_time_s=time.perf_counter() - start,
        residual=residual,
        residual_label="relative residual" + h.scope,
    )
    return x, report
