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
factor's convergence radius by power iteration and refuses to run past an
estimate at or above ``NORM_FAIL`` (1.0), recording a warning in the report
from ``NORM_WARN`` (0.1) up.  The same guard covers the level-0 scaling:
the construction promises that alpha times the near diagonal is the
identity, and the measured defect of that promise is converted to the
norm of the omitted correction factor, so a de-scaled alpha is rejected
before any series runs.

The solve applies a fixed, input-independent number of level matvecs: no
residual-driven iteration hides anywhere, which is what makes the matvec
count reproducible across right-hand sides.  The count grows geometrically
with the number of levels in the chain (operator products are never
memoized), the accepted price of a matvec-only cascade at desk scale.  A
configured level that holds no far blocks has U_l = 0 and a factor that is
exactly the identity, so the chain leaves it out: the cost grows with the
levels that hold blocks, not with the tree depth (a strip's level 1, whose
two halves touch, is always empty).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .hmatrix import HMatrix
from .scaling import NormEstimate, ScaledSystem, estimate_spectral_radius

Apply = Callable[[np.ndarray], np.ndarray]

# guard thresholds on every factor's estimated radius, read at call time
NORM_WARN = 0.1
NORM_FAIL = 1.0
RADIUS_ITERS = 20


class ConvergenceError(RuntimeError):
    """Raised when a series factor violates the norm-below-one condition."""


@dataclass(frozen=True)
class PssConfig:
    """Knobs of the power-series cascade.

    ``active_levels`` must be a contiguous run ending at the leaf level;
    omitted levels contribute identity factors (their far field acts as
    zero).  ``None`` activates every level.  Of these, the chain keeps the
    levels that hold far blocks.
    """

    series_order: int = 2
    active_levels: Optional[Sequence[int]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.series_order < 1:
            raise ValueError("series_order must be at least 1; order 0 would drop the level")

    def resolve_levels(self, depth: int) -> List[int]:
        if depth < 1:
            return []
        if self.active_levels is None:
            return list(range(1, depth + 1))
        levels = sorted(set(int(l) for l in self.active_levels))
        if not levels:
            raise ValueError("active_levels must not be empty")
        if levels[0] < 1 or levels[-1] != depth:
            raise ValueError(f"active_levels must end at the leaf level {depth}")
        if levels != list(range(levels[0], depth + 1)):
            raise ValueError("active_levels must be contiguous")
        return levels


def neumann_apply(factor_apply: Apply, v: np.ndarray, order: int) -> np.ndarray:
    """Alternating truncated series sum_{p=0..order} (-T)^p v, Horner form.

    Runs exactly ``order`` applications of ``factor_apply``; order 0 is the
    identity (no applications).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    result = v
    for _ in range(order):
        result = v - factor_apply(result)
    return result


def _implied_identity_factor_norm(defect: float) -> float:
    """Norm of the correction factor omitted by taking the scaled diagonal
    as identity: |(I + E)^-1 - I| <= e / (1 - e) for |E| = e < 1."""
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
    norms: Dict[int, NormEstimate]
    warnings: List[str]
    counts: Dict[int, int]

    def t_apply(self, i: int, x: np.ndarray) -> np.ndarray:
        """T_i x: U_i = Z_N^{-1} Z_Fl at level ``levels[i]``, then every
        earlier resolvent in order."""
        level = self.levels[i]
        self.counts[level] += 1
        y = self.near_solve(self.h.matvec_level(level, x))
        for j in range(i):
            y = self.ap_apply(j, y)
        return y

    def ap_apply(self, i: int, v: np.ndarray) -> np.ndarray:
        """Ap_i v, the truncated series for (I + T_i)^-1 v."""
        return neumann_apply(partial(self.t_apply, i), v, self.order)

    def apply(self, b: np.ndarray) -> np.ndarray:
        """The cascade x = Ap_L(...(Ap_1(Z_N^{-1} b))...)."""
        x = self.near_solve(b)
        for i in range(len(self.levels)):
            x = self.ap_apply(i, x)
        return x


def build_factor_chain(scaled: ScaledSystem, h: HMatrix, config: PssConfig) -> FactorChain:
    """Construct and norm-check the resolvent factors, leaf level last.

    The chain has one factor per configured level that holds far blocks;
    an empty level's factor would be exactly the identity.  Raises
    :class:`ConvergenceError` as soon as any estimated factor norm reaches
    ``NORM_FAIL`` (the series for (I + T)^-1 requires the norm of T below
    one) and records a warning from ``NORM_WARN`` up.  The chain's counts
    are then the guard's setup matvecs.
    """
    if scaled.h is not h:
        raise ValueError("scaled system was built from a different H-matrix")
    active = [level for level in config.resolve_levels(h.depth) if h.far_blocks.get(level)]
    defect_norm = _implied_identity_factor_norm(scaled.scale_defect)
    chain = FactorChain(
        h=h,
        near_solve=scaled.near_solve,
        order=config.series_order,
        levels=active,
        norms={0: NormEstimate(defect_norm, "diagonal-defect", 1)},
        warnings=[],
        counts=dict.fromkeys(active, 0),
    )

    if defect_norm >= NORM_FAIL:
        raise ConvergenceError(
            "scaled near diagonal is not the identity: the omitted level-0 factor has "
            f"estimated norm {defect_norm:.3g} >= {NORM_FAIL:g}, violating the "
            "power-series validity condition (operator norm below one)"
        )
    if defect_norm >= NORM_WARN:
        chain.warnings.append(
            f"level-0 identity defect has implied factor norm {defect_norm:.3g}; "
            "series accuracy will suffer"
        )

    for i, level in enumerate(active):
        t_apply = partial(chain.t_apply, i)
        estimate = estimate_spectral_radius(t_apply, h.n, iters=RADIUS_ITERS, seed=config.seed + level)
        if estimate.value >= NORM_FAIL:
            raise ConvergenceError(
                f"estimated convergence radius of the level-{level} series factor is "
                f"{estimate.value:.3g} >= {NORM_FAIL:g}; the power-series "
                "expansion of (I + T)^-1 requires the norm of T below one"
            )
        if estimate.value >= NORM_WARN:
            chain.warnings.append(
                f"level-{level} series factor convergence radius {estimate.value:.3g} exceeds "
                f"{NORM_WARN:g}; truncation error may dominate"
            )
        chain.norms[level] = estimate
    return chain


def expected_solve_counts(depth: int, active: Sequence[int], order: int) -> Dict[int, int]:
    """Closed-form matvec tally of one cascade application.

    Applying T_l costs one U_l plus one pass through every earlier
    resolvent; each resolvent costs ``order`` applications of its T.  The
    tally is structural: it depends only on (active levels, order).
    """
    cost_ap: Dict[int, Dict[int, int]] = {}
    total: Dict[int, int] = {level: 0 for level in active}
    for i, level in enumerate(active):
        cost_t: Dict[int, int] = {level: 1}
        for j in active[:i]:
            for lvl, c in cost_ap[j].items():
                cost_t[lvl] = cost_t.get(lvl, 0) + c
        cost_ap[level] = {lvl: order * c for lvl, c in cost_t.items()}
        for lvl, c in cost_ap[level].items():
            total[lvl] += c
    return total


@dataclass
class SolveReport:
    """What the cascade did: norms, counts, timings, and the residual."""

    order: int
    active_levels: List[int]
    factor_norms: Dict[int, NormEstimate]
    warnings: List[str]
    setup_matvec_counts: Dict[int, int]
    solve_matvec_counts: Dict[int, int]
    wall_time_s: float
    residual: Optional[float]

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
            lines.append(f"convergence factor {label}: {est.value:.6g} [{est.mode}]")
        lines.append(
            "setup matvecs per level: "
            + ", ".join(f"{l}:{c}" for l, c in sorted(self.setup_matvec_counts.items()))
        )
        lines.append(
            "solve matvecs per level: "
            + ", ".join(f"{l}:{c}" for l, c in sorted(self.solve_matvec_counts.items()))
        )
        lines.append(f"total solve matvecs: {self.total_solve_matvecs}")
        if self.residual is None:
            lines.append("residual: unavailable (not all far levels assembled)")
        else:
            lines.append(f"relative residual: {self.residual:.6g}")
        lines.append(f"wall time: {self.wall_time_s:.3f} s")
        for msg in self.warnings:
            lines.append(f"warning: {msg}")
        return "\n".join(lines) + "\n"


def solve(scaled: ScaledSystem, h: HMatrix, config: PssConfig) -> Tuple[np.ndarray, SolveReport]:
    """Run the cascade on the near-field-solved right-hand side.

    Returns the solution in tree-permuted coordinates together with a
    report.  With no far levels (single-leaf tree) the result is the exact
    blockwise near solve of b.  The relative residual against the full
    operator is included only when every admissible level was assembled;
    with skipped levels the true system is unavailable by design.
    """
    start = time.perf_counter()
    chain = build_factor_chain(scaled, h, config)
    setup_counts = dict(chain.counts)
    chain.counts = dict.fromkeys(chain.counts, 0)
    x = chain.apply(scaled.b)

    residual = None
    if h.covers_all_far_levels():
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
    )
    return x, report
