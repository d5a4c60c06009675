import dataclasses
from collections import Counter
from functools import lru_cache, partial

import numpy as np
import pytest

from hpss import (
    ConvergenceError,
    Excitation,
    FactorChain,
    KernelSpec,
    NormEstimate,
    PssConfig,
    assemble,
    assemble_dense,
    build_cluster_tree,
    build_factor_chain,
    compute_scaling,
    discretize_circle,
    discretize_disk,
    discretize_strip,
    estimate_spectral_radius,
    expected_solve_counts,
    rhs,
    solve,
)
from hpss import pss, scaling
from hpss.pss import RADIUS_ITERS, neumann_apply
from conftest import dense_from_operator, factor_scaled_near_field


def make_system(mesh, leaf, tol=1e-3, phi=0.0, coarsest=1):
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, leaf)
    h = assemble(spec, tree, tol=tol, coarsest=coarsest)
    b = h.permute(rhs(spec, Excitation(phi)))
    return spec, h, compute_scaling(h, b)


# -- truncated series ------------------------------------------------------


def test_neumann_zero_operator_is_identity():
    v = np.arange(6, dtype=np.complex128)
    for order in (1, 2, 7):
        out = neumann_apply(lambda x: np.zeros_like(x), v, order)
        assert np.array_equal(out, v)


def test_neumann_scalar_geometric_series():
    v = np.ones(4, dtype=np.complex128)
    out = neumann_apply(lambda x: 0.5 * x, v, order=2)
    assert np.allclose(out, 0.75 * v, atol=1e-15)
    # against the exact inverse (I + 0.5)^-1 = 2/3: truncation error 1/12
    assert abs(np.linalg.norm(out - (2.0 / 3.0) * v) / np.linalg.norm(v) - 1.0 / 12.0) <= 1e-12


def test_neumann_residual_bound_at_norm_point_one():
    rng = np.random.default_rng(17)
    t = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    t *= 0.1 / np.linalg.norm(t, 2)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    out = neumann_apply(lambda x: t @ x, v, order=2)
    residual = np.linalg.norm((np.eye(64) + t) @ out - v) / np.linalg.norm(v)
    # alternating series remainder: 0.1^3 / (1 - 0.1)
    assert residual <= 1.12e-3


def test_neumann_applies_operator_exactly_order_times():
    calls = {"n": 0}

    def op(x):
        calls["n"] += 1
        return 0.3 * x

    neumann_apply(op, np.ones(3, dtype=np.complex128), order=5)
    assert calls["n"] == 5


# -- radius estimator ------------------------------------------------------


def test_spectral_radius_estimator_basics():
    """On 2 x 2 operators the Krylov space closes after two products, and
    the Ritz values are then the eigenvalues to rounding."""
    products = []

    def counted(t):
        def apply(v):
            products.append(1)
            return t @ v

        return apply

    for t, radius in (
        (np.diag([0.9, 0.3]), 0.9),
        (np.array([[0.0, -1.0], [1.0, 0.0]]), 1.0),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0),
    ):
        products.clear()
        est = estimate_spectral_radius(counted(t), 2)
        assert est.mode == "arnoldi"
        assert len(products) == 2
        assert est.residual <= 1e-15
        # a 2 x 2 Jordan block's double eigenvalue moves by sqrt(eps) under rounding
        assert abs(est.value - radius) <= (1e-7 if radius == 0.0 else 4 * np.finfo(float).eps)


def test_spectral_radius_matches_dense_eigenvalues():
    """Every level's radius on depth-4 and depth-5 strip, circle and disk
    trees, against the eigenvalues of the dense T_l; the circle's levels
    include radii above one, which the guard must see as such."""
    for mesh, leaf in (
        (discretize_strip(25.6, 10), 16),
        (discretize_circle(2.0, 16), 16),
        (discretize_disk(0.5, 12, 2.0), 8),
    ):
        _, h, scaled = make_system(mesh, leaf)
        assert h.depth >= 4
        levels = sorted(h.level_factors)
        chain = FactorChain(h, scaled.near_solve, 2, levels, dict.fromkeys(levels, 0))
        for i, level in enumerate(levels):
            apply = partial(chain.t_apply, i)
            est = estimate_spectral_radius(apply, h.n, seed=level)
            rho = float(np.max(np.abs(np.linalg.eigvals(dense_from_operator(apply, h.n)))))
            assert abs(est.value - rho) <= 1e-2 * rho, (mesh.kind, level)


# -- config ----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="series_order must be at least 1"):
        PssConfig(series_order=0)
    assert [f.name for f in dataclasses.fields(PssConfig)] == ["series_order"]


def walked_solve_counts(active, order):
    """Level products of one cascade application, tallied by walking the
    chain's structure: the first i resolvents run Ap_0 ... Ap_{i-1}, each
    Ap_j runs ``order`` applications of T_j, and T_j is one U_j product
    followed by the first j resolvents."""

    @lru_cache(maxsize=None)
    def resolvents(i):
        total = Counter()
        for j in range(i):
            for level, count in (resolvents(j) + Counter({active[j]: 1})).items():
                total[level] += order * count
        return total

    return dict(resolvents(len(active)))


def test_expected_solve_counts_recurrence():
    assert expected_solve_counts(3, [1, 2, 3], 2) == {1: 18, 2: 6, 3: 2}
    assert expected_solve_counts(2, [1, 2], 2) == {1: 6, 2: 2}
    assert expected_solve_counts(1, [1], 2) == {1: 2}
    assert expected_solve_counts(3, [3], 2) == {3: 2}
    assert expected_solve_counts(2, [1, 2], 3) == {1: 12, 2: 3}
    assert expected_solve_counts(6, [2, 4, 5], 1) == {2: 4, 4: 2, 5: 1}
    assert expected_solve_counts(0, [], 2) == {}
    # the closed form, its (1 + order)^L - 1 total and the walked tally, on
    # chains of up to 8 levels from level 1 or, as on a strip, whose level 1
    # is empty, from level 2
    for n_levels in range(1, 9):
        for first in (1, 2):
            active = list(range(first, first + n_levels))
            for order in range(1, 7):
                counts = expected_solve_counts(first + n_levels - 1, active, order)
                assert list(counts) == active
                assert counts == {level: order * (1 + order) ** (n_levels - 1 - i) for i, level in enumerate(active)}
                assert sum(counts.values()) == (1 + order) ** n_levels - 1
                assert counts == walked_solve_counts(active, order)


# -- the cascade against dense oracles --------------------------------------


def test_high_order_solve_matches_dense_lu():
    """Order-12 truncation leaves only compression error against the dense
    system, and next to nothing against the assembled operator itself."""
    mesh = discretize_strip(3.0, 10)
    spec, h, scaled = make_system(mesh, 8)
    x, report = solve(scaled, h, PssConfig(series_order=12))

    z_h = dense_from_operator(h.matvec, h.n)  # exactly what was assembled
    x_h = np.linalg.solve(z_h, scaled.b)
    assert np.linalg.norm(x - x_h) <= 1e-6 * np.linalg.norm(x_h)

    p = h.permutation
    z = assemble_dense(spec)[np.ix_(p, p)]
    x_lu = np.linalg.solve(z, scaled.b)
    err = np.linalg.norm(x - x_lu) / np.linalg.norm(x_lu)
    assert err <= 1e-2  # ACA tolerance now dominates
    assert report.residual is not None and report.residual <= 1e-2


def guard_products(monkeypatch):
    """Record, per level, the products of T each radius estimate makes."""
    products = {}
    real = pss.estimate_spectral_radius

    def counted(apply, n, seed=0):
        products[seed] = 0

        def counting(x):
            products[seed] += 1
            return apply(x)

        return real(counting, n, seed)

    monkeypatch.setattr(pss, "estimate_spectral_radius", counted)
    return products


def guard_counts(depth, chain, order, products):
    """Setup matvecs per level of ``products[level]`` applications of each
    T_l: a T_l costs what its series adds to the solve, divided by the order."""
    setup = dict.fromkeys(chain, 0)
    for i, level in enumerate(chain):
        before = expected_solve_counts(depth, chain[:i], order)
        for l, c in expected_solve_counts(depth, chain[: i + 1], order).items():
            setup[l] += products[level] * (c - before.get(l, 0)) // order
    return setup


def test_reported_counts_match_structural_formula(monkeypatch):
    # levels 1 and 2 of this disk hold no far blocks, level 1 of the strip none
    products = guard_products(monkeypatch)
    for mesh, leaf in ((discretize_disk(0.3, 16, 2.0), 8), (discretize_strip(3.0, 10), 8)):
        spec, h, scaled = make_system(mesh, leaf)
        order = 2
        products.clear()
        x, report = solve(scaled, h, PssConfig(series_order=order))
        chain = [l for l in range(1, h.depth + 1) if h.far_blocks[l]]
        assert len(chain) < h.depth
        assert report.active_levels == chain
        expected = expected_solve_counts(h.depth, chain, order)
        assert report.solve_matvec_counts == expected
        # the guard runs at most RADIUS_ITERS applications of each T_l, fewer
        # only where its Krylov space closes, and the report counts them
        assert sorted(products) == chain
        assert all(1 <= p <= RADIUS_ITERS for p in products.values())
        assert report.setup_matvec_counts == guard_counts(h.depth, chain, order, products)


def test_the_guard_reads_its_iteration_count_at_call_time(monkeypatch):
    mesh = discretize_strip(3.0, 10)
    _, h, scaled = make_system(mesh, 8)
    cfg = PssConfig(series_order=2)
    products = guard_products(monkeypatch)
    build_factor_chain(scaled, h, cfg)
    full = dict(products)
    monkeypatch.setattr(pss, "RADIUS_ITERS", 5)
    _, report = solve(scaled, h, cfg)
    # the first steps are those of the full run, which closes no level before step 5
    assert min(full.values()) > 5
    assert products == dict.fromkeys(full, 5)
    assert report.setup_matvec_counts == guard_counts(h.depth, sorted(full), 2, products)


def test_matvec_counts_are_input_independent():
    mesh = discretize_strip(3.0, 10)
    spec, h, _ = make_system(mesh, 8)
    rng = np.random.default_rng(23)
    counts = []
    for _ in range(3):
        b = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
        scaled = compute_scaling(h, b)
        _, report = solve(scaled, h, PssConfig(series_order=2))
        counts.append(report.solve_matvec_counts)
    assert counts[0] == counts[1] == counts[2]


def test_order_three_beats_order_two_when_factors_contract():
    mesh = discretize_strip(3.0, 10)
    spec, h, scaled = make_system(mesh, 8)
    p = h.permutation
    z = assemble_dense(spec)[np.ix_(p, p)]
    x_lu = np.linalg.solve(z, scaled.b)

    errs = {}
    for order in (2, 3):
        x, report = solve(scaled, h, PssConfig(series_order=order))
        assert all(est.value < 0.3 for lvl, est in report.factor_norms.items() if lvl > 0)
        errs[order] = np.linalg.norm(x - x_lu) / np.linalg.norm(x_lu)
    assert errs[3] <= errs[2]


def test_one_chain_serves_another_rhs():
    mesh = discretize_strip(3.0, 10)
    spec, h, scaled = make_system(mesh, 8)
    b2 = h.permute(rhs(spec, Excitation(1.1)))
    cfg = PssConfig(series_order=2)
    chain = build_factor_chain(scaled, h, cfg)
    x2, _ = solve(compute_scaling(h, b2), h, cfg)
    assert np.array_equal(chain.apply(b2), x2)


def test_a_scaled_system_serves_the_operators_sharing_its_near_field():
    """An operator from ``keep_levels`` shares its parent's near factor, so
    the parent's scaled system solves with it as its own does."""
    mesh = discretize_strip(3.0, 10)
    _, h, scaled = make_system(mesh, 8)
    kept = h.keep_levels(h.depth)
    cfg = PssConfig(series_order=2)
    x_parent, _ = solve(scaled, kept, cfg)
    x_own, _ = solve(compute_scaling(kept, scaled.b), kept, cfg)
    assert np.array_equal(x_parent, x_own)


def test_a_scaled_system_of_another_near_field_is_refused():
    mesh = discretize_strip(3.0, 10)
    spec, h, scaled = make_system(mesh, 8)
    copy = assemble(spec, h.tree, tol=1e-3)
    with pytest.raises(ValueError, match="scaled system's near solve does not invert this H-matrix's near field"):
        build_factor_chain(scaled, copy, PssConfig(series_order=2))


def test_solve_is_linear_in_the_rhs():
    mesh = discretize_strip(3.0, 10)
    spec, h, _ = make_system(mesh, 8)
    rng = np.random.default_rng(29)
    b1 = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    b2 = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    cfg = PssConfig(series_order=2)
    x1, _ = solve(compute_scaling(h, b1), h, cfg)
    x2, _ = solve(compute_scaling(h, b2), h, cfg)
    x12, _ = solve(compute_scaling(h, b1 + b2), h, cfg)
    assert np.linalg.norm(x12 - (x1 + x2)) <= 1e-10 * np.linalg.norm(x12)


def test_zero_rhs_solves_to_zero_with_the_residual_unavailable():
    mesh = discretize_strip(3.0, 10)
    _, h, _ = make_system(mesh, 8)
    x, report = solve(compute_scaling(h, np.zeros(h.n)), h, PssConfig(series_order=2))
    assert not np.any(x)
    assert report.residual is None
    assert report.outcome_lines()[0] == "relative residual: unavailable (zero right-hand side)"
    assert "relative residual: unavailable (zero right-hand side)\n" in report.to_text()


def test_single_leaf_tree_solves_directly():
    mesh = discretize_strip(1.0, 10)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, 16)
    assert tree.depth == 0
    h = assemble(spec, tree, tol=1e-3)
    b = h.permute(rhs(spec, Excitation(0.0)))
    scaled = compute_scaling(h, b)
    x, report = solve(scaled, h, PssConfig(series_order=2))
    p = tree.permutation
    z = assemble_dense(spec)[np.ix_(p, p)]
    assert np.linalg.norm(x - np.linalg.solve(z, b)) <= 1e-10 * np.linalg.norm(x)
    assert report.solve_matvec_counts == {}
    assert report.residual is not None and report.residual <= 1e-12


def test_inactive_empty_level_changes_nothing():
    # depth-2 strip has no admissible pairs at level 1, so assembling the
    # leaf level alone gives the identical computation
    mesh = discretize_strip(2.0, 10)
    spec, h, scaled = make_system(mesh, 5)
    _, h_leaf, scaled_leaf = make_system(mesh, 5, coarsest=2)
    x_full, _ = solve(scaled, h, PssConfig(series_order=2))
    x_leaf, _ = solve(scaled_leaf, h_leaf, PssConfig(series_order=2))
    assert np.array_equal(x_full, x_leaf)


def test_leaf_only_assembly_reports_assembled_residual():
    """A leaf-only run reports its residual against the operator it assembled,
    and says so."""
    mesh = discretize_disk(0.3, 16, 2.0)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, 8)
    h = assemble(spec, tree, tol=1e-3, coarsest=tree.depth)
    b = h.permute(rhs(spec, Excitation(0.0)))
    x, report = solve(compute_scaling(h, b), h, PssConfig(series_order=2))
    recomputed = np.linalg.norm(h.matvec(x) - b) / np.linalg.norm(b)
    assert report.residual == pytest.approx(recomputed, rel=1e-12)
    label = f"relative residual (assembled operator, levels {tree.depth})"
    assert report.residual_label == label
    assert f"{label}: {report.residual:.6g}" in report.to_text()
    # a full assembly keeps the plain label
    full = assemble(spec, tree, tol=1e-3)
    _, report = solve(compute_scaling(full, b), full, PssConfig(series_order=2))
    assert report.residual_label == "relative residual"


# -- guards ------------------------------------------------------------------


def test_sabotaged_scaling_fails_with_level_zero_norm(monkeypatch):
    mesh = discretize_strip(2.0, 10)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, 5)
    h = assemble(spec, tree, tol=1e-3)
    b = h.permute(rhs(spec, Excitation(0.0)))
    # the near factor is kept with its near field, so each half has its own operator
    h_broken = assemble(spec, tree, tol=1e-3)
    with monkeypatch.context() as patch:
        factor_scaled_near_field(patch, 10.0)  # the near solve de-scaled by 0.1
        broken = compute_scaling(h_broken, b)
    with pytest.raises(ConvergenceError, match="level-0"):
        solve(broken, h_broken, PssConfig(series_order=2))
    # restoring the scaling clears the failure
    clean = compute_scaling(h, b)
    _, report = solve(clean, h, PssConfig(series_order=2))
    assert report.factor_norms[0].value <= 1e-10


def test_near_solve_that_does_not_invert_the_stored_near_field_trips_level_zero(monkeypatch):
    """The level-0 defect is measured on the near solve every solution
    goes through, so a factorization of anything but the stored Z_N shows."""
    # 4 Z_N: defect 3/4, implied factor norm 3, well clear of NORM_FAIL
    factor_scaled_near_field(monkeypatch, 4.0)
    _, h, scaled = make_system(discretize_strip(2.0, 10), 5)
    assert abs(scaled.near.defect - 0.75) <= 1e-9
    with pytest.raises(ConvergenceError, match="level-0"):
        solve(scaled, h, PssConfig(series_order=2))
    # S_l is made only once level 0 has passed
    assert scaled.near.solved == {}


def test_mild_descaling_warns_but_solves(monkeypatch):
    factor_scaled_near_field(monkeypatch, 1.0 / 0.85)  # the near solve de-scaled by 0.85
    _, h, slightly_off = make_system(discretize_strip(2.0, 10), 5)
    x, report = solve(slightly_off, h, PssConfig(series_order=2))
    assert any("level-0" in w for w in report.warnings)
    assert np.all(np.isfinite(x))


def test_tightened_fail_threshold_triggers_factor_guard(monkeypatch):
    mesh = discretize_strip(2.0, 10)
    spec, h, scaled = make_system(mesh, 5)
    monkeypatch.setattr("hpss.pss.NORM_WARN", 0.05)
    monkeypatch.setattr("hpss.pss.NORM_FAIL", 0.3)
    # the leaf factor radius sits near 0.35 here; a 0.3 ceiling must trip
    with pytest.raises(ConvergenceError, match="level-2"):
        solve(scaled, h, PssConfig(series_order=2))


def test_factor_radius_warnings_are_captured_not_raised():
    mesh = discretize_strip(2.0, 10)
    spec, h, scaled = make_system(mesh, 5)
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("error")  # any leaked warning would fail the test
        x, report = solve(scaled, h, PssConfig(series_order=2))
    assert any("radius" in w for w in report.warnings)
    assert np.all(np.isfinite(x))


def test_radii_just_below_one_never_print_as_one(monkeypatch):
    mesh = discretize_strip(2.0, 10)
    spec, h, scaled = make_system(mesh, 5)
    for value, shown in ((0.9996, "0.9996"), (0.9999996, "0.9999996")):
        monkeypatch.setattr("hpss.pss.estimate_spectral_radius", lambda *args, **kw: NormEstimate(value, "power"))
        _, report = solve(scaled, h, PssConfig(series_order=2))
        assert report.active_levels == [2]
        assert report.warnings == [
            f"level-2 series factor convergence radius {shown} exceeds 0.1; truncation error may dominate"
        ]
        assert f"convergence factor level 2: {shown} [power]" in report.to_text()
    # a radius that reaches one still fails, and reads as at least one
    monkeypatch.setattr("hpss.pss.estimate_spectral_radius", lambda *args, **kw: NormEstimate(1.0004, "power"))
    with pytest.raises(ConvergenceError, match="level-2 series factor convergence radius 1 is not below 1"):
        solve(scaled, h, PssConfig(series_order=2))


def test_a_nan_defect_trips_level_zero(monkeypatch):
    """A near solve that returns NaN makes the level-0 defect NaN, which the
    guard refuses as it would a defect at or above one."""
    real_splu = scaling.splu

    class NanSolve:
        def __init__(self, factorization):
            self.factorization = factorization

        def solve(self, v, trans="N"):
            return np.full_like(self.factorization.solve(v, trans), np.nan)

    monkeypatch.setattr(scaling, "splu", lambda a, **kw: NanSolve(real_splu(a, **kw)))
    _, h, scaled = make_system(discretize_strip(4.0, 10), 10)
    assert np.isnan(scaled.near.defect)
    with pytest.raises(ConvergenceError, match="level-0 implied factor norm nan is not below 1"):
        solve(scaled, h, PssConfig(series_order=2))


def test_a_nan_radius_trips_its_level(monkeypatch):
    _, h, scaled = make_system(discretize_strip(2.0, 10), 5)
    monkeypatch.setattr("hpss.pss.estimate_spectral_radius", lambda *args, **kw: NormEstimate(float("nan"), "power"))
    with pytest.raises(ConvergenceError, match="level-2 series factor convergence radius nan is not below 1"):
        solve(scaled, h, PssConfig(series_order=2))


def test_report_text_layout():
    mesh = discretize_strip(2.0, 10)
    spec, h, scaled = make_system(mesh, 5)
    _, report = solve(scaled, h, PssConfig(series_order=2))
    text = report.to_text()
    assert "series order: 2" in text
    assert "implied level-0 factor" in text
    assert "[near-solve-defect]\n" in text
    est = report.factor_norms[2]
    radius = pss._radius_text(est.value, 6)
    assert f"convergence factor level 2: {radius} [arnoldi, Ritz residual {est.residual:.3g}]\n" in text
    assert "total solve matvecs" in text
    assert "wall time" in text
    # level 2's 12 columns of 20 entries (240) are no more than the factor's 270, so it is near-solved
    assert report.near_solved == {2: 20 * 12 * 16}
    assert "active levels: 2\nnear-solved levels: 2 (S_l 0.004 MB)\n" in text


def test_report_names_no_near_solved_level_when_none_is():
    # the CI disk at leaves of 16: levels 4 and 5 are too wide to near-solve
    _, h, scaled = make_system(discretize_disk(0.8, 10, 2.0), 16)
    _, report = solve(scaled, h, PssConfig(series_order=2))
    assert report.active_levels == [4, 5]
    assert report.near_solved == {}
    assert "\nnear-solved levels: none (S_l 0.000 MB)\n" in report.to_text()


def test_chain_respects_truncated_levels():
    mesh = discretize_disk(0.3, 16, 2.0)
    chains = {}
    for name, coarsest in (("full", 1), ("mid", 2), ("leaf", 5)):
        _, h, scaled = make_system(mesh, 8, coarsest=coarsest)
        assert h.depth == 5
        chains[name] = build_factor_chain(scaled, h, PssConfig(series_order=2)).levels
    # the chain is the assembled levels that hold far blocks, in order;
    # levels 1 and 2 of this disk hold none
    assert chains == {"full": [3, 4, 5], "mid": [3, 4, 5], "leaf": [5]}


# -- near-solved levels ----------------------------------------------------


def sweep_system(coarsest=1):
    """The benchmark's sweep operator: a 64-wavelength strip at 16 per
    wavelength (N = 1024) with leaves of 32; far levels 2 to 5 of widths 12,
    36, 84 and 180 against 97,280 entries in the near factorization."""
    return make_system(discretize_strip(64.0, 16), 32, phi=0.3, coarsest=coarsest)


def counted_near_solves(monkeypatch):
    """Count ``ScaledSystem.near_solve`` calls, the near solves a chain runs."""
    calls = []
    real = scaling.ScaledSystem.near_solve

    def near_solve(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(scaling.ScaledSystem, "near_solve", near_solve)
    return calls


@pytest.mark.parametrize(
    "case, near_solved",
    [("sweep", [2, 3, 4]), ("strip", [2]), ("ci-disk", [])],
)
def test_near_solved_levels_solve_as_the_near_solve_after_each_product(monkeypatch, case, near_solved):
    """Taking U_l x as S_l (R_l x)[swap], S_l = Z_N^-1 L_l, agrees with the
    near solve after each level product, and runs a near solve only after
    the products of the levels that are not near-solved, plus one for b."""
    if case == "sweep":
        _, h, scaled = sweep_system()
    elif case == "strip":
        _, h, scaled = make_system(discretize_strip(3.0, 10), 8)
    else:  # the CI disk: --radius 0.8 --density 20 --levels 5
        _, h, scaled = make_system(discretize_disk(0.8, 20, 2.0), 32, coarsest=5)
    cfg = PssConfig(series_order=2)
    calls = counted_near_solves(monkeypatch)
    x, report = solve(scaled, h, cfg)
    assert sorted(report.near_solved) == near_solved
    width = {level: h.level_factors[level].width for level in near_solved}
    assert report.near_solved == {level: h.n * w * 16 for level, w in width.items()}
    megabytes = h.n * sum(width.values()) * 16 / 1e6
    line = f"near-solved levels: {','.join(map(str, near_solved)) or 'none'} (S_l {megabytes:.3f} MB)\n"
    assert line in report.to_text()
    factor = h.near.factor.factorization
    for level, part in h.level_factors.items():
        assert (level in near_solved) == (h.n * part.width <= factor.nnz)
    products = Counter(report.setup_matvec_counts) + Counter(report.solve_matvec_counts)
    assert len(calls) == 1 + sum(c for level, c in products.items() if level not in near_solved)

    monkeypatch.setattr(scaling.NearFactor, "solved_left", lambda self, level, part: None)
    calls.clear()
    x_plain, plain = solve(scaled, h, cfg)
    assert plain.near_solved == {}
    assert len(calls) == 1 + sum(products.values())
    assert np.linalg.norm(x - x_plain) <= 1e-13 * np.linalg.norm(x_plain)
    assert report.factor_norms.keys() == plain.factor_norms.keys()
    for level, est in report.factor_norms.items():
        assert abs(est.value - plain.factor_norms[level].value) <= 1e-12
    assert report.setup_matvec_counts == plain.setup_matvec_counts
    assert report.solve_matvec_counts == plain.solve_matvec_counts


def test_kept_levels_reuse_the_near_solved_levels_of_their_near_field():
    """An operator from ``keep_levels`` reads the S_l its parent made, and
    solves bit for bit as an assembly from its coarsest level, which makes
    its own."""
    _, h, scaled = sweep_system()
    cfg = PssConfig(series_order=2)
    solve(scaled, h, cfg)
    made = dict(h.near.factor.solved)
    assert sorted(made) == [2, 3, 4]
    kept = h.keep_levels(3)
    kept_scaled = compute_scaling(kept, scaled.b)
    chain = build_factor_chain(kept_scaled, kept, cfg)
    assert sorted(chain.solved) == [3, 4]
    assert all(chain.solved[level] is made[level] for level in chain.solved)
    x_kept, _ = solve(kept_scaled, kept, cfg)
    assert h.near.factor.solved.keys() == made.keys()

    _, own, own_scaled = sweep_system(coarsest=3)
    x_own, report = solve(own_scaled, own, cfg)
    assert sorted(report.near_solved) == [3, 4]
    assert own.near.factor.solved[3] is not made[3]
    assert np.array_equal(x_kept, x_own)
