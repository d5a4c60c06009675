import numpy as np
import pytest

from hpss import (
    ConvergenceError,
    Excitation,
    KernelSpec,
    PssConfig,
    assemble,
    assemble_dense,
    build_cluster_tree,
    build_factor_chain,
    compute_scaling,
    discretize_disk,
    discretize_strip,
    expected_solve_counts,
    rhs,
    solve,
)
from hpss.pss import RADIUS_ITERS, neumann_apply
from conftest import dense_from_operator


def make_system(mesh, leaf, tol=1e-3, phi=0.0, level_filter=None):
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, leaf)
    h = assemble(spec, tree, tol=tol, level_filter=level_filter)
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


# -- config ----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        PssConfig(series_order=0)
    assert PssConfig().resolve_levels(3) == [1, 2, 3]
    assert PssConfig(active_levels=[2, 3]).resolve_levels(3) == [2, 3]
    with pytest.raises(ValueError):
        PssConfig(active_levels=[1, 2]).resolve_levels(3)  # must end at the leaf level
    with pytest.raises(ValueError):
        PssConfig(active_levels=[1, 3]).resolve_levels(3)  # must be contiguous


def test_expected_solve_counts_recurrence():
    assert expected_solve_counts(3, [1, 2, 3], 2) == {1: 18, 2: 6, 3: 2}
    assert expected_solve_counts(2, [1, 2], 2) == {1: 6, 2: 2}
    assert expected_solve_counts(1, [1], 2) == {1: 2}
    assert expected_solve_counts(3, [3], 2) == {3: 2}
    assert expected_solve_counts(2, [1, 2], 3) == {1: 12, 2: 3}


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

    z = assemble_dense(spec, permutation=h.tree.permutation)
    x_lu = np.linalg.solve(z, scaled.b)
    err = np.linalg.norm(x - x_lu) / np.linalg.norm(x_lu)
    assert err <= 1e-2  # ACA tolerance now dominates
    assert report.residual is not None and report.residual <= 1e-2


def test_reported_counts_match_structural_formula():
    # levels 1 and 2 of this disk hold no far blocks, level 1 of the strip none
    for mesh, leaf in ((discretize_disk(0.3, 16, 2.0), 8), (discretize_strip(3.0, 10), 8)):
        spec, h, scaled = make_system(mesh, leaf)
        order = 2
        x, report = solve(scaled, h, PssConfig(series_order=order))
        chain = [l for l in range(1, h.depth + 1) if h.far_blocks[l]]
        assert len(chain) < h.depth
        assert report.active_levels == chain
        expected = expected_solve_counts(h.depth, chain, order)
        assert report.solve_matvec_counts == expected
        # the guard runs RADIUS_ITERS applications of each T_l, the solve order
        assert report.setup_matvec_counts == {l: RADIUS_ITERS * c // order for l, c in expected.items()}


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
    z = assemble_dense(spec, permutation=h.tree.permutation)
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


def test_single_leaf_tree_solves_directly():
    mesh = discretize_strip(1.0, 10)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, 16)
    assert tree.depth == 0
    h = assemble(spec, tree, tol=1e-3)
    b = h.permute(rhs(spec, Excitation(0.0)))
    scaled = compute_scaling(h, b)
    x, report = solve(scaled, h, PssConfig(series_order=2))
    z = assemble_dense(spec, permutation=tree.permutation)
    assert np.linalg.norm(x - np.linalg.solve(z, b)) <= 1e-10 * np.linalg.norm(x)
    assert report.solve_matvec_counts == {}
    assert report.residual is not None and report.residual <= 1e-12


def test_inactive_empty_level_changes_nothing():
    # depth-2 strip has no admissible pairs at level 1, so truncating the
    # chain to the leaf level is the identical computation
    mesh = discretize_strip(2.0, 10)
    spec, h, scaled = make_system(mesh, 5)
    x_full, _ = solve(scaled, h, PssConfig(series_order=2))
    x_leaf, _ = solve(scaled, h, PssConfig(series_order=2, active_levels=[2]))
    assert np.array_equal(x_full, x_leaf)


def test_leaf_only_assembly_reports_no_residual():
    mesh = discretize_disk(0.3, 16, 2.0)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, 8)
    h = assemble(spec, tree, tol=1e-3, level_filter=[tree.depth])
    b = h.permute(rhs(spec, Excitation(0.0)))
    x, report = solve(compute_scaling(h, b), h, PssConfig(series_order=2, active_levels=[tree.depth]))
    assert report.residual is None
    assert "unavailable" in report.to_text()


# -- guards ------------------------------------------------------------------


def test_sabotaged_scaling_fails_with_level_zero_norm():
    mesh = discretize_strip(2.0, 10)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, 5)
    h = assemble(spec, tree, tol=1e-3)
    b = h.permute(rhs(spec, Excitation(0.0)))
    broken = compute_scaling(h, b, alpha_scale=0.1)
    with pytest.raises(ConvergenceError, match="level-0"):
        solve(broken, h, PssConfig(series_order=2))
    # restoring the scaling clears the failure
    clean = compute_scaling(h, b)
    _, report = solve(clean, h, PssConfig(series_order=2))
    assert report.factor_norms[0].value <= 1e-10


def test_mild_descaling_warns_but_solves():
    mesh = discretize_strip(2.0, 10)
    spec, h, _ = make_system(mesh, 5)
    b = h.permute(rhs(spec, Excitation(0.0)))
    slightly_off = compute_scaling(h, b, alpha_scale=0.85)
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


def test_report_text_layout():
    mesh = discretize_strip(2.0, 10)
    spec, h, scaled = make_system(mesh, 5)
    _, report = solve(scaled, h, PssConfig(series_order=2))
    text = report.to_text()
    assert "series order: 2" in text
    assert "implied level-0 factor" in text
    assert "total solve matvecs" in text
    assert "wall time" in text


def test_chain_respects_truncated_levels():
    mesh = discretize_disk(0.3, 16, 2.0)
    spec, h, scaled = make_system(mesh, 8)
    depth = h.depth
    chain_full = build_factor_chain(scaled, h, PssConfig(series_order=2))
    chain_leaf = build_factor_chain(scaled, h, PssConfig(series_order=2, active_levels=[depth]))
    chain_mid = build_factor_chain(scaled, h, PssConfig(series_order=2, active_levels=[2, 3, 4, 5]))
    # the chain is the configured levels that hold far blocks, in order
    assert depth == 5 and [l for l in range(1, depth + 1) if not h.far_blocks[l]] == [1, 2]
    assert chain_full.levels == [3, 4, 5]
    assert chain_mid.levels == [3, 4, 5]
    assert chain_leaf.levels == [depth]
