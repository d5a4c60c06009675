"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every test measures against the frozen tolerances and prints its verdict
to the real terminal (capture disabled for that single line) so a full
run reads as a nine-line scoreboard.  Configurations here are pinned; do
not retune them to make a failing criterion pass.
"""

import math
import time

import numpy as np
import pytest

from hpss import (
    ConvergenceError,
    Excitation,
    KernelSpec,
    PssConfig,
    assemble,
    assemble_dense,
    bistatic_rcs,
    build_cluster_tree,
    compute_scaling,
    discretize_circle,
    discretize_disk,
    discretize_strip,
    gmres,
    lu_solve,
    rcs_rms_error,
    rhs,
    series_dielectric_cylinder,
    series_pec_cylinder,
    solve,
)
from hpss.cli import main as cli_main
from conftest import applied_far_blocks, factor_scaled_near_field
from hpss.kernels import z_block

ACA_TOL = 1e-3
ANGLES = np.linspace(0.0, 180.0, 181)
BROADSIDE = Excitation(math.radians(90.0))


def emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} | {detail}")


def rel_err(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def assembled_strip(length, density, leaf, **kwargs):
    mesh = discretize_strip(length, density)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, leaf)
    h = assemble(spec, tree, ACA_TOL, **kwargs)
    return mesh, spec, tree, h


def test_criterion_1_high_order_series_matches_dense_lu(capsys):
    t0 = time.perf_counter()
    mesh, spec, tree, h = assembled_strip(4.0, 64, 64)
    assert mesh.n_elements <= 256
    b = rhs(spec, BROADSIDE)
    scaled = compute_scaling(h, h.permute(b))
    x, _ = solve(scaled, h, PssConfig(series_order=8))
    err = rel_err(h.unpermute(x), lu_solve(assemble_dense(spec), b))
    elapsed = time.perf_counter() - t0
    bound = max(1e-6, 10 * ACA_TOL)
    ok = err <= bound and elapsed < 10.0
    emit(capsys, 1, ok,
         f"order-8 series vs dense LU on N={mesh.n_elements} strip: "
         f"rel err {err:.2e} <= {bound:.0e}, {elapsed:.1f} s < 10 s")
    assert err <= bound
    assert elapsed < 10.0


def test_criterion_2_order_two_operating_point(capsys):
    t0 = time.perf_counter()
    mesh, spec, tree, h = assembled_strip(40.0, 16, 160)
    assert abs(mesh.n_elements - 640) <= 16
    b = rhs(spec, BROADSIDE)
    bp = h.permute(b)
    x_lu = lu_solve(assemble_dense(spec), b)

    scaled = compute_scaling(h, bp)
    x_ps, _ = solve(scaled, h, PssConfig(series_order=2))
    err_ps = rel_err(h.unpermute(x_ps), x_lu)

    x_gm, rep = gmres(h.matvec, bp, tol=1e-6)
    assert rep.converged
    err_gm = rel_err(h.unpermute(x_gm), x_lu)
    elapsed = time.perf_counter() - t0
    ok = err_ps <= 1e-2 and err_gm <= 1e-5 and elapsed < 30.0
    emit(capsys, 2, ok,
         f"N={mesh.n_elements} strip at order 2: series {err_ps:.2e} <= 1e-2, "
         f"gmres vs LU {err_gm:.2e} <= 1e-5, {elapsed:.1f} s < 30 s")
    assert err_ps <= 1e-2
    assert err_gm <= 1e-5
    assert elapsed < 30.0


def _leaf_only_rms(mesh, spec, tree, order=2):
    b = rhs(spec, BROADSIDE)
    h_full = assemble(spec, tree, ACA_TOL)
    x_gm, rep = gmres(h_full.matvec, h_full.permute(b), tol=1e-6)
    assert rep.converged
    curve_full = bistatic_rcs(mesh, h_full.unpermute(x_gm), ANGLES)

    h_leaf = assemble(spec, tree, ACA_TOL, coarsest=tree.depth)
    scaled = compute_scaling(h_leaf, h_leaf.permute(b))
    x_ps, _ = solve(scaled, h_leaf, PssConfig(series_order=order))
    curve_leaf = bistatic_rcs(mesh, h_leaf.unpermute(x_ps), ANGLES)
    return rcs_rms_error(curve_leaf, curve_full)


def test_criterion_3_leaf_only_far_field_accuracy(capsys):
    t0 = time.perf_counter()
    mesh = discretize_strip(40.0, 16)
    spec = KernelSpec.for_mesh(mesh)
    rms_strip = _leaf_only_rms(mesh, spec, build_cluster_tree(mesh, 160))

    mesh_d = discretize_disk(0.3, 20, 2.0)
    spec_d = KernelSpec.for_mesh(mesh_d)
    rms_disk = _leaf_only_rms(mesh_d, spec_d, build_cluster_tree(mesh_d, 16))
    elapsed = time.perf_counter() - t0
    ok = rms_strip <= 0.5 and rms_disk <= 0.75 and elapsed < 60.0
    emit(capsys, 3, ok,
         f"leaf-only series vs full gmres far field: strip {rms_strip:.3f} dB <= 0.5, "
         f"disk {rms_disk:.3f} dB <= 0.75, {elapsed:.1f} s < 60 s")
    assert rms_strip <= 0.5
    assert rms_disk <= 0.75
    assert elapsed < 60.0


def test_criterion_4_fixed_counts_vs_growing_gmres(capsys):
    # ten random right-hand sides on one structure: identical work
    mesh, spec, tree, h = assembled_strip(8.0, 32, 64)
    rng = np.random.default_rng(11)
    count_sets = set()
    for _ in range(10):
        b = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
        scaled = compute_scaling(h, b)
        _, rep = solve(scaled, h, PssConfig(series_order=2))
        count_sets.add(tuple(sorted(rep.solve_matvec_counts.items())))
    invariant = len(count_sets) == 1

    # geometry growth: gmres iterations climb, series work does not
    stats = {}
    for length in (2.0, 8.0):
        mesh_l = discretize_strip(length, 32)
        spec_l = KernelSpec.for_mesh(mesh_l)
        tree_l = build_cluster_tree(mesh_l, mesh_l.n_elements // 4)
        h_l = assemble(spec_l, tree_l, ACA_TOL)
        b = h_l.permute(rhs(spec_l, BROADSIDE))
        _, rep_g = gmres(h_l.matvec, b, tol=1e-6)
        assert rep_g.converged
        _, rep_p = solve(compute_scaling(h_l, b), h_l, PssConfig(series_order=2))
        stats[length] = (rep_g.iterations, rep_p.total_solve_matvecs)
    growth = stats[8.0][0] / stats[2.0][0]
    series_constant = stats[2.0][1] == stats[8.0][1]
    ok = invariant and growth >= 1.5 and series_constant
    emit(capsys, 4, ok,
         f"series counts invariant over 10 rhs: {invariant}; gmres iterations "
         f"{stats[2.0][0]} -> {stats[8.0][0]} (x{growth:.2f} >= 1.5) while series "
         f"matvecs {stats[2.0][1]} -> {stats[8.0][1]}")
    assert invariant
    assert growth >= 1.5
    assert series_constant


def test_criterion_5_sampled_block_compression_quality(capsys):
    mesh, spec, tree, h = assembled_strip(102.4, 10, 32)
    assert mesh.n_elements == 1024
    # every far block the operator applies: each stored block and, as the
    # strip's kernel is reciprocal, its mirror (v^T u^T at the transposed position)
    assert spec.reciprocal
    blocks = [blk for level in sorted(h.far_blocks) for blk in applied_far_blocks(h, level, spec.reciprocal)]
    rng = np.random.default_rng(7)
    sample = [blocks[i] for i in rng.choice(len(blocks), size=12, replace=False)]
    assert len(sample) >= 10
    mirrored = sum(1 for r0, c0, _, _ in sample if r0 > c0)
    assert 0 < mirrored < len(sample)
    p = h.permutation
    worst = 0.0
    for r0, c0, u, v in sample:
        m, n = u.shape[0], v.shape[1]
        dense = z_block(spec, p[r0:r0 + m], p[c0:c0 + n])
        err = np.linalg.norm(dense - u @ v) / np.linalg.norm(dense)
        worst = max(worst, float(err))
    bound = 3 * ACA_TOL
    ok = worst <= bound
    emit(capsys, 5, ok,
         f"worst sampled-block Frobenius error {worst:.2e} <= {bound:.0e} "
         f"over {len(sample)} ({mirrored} mirrored) of {len(blocks)} admissible blocks at N=1024")
    assert worst <= bound


def test_criterion_6_leaf_only_storage_and_fill_savings(capsys, tmp_path):
    out = tmp_path / "bench6"
    rc = cli_main([
        "bench", "--sizes", "1024,2048", "--density", "10",
        "--leaf-size", "32", "--out", str(out),
    ])
    rows = {}
    for line in (out / "bench.csv").read_text().splitlines()[1:]:
        n, full_entries, leaf_entries = (int(tok) for tok in line.split(","))
        rows[n] = (full_entries, leaf_entries)
    full_2048, leaf_2048 = rows[2048]
    ok = rc == 0 and leaf_2048 < full_2048 and full_2048 < 2048 * 2048
    emit(capsys, 6, ok,
         f"N=2048 stored entries: leaf-only {leaf_2048} < full {full_2048} < "
         f"dense {2048 * 2048}; bench assertions exit code {rc}")
    assert rc == 0
    assert leaf_2048 < full_2048 < 2048 * 2048


def test_criterion_7_entry_and_matvec_scaling(capsys, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "bench7"
    rc = cli_main([
        "bench", "--sizes", "512,1024,2048,4096", "--density", "10",
        "--leaf-size", "32", "--out", str(out),
    ])
    assert rc == 0
    slopes = {}
    for line in (out / "bench_summary.txt").read_text().splitlines():
        if "log-log slope" in line:
            label, value = line.split(":")
            slopes[label.split()[0]] = float(value)
    elapsed = time.perf_counter() - t0
    entry_slope = slopes["stored-entry"]
    matvec_slope = slopes["matvec-time"]
    # the entries a product reads: the timed slope alone says little once
    # the hand-off to the near-product worker dominates the smallest size
    work_slope = slopes["matvec-work"]
    ok = entry_slope <= 1.35 and matvec_slope <= 1.35 and work_slope <= 1.35 and elapsed < 300.0
    emit(capsys, 7, ok,
         f"log-log slopes over N=512..4096: entries {entry_slope:.2f} <= 1.35, "
         f"matvec time {matvec_slope:.2f} <= 1.35, matvec work {work_slope:.2f} <= 1.35, "
         f"{elapsed:.0f} s < 300 s")
    assert entry_slope <= 1.35
    assert matvec_slope <= 1.35
    assert work_slope <= 1.35
    assert elapsed < 300.0


def test_criterion_8_guard_trips_on_descaled_system(capsys, monkeypatch):
    mesh, spec, tree, h = assembled_strip(4.0, 10, 10)
    b = h.permute(rhs(spec, BROADSIDE))

    # a near solve de-scaled by 0.1, on an operator of its own: the near
    # factor is kept with the near field it was made for
    _, _, _, h_sabotaged = assembled_strip(4.0, 10, 10)
    with monkeypatch.context() as patch:
        factor_scaled_near_field(patch, 10.0)
        sabotaged = compute_scaling(h_sabotaged, b)
    with pytest.raises(ConvergenceError, match="level-0") as excinfo:
        solve(sabotaged, h_sabotaged, PssConfig(series_order=2))

    clean = compute_scaling(h, b)
    x, rep = solve(clean, h, PssConfig(series_order=8))
    err = rel_err(h.unpermute(x), lu_solve(assemble_dense(spec), rhs(spec, BROADSIDE)))
    ok = clean.near.defect < 1e-12 and err <= 1e-3
    emit(capsys, 8, ok,
         f"de-scaled system raises ({str(excinfo.value)[:48]}...); restored scaling "
         f"defect {clean.near.defect:.1e}, solve err {err:.1e}")
    assert clean.near.defect < 1e-12
    assert err <= 1e-3


def test_criterion_9_analytic_cylinder_oracles(capsys):
    mesh = discretize_circle(1.0, 20)
    spec = KernelSpec.for_mesh(mesh)
    x = lu_solve(assemble_dense(spec), rhs(spec, Excitation(0.0)))
    rms_pec = rcs_rms_error(bistatic_rcs(mesh, x, ANGLES), series_pec_cylinder(1.0, ANGLES, 0.0))

    mesh_d = discretize_disk(0.3, 20, 2.0)
    spec_d = KernelSpec.for_mesh(mesh_d)
    x_d = lu_solve(assemble_dense(spec_d), rhs(spec_d, Excitation(0.0)))
    rms_diel = rcs_rms_error(
        bistatic_rcs(mesh_d, x_d, ANGLES), series_dielectric_cylinder(0.3, 2.0, ANGLES, 0.0)
    )
    ok = rms_pec <= 0.3 and rms_diel <= 0.75
    emit(capsys, 9, ok,
         f"dense LU vs analytic series: PEC circle {rms_pec:.4f} dB <= 0.3, "
         f"dielectric disk {rms_diel:.4f} dB <= 0.75")
    assert rms_pec <= 0.3
    assert rms_diel <= 0.75
