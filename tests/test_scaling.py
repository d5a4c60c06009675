import numpy as np
import pytest

from hpss import (
    HMatrix,
    KernelSpec,
    NearBlock,
    assemble,
    build_block_partition,
    build_cluster_tree,
    compute_scaling,
    discretize_disk,
    discretize_strip,
    estimate_spectral_radius,
)
from conftest import dense_from_operator


def assembled(mesh, leaf, tol=1e-3):
    tree = build_cluster_tree(mesh, leaf)
    return assemble(KernelSpec.for_mesh(mesh), tree, tol=tol)


def dense_near(h):
    z = np.zeros((h.n, h.n), dtype=np.complex128)
    for blk in h.near_blocks:
        z[blk.row_start : blk.row_stop, blk.col_start : blk.col_stop] = blk.data
        if h.symmetric and not blk.is_diagonal:
            z[blk.col_start : blk.col_stop, blk.row_start : blk.row_stop] = blk.data.T
    return z


def test_alpha_inverts_diagonal_blocks_exactly():
    h = assembled(discretize_disk(0.3, 12, 2.0), 8)
    b = np.ones(h.n, dtype=np.complex128)
    scaled = compute_scaling(h, b)
    rng = np.random.default_rng(0)
    for blk in h.diagonal_blocks():
        m = blk.row_stop - blk.row_start
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        full = np.zeros(h.n, dtype=np.complex128)
        full[blk.row_start : blk.row_stop] = blk.data @ x
        back = scaled.alpha_apply(full)[blk.row_start : blk.row_stop]
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)


def test_identity_near_blocks_make_alpha_identity():
    h = assembled(discretize_strip(2.0, 10), 5)
    doctored = HMatrix(
        tree=h.tree,
        partition=h.partition,
        near_blocks=[
            NearBlock(b.row_start, b.row_stop, b.col_start, b.col_stop,
                      np.eye(b.row_stop - b.row_start, b.col_stop - b.col_start, dtype=np.complex128)
                      if b.is_diagonal else np.zeros_like(b.data))
            for b in h.near_blocks
        ],
        far_blocks=h.far_blocks,
        assembled_levels=h.assembled_levels,
        tol=h.tol,
        symmetric=h.symmetric,
    )
    rng = np.random.default_rng(1)
    b = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    scaled = compute_scaling(doctored, b)
    assert np.allclose(scaled.b_tilde, b, atol=1e-14)
    x = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    assert np.allclose(scaled.alpha_apply(x), x, atol=1e-14)


def test_near_solve_matches_dense_inverse():
    """The exact near-field solve against an independent dense route."""
    for mesh, leaf in ((discretize_strip(4.0, 16), 16), (discretize_disk(0.3, 12, 2.0), 8)):
        h = assembled(mesh, leaf)
        scaled = compute_scaling(h, np.ones(h.n, dtype=np.complex128))
        zn = dense_near(h)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
        x_fast = scaled.near_solve(v)
        x_dense = np.linalg.solve(zn, v)
        assert np.linalg.norm(x_fast - x_dense) <= 1e-10 * np.linalg.norm(x_dense)


def test_strip_near_field_carries_offdiagonal_coupling():
    # touching leaves are never admissible, so the band is wider than the
    # diagonal, the off-diagonal application must be nonzero, and the near
    # solve goes through the sparse factorization of the whole band
    h = assembled(discretize_strip(2.0, 10), 5)
    scaled = compute_scaling(h, np.ones(h.n, dtype=np.complex128))
    assert any(not blk.is_diagonal for blk in h.near_blocks)
    assert scaled.near_factorization is not None
    x = np.ones(h.n, dtype=np.complex128)
    offdiag = h.near_matvec(x)
    for blk in h.diagonal_blocks():
        offdiag[blk.row_start : blk.row_stop] -= blk.data @ x[blk.col_start : blk.col_stop]
    assert np.linalg.norm(offdiag) > 0.0


def test_scaled_matvec_against_dense():
    mesh = discretize_disk(0.3, 12, 2.0)
    h = assembled(mesh, 8)
    scaled = compute_scaling(h, np.ones(h.n, dtype=np.complex128))
    spec = KernelSpec.for_mesh(mesh)
    from hpss import assemble_dense

    z = assemble_dense(spec, permutation=h.tree.permutation)
    alpha = dense_from_operator(scaled.alpha_apply, h.n)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    want = alpha @ (z @ x)
    got = scaled.scaled_matvec(x)
    assert np.linalg.norm(got - want) <= 5e-3 * np.linalg.norm(want)


def test_singular_diagonal_block_is_named():
    h = assembled(discretize_strip(2.0, 10), 5)
    for blk in h.near_blocks:
        if blk.is_diagonal:
            blk.data = np.zeros_like(blk.data)
            break
    with pytest.raises(ValueError, match="leaf 0"):
        compute_scaling(h, np.ones(h.n, dtype=np.complex128))


def test_singular_near_coupling_is_rejected():
    # diagonal blocks invertible but the assembled near matrix is not:
    # [[I, I], [I, I]] has rank n/2
    mesh = discretize_strip(1.0, 10)
    tree = build_cluster_tree(mesh, 5)
    partition = build_block_partition(tree, 1.0)
    eye = np.eye(5, dtype=np.complex128)
    blocks = []
    for t, s in partition.near_pairs:
        nt, ns = tree.node(t), tree.node(s)
        blocks.append(NearBlock(nt.start, nt.stop, ns.start, ns.stop, eye.copy()))
    h = HMatrix(tree=tree, partition=partition, near_blocks=blocks, far_blocks={},
                assembled_levels=set(), tol=1e-3, symmetric=False)
    with pytest.raises(ValueError, match="singular"):
        compute_scaling(h, np.ones(10, dtype=np.complex128))


def test_rhs_length_checked():
    h = assembled(discretize_strip(1.0, 10), 5)
    with pytest.raises(ValueError):
        compute_scaling(h, np.ones(7, dtype=np.complex128))


def test_alpha_scale_knob_shows_up_in_defect():
    h = assembled(discretize_strip(2.0, 10), 5)
    b = np.ones(h.n, dtype=np.complex128)
    clean = compute_scaling(h, b)
    assert clean.scale_defect <= 1e-12
    broken = compute_scaling(h, b, alpha_scale=0.1)
    assert abs(broken.scale_defect - 0.9) <= 1e-9
    assert np.allclose(broken.b_tilde, 0.1 * clean.b_tilde)
    # the exact near solve ignores the knob by design
    v = np.ones(h.n, dtype=np.complex128)
    assert np.allclose(broken.near_solve(v), clean.near_solve(v))


def test_leaf_factor_norm_below_one_on_short_strip():
    """Natural-density short strip: the leaf far-field factor contracts."""
    h = assembled(discretize_strip(2.0, 10), 5)
    scaled = compute_scaling(h, np.ones(h.n, dtype=np.complex128))
    apply = lambda x: scaled.near_solve(h.matvec_level(h.depth, x))
    dense_u = dense_from_operator(apply, h.n)
    assert np.linalg.norm(dense_u, 2) < 1.0


def test_spectral_radius_estimator_basics():
    d = np.array([0.9, 0.3])
    est = estimate_spectral_radius(lambda v: d * v, 2, iters=24)
    assert est.mode == "power-radius"
    assert abs(est.value - 0.9) <= 0.02

    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    est = estimate_spectral_radius(lambda v: rot @ v, 2, iters=16)
    assert abs(est.value - 1.0) <= 1e-12

    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    est = estimate_spectral_radius(lambda v: nil @ v, 2, iters=8)
    assert est.value == 0.0

    with pytest.raises(ValueError):
        estimate_spectral_radius(lambda v: v, 2, iters=1)


def test_spectral_radius_matches_dense_eigenvalues():
    h = assembled(discretize_strip(2.0, 10), 5)
    scaled = compute_scaling(h, np.ones(h.n, dtype=np.complex128))
    apply = lambda x: scaled.near_solve(h.matvec_level(h.depth, x))
    est = estimate_spectral_radius(apply, h.n, iters=30)
    dense_u = dense_from_operator(apply, h.n)
    rho = float(np.max(np.abs(np.linalg.eigvals(dense_u))))
    assert rho < 1.0
    assert abs(est.value - rho) <= 0.1 * rho
