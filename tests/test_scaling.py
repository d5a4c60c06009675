import re

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from hpss import (
    KernelSpec,
    assemble,
    build_cluster_tree,
    compute_scaling,
    discretize_circle,
    discretize_disk,
    discretize_strip,
    scaling,
)
from conftest import applied_near_blocks, dense_from_operator, factor_scaled_near_field, halved_strip, stored_near_blocks


def assembled(mesh, leaf, tol=1e-3):
    tree = build_cluster_tree(mesh, leaf)
    return assemble(KernelSpec.for_mesh(mesh), tree, tol=tol)


def dense_near(h):
    z = np.zeros((h.n, h.n), dtype=np.complex128)
    for r0, c0, block in applied_near_blocks(h):
        z[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
    return z


def test_near_solve_matches_dense_inverse():
    """The exact near-field solve against an independent dense route.  The
    solve is the transposed one of the factor of Z_N^T, which a reciprocal
    (symmetric) Z_N cannot tell from the untransposed one: the halved strip's
    kernel is not reciprocal."""
    for mesh, leaf in ((discretize_strip(4.0, 16), 16), (discretize_disk(0.3, 12, 2.0), 8), (halved_strip(7), 32)):
        h = assembled(mesh, leaf)
        scaled = compute_scaling(h, np.ones(h.n, dtype=np.complex128))
        zn = dense_near(h)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
        x_fast = scaled.near_solve(v)
        x_dense = np.linalg.solve(zn, v)
        assert np.linalg.norm(x_fast - x_dense) <= 1e-12 * np.linalg.norm(x_dense)


def test_strip_near_field_carries_offdiagonal_coupling():
    # touching leaves are never admissible, so the band is wider than the
    # diagonal, the off-diagonal application must be nonzero, and the near
    # solve goes through the sparse factorization of the whole band
    h = assembled(discretize_strip(2.0, 10), 5)
    scaled = compute_scaling(h, np.ones(h.n, dtype=np.complex128))
    assert any(r0 != c0 for r0, c0, _ in stored_near_blocks(h))
    assert scaled.near.factorization is not None
    x = np.ones(h.n, dtype=np.complex128)
    offdiag = h.near_matvec(x)
    for start, block in h.near.diagonal_blocks():
        offdiag[start : start + len(block)] -= block @ x[start : start + len(block)]
    assert np.linalg.norm(offdiag) > 0.0


def test_singular_diagonal_block_is_named():
    h = assembled(discretize_strip(2.0, 10), 5)
    h.near.stacks[0].data.flags.writeable = True  # assembly froze it; break it on purpose
    r0, c0, block = stored_near_blocks(h)[0]
    assert r0 == c0 == 0
    block[...] = 0.0
    with pytest.raises(ValueError, match=re.escape("leaf 0 (rows [0, 5)) is singular")):
        compute_scaling(h, np.ones(h.n, dtype=np.complex128))


def test_singular_near_coupling_is_rejected():
    # diagonal blocks invertible but the assembled near matrix is not:
    # [[I, I], [I, I]] has rank n/2
    h = assembled(discretize_strip(1.0, 10), 5)
    # two diagonal blocks and one off-diagonal block with its mirror
    assert len(stored_near_blocks(h)) == 3 and len(applied_near_blocks(h)) == 4
    for stack in h.near.stacks:
        stack.data.flags.writeable = True  # assembly froze them; break them on purpose
    for _, _, block in stored_near_blocks(h):
        block[...] = np.eye(5)
    with pytest.raises(ValueError, match="singular"):
        compute_scaling(h, np.ones(10, dtype=np.complex128))


def test_rhs_length_checked():
    h = assembled(discretize_strip(1.0, 10), 5)
    with pytest.raises(ValueError):
        compute_scaling(h, np.ones(7, dtype=np.complex128))


def test_non_finite_rhs_is_refused_with_its_index():
    """A NaN entry would otherwise give a NaN solution whose report reads
    as a zero right-hand side."""
    h = assembled(discretize_strip(1.0, 10), 5)
    b = np.ones(h.n, dtype=np.complex128)
    b[3] = np.nan
    with pytest.raises(ValueError, match="entry 3 is not finite"):
        compute_scaling(h, b)
    b[3], b[7] = 1.0, np.inf
    with pytest.raises(ValueError, match="entry 7 is not finite"):
        compute_scaling(h, b)


def test_descaled_near_solve_shows_up_in_defect(monkeypatch):
    h = assembled(discretize_strip(2.0, 10), 5)
    b = np.ones(h.n, dtype=np.complex128)
    clean = compute_scaling(h, b)
    assert clean.near.defect <= 1e-12
    # the near factor is kept with its near field, so the broken half has its own operator
    h_broken = assembled(discretize_strip(2.0, 10), 5)
    with monkeypatch.context() as patch:
        factor_scaled_near_field(patch, 10.0)
        broken = compute_scaling(h_broken, b)
    assert abs(broken.near.defect - 0.9) <= 1e-9
    # the defect measures the near solve every solution goes through
    v = np.ones(h.n, dtype=np.complex128)
    assert np.allclose(broken.near_solve(v), 0.1 * clean.near_solve(v))
    # the near solve inverts the near field of a disk too
    disk = assembled(discretize_disk(0.3, 12, 2.0), 8)
    assert compute_scaling(disk, np.ones(disk.n, dtype=np.complex128)).near.defect <= 1e-12


def test_leaf_factor_norm_below_one_on_short_strip():
    """Natural-density short strip: the leaf far-field factor contracts."""
    h = assembled(discretize_strip(2.0, 10), 5)
    scaled = compute_scaling(h, np.ones(h.n, dtype=np.complex128))
    apply = lambda x: scaled.near_solve(h.matvec_level(h.depth, x))
    dense_u = dense_from_operator(apply, h.n)
    assert np.linalg.norm(dense_u, 2) < 1.0


# -- one factorization per operator -------------------------------------------


def counting(monkeypatch, name):
    """Wrap ``scaling.<name>`` so its calls are counted; returns the counter."""
    calls = []
    original = getattr(scaling, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scaling, name, wrapper)
    return calls


def test_near_field_is_factored_once_per_operator(monkeypatch):
    h = assembled(discretize_strip(4.0, 16), 16)
    splu_calls, lu_calls = counting(monkeypatch, "splu"), counting(monkeypatch, "lu_factor")
    first = compute_scaling(h, np.ones(h.n, dtype=np.complex128))
    second = compute_scaling(h, np.arange(h.n, dtype=np.complex128))
    assert len(splu_calls) == 1
    assert len(lu_calls) == len(h.near.diagonal_blocks()) > 1
    assert first.near.factorization is second.near.factorization
    assert second.b[3] == 3.0


def test_factored_near_field_is_read_only():
    """A write into a factored operator raises instead of going stale."""
    h = assembled(discretize_strip(2.0, 10), 5)
    # views taken right after assembly, before the near field is factored
    early = h.near.stacks[0].data[0]
    _, diagonal = h.near.diagonal_blocks()[0]
    compute_scaling(h, np.ones(h.n, dtype=np.complex128))
    with pytest.raises(ValueError, match="read-only"):
        early[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        diagonal[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        stored_near_blocks(h)[0][2][0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        h.near.stacks[0].data[...] = 0.0


@pytest.mark.parametrize(
    "mesh, leaf",
    [(discretize_strip(25.6, 10), 16), (discretize_circle(2.0, 16), 16), (discretize_disk(0.5, 12, 2.0), 8)],
    ids=["strip", "circle", "disk"],
)
def test_minimum_degree_fills_no_more_than_colamd(mesh, leaf):
    h = assembled(mesh, leaf)
    factor = compute_scaling(h, np.ones(h.n, dtype=np.complex128)).near.factorization
    colamd = splu(h.near.csr().tocsc(), permc_spec="COLAMD")
    assert factor.L.nnz + factor.U.nnz <= colamd.L.nnz + colamd.U.nnz
