import math

import numpy as np
import pytest
from scipy.special import hankel2, j1

from hpss import (
    Excitation,
    KernelSpec,
    assemble_dense,
    build_cluster_tree,
    discretize_circle,
    discretize_disk,
    discretize_strip,
    gmres,
    rhs,
    z_entry,
)
from hpss.geometry import SURFACE, VOLUME, Mesh
from hpss.kernels import ETA0, _surface_self_entry, _volume_self_entry, z_block


def test_spec_requires_matching_mesh_kind():
    surf = discretize_strip(1.0, 10)
    vol = discretize_disk(0.3, 10, 2.0)
    with pytest.raises(ValueError):
        KernelSpec("v-efie", surf)
    with pytest.raises(ValueError):
        KernelSpec("s-efie", vol)
    assert KernelSpec.for_mesh(surf).equation == "s-efie"
    assert KernelSpec.for_mesh(vol).equation == "v-efie"


def test_zero_contrast_cells_rejected():
    vol = discretize_disk(0.3, 10, 2.0)
    with pytest.raises(ValueError):
        KernelSpec.for_mesh(vol.with_eps(np.ones(vol.n_elements)))


def test_surface_self_term_sign():
    spec = KernelSpec.for_mesh(discretize_strip(1.0, 10))
    z = z_entry(spec, 3, 3)
    assert z.real > 0.0
    assert z.real > abs(z_entry(spec, 3, 4).real)


def test_hankel_far_field_decay():
    # amplitude drop from r to 4r follows 1/sqrt(k r): ratio 1/2 within 5%
    spec = KernelSpec.for_mesh(discretize_strip(50.0, 10))
    r = 5.0
    j_near = int(round(r / 0.1))
    j_far = int(round(4.0 * r / 0.1))
    ratio = abs(z_entry(spec, 0, j_far)) / abs(z_entry(spec, 0, j_near))
    assert abs(ratio - 0.5) < 0.025


def test_rhs_phase_and_modulus():
    mesh = discretize_strip(1.0, 10)
    spec = KernelSpec.for_mesh(mesh)
    b = rhs(spec, Excitation(0.0))
    # element centers sit at (0.05 + 0.1 m, 0); phase k0 x
    expect = np.exp(1j * spec.k0 * mesh.centers[:, 0])
    assert np.allclose(b, expect, atol=1e-14)
    assert np.allclose(np.abs(b), 1.0)

    # a half-wavelength offset along the propagation axis flips the sign
    m2 = discretize_strip(1.0, 10)
    shifted = m2.centers + np.array([0.5, 0.0])
    phase = np.exp(1j * spec.k0 * shifted[:, 0])
    assert np.allclose(phase, -expect)


def test_dense_matches_entries_and_is_symmetric():
    spec = KernelSpec.for_mesh(discretize_strip(2.0, 10))
    z = assemble_dense(spec)
    for i in (0, 7, 19):
        for j in (0, 3, 19):
            assert z[i, j] == z_entry(spec, i, j)
    assert np.linalg.norm(z - z.T) <= 1e-12 * np.linalg.norm(z)


def test_volume_kernel_reciprocity():
    spec = KernelSpec.for_mesh(discretize_disk(0.3, 10, 3.0 - 0.2j))
    z = assemble_dense(spec)
    assert np.linalg.norm(z - z.T) <= 1e-12 * np.linalg.norm(z)


def test_permuted_assembly_is_a_reindexing():
    mesh = discretize_strip(3.0, 16)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, 8)
    p = tree.permutation
    z = assemble_dense(spec)
    zp = assemble_dense(spec, permutation=p)
    assert np.array_equal(zp, z[np.ix_(p, p)])


def test_block_evaluator_matches_dense():
    spec = KernelSpec.for_mesh(discretize_disk(0.3, 10, 2.0))
    z = assemble_dense(spec)
    rows = np.array([0, 5, 9])
    cols = np.array([2, 5])
    assert np.array_equal(z_block(spec, rows, cols), z[np.ix_(rows, cols)])


def fan_mesh(kind):
    """Element 0 at the origin, the others at k0*r from 1e-3 to 1.1e4 from it."""
    rng = np.random.default_rng(3)
    k0r = np.geomspace(1e-3, 1.1e4, 81)
    phi = rng.uniform(0.0, 2.0 * math.pi, k0r.size)
    r = k0r / (2.0 * math.pi)
    centers = np.vstack([[0.0, 0.0], np.column_stack([r * np.cos(phi), r * np.sin(phi)])])
    n = centers.shape[0]
    if kind == SURFACE:
        return Mesh(SURFACE, centers, rng.uniform(0.01, 0.1, n), np.ones(n, dtype=complex))
    return Mesh(VOLUME, centers, rng.uniform(0.01, 0.07, n), rng.uniform(1.5, 2.0, n) - 0.3j)


@pytest.mark.parametrize("kind", [SURFACE, VOLUME])
def test_offdiagonal_entries_match_hankel2(kind):
    mesh = fan_mesh(kind)
    spec = KernelSpec.for_mesh(mesh)
    k0, n = spec.k0, mesh.n_elements
    if kind == SURFACE:
        weights = (k0 * ETA0 / 4.0) * mesh.extents
    else:
        a = mesh.extents / math.sqrt(math.pi)
        weights = 0.5j * math.pi * k0 * a * j1(k0 * a)
    others = np.arange(1, n)
    k0r = k0 * np.hypot(mesh.centers[others, 0], mesh.centers[others, 1])
    row = z_block(spec, np.array([0]), others)[0]
    col = z_block(spec, others, np.array([0]))[:, 0]
    assert np.max(np.abs(row / (weights[others] * hankel2(0, k0r)) - 1.0)) <= 1e-12
    assert np.max(np.abs(col / (weights[0] * hankel2(0, k0r)) - 1.0)) <= 1e-12


@pytest.mark.parametrize("mesh", [discretize_strip(2.0, 10), discretize_disk(0.3, 10, 3.0 - 0.2j)])
def test_self_entries_are_the_self_integrals(mesh):
    spec = KernelSpec.for_mesh(mesh)
    if mesh.kind == SURFACE:
        expect = _surface_self_entry(spec.k0, mesh.extents)
    else:
        expect = _volume_self_entry(spec.k0, mesh.extents, mesh.eps_r)
    idx = np.arange(mesh.n_elements)
    assert np.array_equal(np.diag(z_block(spec, idx, idx)), expect)
    rows, cols = np.array([3, 5, 7, 12]), np.array([5, 6, 12, 7, 3])
    block = z_block(spec, rows, cols)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            if r == c:
                assert block[i, j] == expect[r]


def test_dense_cap_refuses_large_systems():
    spec = KernelSpec.for_mesh(discretize_strip(2.0, 10))
    with pytest.raises(ValueError):
        assemble_dense(spec, size_cap=10)


def test_volume_system_is_second_kind():
    """GMRES without preconditioning converges fast on the contrast form."""
    spec = KernelSpec.for_mesh(discretize_disk(0.3, 10, 2.0))
    z = assemble_dense(spec)
    b = rhs(spec, Excitation(0.0))
    x, rep = gmres(lambda v: z @ v, b, tol=1e-6)
    assert rep.converged
    assert rep.iterations < 50
