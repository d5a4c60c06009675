import math

import numpy as np
import pytest
from scipy.special import hankel2, j0, j1, y0

from hpss import (
    Excitation,
    KernelSpec,
    assemble_dense,
    discretize_circle,
    discretize_disk,
    discretize_strip,
    gmres,
    rhs,
)
from hpss.geometry import SURFACE, VOLUME, Mesh
from hpss.kernels import ETA0, S_EFIE, _surface_self_entry, _volume_self_entry, z_block

from conftest import halved_strip


def test_equation_follows_mesh_kind():
    assert KernelSpec.for_mesh(discretize_strip(1.0, 10)).equation == "s-efie"
    assert KernelSpec.for_mesh(discretize_disk(0.3, 10, 2.0)).equation == "v-efie"


def test_zero_contrast_cells_rejected():
    vol = discretize_disk(0.3, 10, 2.0)
    with pytest.raises(ValueError):
        KernelSpec.for_mesh(Mesh(vol.kind, vol.centers, vol.extents, np.ones(vol.n_elements, dtype=complex)))


def test_surface_self_term_sign():
    spec = KernelSpec.for_mesh(discretize_strip(1.0, 10))
    z = z_block(spec, [3, 4], [3])[:, 0]
    assert z[0].real > 0.0
    assert z[0].real > abs(z[1].real)


def test_hankel_far_field_decay():
    # amplitude drop from r to 4r follows 1/sqrt(k r): ratio 1/2 within 5%
    spec = KernelSpec.for_mesh(discretize_strip(50.0, 10))
    r = 5.0
    j_near = int(round(r / 0.1))
    j_far = int(round(4.0 * r / 0.1))
    z_near, z_far = z_block(spec, [0], [j_near, j_far])[0]
    ratio = abs(z_far) / abs(z_near)
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
            assert z[i, j] == z_block(spec, [i], [j])[0, 0]
    assert np.linalg.norm(z - z.T) <= 1e-12 * np.linalg.norm(z)


def test_volume_kernel_reciprocity():
    spec = KernelSpec.for_mesh(discretize_disk(0.3, 10, 3.0 - 0.2j))
    z = assemble_dense(spec)
    assert np.linalg.norm(z - z.T) <= 1e-12 * np.linalg.norm(z)


@pytest.mark.parametrize(
    "mesh",
    [discretize_strip(2.0, 10), discretize_circle(0.5, 10), discretize_disk(0.3, 10, 2.0 - 0.3j)],
    ids=["strip", "circle", "disk"],
)
def test_generated_geometries_are_exactly_reciprocal(mesh):
    spec = KernelSpec.for_mesh(mesh)
    assert spec.reciprocal
    z = assemble_dense(spec)
    assert np.array_equal(z.view(np.uint64), z.T.copy().view(np.uint64))


def test_unequal_extents_are_not_reciprocal():
    spec = KernelSpec.for_mesh(halved_strip(1))
    assert not spec.reciprocal
    z = assemble_dense(spec)
    # Z_ij and Z_ji differ exactly where one of i, j is the halved element
    halved = np.arange(spec.n) == 1
    assert np.array_equal(z != z.T, halved[:, None] ^ halved[None, :])


def test_one_ulp_of_extent_breaks_reciprocity():
    mesh = discretize_strip(2.0, 10)
    extents = mesh.extents.copy()
    extents[3] = np.nextafter(extents[3], np.inf)
    spec = KernelSpec.for_mesh(Mesh(mesh.kind, mesh.centers, extents, mesh.eps_r))
    assert not spec.reciprocal
    z = assemble_dense(spec)
    assert np.any(z != z.T)


def test_block_evaluator_matches_dense():
    spec = KernelSpec.for_mesh(discretize_disk(0.3, 10, 2.0))
    z = assemble_dense(spec)
    rows = np.array([0, 5, 9])
    cols = np.array([2, 5])
    assert np.array_equal(z_block(spec, rows, cols), z[np.ix_(rows, cols)])


@pytest.mark.parametrize("kind", [SURFACE, VOLUME])
def test_stacked_block_equals_separate_calls_bitwise(kind):
    rng = np.random.default_rng(17)
    mesh = discretize_strip(4.0, 10) if kind == SURFACE else discretize_disk(0.3, 20, 2.0 - 0.1j)
    # element-dependent self terms, so each must come from its own row
    eps_r = mesh.eps_r if kind == SURFACE else rng.uniform(1.5, 2.5, mesh.n_elements) - 0.1j
    mesh = Mesh(kind, mesh.centers, mesh.extents * rng.uniform(0.6, 1.0, mesh.n_elements), eps_r)
    spec = KernelSpec.for_mesh(mesh)
    rows = rng.integers(0, mesh.n_elements, size=(5, 7))
    cols = rng.integers(0, mesh.n_elements, size=(5, 6))
    # self terms at different positions in each block, none in the last
    for b in range(4):
        cols[b, b] = rows[b, b + 1]
        cols[b, 5] = rows[b, 0]
    rows[4] = np.arange(7)
    cols[4] = np.arange(20, 26)
    stacked = z_block(spec, rows, cols)
    assert stacked.shape == (5, 7, 6)
    for b in range(5):
        assert np.array_equal(stacked[b], z_block(spec, rows[b], cols[b]))
    assert np.array_equal(stacked[0, 1, 0], z_block(spec, rows[0, 1:2], rows[0, 1:2])[0, 0])


def gathered_z_block(spec, rows, cols):
    """The formula ``z_block`` had before it read the cached x and y
    arrays: (..., 2) rows of ``mesh.centers`` gathered and differenced as
    strided views; the rest is unchanged."""
    mesh = spec.mesh
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    at_rows = mesh.centers[rows][..., :, None, :]
    at_cols = mesh.centers[cols][..., None, :, :]
    x = np.hypot(at_rows[..., 0] - at_cols[..., 0], at_rows[..., 1] - at_cols[..., 1])
    x *= spec.k0
    self_mask = rows[..., :, None] == cols[..., None, :]
    x[self_mask] = 1.0
    block = np.empty(x.shape, dtype=np.complex128)
    j0(x, out=block.real)
    np.negative(y0(x), out=block.imag)
    block *= spec.column_weights[cols][..., None, :]
    elements = np.broadcast_to(rows[..., :, None], self_mask.shape)[self_mask]
    if spec.equation == S_EFIE:
        block[self_mask] = _surface_self_entry(spec.k0, mesh.extents[elements])
    else:
        block[self_mask] = _volume_self_entry(spec.k0, mesh.extents[elements], mesh.eps_r[elements])
    return block


@pytest.mark.parametrize(
    "mesh",
    [discretize_strip(4.0, 10), discretize_circle(1.0, 16), discretize_disk(0.5, 20, 2.0 - 0.1j)],
    ids=["strip", "circle", "disk"],
)
def test_z_block_is_the_gathered_formula_bitwise(mesh):
    spec = KernelSpec.for_mesh(mesh)
    n = mesh.n_elements
    rng = np.random.default_rng(23)
    rows = rng.integers(0, n, size=(9, 8))
    cols = rng.integers(0, n, size=(9, 7))
    cols[:, 3] = rows[:, 2]  # a self term in every block of the stack
    diagonal = np.arange(n // 3, n // 3 + 12)
    cases = [
        (rows, cols),  # a stack of blocks
        (rows[:, :1], cols),  # ACA's pivot rows of a stack
        (rows, cols[:, :1]),  # and its pivot columns
        (diagonal, diagonal),  # a diagonal near block
        (diagonal, diagonal + 12),  # and a neighbour
    ]
    for r, c in cases:
        assert z_block(spec, r, c).tobytes() == gathered_z_block(spec, r, c).tobytes()


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


def test_dense_cap_refuses_large_systems(monkeypatch):
    spec = KernelSpec.for_mesh(discretize_strip(2.0, 10))
    monkeypatch.setattr("hpss.kernels.DENSE_SIZE_CAP", 10)
    with pytest.raises(ValueError, match="N = 20 > cap 10"):
        assemble_dense(spec)


def test_volume_system_is_second_kind():
    """GMRES without preconditioning converges fast on the contrast form."""
    spec = KernelSpec.for_mesh(discretize_disk(0.3, 10, 2.0))
    z = assemble_dense(spec)
    b = rhs(spec, Excitation(0.0))
    x, rep = gmres(lambda v: z @ v, b, tol=1e-6)
    assert rep.converged
    assert rep.iterations < 50


def two_extent_surface():
    """A strip whose segments alternate between two lengths."""
    extents = np.where(np.arange(40) % 3, 0.05, 0.08)
    x = np.cumsum(extents) - 0.5 * extents
    return Mesh(SURFACE, np.column_stack([x, np.zeros(40)]), extents, np.ones(40, dtype=complex))


def two_permittivity_disk():
    """A disk whose lower half has eps_r 2 and upper half 3 - 0.2j."""
    disk = discretize_disk(0.3, 10, 3.0)
    eps = np.where(disk.centers[:, 1] < 0.0, 2.0 + 0j, 3.0 - 0.2j)
    return Mesh(VOLUME, disk.centers, disk.extents, eps)


@pytest.mark.parametrize("mesh", [two_extent_surface(), two_permittivity_disk()], ids=["surface", "volume"])
def test_self_entries_are_each_elements_own_bit_for_bit(mesh):
    """Computed once per distinct element, each self entry is the one its
    element's self integral gives alone, and z_block's diagonal gathers it."""
    spec = KernelSpec.for_mesh(mesh)
    if mesh.kind == SURFACE:
        alone = [_surface_self_entry(spec.k0, mesh.extents[i : i + 1]) for i in range(mesh.n_elements)]
    else:
        alone = [_volume_self_entry(spec.k0, mesh.extents[i : i + 1], mesh.eps_r[i : i + 1]) for i in range(mesh.n_elements)]
    want = np.concatenate(alone)
    assert len(np.unique(want)) == 2
    assert spec.self_entries.tobytes() == want.tobytes()
    idx = np.arange(mesh.n_elements)
    assert np.diagonal(z_block(spec, idx, idx)).copy().tobytes() == want.tobytes()
