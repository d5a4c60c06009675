import cmath
import math

import numpy as np
import pytest
from scipy.special import j1 as bessel_j1

from hpss import (
    Excitation,
    KernelSpec,
    RcsCurve,
    assemble_dense,
    bistatic_rcs,
    discretize_circle,
    discretize_disk,
    discretize_strip,
    lu_solve,
    rhs,
    rcs_rms_error,
    series_dielectric_cylinder,
    series_pec_cylinder,
)
from hpss import postproc
from hpss.geometry import SURFACE, Mesh
from hpss.kernels import ETA0

ANGLES = np.linspace(0.0, 180.0, 181)


def test_zero_solution_sits_on_floor():
    mesh = discretize_circle(0.5, 10)
    curve = bistatic_rcs(mesh, np.zeros(mesh.n_elements, dtype=np.complex128), ANGLES)
    assert np.all(curve.sigma_db == -200.0)


def test_single_surface_element_radiates_isotropically():
    k0 = 2.0 * math.pi
    delta = 0.05
    current = 2.0 + 1.0j
    mesh = Mesh(SURFACE, np.array([[0.3, -0.2]]), np.array([delta]), np.ones(1, dtype=complex))
    curve = bistatic_rcs(mesh, np.array([current]), ANGLES)
    expected = 10.0 * math.log10((2.0 / math.pi) * (k0 * ETA0 * delta * abs(current) / 4.0) ** 2)
    assert np.max(np.abs(curve.sigma_db - expected)) <= 1e-12


def test_matches_direct_radiation_sum():
    # scalar re-derivation of the far-field sum, one angle at a time
    rng = np.random.default_rng(53)

    def direct_db(mesh, sol, angles_deg):
        k0 = mesh.k0
        out = []
        for ang in angles_deg:
            phi = math.radians(ang)
            acc = 0.0 + 0.0j
            for j in range(mesh.n_elements):
                dot = math.cos(phi) * mesh.centers[j, 0] + math.sin(phi) * mesh.centers[j, 1]
                if mesh.kind == SURFACE:
                    w = -(k0 * ETA0 / 4.0) * mesh.extents[j] * sol[j]
                else:
                    a = mesh.extents[j] / math.sqrt(math.pi)
                    w = -0.5j * math.pi * k0 * a * bessel_j1(k0 * a) * sol[j]
                acc += w * cmath.exp(1j * k0 * dot)
            sigma = (2.0 / math.pi) * abs(acc) ** 2
            out.append(10.0 * math.log10(max(sigma, 1e-20)))
        return np.array(out)

    coarse = np.linspace(0.0, 180.0, 19)
    for mesh in (discretize_circle(0.5, 10), discretize_disk(0.2, 12, 2.0)):
        sol = rng.standard_normal(mesh.n_elements) + 1j * rng.standard_normal(mesh.n_elements)
        curve = bistatic_rcs(mesh, sol, coarse)
        assert np.max(np.abs(curve.sigma_db - direct_db(mesh, sol, coarse))) <= 1e-9


def test_solved_pattern_symmetric_about_incidence_axis():
    # the chord mesh of a circle is mirror symmetric in y, so broadside
    # incidence must give sigma(+phi) == sigma(-phi) to roundoff
    mesh = discretize_circle(1.0, 20)
    spec = KernelSpec.for_mesh(mesh)
    x = lu_solve(assemble_dense(spec), rhs(spec, Excitation(0.0)))
    d = np.linspace(1.0, 179.0, 90)
    pos = bistatic_rcs(mesh, x, d)
    neg = bistatic_rcs(mesh, x, -d[::-1])
    assert np.max(np.abs(pos.sigma_db - neg.sigma_db[::-1])) <= 1e-9


def test_series_truncation_is_converged_at_default_depth(monkeypatch):
    for make in (
        lambda: series_pec_cylinder(1.4, ANGLES, 0.3),
        lambda: series_dielectric_cylinder(0.8, 3.0, ANGLES, 0.3),
    ):
        curves = {}
        for extra in (0, 20, 45):
            monkeypatch.setattr("hpss.postproc.SERIES_EXTRA_TERMS", extra)
            curves[extra] = make().sigma_db
        assert np.max(np.abs(curves[20] - curves[45])) <= 1e-8
        # the constant is live: chopping the margin entirely moves the curve
        assert np.max(np.abs(curves[0] - curves[45])) > 1e-4


def test_dielectric_series_vanishes_at_unit_permittivity():
    curve = series_dielectric_cylinder(0.5, 1.0, ANGLES)
    assert np.all(curve.sigma_db == -200.0)


def test_series_rejects_bad_radius():
    with pytest.raises(ValueError):
        series_pec_cylinder(0.0, ANGLES)
    with pytest.raises(ValueError):
        series_dielectric_cylinder(-1.0, 2.0, ANGLES)


def test_rms_error_basics():
    a = RcsCurve(ANGLES, np.zeros_like(ANGLES))
    assert rcs_rms_error(a, a) == 0.0
    b = RcsCurve(ANGLES, np.ones_like(ANGLES))
    assert abs(rcs_rms_error(a, b) - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        rcs_rms_error(a, RcsCurve(ANGLES + 0.5, np.zeros_like(ANGLES)))
    with pytest.raises(ValueError):
        rcs_rms_error(a, RcsCurve(ANGLES[:-1], np.zeros(len(ANGLES) - 1)))


def test_curve_validation():
    with pytest.raises(ValueError):
        RcsCurve(np.array([0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        RcsCurve(np.array([0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        RcsCurve(np.array([0.0, 1.0]), np.array([0.0, -np.inf]))
    RcsCurve(np.array([42.0]), np.array([-3.0]))


# NaN fails every comparison, so a test for a step that is not positive
# lets a NaN angle through
@pytest.mark.parametrize("angles", [[0.0, np.nan], [np.nan, 1.0], [np.nan], [0.0, np.inf]])
def test_curve_refuses_a_non_finite_angle(angles):
    with pytest.raises(ValueError, match="angles must be finite and strictly increasing"):
        RcsCurve(np.array(angles), np.zeros(len(angles)))


def test_curve_csv_is_deterministic(tmp_path):
    curve = series_pec_cylinder(0.7, np.linspace(0.0, 180.0, 7))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    curve.to_csv(str(p1))
    curve.to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "angle_deg,sigma_dB"
    assert "time" not in header


def test_pec_circle_solution_matches_series():
    mesh = discretize_circle(1.0, 20)
    spec = KernelSpec.for_mesh(mesh)
    x = lu_solve(assemble_dense(spec), rhs(spec, Excitation(0.0)))
    err = rcs_rms_error(bistatic_rcs(mesh, x, ANGLES), series_pec_cylinder(1.0, ANGLES, 0.0))
    assert err <= 0.1


def test_dielectric_disk_solution_matches_series():
    mesh = discretize_disk(0.3, 20, 2.0)
    spec = KernelSpec.for_mesh(mesh)
    x = lu_solve(assemble_dense(spec), rhs(spec, Excitation(0.0)))
    err = rcs_rms_error(
        bistatic_rcs(mesh, x, ANGLES), series_dielectric_cylinder(0.3, 2.0, ANGLES, 0.0)
    )
    assert err <= 0.5


def test_lossy_disk_oblique_incidence_tracks_series():
    # staircase cells limit a lossy disk to about 1 dB at this density;
    # the check still catches convention errors, which cost tens of dB
    angles = np.linspace(0.0, 359.0, 360)
    phi = math.radians(40.0)
    mesh = discretize_disk(0.25, 20, 2.0 - 0.5j)
    spec = KernelSpec.for_mesh(mesh)
    x = lu_solve(assemble_dense(spec), rhs(spec, Excitation(phi)))
    err = rcs_rms_error(
        bistatic_rcs(mesh, x, angles),
        series_dielectric_cylinder(0.25, 2.0 - 0.5j, angles, phi),
    )
    assert err <= 1.5


def test_chunked_echo_width_matches_one_phase_matrix():
    """Angle chunks give the unchunked formula's sigma to 1e-12 relative."""
    from hpss.postproc import RCS_ANGLE_CHUNK

    rng = np.random.default_rng(8)
    angles = np.linspace(0.0, 360.0, 3 * RCS_ANGLE_CHUNK + 5, endpoint=False)
    for mesh in (discretize_circle(1.0, 12), discretize_disk(0.4, 12, 2.0)):
        x = rng.standard_normal(mesh.n_elements) + 1j * rng.standard_normal(mesh.n_elements)
        k0 = mesh.k0
        phi = np.deg2rad(angles)
        phase = np.exp(1j * k0 * (np.column_stack([np.cos(phi), np.sin(phi)]) @ mesh.centers.T))
        if mesh.kind == SURFACE:
            weights = -(k0 * ETA0 / 4.0) * mesh.extents * x
        else:
            a = mesh.extents / math.sqrt(math.pi)
            weights = -0.5j * math.pi * k0 * a * bessel_j1(k0 * a) * x
        want = (2.0 / math.pi) * np.abs(phase @ weights) ** 2
        got = 10.0 ** (bistatic_rcs(mesh, x, angles).sigma_db / 10.0)
        assert np.max(np.abs(got - want) / want) <= 1e-12


def test_echo_width_phase_matches_exp_form():
    """The direct sum's cosine/sine phase buffer gives the exp(1j * phase)
    form's sigma to 1e-15 relative, chunk for chunk (so a libm whose exp
    and cos/sin round apart still passes)."""
    chunk = postproc.RCS_ANGLE_CHUNK
    rng = np.random.default_rng(9)
    angles = np.linspace(0.0, 360.0, 2 * chunk + 7, endpoint=False)
    directions = np.column_stack([np.cos(np.deg2rad(angles)), np.sin(np.deg2rad(angles))])
    for mesh in (discretize_circle(1.0, 12), discretize_disk(0.4, 12, 2.0)):
        x = rng.standard_normal(mesh.n_elements) + 1j * rng.standard_normal(mesh.n_elements)
        weights = -KernelSpec.for_mesh(mesh).column_weights * x
        factor = np.concatenate(
            [
                np.exp(1j * mesh.k0 * (directions[start : start + chunk] @ mesh.centers.T)) @ weights
                for start in range(0, angles.size, chunk)
            ]
        )
        want = (2.0 / math.pi) * np.abs(factor) ** 2
        direct = postproc._direct_factor(mesh.centers, weights, mesh.k0, np.deg2rad(angles))
        got = (2.0 / math.pi) * np.abs(direct) ** 2
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def _factors(mesh, x, angles):
    """The grouped and direct far-field factors of ``x`` over ``angles``."""
    weights = -KernelSpec.for_mesh(mesh).column_weights * x
    phi = np.deg2rad(angles)
    cells = postproc._Cells.of(mesh.centers, mesh.k0)
    return (
        postproc._grouped_factor(cells, weights, mesh.k0, phi),
        postproc._direct_factor(mesh.centers, weights, mesh.k0, phi),
    )


def _parent_direct_db(mesh, x, angles):
    """The direct chunked sum as it stood before the grouped one: the
    reference for the bits a call below the A > Q rule must keep."""
    phi = np.deg2rad(np.asarray(angles, dtype=float))
    directions = np.column_stack([np.cos(phi), np.sin(phi)])
    weights = -KernelSpec.for_mesh(mesh).column_weights * x
    chunk = postproc.RCS_ANGLE_CHUNK
    factor = np.empty(phi.size, dtype=np.complex128)
    buffer = np.empty((min(phi.size, chunk), mesh.n_elements), dtype=np.complex128)
    for start in range(0, phi.size, chunk):
        r_hat = directions[start : start + chunk]
        phase = buffer[: len(r_hat)]
        np.multiply(mesh.k0, r_hat @ mesh.centers.T, out=phase.real)
        np.sin(phase.real, out=phase.imag)
        np.cos(phase.real, out=phase.real)
        factor[start : start + chunk] = phase @ weights
    return postproc._echo_width(angles, factor).sigma_db


GROUPED_MESHES = {
    "strip204": lambda: discretize_strip(204.8, 10),
    "circle2k": lambda: discretize_circle(20.0, 16),
    "disk2k5": lambda: discretize_disk(1.0, 20, 2.0),
}


@pytest.mark.parametrize("name", sorted(GROUPED_MESHES))
def test_grouped_echo_width_matches_direct_sum(name):
    """At 361 angles the cell signatures give the direct sum's F to
    1e-12 of its peak, and ``bistatic_rcs`` takes that grouped path."""
    mesh = GROUPED_MESHES[name]()
    rng = np.random.default_rng(28)
    x = rng.standard_normal(mesh.n_elements) + 1j * rng.standard_normal(mesh.n_elements)
    angles = np.linspace(0.0, 180.0, 361)
    assert postproc._Cells.of(mesh.centers, mesh.k0).n_samples < angles.size
    grouped, direct = _factors(mesh, x, angles)
    assert np.max(np.abs(grouped - direct)) <= 1e-12 * np.max(np.abs(direct))
    want = postproc._echo_width(angles, grouped).sigma_db
    assert bistatic_rcs(mesh, x, angles).sigma_db.tobytes() == want.tobytes()


def test_grouped_echo_width_is_byte_deterministic():
    mesh = discretize_circle(20.0, 16)
    x = np.random.default_rng(3).standard_normal(mesh.n_elements) + 0.5j
    angles = np.linspace(0.0, 360.0, 721)
    first = bistatic_rcs(mesh, x, angles).sigma_db
    assert first.tobytes() == bistatic_rcs(mesh, x, angles).sigma_db.tobytes()


def test_echo_width_bins_a_mesh_once(monkeypatch):
    """Later curves of one mesh reuse its cells and are byte for byte the
    curve of a fresh binning; a new mesh is binned anew, and the kept
    cells keep no mesh alive."""
    binned = []
    of = postproc._Cells.of
    monkeypatch.setattr(postproc._Cells, "of", classmethod(lambda cls, *args: binned.append(1) or of(*args)))
    angles = np.linspace(0.0, 180.0, 361)
    mesh = discretize_strip(25.6, 10)
    x = np.random.default_rng(6).standard_normal(mesh.n_elements) + 1j
    first = bistatic_rcs(mesh, x, angles).sigma_db
    for _ in range(2):
        assert bistatic_rcs(mesh, x, angles).sigma_db.tobytes() == first.tobytes()
    assert len(binned) == 1
    other = discretize_strip(25.6, 10)
    assert bistatic_rcs(other, x, angles).sigma_db.tobytes() == first.tobytes()
    assert len(binned) == 2
    del mesh, other
    assert postproc._binned[0]() is None


def test_echo_width_groups_only_above_its_sample_count():
    """Up to Q angles (one among them) the curve is bitwise the direct
    sum; from Q + 1 on it is the grouped sum."""
    mesh = discretize_strip(25.6, 10)
    q = postproc._Cells.of(mesh.centers, mesh.k0).n_samples
    x = np.random.default_rng(4).standard_normal(mesh.n_elements) + 1j
    for count in (1, 2, q):
        angles = np.linspace(10.0, 170.0, count)
        got = bistatic_rcs(mesh, x, angles).sigma_db
        assert got.tobytes() == _parent_direct_db(mesh, x, angles).tobytes()
    angles = np.linspace(10.0, 170.0, q + 1)
    grouped, direct = _factors(mesh, x, angles)
    got = bistatic_rcs(mesh, x, angles).sigma_db
    assert got.tobytes() == postproc._echo_width(angles, grouped).sigma_db.tobytes()
    assert got.tobytes() != _parent_direct_db(mesh, x, angles).tobytes()


def test_grouped_echo_width_chunks_cells_samples_and_angles(monkeypatch):
    """With one angle per chunk, the cells go in groups of N // Q and
    every sample and angle in its own block: the same F to rounding."""
    mesh = discretize_strip(204.8, 10)
    x = np.random.default_rng(5).standard_normal(mesh.n_elements) + 1j
    angles = np.linspace(0.0, 180.0, 361)
    whole, _ = _factors(mesh, x, angles)
    monkeypatch.setattr(postproc, "RCS_ANGLE_CHUNK", 1)
    cells = postproc._Cells.of(mesh.centers, mesh.k0)
    assert mesh.n_elements // cells.n_samples < len(cells.centers)  # several groups
    chunked, _ = _factors(mesh, x, angles)
    assert np.max(np.abs(chunked - whole)) <= 1e-14 * np.max(np.abs(whole))


def test_cells_hold_every_element_within_the_sampled_radius():
    """Each element sits in one 1-wavelength cell, Q = 2M + 1 with M the
    least order >= k0*rho whose Bessel tail is below RCS_BESSEL_TAIL."""
    from scipy.special import jv

    for mesh in (discretize_strip(30.0, 10), discretize_disk(1.0, 20, 2.0)):
        cells = postproc._Cells.of(mesh.centers, mesh.k0)
        assert np.array_equal(np.sort(cells.order), np.arange(mesh.n_elements))
        sizes = np.diff(cells.bounds)
        assert sizes.min() >= 1 and sizes.sum() == mesh.n_elements
        assert np.allclose(
            mesh.centers[cells.order], cells.offsets + np.repeat(cells.centers, sizes, axis=0), rtol=0, atol=1e-12
        )
        assert np.abs(cells.offsets).max() <= 0.5 * postproc.RCS_CELL_WAVELENGTHS
        kr = mesh.k0 * np.sqrt((cells.offsets**2).sum(axis=1)).max()
        m = cells.max_order
        assert m >= kr and abs(jv(m + 1, kr)) <= postproc.RCS_BESSEL_TAIL
        assert m - 1 < kr or abs(jv(m, kr)) > postproc.RCS_BESSEL_TAIL
        assert cells.n_samples == 2 * m + 1
