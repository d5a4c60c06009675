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
    lu_solve,
    rhs,
    rcs_rms_error,
    series_dielectric_cylinder,
    series_pec_cylinder,
)
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


def test_echo_width_phase_matches_exp_form(monkeypatch):
    """The cosine/sine phase buffer gives the exp(1j * phase) form's sigma to
    1e-15 relative, chunk for chunk (so a libm whose exp and cos/sin round
    apart still passes)."""
    from hpss import postproc

    monkeypatch.setattr(postproc, "_to_db", lambda sigma: sigma)  # keep sigma linear
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
        got = bistatic_rcs(mesh, x, angles).sigma_db
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
