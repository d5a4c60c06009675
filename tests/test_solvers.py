import numpy as np
import pytest

from hpss import Excitation, KernelSpec, assemble_dense, discretize_strip, gmres, lu_solve, rhs


def test_gmres_identity_converges_in_one_iteration():
    b = np.array([1.0 + 2j, -0.5j, 3.0])
    x, rep = gmres(lambda v: v, b)
    assert rep.converged
    assert rep.iterations == 1
    assert np.linalg.norm(x - b) <= 1e-12 * np.linalg.norm(b)


def test_gmres_matches_lu_on_surface_system():
    spec = KernelSpec.for_mesh(discretize_strip(4.0, 32))
    z = assemble_dense(spec)
    # non-grazing incidence: grazing shrinks the solution scale and the
    # relative gap to LU inflates past what the residual tol guarantees
    b = rhs(spec, Excitation(1.2))
    x_lu = lu_solve(z, b)
    x_gm, rep = gmres(lambda v: z @ v, b, tol=1e-6)
    assert rep.converged
    assert np.linalg.norm(x_gm - x_lu) / np.linalg.norm(x_lu) <= 1e-5


def test_gmres_on_hmatrix_tracks_dense_oracle(strip_system):
    h, z = strip_system["h"], strip_system["z_perm"]
    spec = strip_system["spec"]
    b = h.permute(rhs(spec, Excitation(0.0)))
    x_h, rep_h = gmres(h.matvec, b, tol=1e-6)
    x_d, rep_d = gmres(lambda v: z @ v, b, tol=1e-6)
    assert rep_h.converged and rep_d.converged
    # the gap between the two solutions is set by the compression
    # tolerance of the fixture (1e-3), not by the solver residual
    assert np.linalg.norm(x_h - x_d) / np.linalg.norm(x_d) <= 10 * 1e-3


def test_gmres_restart_path():
    rng = np.random.default_rng(31)
    a = np.eye(48) + 0.4 * (rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))) / np.sqrt(48)
    b = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    x, rep = gmres(lambda v: a @ v, b, tol=1e-10, restart=5)
    assert rep.converged
    assert rep.iterations > 5  # actually restarted
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10
    # the recorded history never worsens across a restart boundary
    for k in range(5, len(rep.residual_history), 5):
        assert rep.residual_history[k] <= rep.residual_history[k - 1] * (1.0 + 1e-12)


def test_gmres_maxit_returns_best_effort():
    rng = np.random.default_rng(37)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x, rep = gmres(lambda v: a @ v, b, tol=1e-14, restart=4, maxit=6)
    assert not rep.converged
    assert rep.iterations <= 6
    assert np.all(np.isfinite(x))


def test_gmres_rejects_zero_rhs():
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.zeros(3, dtype=np.complex128))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_gmres_rejects_tolerance_before_any_matvec(tol):
    def apply(v):
        raise AssertionError("matvec called")

    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        gmres(apply, np.ones(3, dtype=np.complex128), tol=tol)


def test_gmres_report_csv_rows():
    b = np.ones(3, dtype=np.complex128)
    _, rep = gmres(lambda v: v, b)
    rows = rep.history_csv_rows()
    assert rows[0][0] == 0
    assert all(isinstance(r[1], str) for r in rows)


def test_lu_identity_and_random():
    b = np.array([1.0, 2.0 - 1j, 3j])
    assert np.array_equal(lu_solve(np.eye(3, dtype=np.complex128), b), b)

    rng = np.random.default_rng(41)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    b64 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    x = lu_solve(a, b64)
    assert np.linalg.norm(a @ x - b64) / np.linalg.norm(b64) <= 1e-12


def test_lu_singular_raises():
    a = np.zeros((3, 3), dtype=np.complex128)
    with pytest.raises(np.linalg.LinAlgError):
        lu_solve(a, np.ones(3, dtype=np.complex128))


def test_lu_ill_conditioned_warns_but_returns():
    n = 13
    hilbert = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    b = np.ones(n, dtype=np.complex128)
    with pytest.warns(RuntimeWarning, match="condition"):
        x = lu_solve(hilbert.astype(np.complex128), b, residual_tol=1e-16)
    assert np.all(np.isfinite(x))


def test_lu_shape_validation():
    with pytest.raises(ValueError):
        lu_solve(np.ones((2, 3), dtype=np.complex128), np.ones(2, dtype=np.complex128))
    with pytest.raises(ValueError):
        lu_solve(np.eye(3, dtype=np.complex128), np.ones(4, dtype=np.complex128))
