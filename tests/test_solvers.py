import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hpss import (
    Excitation,
    IterativeReport,
    KernelSpec,
    assemble,
    assemble_dense,
    build_cluster_tree,
    discretize_disk,
    discretize_strip,
    gmres,
    lu_solve,
    rhs,
)


def reference_gmres(apply, b, tol, restart, maxit):
    """The GMRES loop as it was before its report derived its counts: each
    product copied into a vector of its own, orthogonalized there and only
    then divided into the basis, with the convergence flag, the product
    count and the steps of each cycle kept by hand.  Returns x, the Givens
    history, the true residuals, the flag, the iterations and the products."""
    b = np.asarray(b, dtype=np.complex128)
    n = b.size
    bnorm = float(np.linalg.norm(b))
    x = np.zeros(n, dtype=np.complex128)
    history, true_residuals = [], []
    total_iters = n_matvecs = 0
    converged = False
    m = min(restart, maxit)
    v = np.empty((m + 1, n), dtype=np.complex128)
    h = np.zeros((m + 1, m), dtype=np.complex128)
    cs = np.zeros(m, dtype=np.complex128)
    sn = np.zeros(m, dtype=np.complex128)
    g = np.zeros(m + 1, dtype=np.complex128)
    v[0] = b
    while True:
        beta = float(np.linalg.norm(v[0]))
        true_residuals.append((total_iters, beta / bnorm))
        if beta / bnorm <= tol:
            converged = True
            break
        if total_iters >= maxit:
            break
        v[0] /= beta
        g[0] = beta
        j_used = 0
        for j in range(m):
            w = np.array(apply(v[j]), dtype=np.complex128)
            n_matvecs += 1
            for i in range(j + 1):
                h[i, j] = np.vdot(v[i], w)
                w -= h[i, j] * v[i]
            h[j + 1, j] = np.linalg.norm(w)
            breakdown = abs(h[j + 1, j]) == 0.0
            if not breakdown:
                np.divide(w, h[j + 1, j], out=v[j + 1])
            for i in range(j):
                temp = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -np.conj(sn[i]) * h[i, j] + np.conj(cs[i]) * h[i + 1, j]
                h[i, j] = temp
            denom = np.sqrt(abs(h[j, j]) ** 2 + abs(h[j + 1, j]) ** 2)
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j] = np.conj(h[j, j]) / denom
                sn[j] = np.conj(h[j + 1, j]) / denom
            h[j, j] = cs[j] * h[j, j] + sn[j] * h[j + 1, j]
            h[j + 1, j] = 0.0
            g[j + 1] = -np.conj(sn[j]) * g[j]
            g[j] = cs[j] * g[j]
            total_iters += 1
            j_used = j + 1
            rel_est = abs(g[j + 1]) / bnorm
            history.append(float(rel_est))
            if rel_est <= tol or total_iters >= maxit or breakdown:
                break
        y = scipy.linalg.solve_triangular(h[:j_used, :j_used], g[:j_used], lower=False)
        x += v[:j_used].T @ y
        np.subtract(b, apply(x), out=v[0])
        n_matvecs += 1
    return x, history, true_residuals, converged, total_iters, n_matvecs


def reference_case(name):
    """(operator, right-hand side) of a 40-unknown strip, which restarts at
    restart length 5, or of a disk of odd N = 401."""
    if name == "strip":
        mesh, leaf = discretize_strip(4.0, 10), 10
    else:
        mesh, leaf = discretize_disk(0.8, 10, 2.0), 16
    spec = KernelSpec.for_mesh(mesh)
    h = assemble(spec, build_cluster_tree(mesh, leaf), tol=1e-3)
    return h.matvec, h.permute(rhs(spec, Excitation(1.0)))


@pytest.mark.parametrize(
    "name, restart, maxit, converged",
    [("strip", 5, 2000, True), ("strip", 50, 2000, True), ("strip", 5, 7, False), ("disk", 50, 2000, True), ("disk", 4, 9, False)],
    ids=["strip-restarting", "strip", "strip-maxit", "disk", "disk-restarting-maxit"],
)
def test_gmres_is_the_reference_loop_bit_for_bit(name, restart, maxit, converged):
    """The solution, the Givens history and the true residuals are the
    reference loop's bit for bit, and the derived counts are its counters."""
    apply, b = reference_case(name)
    x, rep = gmres(apply, b, 1e-6, restart, maxit)
    want_x, history, true_residuals, want_converged, iterations, n_matvecs = reference_gmres(apply, b, 1e-6, restart, maxit)
    assert x.tobytes() == want_x.tobytes()
    assert np.array(rep.residual_history).tobytes() == np.array(history).tobytes()
    assert repr(rep.true_residuals) == repr(true_residuals)
    assert (rep.converged, rep.iterations, rep.n_matvecs) == (want_converged, iterations, n_matvecs)
    assert rep.converged is converged
    assert len(rep.true_residuals) > 2 or restart >= iterations  # the restarting runs restart


def test_gmres_identity_converges_in_one_iteration():
    b = np.array([1.0 + 2j, -0.5j, 3.0])
    x, rep = gmres(lambda v: v, b)
    assert rep.converged and rep.outcome_lines() == [f"final relative residual (true, recomputed): {rep.true_residuals[-1][1]:.6g}"]
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


def test_gmres_counts_every_product_and_skips_the_zero_guess():
    # the zero initial guess has residual b, so no product is spent on it;
    # every restart and the exit recompute the true residual with one
    rng = np.random.default_rng(31)
    a = np.eye(48) + 0.4 * (rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))) / np.sqrt(48)
    b = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    received = []

    def apply(v):
        received.append(np.array(v))
        return a @ v

    x, rep = gmres(apply, b, tol=1e-10, restart=5)
    assert rep.converged and rep.iterations > 5
    assert len(received) == rep.n_matvecs == rep.iterations + len(rep.true_residuals) - 1
    assert all(np.any(v != 0.0) for v in received)
    assert rep.true_residuals[0] == (0, 1.0)


def test_gmres_maxit_returns_best_effort():
    rng = np.random.default_rng(37)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x, rep = gmres(lambda v: a @ v, b, tol=1e-14, restart=4, maxit=6)
    assert not rep.converged and rep.tol == 1e-14
    assert rep.iterations <= 6
    assert np.all(np.isfinite(x))


def test_gmres_holds_one_basis_across_restarts():
    n, restart = 4096, 20
    d = np.linspace(1.0, 100.0, n) + 0j
    b = np.ones(n, dtype=np.complex128)
    tracemalloc.start()
    try:
        _, rep = gmres(lambda v: d * v, b, tol=1e-10, restart=restart)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert len(rep.true_residuals) >= 4  # the start and at least two restarts
    basis_bytes = (restart + 1) * n * 16
    assert peak < 1.5 * basis_bytes


@pytest.mark.parametrize("restart, maxit, message", [(0, 10, "restart length"), (5, 0, "maxit")])
def test_gmres_refuses_restart_or_maxit_below_one_before_any_matvec(restart, maxit, message):
    def no_matvec(v):
        raise AssertionError("a product was run before the check")

    with pytest.raises(ValueError, match=f"gmres {message} must be at least 1, got 0"):
        gmres(no_matvec, np.ones(3, dtype=np.complex128), restart=restart, maxit=maxit)


def test_gmres_rejects_zero_rhs():
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.zeros(3, dtype=np.complex128))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_gmres_refuses_non_finite_rhs_with_its_index(bad):
    def apply(v):
        raise AssertionError("matvec called")

    b = np.ones(8, dtype=np.complex128)
    b[3] = bad
    with pytest.raises(ValueError, match="entry 3 is not finite"):
        gmres(apply, b)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_gmres_rejects_tolerance_before_any_matvec(tol):
    def apply(v):
        raise AssertionError("matvec called")

    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        gmres(apply, np.ones(3, dtype=np.complex128), tol=tol)


def test_gmres_report_csv_rows(tmp_path):
    b = np.ones(3, dtype=np.complex128)
    _, rep = gmres(lambda v: v, b)
    rows = rep.history_csv_rows()
    assert rows[0][0] == 0
    assert all(isinstance(r[1], str) for r in rows)

    # restart after two inner steps: at step 2 the estimate comes before
    # the recomputed residual; the text keeps 6 digits, the CSV 12
    rep = IterativeReport(
        residual_history=[0.5, 0.25, 0.125],
        true_residuals=[(0, 1.0), (2, 0.3), (3, 1 / 3)],
        tol=1e-6,
    )
    assert rep.to_text() == (
        "gmres iterations: 3\n"
        "converged: False\n"
        "final relative residual (true, recomputed): 0.333333\n"
        "matvecs: 5\n"
    )
    assert rep.outcome_lines() == [
        "final relative residual (true, recomputed): 0.333333",
        "gmres did not converge: true relative residual 0.333333 above tolerance 1e-06 after 3 iterations",
    ]
    # convergence is the loop's own test, on the last true residual: a
    # Givens estimate within tolerance does not make a run converged
    drifted = IterativeReport([0.5, 1e-7], [(0, 1.0), (2, 1e-5)], 1e-6)
    assert not drifted.converged and (drifted.iterations, drifted.n_matvecs) == (2, 3)
    # on an operator that is not complete, both name it
    scope = " (assembled operator, levels 4)"
    assert "final relative residual (true, recomputed) (assembled operator, levels 4): 0.333333\n" in rep.to_text(scope)
    assert rep.outcome_lines(scope)[0] == "final relative residual (true, recomputed) (assembled operator, levels 4): 0.333333"
    path = tmp_path / "iterative_report.csv"
    rep.to_csv(str(path))
    assert path.read_bytes() == (
        b"step,relative_residual,kind\n"
        b"0,1,true\n"
        b"1,0.5,givens\n"
        b"2,0.25,givens\n"
        b"2,0.3,true\n"
        b"3,0.125,givens\n"
        b"3,0.333333333333,true\n"
    )


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


def test_lu_ill_conditioned_warns_but_returns(monkeypatch):
    n = 13
    hilbert = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    b = np.ones(n, dtype=np.complex128)
    monkeypatch.setattr("hpss.solvers.LU_RESIDUAL_TOL", 1e-16)
    with pytest.warns(RuntimeWarning, match="condition"):
        x = lu_solve(hilbert.astype(np.complex128), b)
    assert np.all(np.isfinite(x))


def test_lu_shape_validation():
    with pytest.raises(ValueError):
        lu_solve(np.ones((2, 3), dtype=np.complex128), np.ones(2, dtype=np.complex128))
    with pytest.raises(ValueError):
        lu_solve(np.eye(3, dtype=np.complex128), np.ones(4, dtype=np.complex128))
