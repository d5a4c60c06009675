"""Reference solvers: restarted GMRES and a dense LU truth oracle.

GMRES is the iterative baseline the power-series cascade is judged
against: modified Gram-Schmidt Arnoldi, Givens-rotation least squares,
restart every ``restart`` inner steps.  The residual history holds one
Givens least-squares estimate of the relative residual per inner step;
the true residual |b - A x| / |b|, recomputed at the start, at each
restart and at exit, is kept apart from it, so the two are never mixed.

The dense LU route is the accuracy oracle at desk scale.  It verifies its
own residual and warns (with a condition estimate) instead of silently
returning a polluted solution on ill-conditioned systems.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np
import scipy.linalg

Apply = Callable[[np.ndarray], np.ndarray]

LU_RESIDUAL_TOL = 1e-10


@dataclass
class IterativeReport:
    """Iteration census of one GMRES run.

    ``residual_history[k]`` is the Givens estimate after inner step k + 1;
    ``true_residuals`` holds (inner steps so far, true relative residual)
    pairs from the start, every restart and the exit.
    """

    iterations: int
    residual_history: List[float]
    true_residuals: List[Tuple[int, float]]
    converged: bool
    wall_time_s: float
    n_matvecs: int = 0

    def history_csv_rows(self) -> List[Tuple[int, str, str]]:
        """(step, relative residual, kind) rows in step order, kind being
        ``givens`` or ``true``; at a restart the estimate comes first."""
        rows = [(k + 1, r, "givens") for k, r in enumerate(self.residual_history)]
        rows += [(k, r, "true") for k, r in self.true_residuals]
        rows.sort(key=lambda row: (row[0], row[2] == "true"))
        return [(k, f"{r:.12g}", kind) for k, r, kind in rows]


def gmres(
    apply: Apply,
    b: np.ndarray,
    tol: float = 1e-6,
    restart: int = 50,
    maxit: int = 2000,
) -> Tuple[np.ndarray, IterativeReport]:
    """Restarted GMRES on an operator given as a matvec closure.

    ``tol`` is relative to |b| and must be positive and finite; ``maxit``
    caps total inner iterations, and hitting it returns the best iterate
    with ``converged = False``.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"gmres tolerance must be positive and finite, got {tol:g}")
    if restart < 1:
        raise ValueError("restart length must be at least 1")
    if maxit < 1:
        raise ValueError("maxit must be at least 1")
    b = np.asarray(b, dtype=np.complex128)
    n = b.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        raise ValueError("right-hand side is zero; nothing to solve")

    start = time.perf_counter()
    x = np.zeros(n, dtype=np.complex128)
    history: List[float] = []
    true_residuals: List[Tuple[int, float]] = []
    total_iters = 0
    n_matvecs = 0
    converged = False

    while True:
        r = b - apply(x)
        n_matvecs += 1
        beta = float(np.linalg.norm(r))
        true_residuals.append((total_iters, beta / bnorm))
        if beta / bnorm <= tol:
            converged = True
            break
        if total_iters >= maxit:
            break

        m = restart
        v = np.zeros((m + 1, n), dtype=np.complex128)
        h = np.zeros((m + 1, m), dtype=np.complex128)
        cs = np.zeros(m, dtype=np.complex128)
        sn = np.zeros(m, dtype=np.complex128)
        g = np.zeros(m + 1, dtype=np.complex128)
        v[0] = r / beta
        g[0] = beta
        j_used = 0

        for j in range(m):
            # copy defends the basis against operators that return their input
            w = np.array(apply(v[j]), dtype=np.complex128)
            n_matvecs += 1
            for i in range(j + 1):
                h[i, j] = np.vdot(v[i], w)
                w -= h[i, j] * v[i]
            h[j + 1, j] = np.linalg.norm(w)
            breakdown = abs(h[j + 1, j]) == 0.0
            if not breakdown:
                v[j + 1] = w / h[j + 1, j]

            # apply the accumulated rotations, then zero the new subdiagonal
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
        x = x + v[:j_used].T @ y

    report = IterativeReport(
        iterations=total_iters,
        residual_history=history,
        true_residuals=true_residuals,
        converged=converged,
        wall_time_s=time.perf_counter() - start,
        n_matvecs=n_matvecs,
    )
    return x, report


def lu_solve(matrix: np.ndarray, b: np.ndarray, residual_tol: float = LU_RESIDUAL_TOL) -> np.ndarray:
    """Dense partial-pivot LU solve with an explicit residual check.

    Raises on matrices singular to working precision; on ill-conditioned
    systems where the residual check fails, returns the solution anyway but
    warns with a condition estimate.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("lu_solve expects a square matrix")
    if b.shape != (matrix.shape[0],):
        raise ValueError("right-hand side length does not match the matrix")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            factors = scipy.linalg.lu_factor(matrix)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
        raise np.linalg.LinAlgError(f"matrix is singular to working precision: {exc}") from exc
    if np.any(np.diag(factors[0]) == 0.0):
        raise np.linalg.LinAlgError("matrix is singular to working precision")
    x = scipy.linalg.lu_solve(factors, b)
    bnorm = float(np.linalg.norm(b))
    if bnorm > 0.0:
        rel = float(np.linalg.norm(matrix @ x - b)) / bnorm
        if rel > residual_tol:
            cond = float(np.linalg.cond(matrix))
            warnings.warn(
                f"dense solve residual {rel:.3e} exceeds {residual_tol:.1e}; "
                f"condition estimate {cond:.3e} suggests an ill-conditioned system",
                RuntimeWarning,
                stacklevel=2,
            )
    return x
