"""Reference solvers: restarted GMRES and a dense LU truth oracle.

GMRES is the iterative baseline the power-series cascade is judged
against: modified Gram-Schmidt Arnoldi, Givens-rotation least squares,
restart every ``restart`` inner steps.  The residual history holds one
Givens least-squares estimate of the relative residual per inner step;
the true residual |b - A x| / |b|, recomputed at the start, at each
restart and at exit, is kept apart from it, so the two are never mixed.
The start is the zero vector, whose residual is b itself, so the first
true residual costs no product.  A solve holds the operator plus one
Krylov basis of (min(restart, maxit) + 1) * N complex entries, allocated
once per call and reused by every restart cycle.  A right-hand side with a
NaN or infinite entry is refused before any product.

The dense LU route is the accuracy oracle at desk scale.  It verifies its
own residual and warns (with a condition estimate) instead of silently
returning a polluted solution on ill-conditioned systems.
"""

from __future__ import annotations

import math
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
    pairs from the start, every restart and the exit; ``tol`` is the
    tolerance the run was held to.  The counts follow from these: one
    product per inner step and one per true residual after the start.
    """

    residual_history: List[float]
    true_residuals: List[Tuple[int, float]]
    tol: float

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def converged(self) -> bool:
        """The loop's own stopping test: the last true residual within ``tol``."""
        return self.true_residuals[-1][1] <= self.tol

    @property
    def n_matvecs(self) -> int:
        return self.iterations + len(self.true_residuals) - 1

    def history_csv_rows(self) -> List[Tuple[int, str, str]]:
        """(step, relative residual, kind) rows in step order, kind being
        ``givens`` or ``true``; at a restart the estimate comes first."""
        rows = [(k + 1, r, "givens") for k, r in enumerate(self.residual_history)]
        rows += [(k, r, "true") for k, r in self.true_residuals]
        rows.sort(key=lambda row: (row[0], row[2] == "true"))
        return [(k, f"{r:.12g}", kind) for k, r, kind in rows]

    def to_text(self, scope: str = "") -> str:
        return (
            f"gmres iterations: {self.iterations}\n"
            f"converged: {self.converged}\n"
            f"{self.outcome_lines(scope)[0]}\n"
            f"matvecs: {self.n_matvecs}\n"
        )

    def outcome_lines(self, scope: str = "") -> List[str]:
        """What a run's summary shows of its accuracy: the final true
        residual, labelled with ``scope``, the ``HMatrix.scope`` of the
        operator it was measured against, then, if the run did not
        converge, one line naming that residual and the tolerance."""
        final = self.true_residuals[-1][1]
        lines = [f"final relative residual (true, recomputed){scope}: {final:.6g}"]
        if not self.converged:
            lines.append(
                f"gmres did not converge: true relative residual {final:.6g} above tolerance "
                f"{self.tol:g} after {self.iterations} iterations"
            )
        return lines

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("step,relative_residual,kind\n")
            for k, r, kind in self.history_csv_rows():
                fh.write(f"{k},{r},{kind}\n")


def check_finite_rhs(b: np.ndarray) -> None:
    """Refuse a right-hand side with a NaN or infinite entry, naming the first."""
    finite = np.isfinite(b)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ValueError(f"right-hand side entry {index} is not finite ({b[index]})")


def check_gmres_settings(tol: float, restart: int, maxit: int) -> None:
    """Refuse a tolerance that is not positive and finite, or a restart
    length or iteration cap below 1."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"gmres tolerance must be positive and finite, got {tol:g}")
    if restart < 1:
        raise ValueError(f"gmres restart length must be at least 1, got {restart}")
    if maxit < 1:
        raise ValueError(f"gmres maxit must be at least 1, got {maxit}")


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
    with ``converged = False``.  The settings are checked by
    ``check_gmres_settings`` before any product.
    """
    check_gmres_settings(tol, restart, maxit)
    b = np.asarray(b, dtype=np.complex128)
    check_finite_rhs(b)
    n = b.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        raise ValueError("right-hand side is zero; nothing to solve")

    x = np.zeros(n, dtype=np.complex128)
    history: List[float] = []
    true_residuals: List[Tuple[int, float]] = []

    # one basis and one least-squares problem for the whole solve: no cycle
    # runs more than m inner steps, a cycle writes every entry it reads
    # before reading it, and h below its subdiagonal is never written; the
    # residual goes straight into row 0 of the basis
    m = min(restart, maxit)
    v = np.empty((m + 1, n), dtype=np.complex128)
    h = np.zeros((m + 1, m), dtype=np.complex128)
    cs = np.zeros(m, dtype=np.complex128)
    sn = np.zeros(m, dtype=np.complex128)
    g = np.zeros(m + 1, dtype=np.complex128)
    v[0] = b  # the residual of the zero initial guess, without a product

    while True:
        beta = float(np.linalg.norm(v[0]))
        true_residuals.append((len(history), beta / bnorm))
        if beta / bnorm <= tol or len(history) >= maxit:
            break

        v[0] /= beta
        g[0] = beta

        for j in range(m):
            # each product is orthogonalized in the basis row it becomes,
            # which an operator that returns its input cannot overwrite
            v[j + 1] = apply(v[j])
            for i in range(j + 1):
                h[i, j] = np.vdot(v[i], v[j + 1])
                v[j + 1] -= h[i, j] * v[i]
            h[j + 1, j] = np.linalg.norm(v[j + 1])
            breakdown = abs(h[j + 1, j]) == 0.0
            if not breakdown:
                v[j + 1] /= h[j + 1, j]

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

            rel_est = abs(g[j + 1]) / bnorm
            history.append(float(rel_est))
            if rel_est <= tol or len(history) >= maxit or breakdown:
                break

        k = j + 1  # the inner steps of this cycle
        y = scipy.linalg.solve_triangular(h[:k, :k], g[:k], lower=False)
        x += v[:k].T @ y
        np.subtract(b, apply(x), out=v[0])

    return x, IterativeReport(history, true_residuals, tol)


def lu_solve(matrix: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense partial-pivot LU solve with an explicit residual check.

    Raises on matrices singular to working precision; on ill-conditioned
    systems whose relative residual exceeds ``LU_RESIDUAL_TOL`` (read at
    call time), returns the solution anyway but warns with a condition
    estimate.
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
    x = scipy.linalg.lu_solve(factors, b)
    bnorm = float(np.linalg.norm(b))
    if bnorm > 0.0:
        rel = float(np.linalg.norm(matrix @ x - b)) / bnorm
        if rel > LU_RESIDUAL_TOL:
            cond = float(np.linalg.cond(matrix))
            warnings.warn(
                f"dense solve residual {rel:.3e} exceeds {LU_RESIDUAL_TOL:.1e}; "
                f"condition estimate {cond:.3e} suggests an ill-conditioned system",
                RuntimeWarning,
                stacklevel=2,
            )
    return x
