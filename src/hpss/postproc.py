"""Far-field post-processing and analytic validation series.

The 2D bistatic radar cross section (echo width) is normalized per
wavelength and reported in dB:

    sigma(phi)/lambda = (2/pi) * |F(phi)|^2

where F is the angular far-field factor of the solved sources x_j,

    F = -sum_j w_j * x_j * exp(+j k0 r_hat.c_j)

with w_j the kernels' column weights (``KernelSpec.column_weights``):
(k0*eta0/4)*extent_j for surface currents and j*(pi*k0/2)*a_j*J1(k0*a_j)
for volume contrast sources, matching the kernels' equal-area-circle cell
model (a = extent/sqrt(pi)) and exp(+j*w*t) convention.  Values are
floored at -200 dB so that exact zeros stay finite.

The analytic oracles are the classical cylindrical-harmonic series for a
PEC circular cylinder and for a homogeneous dielectric cylinder under
TM-z plane-wave incidence, written against the same convention: the
incident wave is exp(+j k0 d.r) with d = (cos(phi_inc), sin(phi_inc)).
Both series truncate at |m| <= ceil(k*a) + SERIES_EXTRA_TERMS (read at call
time), which leaves the truncation error far below every tolerance used
here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import h2vp, hankel2, jv, jvp

from .geometry import Mesh
from .kernels import KernelSpec

DB_FLOOR = -200.0
_LINEAR_FLOOR = 10.0 ** (DB_FLOOR / 10.0)
SERIES_EXTRA_TERMS = 20
# Observation angles per block of the phase matrix, so its complex
# temporaries hold RCS_ANGLE_CHUNK x N entries, not n_angles x N.
RCS_ANGLE_CHUNK = 32


@dataclass
class RcsCurve:
    """Echo width per wavelength, in dB, on a strictly increasing grid."""

    angles_deg: np.ndarray
    sigma_db: np.ndarray

    def __post_init__(self) -> None:
        self.angles_deg = np.asarray(self.angles_deg, dtype=float)
        self.sigma_db = np.asarray(self.sigma_db, dtype=float)
        if self.angles_deg.ndim != 1 or self.angles_deg.shape != self.sigma_db.shape:
            raise ValueError("angle and sigma arrays must be 1D with matching shapes")
        if self.angles_deg.size < 1:
            raise ValueError("curve needs at least one angle")
        if not (np.all(np.isfinite(self.angles_deg)) and np.all(np.diff(self.angles_deg) > 0.0)):
            raise ValueError("angles must be finite and strictly increasing")
        if not np.all(np.isfinite(self.sigma_db)):
            raise ValueError("sigma values must be finite (floored, not -inf)")

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["angle_deg", "sigma_dB"])
            for ang, sig in zip(self.angles_deg, self.sigma_db):
                writer.writerow([f"{ang:.10g}", f"{sig:.10g}"])


def _to_db(sigma_over_lambda: np.ndarray) -> np.ndarray:
    return 10.0 * np.log10(np.maximum(sigma_over_lambda, _LINEAR_FLOOR))


def bistatic_rcs(
    mesh: Mesh,
    solution: np.ndarray,
    angles_deg: Sequence[float],
) -> RcsCurve:
    """Echo width of the solved sources over the observation angles.

    ``solution`` is in mesh element order: axial surface current density
    for surface meshes, contrast source (eps_r - 1) * E_z for volume
    meshes (exactly the unknowns the kernels solve for).  The phase matrix
    is formed ``RCS_ANGLE_CHUNK`` angles at a time in one buffer: the phase
    is written into its real part, then its sine into the imaginary part
    and its cosine over the real part.
    """
    solution = np.asarray(solution, dtype=np.complex128)
    if solution.shape != (mesh.n_elements,):
        raise ValueError("solution length does not match the mesh")
    angles = np.asarray(angles_deg, dtype=float)
    phi = np.deg2rad(angles)
    k0 = mesh.k0
    directions = np.column_stack([np.cos(phi), np.sin(phi)])
    weights = -KernelSpec.for_mesh(mesh).column_weights * solution
    factor = np.empty(angles.size, dtype=np.complex128)
    buffer = np.empty((min(angles.size, RCS_ANGLE_CHUNK), mesh.n_elements), dtype=np.complex128)
    for start in range(0, angles.size, RCS_ANGLE_CHUNK):
        chunk = slice(start, start + RCS_ANGLE_CHUNK)
        r_hat = directions[chunk]
        phase = buffer[: len(r_hat)]  # exp(1j * k0 * r_hat.c)
        np.multiply(k0, r_hat @ mesh.centers.T, out=phase.real)
        np.sin(phase.real, out=phase.imag)
        np.cos(phase.real, out=phase.real)
        factor[chunk] = phase @ weights
    sigma = (2.0 / math.pi) * np.abs(factor) ** 2
    return RcsCurve(angles, _to_db(sigma))


def _series_truncation(k0a: float) -> int:
    return int(math.ceil(k0a)) + SERIES_EXTRA_TERMS


def series_pec_cylinder(radius_wl: float, angles_deg: Sequence[float], phi_inc_rad: float = 0.0) -> RcsCurve:
    """Exact echo width of a PEC circular cylinder (TM-z incidence)."""
    if radius_wl <= 0.0:
        raise ValueError("cylinder radius must be positive")
    angles = np.asarray(angles_deg, dtype=float)
    phi = np.deg2rad(angles)
    ka = 2.0 * math.pi * radius_wl
    m_max = _series_truncation(ka)
    orders = np.arange(-m_max, m_max + 1)
    coeff = (-1.0) ** orders * jv(orders, ka) / hankel2(orders, ka)
    factor = -(np.exp(1j * np.outer(phi - phi_inc_rad, orders)) @ coeff)
    sigma = (2.0 / math.pi) * np.abs(factor) ** 2
    return RcsCurve(angles, _to_db(sigma))


def series_dielectric_cylinder(
    radius_wl: float,
    eps_r: complex,
    angles_deg: Sequence[float],
    phi_inc_rad: float = 0.0,
) -> RcsCurve:
    """Exact echo width of a homogeneous dielectric circular cylinder.

    Two-region cylindrical-harmonic match of E_z and its radial derivative
    at the interface; nonmagnetic material, possibly lossy eps_r.
    """
    if radius_wl <= 0.0:
        raise ValueError("cylinder radius must be positive")
    eps = complex(eps_r)
    angles = np.asarray(angles_deg, dtype=float)
    phi = np.deg2rad(angles)
    k0a = 2.0 * math.pi * radius_wl
    k1a = k0a * np.sqrt(eps)
    m_max = _series_truncation(abs(k1a))
    orders = np.arange(-m_max, m_max + 1)
    jm0, jpm0 = jv(orders, k0a), jvp(orders, k0a)
    jm1, jpm1 = jv(orders, k1a), jvp(orders, k1a)
    hm0, hpm0 = hankel2(orders, k0a), h2vp(orders, k0a)
    jpow = 1j**orders
    numer = k1a * jpm1 * jm0 - k0a * jm1 * jpm0
    denom = k0a * jm1 * hpm0 - k1a * jpm1 * hm0
    scatter = jpow * numer / denom
    factor = np.exp(1j * np.outer(phi - phi_inc_rad, orders)) @ (scatter * jpow)
    sigma = (2.0 / math.pi) * np.abs(factor) ** 2
    return RcsCurve(angles, _to_db(sigma))


def rcs_rms_error(curve_a: RcsCurve, curve_b: RcsCurve) -> float:
    """Root-mean-square difference in dB between two curves on one grid."""
    if curve_a.angles_deg.shape != curve_b.angles_deg.shape or not np.allclose(
        curve_a.angles_deg, curve_b.angles_deg
    ):
        raise ValueError("curves must share the same angle grid")
    diff = curve_a.sigma_db - curve_b.sigma_db
    return float(np.sqrt(np.mean(diff**2)))
