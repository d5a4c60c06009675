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

F is summed one of two ways, chosen by the input alone.  The direct sum
forms one phase per element and angle, N*A in all.  The grouped sum bins
the elements into square cells of side RCS_CELL_WAVELENGTHS, centred on
the bounding box of their element centres, and samples each cell's
far-field signature

    g_t(psi) = sum_{j in t} w_j * x_j * exp(+j k0 r_hat(psi).(c_j - c_t))

at Q = 2M + 1 equispaced angles, where M is the least integer >= k0*rho
(rho the largest cell radius) with |J_{M+1}(k0*rho)| <= RCS_BESSEL_TAIL.
By Jacobi-Anger, g_t then holds no Fourier order above M but for a tail
of that size, so an FFT over psi and the Fourier series at the
observation angles give g_t there; F sums g_t(phi) * exp(+j k0
r_hat(phi).c_t) over the cells, N*Q + A*G phases for G cells.  The
binning depends on the mesh alone, so the cells of the mesh binned last
are kept, without keeping the mesh alive, and its later curves reuse
them.  The grouped sum runs when the angle count A exceeds Q, the direct
one otherwise (always for one angle).  The two agree to about 1e-12 of
max |F|: 5e-13 on a 1638.4-wavelength strip, whose phases of 1e4 rad
leave the direct sum itself about 9e-13 from a long-double one, and
2e-15 on a one-wavelength disk.

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
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

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
# Side of the square cells the grouped echo width bins elements into, in
# wavelengths; 1 was fastest of 0.5, 1, 2 and 4 on strips and disks.
RCS_CELL_WAVELENGTHS = 1.0
# Largest |J_{M+1}(k0*rho)| the grouped echo width leaves out of a cell
# signature's Fourier series.
RCS_BESSEL_TAIL = 1e-17


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


def _echo_width(angles_deg: np.ndarray, factor: np.ndarray) -> RcsCurve:
    """The curve sigma/lambda = (2/pi) |F|^2 of the far-field factor F over
    ``angles_deg``, in dB floored at ``DB_FLOOR``."""
    sigma = (2.0 / math.pi) * np.abs(factor) ** 2
    return RcsCurve(angles_deg, 10.0 * np.log10(np.maximum(sigma, _LINEAR_FLOOR)))


def _plane_waves(buffer: np.ndarray, k0: float, directions: np.ndarray, points: np.ndarray) -> np.ndarray:
    """exp(1j * k0 * directions . points) in the leading rows of ``buffer``:
    the phase goes into its real part, then the phase's sine into the
    imaginary part and its cosine over the real part."""
    phase = buffer[: len(directions)]
    np.multiply(k0, directions @ points.T, out=phase.real)
    np.sin(phase.real, out=phase.imag)
    np.cos(phase.real, out=phase.real)
    return phase


def _direct_factor(centers: np.ndarray, weights: np.ndarray, k0: float, phi: np.ndarray) -> np.ndarray:
    """F at the angles ``phi`` (radians), one phase per element and angle,
    ``RCS_ANGLE_CHUNK`` angles at a time in one buffer."""
    directions = np.column_stack([np.cos(phi), np.sin(phi)])
    factor = np.empty(phi.size, dtype=np.complex128)
    buffer = np.empty((min(phi.size, RCS_ANGLE_CHUNK), len(centers)), dtype=np.complex128)
    for start in range(0, phi.size, RCS_ANGLE_CHUNK):
        chunk = slice(start, start + RCS_ANGLE_CHUNK)
        factor[chunk] = _plane_waves(buffer, k0, directions[chunk], centers) @ weights
    return factor


@dataclass(frozen=True)
class _Cells:
    """Elements binned into square cells, the cells in a fixed order."""

    order: np.ndarray  # element indices, cell by cell
    bounds: np.ndarray  # cell t holds order[bounds[t]:bounds[t + 1]]
    centers: np.ndarray  # (G, 2) bounding-box centre of each cell's element centres
    offsets: np.ndarray  # (N, 2) centre of order[i] minus its cell's centre
    max_order: int  # M: the signatures' Fourier orders are -M..M

    @classmethod
    def of(cls, centers: np.ndarray, k0: float) -> "_Cells":
        index = np.floor((centers - centers.min(axis=0)) / RCS_CELL_WAVELENGTHS).astype(np.int64)
        cell = index[:, 0] + (index[:, 0].max() + 1) * index[:, 1]
        order = np.argsort(cell, kind="stable")
        ranked = cell[order]
        bounds = np.concatenate([[0], np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, [len(order)]])
        members = centers[order]
        low = np.minimum.reduceat(members, bounds[:-1], axis=0)
        high = np.maximum.reduceat(members, bounds[:-1], axis=0)
        cell_centers = 0.5 * (low + high)
        offsets = members - np.repeat(cell_centers, np.diff(bounds), axis=0)
        kr = k0 * float(np.sqrt((offsets**2).sum(axis=1)).max())
        max_order = math.ceil(kr)
        while abs(jv(max_order + 1, kr)) > RCS_BESSEL_TAIL:
            max_order += 1
        return cls(order, bounds, cell_centers, offsets, max_order)

    @property
    def n_samples(self) -> int:
        """Q: the signature samples per cell."""
        return 2 * self.max_order + 1


# the mesh binned last, held weakly, and its cells
_binned: Tuple[Callable[[], Optional[Mesh]], Optional[_Cells]] = (lambda: None, None)


def _cells_of(mesh: Mesh) -> _Cells:
    """The cells of ``mesh``: the kept ones when it is the mesh binned
    last, else a new binning, which is kept in their place."""
    global _binned
    ref, cells = _binned
    if ref() is not mesh:
        cells = _Cells.of(mesh.centers, mesh.k0)
        _binned = (weakref.ref(mesh), cells)
    return cells


def _cell_coefficients(cells: _Cells, weights: np.ndarray, k0: float, group: slice) -> np.ndarray:
    """Fourier coefficients (Q x cells, orders 0..M, -M..-1 as the FFT
    gives them) of the signatures of the cells in ``group``; ``weights``
    are in cell order.  The Q samples go in the fewest equal blocks of at
    most RCS_ANGLE_CHUNK."""
    q = cells.n_samples
    psi = 2.0 * math.pi * np.arange(q) / q
    sample_directions = np.column_stack([np.cos(psi), np.sin(psi)])
    elements = slice(cells.bounds[group.start], cells.bounds[group.stop])
    starts = cells.bounds[group] - elements.start
    block = math.ceil(q / math.ceil(q / RCS_ANGLE_CHUNK))
    samples = np.empty((block, elements.stop - elements.start), dtype=np.complex128)
    signatures = np.empty((q, len(starts)), dtype=np.complex128)
    for start in range(0, q, block):
        rows = slice(start, start + block)
        phase = _plane_waves(samples, k0, sample_directions[rows], cells.offsets[elements])
        phase *= weights[elements]
        np.add.reduceat(phase, starts, axis=1, out=signatures[rows])
    return np.fft.fft(signatures, axis=0, norm="forward")


def _grouped_factor(cells: _Cells, weights: np.ndarray, k0: float, phi: np.ndarray) -> np.ndarray:
    """F at the angles ``phi`` (radians) from the cells' sampled signatures.

    Cells go in groups whose Q x G_group coefficients, like every buffer
    here, hold at most RCS_ANGLE_CHUNK x N entries, and observation angles
    RCS_ANGLE_CHUNK at a time.  The cells' terms are summed in their fixed
    order, so the result is deterministic.
    """
    q = cells.n_samples
    directions = np.column_stack([np.cos(phi), np.sin(phi)])
    orders = np.fft.fftfreq(q, 1.0 / q)[:, None]
    weights = weights[cells.order]
    rows = min(phi.size, RCS_ANGLE_CHUNK)
    series = np.empty((rows, q), dtype=np.complex128)
    n_cells = len(cells.centers)
    per_group = max(1, RCS_ANGLE_CHUNK * len(weights) // q)
    factor = np.zeros(phi.size, dtype=np.complex128)
    for first in range(0, n_cells, per_group):
        group = slice(first, min(first + per_group, n_cells))
        coefficients = _cell_coefficients(cells, weights, k0, group)
        shift = np.empty((rows, coefficients.shape[1]), dtype=np.complex128)
        values = np.empty_like(shift)
        for start in range(0, phi.size, RCS_ANGLE_CHUNK):
            chunk = slice(start, start + RCS_ANGLE_CHUNK)
            # g_t(phi) = sum_m coefficient_tm * exp(1j * m * phi)
            at = values[: len(phi[chunk])]
            np.matmul(_plane_waves(series, 1.0, phi[chunk, None], orders), coefficients, out=at)
            at *= _plane_waves(shift, k0, directions[chunk], cells.centers[group])
            factor[chunk] += at.sum(axis=1)
    return factor


def bistatic_rcs(
    mesh: Mesh,
    solution: np.ndarray,
    angles_deg: Sequence[float],
) -> RcsCurve:
    """Echo width of the solved sources over the observation angles.

    ``solution`` is in mesh element order: axial surface current density
    for surface meshes, contrast source (eps_r - 1) * E_z for volume
    meshes (exactly the unknowns the kernels solve for).  F is the grouped
    sum of 1-wavelength cell signatures when the angle count exceeds their
    sample count Q, within about 1e-12 of max |F| of the direct sum, and
    the direct sum otherwise (see the module docstring).  Either forms its
    phases ``RCS_ANGLE_CHUNK`` angles at a time.
    """
    solution = np.asarray(solution, dtype=np.complex128)
    if solution.shape != (mesh.n_elements,):
        raise ValueError("solution length does not match the mesh")
    angles = np.asarray(angles_deg, dtype=float)
    phi = np.deg2rad(angles)
    weights = -KernelSpec.for_mesh(mesh).column_weights * solution
    # Q >= 1, so one angle takes the direct sum without binning the mesh
    cells = _cells_of(mesh) if angles.size > 1 else None
    if cells is not None and angles.size > cells.n_samples:
        factor = _grouped_factor(cells, weights, mesh.k0, phi)
    else:
        factor = _direct_factor(mesh.centers, weights, mesh.k0, phi)
    return _echo_width(angles, factor)


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
    return _echo_width(angles, -(np.exp(1j * np.outer(phi - phi_inc_rad, orders)) @ coeff))


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
    return _echo_width(angles, np.exp(1j * np.outer(phi - phi_inc_rad, orders)) @ (scatter * jpow))


def rcs_rms_error(curve_a: RcsCurve, curve_b: RcsCurve) -> float:
    """Root-mean-square difference in dB between two curves on one grid."""
    if curve_a.angles_deg.shape != curve_b.angles_deg.shape or not np.allclose(
        curve_a.angles_deg, curve_b.angles_deg
    ):
        raise ValueError("curves must share the same angle grid")
    diff = curve_a.sigma_db - curve_b.sigma_db
    return float(np.sqrt(np.mean(diff**2)))
