"""TM-z integral-equation kernels, excitation, and dense assembly.

Both equations use the 2D free-space Green's function with the exp(+j*w*t)
time convention, so outgoing waves ride on the Hankel function of the
second kind.  Off the diagonal it is evaluated as
H0^(2)(x) = J0(x) - j*Y0(x) with the Cephes ``j0``/``y0``, at a fraction of
the cost of the AMOS ``hankel2``.  Their relative error grows with x, as
the phase x - pi/4 is rounded: 5.4e-13 at x = 1.1e4 against AMOS's 1e-15,
far below any compression or solver tolerance.

Surface EFIE (PEC contour, unknown = axial surface current):

    Z_ij = (k0*eta0/4) * H0^(2)(k0*|c_i - c_j|) * extent_j        (i != j)

with the self term integrated over the segment: the logarithmic part of the
small-argument Hankel form is integrated in closed form and the smooth
remainder with a 3-point Gauss rule.

Volume EFIE (dielectric cross section, unknown = contrast source
(eps_r - 1) * E_z per cell): each square cell is replaced by the equal-area
circle, whose Green integrals have closed Bessel forms,

    Z_ij = j*(pi*k0*a_j/2) * J1(k0*a_j) * H0^(2)(k0*|c_i - c_j|)  (i != j)
    Z_ii = 1/(eps_r_i - 1) + 1 + j*(pi/2)*k0*a_i * H1^(2)(k0*a_i)

with a = extent/sqrt(pi).  The identity part makes the system second kind;
cells with eps_r = 1 would put a pole on the diagonal and are rejected.

Either off-diagonal entry is w_j * H0^(2)(k0*|c_i - c_j|), and each
``KernelSpec`` computes the column weights w_j once, and keeps the centres'
x and y coordinates as two contiguous arrays, so a block gathers them with
four one-dimensional indexes.  A block pays only for the distances, the two
Bessel functions and one product; the self-term path runs only when some
row index equals a column index, which for a validated mesh (no two
elements share a centre) is also the only way r can be 0, and it gathers
the self entries ``KernelSpec.self_entries`` computed once per distinct
element: one extent on every strip and circle the generators make, one
(extent, eps_r) on every disk.  ``z_block``
broadcasts over leading axes, so ACA samples one row (or one column) of
every block in a stack with a single call.

Since r is bitwise symmetric in i and j, Z_ij = Z_ji off the diagonal
bit for bit whenever all column weights are equal, as on every mesh the
generators make (equal extents); ``KernelSpec.reciprocal`` says so, and
the H-matrix then stores each block pair once.

The plane-wave right-hand side is b_i = exp(+j*k0*(c_i . d))
with d = (cos(phi), sin(phi)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Tuple

import numpy as np
from scipy.special import hankel2, j0, j1, y0

from .geometry import Mesh, SURFACE

ETA0 = 376.730313668  # free-space impedance, ohms
_EULER_EXP = math.exp(np.euler_gamma)

S_EFIE = "s-efie"
V_EFIE = "v-efie"

DENSE_SIZE_CAP = 4096

# 3-point Gauss-Legendre rule on [0, 1]
_GL3_NODES = np.array([0.5 - 0.5 * math.sqrt(0.6), 0.5, 0.5 + 0.5 * math.sqrt(0.6)])
_GL3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


@dataclass(frozen=True)
class Excitation:
    """Unit-amplitude TM-z plane wave.

    ``phi_rad`` is the angle of the phase vector d = (cos, sin); the wave
    propagates toward -d, i.e. it arrives from direction phi.
    """

    phi_rad: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi_rad):
            raise ValueError(f"plane-wave incidence angle must be finite, got {self.phi_rad:g}")


@dataclass(frozen=True)
class KernelSpec:
    """A mesh and its integral equation, which the mesh's kind decides."""

    mesh: Mesh

    def __post_init__(self) -> None:
        if self.equation == V_EFIE and np.any(np.abs(self.mesh.eps_r - 1.0) < 1e-9):
            raise ValueError("v-efie cells with eps_r = 1 carry no contrast; remove them")

    @classmethod
    def for_mesh(cls, mesh: Mesh) -> "KernelSpec":
        return cls(mesh)

    @property
    def equation(self) -> str:
        """The S-EFIE on a surface mesh, the V-EFIE on a volume mesh."""
        return S_EFIE if self.mesh.kind == SURFACE else V_EFIE

    @property
    def k0(self) -> float:
        return self.mesh.k0

    @property
    def n(self) -> int:
        return self.mesh.n_elements

    @cached_property
    def column_weights(self) -> np.ndarray:
        """w_j in the off-diagonal entry Z_ij = w_j * H0^(2)(k0*|c_i - c_j|).

        (k0*eta0/4)*extent_j for the S-EFIE, j*(pi*k0*a_j/2)*J1(k0*a_j) for
        the V-EFIE; complex128 either way, computed on first use.
        """
        k0 = self.k0
        if self.equation == S_EFIE:
            return ((k0 * ETA0 / 4.0) * self.mesh.extents).astype(np.complex128)
        a = self.mesh.extents / math.sqrt(math.pi)
        return 0.5j * math.pi * k0 * a * j1(k0 * a)

    @cached_property
    def reciprocal(self) -> bool:
        """True when Z_ij = Z_ji off the diagonal, bit for bit.

        The distance |c_i - c_j| is bitwise symmetric, so this holds
        exactly when every column weight has the bits of the first.
        """
        bits = self.column_weights.view(np.uint64)
        return bool(np.all(bits.reshape(-1, 2) == bits[:2]))

    @cached_property
    def self_entries(self) -> np.ndarray:
        """Z_ii of every element, computed on first use once per distinct
        element: per extent for the S-EFIE, per (extent, eps_r) for the
        V-EFIE, told apart by their bits.  Each value is the one
        ``_surface_self_entry`` or ``_volume_self_entry`` gives that
        element alone."""
        mesh = self.mesh
        surface = self.equation == S_EFIE
        # extents are positive and finite, so equal values have equal bits
        keys = mesh.extents if surface else np.column_stack([mesh.extents, mesh.eps_r.real, mesh.eps_r.imag]).view(np.dtype((np.void, 24)))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        extents = mesh.extents[first]
        distinct = _surface_self_entry(self.k0, extents) if surface else _volume_self_entry(self.k0, extents, mesh.eps_r[first])
        return distinct[inverse]

    @cached_property
    def center_coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """The element centres' x and y, each a contiguous copy, made on first use."""
        centers = self.mesh.centers
        return np.ascontiguousarray(centers[:, 0]), np.ascontiguousarray(centers[:, 1])


def _surface_self_entry(k0: float, delta: np.ndarray) -> np.ndarray:
    """Segment self-integral of (k0*eta0/4)*H0^(2), vectorized over extents.

    Closed log-weighted part:
        int_{-d/2}^{d/2} [1 - j(2/pi) ln(g*k0*|u|/2)] du
            = d * (1 - j(2/pi) (ln(g*k0*d/4) - 1))
    plus a 3-point Gauss correction for H0^(2) minus its small-argument form.
    """
    delta = np.asarray(delta, dtype=float)
    log_part = delta * (1.0 - 1j * (2.0 / math.pi) * (np.log(_EULER_EXP * k0 * delta / 4.0) - 1.0))
    u = 0.5 * delta[..., None] * _GL3_NODES
    x = k0 * u
    remainder = hankel2(0, x) - (1.0 - 1j * (2.0 / math.pi) * np.log(_EULER_EXP * x / 2.0))
    correction = delta * np.sum(_GL3_WEIGHTS * remainder, axis=-1)
    return (k0 * ETA0 / 4.0) * (log_part + correction)


def _volume_self_entry(k0: float, extent: np.ndarray, eps_r: np.ndarray) -> np.ndarray:
    a = np.asarray(extent, dtype=float) / math.sqrt(math.pi)
    green = 1.0 + 0.5j * math.pi * k0 * a * hankel2(1, k0 * a)
    return 1.0 / (np.asarray(eps_r, dtype=complex) - 1.0) + green


def z_block(spec: KernelSpec, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix block Z[rows][:, cols] evaluated directly from the kernel.

    ``rows`` (..., m) and ``cols`` (..., n) are mesh-order index arrays
    whose leading axes broadcast; the result has shape (..., m, n), so a
    stack of B blocks is one call with (B, m) rows and (B, n) cols.
    Diagonal coincidences (same element on both sides) get the analytic
    self term.
    """
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    cx, cy = spec.center_coordinates
    x = np.hypot(cx[rows][..., :, None] - cx[cols][..., None, :], cy[rows][..., :, None] - cy[cols][..., None, :])
    x *= spec.k0
    self_mask = rows[..., :, None] == cols[..., None, :]
    has_self = bool(self_mask.any())
    if has_self:
        x[self_mask] = 1.0  # keeps Y0 finite; these entries are overwritten below
    block = np.empty(x.shape, dtype=np.complex128)
    j0(x, out=block.real)
    np.negative(y0(x), out=block.imag)
    block *= spec.column_weights[cols][..., None, :]
    if has_self:
        elements = np.broadcast_to(rows[..., :, None], self_mask.shape)[self_mask]
        block[self_mask] = spec.self_entries[elements]
    return block


def entry_function(spec: KernelSpec, permutation: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Block evaluator over tree-permuted indices.

    Takes and returns the shapes ``z_block`` does, stacks included.
    """
    perm = np.asarray(permutation, dtype=int)
    return lambda rows, cols: z_block(spec, perm[np.asarray(rows, dtype=int)], perm[np.asarray(cols, dtype=int)])


def rhs(spec: KernelSpec, excitation: Excitation) -> np.ndarray:
    """Plane-wave right-hand side sampled at element centers (mesh order)."""
    d = np.array([math.cos(excitation.phi_rad), math.sin(excitation.phi_rad)])
    phase = spec.k0 * (spec.mesh.centers @ d)
    return np.exp(1j * phase)


def check_dense_size(n: int) -> None:
    """Refuse a dense system of more than ``DENSE_SIZE_CAP`` unknowns (read
    at call time): the dense path exists as a truth oracle for desk-scale
    runs, not as a production assembly route."""
    if n > DENSE_SIZE_CAP:
        raise ValueError(f"dense assembly refused for N = {n} > cap {DENSE_SIZE_CAP}")


def assemble_dense(spec: KernelSpec) -> np.ndarray:
    """Full dense matrix in mesh order, within ``check_dense_size``."""
    check_dense_size(spec.n)
    idx = np.arange(spec.n)
    return z_block(spec, idx, idx)

