"""Geometry layer: desk-scale 2D meshes and the binary cluster tree.

Two element families are supported, both with piecewise-constant unknowns
and point matching at element centers:

* surface meshes: flat segments discretizing a PEC contour (a strip on the
  x-axis or a closed circular contour approximated by chords),
* volume meshes: square cells rasterizing a dielectric cross section.

Coordinates and extents are in free-space wavelengths, so the
wavenumber k0 is 2*pi.  The mesh-density rule is enforced at
construction: element extent must not exceed 1/10 on surface meshes and
1/(10*sqrt(Re(eps_r))) per cell on volume meshes.

The cluster tree splits element index ranges by coordinate median along the
longest bounding-box axis, with a uniform leaf level: every leaf sits at the
same depth L, where L is the smallest level at which the largest range fits
the requested leaf size.  It is built a level at a time, with array
operations over all of a level's nodes.  The reordering permutation is
recorded so matrix indices can be made contiguous per cluster.  The builder
alone states the tree's invariants (``build_cluster_tree``); the tree keeps
no leaf size and is not re-checked.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

SURFACE = "surface"
VOLUME = "volume"

# density floor shared by the generators and the Mesh validator
MIN_ELEMENTS_PER_WAVELENGTH = 10.0
# the most unknowns an operator's int32 near starts and far indices address
MAX_ELEMENTS = 2**31 - 1
_DENSITY_SLACK = 1.0 + 1e-12

MESH_CSV_HEADER = ("cx", "cy", "extent", "eps_r_re", "eps_r_im")


@dataclass(frozen=True)
class Mesh:
    """Element-center discretization of a 2D scatterer.

    Attributes
    ----------
    kind : str
        ``"surface"`` (segments on a contour) or ``"volume"`` (square cells).
    centers : ndarray, shape (N, 2)
        Element center coordinates in wavelengths.
    extents : ndarray, shape (N,)
        Segment length (surface) or cell side (volume), in wavelengths.
    eps_r : ndarray, shape (N,), complex
        Relative permittivity per element; exactly 1 on surface meshes.
    """

    kind: str
    centers: np.ndarray
    extents: np.ndarray
    eps_r: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "centers", np.atleast_2d(np.asarray(self.centers, dtype=float)))
        object.__setattr__(self, "extents", np.asarray(self.extents, dtype=float))
        object.__setattr__(self, "eps_r", np.asarray(self.eps_r, dtype=complex))
        self.validate()

    @property
    def n_elements(self) -> int:
        return self.centers.shape[0]

    @property
    def k0(self) -> float:
        """Free-space wavenumber in rad per wavelength."""
        return 2.0 * math.pi

    def validate(self) -> None:
        if self.kind not in (SURFACE, VOLUME):
            raise ValueError(f"unknown mesh kind {self.kind!r}")
        n = self.centers.shape[0]
        if n == 0:
            raise ValueError("mesh has no elements")
        if self.centers.shape != (n, 2):
            raise ValueError(f"centers must have shape (N, 2), got {self.centers.shape}")
        if self.extents.shape != (n,) or self.eps_r.shape != (n,):
            raise ValueError("extents and eps_r must be 1D arrays matching centers")
        # NaN passes every bound below, so it is refused here by element
        finite = np.isfinite(self.centers).all(axis=1) & np.isfinite(self.extents) & np.isfinite(self.eps_r)
        if not finite.all():
            i = int(np.argmin(finite))
            (x, y), extent, eps = self.centers[i], self.extents[i], self.eps_r[i]
            raise ValueError(f"element {i} is not finite: centre ({x:g}, {y:g}), extent {extent:g}, eps_r {eps:g}")
        # the kernel's distance would be 0 off the diagonal
        order = np.lexsort((self.centers[:, 1], self.centers[:, 0]))
        ranked = self.centers[order]
        same = np.flatnonzero(np.all(ranked[1:] == ranked[:-1], axis=1))
        if same.size:
            i, j = sorted(int(e) for e in order[same[0] : same[0] + 2])
            x, y = self.centers[i]
            raise ValueError(f"elements {i} and {j} share the centre ({x:g}, {y:g})")
        if np.any(self.extents <= 0.0):
            raise ValueError("element extents must be positive")
        if self.kind == SURFACE:
            if np.any(self.eps_r != 1.0):
                raise ValueError("surface meshes must carry eps_r = 1 exactly")
            limit = 1.0 / MIN_ELEMENTS_PER_WAVELENGTH
            if np.any(self.extents > limit * _DENSITY_SLACK):
                raise ValueError(
                    f"surface element extent exceeds lambda/{MIN_ELEMENTS_PER_WAVELENGTH:g}"
                )
        else:
            if np.any(self.eps_r.real < 1.0):
                raise ValueError("volume cells require Re(eps_r) >= 1")
            limit = 1.0 / (MIN_ELEMENTS_PER_WAVELENGTH * np.sqrt(self.eps_r.real))
            if np.any(self.extents > limit * _DENSITY_SLACK):
                raise ValueError(
                    "volume cell side exceeds lambda/(10*sqrt(Re(eps_r))) for some cell"
                )


def _check_size(name: str, value: float) -> None:
    # NaN fails every comparison, so the bound is written to let only a
    # positive finite value through
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value:g}")


def _check_density(name: str, value: float) -> None:
    if not MIN_ELEMENTS_PER_WAVELENGTH <= value < math.inf:
        raise ValueError(f"{name} must be at least 10 and finite, got {value:g}")


def _element_count(name: str, value: float, count: float, counted: str = "elements") -> int:
    """``count`` rounded up, refused when an operator cannot index that
    many; a float, so an overflow to inf is refused too, before any
    conversion to int or any allocation."""
    if not count <= MAX_ELEMENTS:
        raise ValueError(f"{name} {value:g} needs {count:g} {counted}, more than the {MAX_ELEMENTS} an operator can index")
    return math.ceil(count)


def discretize_strip(length_wl: float, elements_per_wavelength: float) -> Mesh:
    """Mesh a flat PEC strip lying on the x-axis.

    Parameters
    ----------
    length_wl : float
        Strip length in wavelengths.
    elements_per_wavelength : float
        Mesh density; at least 10.

    Returns
    -------
    Mesh
        Surface mesh with ``ceil(length * epw)`` equal segments.
    """
    _check_size("strip length", length_wl)
    _check_density("elements_per_wavelength", elements_per_wavelength)
    n = _element_count("strip length", length_wl, length_wl * elements_per_wavelength)
    delta = length_wl / n
    x = (np.arange(n) + 0.5) * delta
    centers = np.column_stack([x, np.zeros(n)])
    return Mesh(SURFACE, centers, np.full(n, delta), np.ones(n, dtype=complex))


def discretize_circle(radius_wl: float, elements_per_wavelength: float) -> Mesh:
    """Mesh a circular PEC contour as a closed chain of chord segments.

    The segment count is ``ceil(2*pi*radius*epw)`` so each arc is at most
    lambda/epw long; chord extents are slightly shorter than the arcs.
    """
    _check_size("circle radius", radius_wl)
    _check_density("elements_per_wavelength", elements_per_wavelength)
    n = max(_element_count("circle radius", radius_wl, 2.0 * math.pi * radius_wl * elements_per_wavelength), 3)
    theta = 2.0 * math.pi * np.arange(n + 1) / n
    verts = radius_wl * np.column_stack([np.cos(theta), np.sin(theta)])
    centers = 0.5 * (verts[:-1] + verts[1:])
    chord = float(np.linalg.norm(verts[1] - verts[0]))
    return Mesh(SURFACE, centers, np.full(n, chord), np.ones(n, dtype=complex))


def discretize_disk(radius_wl: float, cells_per_wavelength: float, eps_r: complex) -> Mesh:
    """Rasterize a homogeneous dielectric disk into square cells.

    Cell side is lambda/(cpw*sqrt(Re(eps_r))).  The grid is centered so one
    cell center sits at the origin; cells whose centers fall strictly inside
    the radius are kept, ordered row-major by (y, x).
    """
    _check_size("disk radius", radius_wl)
    _check_density("cells_per_wavelength", cells_per_wavelength)
    eps = complex(eps_r)
    if not (cmath.isfinite(eps) and eps.real >= 1.0):
        raise ValueError(f"disk eps_r must be finite with Re(eps_r) >= 1, got {eps:g}")
    # cells a wavelength in the medium; an overflow to inf would make the
    # cell side 0 and the span below a division by zero
    cells = cells_per_wavelength * math.sqrt(eps.real)
    _element_count(f"cells_per_wavelength {cells_per_wavelength:g} with disk eps_r", eps, cells, "cells a wavelength")
    h = 1.0 / cells
    # the candidate grid has 2 * span + 1 cells a side; np.floor, unlike
    # math.floor, takes an overflow to inf, which the count check refuses
    side = 2.0 * float(np.floor(radius_wl / h)) + 3.0
    _element_count("disk radius", radius_wl, side * side, "grid cells")
    span = int(side) // 2
    idx = np.arange(-span, span + 1)
    gx, gy = np.meshgrid(idx * h, idx * h, indexing="xy")
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    keep = np.hypot(centers[:, 0], centers[:, 1]) < radius_wl
    centers = centers[keep]
    if centers.shape[0] == 0:
        raise ValueError("disk radius too small for the cell size; no cell centers inside")
    order = np.lexsort((centers[:, 0], centers[:, 1]))
    centers = centers[order]
    n = centers.shape[0]
    return Mesh(VOLUME, centers, np.full(n, h), np.full(n, eps))


# ---------------------------------------------------------------------------
# cluster tree


@dataclass
class TreeNode:
    """One index-range node of the binary cluster tree.

    ``box`` is its elements' bounding box (x min, y min, x max, y max) and
    ``diameter`` that box's diagonal, both Python floats: admissibility
    reads them often, and scalar arithmetic on floats is far cheaper than
    numpy's on two-element arrays.
    """

    index: int
    level: int
    start: int
    stop: int
    box: Tuple[float, float, float, float]
    diameter: float
    children: Optional[Tuple[int, int]] = None

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass
class ClusterTree:
    """Balanced binary tree over element indices with uniform leaf depth.

    ``permutation[p]`` is the original mesh index of tree-ordered slot ``p``;
    cluster index ranges refer to tree-ordered slots.  The tree is made by
    :func:`build_cluster_tree`, which states the invariants it holds.
    """

    nodes: List[TreeNode]
    permutation: np.ndarray
    depth: int
    n_elements: int


def build_cluster_tree(mesh: Mesh, leaf_size: int) -> ClusterTree:
    """Build the median-bisection cluster tree with uniform leaf depth.

    Splitting sorts the node's elements by coordinate along the longest
    bounding-box axis (stable, so ties keep index order) and cuts at the
    median, the larger half going left.  Depth L is the smallest level
    where ``ceil(N / 2**L) <= leaf_size``; every branch is split down to
    exactly that level.

    A whole level is split at once: its boxes come from one
    ``np.minimum.reduceat`` and one ``np.maximum.reduceat``, and one
    stable ``np.lexsort`` keyed by (node, coordinate on that node's
    longest axis) sorts every node's elements.  Nodes are numbered in
    pre-order, as a depth-first split would number them: a node's left
    child follows it and its right child follows the left child's
    subtree of 2**(L - level) - 1 nodes.  Each diameter is
    ``np.linalg.norm`` of its node's box alone, so admissibility ties
    resolve as they would for that box.

    The construction guarantees the tree's invariants, so nothing checks
    them afterwards:

    * ``permutation`` is a bijection: it is only ever reordered inside one
      node's range;
    * a node's children are ``[start, mid)`` and ``[mid, stop)``, so they
      tile it and the leaves tile 0..N in order;
    * every leaf sits at depth L;
    * halving with the larger half left keeps every level-d node at
      floor or ceil of N / 2**d elements, so no node is empty and no leaf
      holds more than ``leaf_size``.
    """
    if leaf_size < 2:
        raise ValueError("leaf_size must be at least 2")
    n = mesh.n_elements
    depth = 0
    while math.ceil(n / 2**depth) > leaf_size:
        depth += 1

    perm = np.arange(n)
    nodes: List[TreeNode] = [None] * (2 ** (depth + 1) - 1)  # type: ignore[list-item]
    # the starts and pre-order indices of one level's nodes, left to right
    starts, indices = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for level in range(depth + 1):
        sizes = np.diff(starts, append=n)
        pts = mesh.centers[perm]
        bb_min = np.minimum.reduceat(pts, starts, axis=0)
        bb_max = np.maximum.reduceat(pts, starts, axis=0)
        spans = bb_max - bb_min
        left = indices + 1
        right = left + 2 ** (depth - level) - 1
        children = zip(left.tolist(), right.tolist()) if level < depth else [None] * len(starts)
        rows = zip(indices.tolist(), starts.tolist(), sizes.tolist(), bb_min.tolist(), bb_max.tolist(), spans, children)
        for index, start, size, low, high, span, pair in rows:
            nodes[index] = TreeNode(index, level, start, start + size, (*low, *high), float(np.linalg.norm(span)), pair)
        if level == depth:
            break
        # each node's elements, stably sorted along its own longest axis
        axis = np.repeat(np.argmax(spans, axis=1), sizes)
        node = np.repeat(np.arange(len(starts)), sizes)
        perm = perm[np.lexsort((pts[np.arange(n), axis], node))]
        starts = np.column_stack((starts, starts + (sizes + 1) // 2)).ravel()
        indices = np.column_stack((left, right)).ravel()
    return ClusterTree(nodes, perm, depth, n)


def check_eta(eta: float) -> None:
    """Refuse an admissibility parameter that is not positive and finite,
    NaN included."""
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta:g}")


def is_admissible(tree: ClusterTree, t: int, s: int, eta: float) -> bool:
    """Strong admissibility: eta * dist(t, s) >= min(diam(t), diam(s)).

    Diameters are bounding-box diagonals; the distance is the minimum
    box-to-box Euclidean distance, the norm of the per-axis gaps.  Symmetric
    in (t, s) by construction.
    """
    check_eta(eta)
    nt, ns = tree.nodes[t], tree.nodes[s]
    if nt.level != ns.level:
        raise ValueError("admissibility is defined for same-level cluster pairs")
    tx0, ty0, tx1, ty1 = nt.box
    sx0, sy0, sx1, sy1 = ns.box
    gap_x = max(0.0, sx0 - tx1, tx0 - sx1)
    gap_y = max(0.0, sy0 - ty1, ty0 - sy1)
    # sqrt(g * g) is g exactly (for a g whose square does not underflow),
    # so with one gap zero the other is the norm
    dist = float(np.linalg.norm((gap_x, gap_y))) if gap_x and gap_y else gap_x + gap_y
    return eta * dist >= min(nt.diameter, ns.diameter)


# ---------------------------------------------------------------------------
# mesh CSV output


def write_mesh_csv(mesh: Mesh, path: str) -> None:
    """Write one row per element: cx, cy, extent, eps_r_re, eps_r_im."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MESH_CSV_HEADER)
        for c, ext, eps in zip(mesh.centers, mesh.extents, mesh.eps_r):
            writer.writerow(
                [f"{c[0]:.17g}", f"{c[1]:.17g}", f"{ext:.17g}", f"{eps.real:.17g}", f"{eps.imag:.17g}"]
            )
