"""Geometry layer: desk-scale 2D meshes and the binary cluster tree.

Two element families are supported, both with piecewise-constant unknowns
and point matching at element centers:

* surface meshes: flat segments discretizing a PEC contour (a strip on the
  x-axis or a closed circular contour approximated by chords),
* volume meshes: square cells rasterizing a dielectric cross section.

All generated meshes are wavelength-normalized (``wavelength = 1.0``), so
coordinates are numerically in wavelengths.  The mesh-density rule is
enforced at construction: element extent must not exceed lambda/10 on
surface meshes and lambda/(10*sqrt(Re(eps_r))) per cell on volume meshes.

The cluster tree splits element index ranges by coordinate median along the
longest bounding-box axis, with a uniform leaf level: every leaf sits at the
same depth L, where L is the smallest level at which the largest range fits
the requested leaf size.  The reordering permutation is recorded so matrix
indices can be made contiguous per cluster.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

SURFACE = "surface"
VOLUME = "volume"

# density floor shared by the generators and the Mesh validator
MIN_ELEMENTS_PER_WAVELENGTH = 10.0
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
        Element center coordinates in meters.
    extents : ndarray, shape (N,)
        Segment length (surface) or cell side (volume), in meters.
    eps_r : ndarray, shape (N,), complex
        Relative permittivity per element; exactly 1 on surface meshes.
    wavelength : float
        Free-space wavelength in meters.  Generators produce 1.0.
    """

    kind: str
    centers: np.ndarray
    extents: np.ndarray
    eps_r: np.ndarray
    wavelength: float = 1.0

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
        """Free-space wavenumber in rad/m."""
        return 2.0 * math.pi / self.wavelength

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
        if not np.all(np.isfinite(self.centers)):
            raise ValueError("non-finite element center")
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
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.kind == SURFACE:
            if np.any(self.eps_r != 1.0):
                raise ValueError("surface meshes must carry eps_r = 1 exactly")
            limit = self.wavelength / MIN_ELEMENTS_PER_WAVELENGTH
            if np.any(self.extents > limit * _DENSITY_SLACK):
                raise ValueError(
                    f"surface element extent exceeds lambda/{MIN_ELEMENTS_PER_WAVELENGTH:g}"
                )
        else:
            if np.any(self.eps_r.real < 1.0):
                raise ValueError("volume cells require Re(eps_r) >= 1")
            limit = self.wavelength / (MIN_ELEMENTS_PER_WAVELENGTH * np.sqrt(self.eps_r.real))
            if np.any(self.extents > limit * _DENSITY_SLACK):
                raise ValueError(
                    "volume cell side exceeds lambda/(10*sqrt(Re(eps_r))) for some cell"
                )

    def with_eps(self, eps_r: Sequence[complex]) -> "Mesh":
        """Return a copy carrying per-element eps_r (volume meshes only)."""
        if self.kind != VOLUME:
            raise ValueError("per-element eps_r only applies to volume meshes")
        eps = np.asarray(eps_r, dtype=complex)
        if eps.shape == ():
            eps = np.full(self.n_elements, complex(eps))
        return Mesh(self.kind, self.centers.copy(), self.extents.copy(), eps, self.wavelength)


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
    if length_wl <= 0.0:
        raise ValueError("strip length must be positive")
    if elements_per_wavelength < MIN_ELEMENTS_PER_WAVELENGTH:
        raise ValueError("elements_per_wavelength must be at least 10")
    n = math.ceil(length_wl * elements_per_wavelength)
    delta = length_wl / n
    x = (np.arange(n) + 0.5) * delta
    centers = np.column_stack([x, np.zeros(n)])
    return Mesh(SURFACE, centers, np.full(n, delta), np.ones(n, dtype=complex))


def discretize_circle(radius_wl: float, elements_per_wavelength: float) -> Mesh:
    """Mesh a circular PEC contour as a closed chain of chord segments.

    The segment count is ``ceil(2*pi*radius*epw)`` so each arc is at most
    lambda/epw long; chord extents are slightly shorter than the arcs.
    """
    if radius_wl <= 0.0:
        raise ValueError("circle radius must be positive")
    n = math.ceil(2.0 * math.pi * radius_wl * elements_per_wavelength)
    n = max(n, 3)
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
    if radius_wl <= 0.0:
        raise ValueError("disk radius must be positive")
    eps = complex(eps_r)
    if eps.real < 1.0:
        raise ValueError("disk eps_r must satisfy Re(eps_r) >= 1")
    h = 1.0 / (cells_per_wavelength * math.sqrt(eps.real))
    span = int(math.floor(radius_wl / h)) + 1
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
    """One index-range node of the binary cluster tree."""

    index: int
    level: int
    start: int
    stop: int
    bbox_min: np.ndarray
    bbox_max: np.ndarray
    children: Optional[Tuple[int, int]] = None

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.bbox_max - self.bbox_min))


@dataclass
class ClusterTree:
    """Balanced binary tree over element indices with uniform leaf depth.

    ``permutation[p]`` is the original mesh index of tree-ordered slot ``p``;
    cluster index ranges refer to tree-ordered slots.
    """

    nodes: List[TreeNode]
    permutation: np.ndarray
    leaf_size: int
    depth: int
    n_elements: int
    leaves: List[int] = field(default_factory=list)
    _levels: List[List[int]] = field(default_factory=list)

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def node(self, index: int) -> TreeNode:
        return self.nodes[index]

    def level_nodes(self, level: int) -> List[int]:
        """Node indices at a tree level (0 = root, depth = leaves)."""
        return self._levels[level]

    def leaf_ranges(self) -> Iterator[Tuple[int, int]]:
        for leaf in self.leaves:
            node = self.nodes[leaf]
            yield node.start, node.stop

    def validate(self) -> None:
        perm = np.sort(self.permutation)
        if not np.array_equal(perm, np.arange(self.n_elements)):
            raise ValueError("permutation is not a bijection on element indices")
        for node in self.nodes:
            if node.is_leaf:
                if node.level != self.depth:
                    raise ValueError("leaf found off the uniform leaf level")
                if node.size > self.leaf_size:
                    raise ValueError("leaf exceeds leaf_size")
            else:
                left, right = node.children
                ln, rn = self.nodes[left], self.nodes[right]
                if (ln.start, rn.stop) != (node.start, node.stop) or ln.stop != rn.start:
                    raise ValueError("children do not partition the parent range")
        covered = sorted((self.nodes[i].start, self.nodes[i].stop) for i in self.leaves)
        cursor = 0
        for start, stop in covered:
            if start != cursor:
                raise ValueError("leaves do not tile the index range")
            cursor = stop
        if cursor != self.n_elements:
            raise ValueError("leaves do not cover all elements")


def _bbox(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return points.min(axis=0), points.max(axis=0)


def build_cluster_tree(mesh: Mesh, leaf_size: int) -> ClusterTree:
    """Build the median-bisection cluster tree with uniform leaf depth.

    Splitting sorts the node's elements by coordinate along the longest
    bounding-box axis (stable, so ties keep index order) and cuts at the
    median, the larger half going left.  Depth L is the smallest level
    where ``ceil(N / 2**L) <= leaf_size``; every branch is split down to
    exactly that level.
    """
    if leaf_size < 2:
        raise ValueError("leaf_size must be at least 2")
    n = mesh.n_elements
    depth = 0
    while math.ceil(n / 2**depth) > leaf_size:
        depth += 1

    perm = np.arange(n)
    centers = mesh.centers
    nodes: List[TreeNode] = []
    leaves: List[int] = []

    def make_node(level: int, start: int, stop: int) -> int:
        pts = centers[perm[start:stop]]
        bb_min, bb_max = _bbox(pts)
        node = TreeNode(len(nodes), level, start, stop, bb_min, bb_max)
        nodes.append(node)
        index = node.index
        if level < depth:
            axis = int(np.argmax(bb_max - bb_min))
            local = perm[start:stop]
            order = np.argsort(centers[local, axis], kind="stable")
            perm[start:stop] = local[order]
            mid = start + (stop - start + 1) // 2
            left = make_node(level + 1, start, mid)
            right = make_node(level + 1, mid, stop)
            node.children = (left, right)
        else:
            leaves.append(index)
        return index

    make_node(0, 0, n)
    levels: List[List[int]] = [[] for _ in range(depth + 1)]
    for node in nodes:
        levels[node.level].append(node.index)
    tree = ClusterTree(nodes, perm, leaf_size, depth, n, leaves, levels)
    tree.validate()
    return tree


def box_distance(amin: np.ndarray, amax: np.ndarray, bmin: np.ndarray, bmax: np.ndarray) -> float:
    """Minimum Euclidean distance between two axis-aligned boxes."""
    gap = np.maximum(0.0, np.maximum(bmin - amax, amin - bmax))
    return float(np.linalg.norm(gap))


def is_admissible(tree: ClusterTree, t: int, s: int, eta: float) -> bool:
    """Strong admissibility: eta * dist(t, s) >= min(diam(t), diam(s)).

    Diameters are bounding-box diagonals; the distance is the minimum
    box-to-box Euclidean distance.  Symmetric in (t, s) by construction.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    nt, ns = tree.nodes[t], tree.nodes[s]
    if nt.level != ns.level:
        raise ValueError("admissibility is defined for same-level cluster pairs")
    dist = box_distance(nt.bbox_min, nt.bbox_max, ns.bbox_min, ns.bbox_max)
    return eta * dist >= min(nt.diameter, ns.diameter)


# ---------------------------------------------------------------------------
# mesh CSV round trip


def write_mesh_csv(mesh: Mesh, path: str) -> None:
    """Write one row per element: cx, cy, extent, eps_r_re, eps_r_im."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MESH_CSV_HEADER)
        for c, ext, eps in zip(mesh.centers, mesh.extents, mesh.eps_r):
            writer.writerow(
                [f"{c[0]:.17g}", f"{c[1]:.17g}", f"{ext:.17g}", f"{eps.real:.17g}", f"{eps.imag:.17g}"]
            )


def read_mesh_csv(path: str, kind: Optional[str] = None, wavelength: float = 1.0) -> Mesh:
    """Read a mesh CSV written by :func:`write_mesh_csv`.

    The element family is not part of the format; ``kind`` overrides the
    default inference (all eps_r exactly 1 reads as a surface mesh).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != MESH_CSV_HEADER:
            raise ValueError(f"mesh CSV must start with header {','.join(MESH_CSV_HEADER)}")
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError("mesh CSV has no element rows")
    data = np.array([[float(v) for v in row] for row in rows])
    eps = data[:, 3] + 1j * data[:, 4]
    if kind is None:
        kind = SURFACE if np.all(eps == 1.0) else VOLUME
    return Mesh(kind, data[:, :2], data[:, 2], eps, wavelength)
