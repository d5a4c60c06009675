import math
import re

import numpy as np
import pytest

from hpss import (
    ClusterTree,
    Mesh,
    TreeNode,
    build_cluster_tree,
    discretize_circle,
    discretize_disk,
    discretize_strip,
    is_admissible,
    write_mesh_csv,
)
from hpss import geometry


def test_strip_counts_and_extents():
    m = discretize_strip(1.0, 10)
    assert m.n_elements == 10
    assert np.allclose(m.extents, 0.1)
    assert m.kind == "surface"

    m = discretize_strip(15.0, 10)
    assert m.n_elements == 150
    assert math.isclose(m.centers[-1, 0] - m.centers[0, 0], 15.0 - 0.1, rel_tol=1e-12)

    m = discretize_strip(2.5, 12)
    assert m.n_elements == 30
    assert np.allclose(m.extents, 1.0 / 12.0)


def test_strip_rejects_coarse_mesh():
    with pytest.raises(ValueError):
        discretize_strip(2.0, 8)


# NaN fails every comparison and inf passes a lower bound, so either used
# to reach math.ceil or int and crash there without naming the argument
@pytest.mark.parametrize(
    "generate, message",
    [
        (lambda: discretize_strip(float("nan"), 10), "strip length must be positive and finite, got nan"),
        (lambda: discretize_strip(0.0, 10), "strip length must be positive and finite, got 0"),
        (lambda: discretize_strip(1.0, float("inf")), "elements_per_wavelength must be at least 10 and finite, got inf"),
        (lambda: discretize_circle(float("inf"), 10), "circle radius must be positive and finite, got inf"),
        (lambda: discretize_circle(1.0, float("nan")), "elements_per_wavelength must be at least 10 and finite, got nan"),
        (lambda: discretize_disk(float("nan"), 10, 2.0), "disk radius must be positive and finite, got nan"),
        (lambda: discretize_disk(0.3, float("nan"), 2.0), "cells_per_wavelength must be at least 10 and finite, got nan"),
        (lambda: discretize_disk(0.3, 10, complex("nan")), "disk eps_r must be finite with Re(eps_r) >= 1, got nan+0j"),
        (lambda: discretize_disk(0.3, 10, complex(2.0, float("inf"))), "disk eps_r must be finite with Re(eps_r) >= 1, got 2+infj"),
        (lambda: discretize_disk(0.3, 10, 0.5), "disk eps_r must be finite with Re(eps_r) >= 1, got 0.5+0j"),
        # finite, but more elements than the operator's int32 indices address;
        # the disk's candidate grid is refused before it is allocated
        (lambda: discretize_strip(1e300, 10), "strip length 1e+300 needs 1e+301 elements, more than the 2147483647 an operator can index"),
        (lambda: discretize_circle(1e300, 10), "circle radius 1e+300 needs 6.28319e+301 elements, more than the 2147483647 an operator can index"),
        (lambda: discretize_disk(1e12, 10, 2.0), "disk radius 1e+12 needs 8e+26 grid cells, more than the 2147483647 an operator can index"),
        # a density and a permittivity whose product overflows, which would make the cell side 0
        (
            lambda: discretize_disk(1.0, 1e308, 1e300),
            "cells_per_wavelength 1e+308 with disk eps_r 1e+300+0j needs inf cells a wavelength, "
            "more than the 2147483647 an operator can index",
        ),
    ],
    ids=[
        "strip-length-nan", "strip-length-0", "strip-density-inf", "circle-radius-inf", "circle-density-nan",
        "disk-radius-nan", "disk-density-nan", "disk-eps-nan", "disk-eps-imag-inf", "disk-eps-below-1",
        "strip-length-1e300", "circle-radius-1e300", "disk-radius-1e12", "disk-density-eps-r-overflow",
    ],
)
def test_generators_refuse_a_size_that_is_not_finite_naming_it(generate, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate()


def test_generators_accept_the_largest_count_and_refuse_one_more(monkeypatch):
    monkeypatch.setattr(geometry, "MAX_ELEMENTS", 100)
    assert discretize_strip(10.0, 10).n_elements == 100
    with pytest.raises(ValueError, match=re.escape("strip length 10.1 needs 101 elements")):
        discretize_strip(10.1, 10)
    # a disk of radius 0.35 at cell side 0.1 rasterizes a 9 x 9 candidate grid
    monkeypatch.setattr(geometry, "MAX_ELEMENTS", 81)
    discretize_disk(0.35, 10, 1.0)
    monkeypatch.setattr(geometry, "MAX_ELEMENTS", 80)
    with pytest.raises(ValueError, match=re.escape("disk radius 0.35 needs 81 grid cells")):
        discretize_disk(0.35, 10, 1.0)


def test_circle_segment_counts():
    assert discretize_circle(1.0 / (2.0 * math.pi), 10).n_elements == 10
    assert discretize_circle(1.0, 10).n_elements == 63
    assert discretize_circle(0.5, 20).n_elements == 63


def test_circle_is_closed_and_dense_enough():
    m = discretize_circle(0.7, 12)
    # uniform polygon inscribed in the circle: chord length below arc length
    assert np.allclose(m.extents, m.extents[0])
    assert m.extents[0] <= 1.0 / 12.0
    radii = np.linalg.norm(m.centers, axis=1)
    assert np.allclose(radii, radii[0])


def test_disk_cell_side_and_count_oracle():
    m = discretize_disk(0.3, 10, 2.0)
    side = 1.0 / (10.0 * math.sqrt(2.0))
    assert np.allclose(m.extents, side)
    assert m.kind == "volume"
    # independent rasterization count: centers of the same grid inside the disk
    count = 0
    steps = int(math.ceil(0.3 / side)) + 1
    for ix in range(-steps, steps + 1):
        for iy in range(-steps, steps + 1):
            cx, cy = (ix + 0.5) * side, (iy + 0.5) * side
            if cx * cx + cy * cy < 0.3 * 0.3:
                count += 1
    # same count up to the lattice-origin convention; allow a one-ring slack
    assert abs(m.n_elements - count) <= 0.15 * count
    assert np.all(np.linalg.norm(m.centers, axis=1) < 0.3)


def test_disk_degenerate_small_radius():
    try:
        m = discretize_disk(0.05, 10, 1.0)
    except ValueError:
        return  # empty rasterization is a legal refusal
    assert m.n_elements >= 1


def test_disk_eps_scales_cell_count():
    coarse = discretize_disk(0.3, 10, 1.0)
    fine = discretize_disk(0.3, 10, 4.0)
    assert np.allclose(fine.extents, 1.0 / 20.0)
    ratio = fine.n_elements / coarse.n_elements
    assert 3.2 < ratio < 4.8


def test_mesh_density_rule_holds_per_element():
    for m in (discretize_strip(3.0, 16), discretize_circle(0.4, 10), discretize_disk(0.3, 10, 2.0)):
        k_scale = math.sqrt(max(np.max(m.eps_r.real), 1.0)) if m.kind == "volume" else 1.0
        assert np.all(m.extents * k_scale <= 1.0 / 10.0 + 1e-12)


def test_mesh_rejects_two_elements_with_one_centre():
    centers = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.1, 0.0]])
    with pytest.raises(ValueError, match=r"elements 1 and 3 share the centre \(0.1, 0\)"):
        Mesh("surface", centers, np.full(4, 0.05), np.ones(4, dtype=complex))
    cells = discretize_disk(0.3, 10, 2.0)
    centers = cells.centers.copy()
    centers[0] = centers[-1]
    with pytest.raises(ValueError, match=f"elements 0 and {cells.n_elements - 1} share the centre"):
        Mesh("volume", centers, cells.extents, cells.eps_r)


def leaf_ranges(t):
    """Each leaf's (start, stop), in tree order."""
    return [(node.start, node.stop) for node in t.nodes if node.is_leaf]


def assert_tree_invariants(t, leaf_size):
    """What ``build_cluster_tree`` guarantees: a bijective permutation,
    every leaf at ``depth`` and non-empty with at most ``leaf_size``
    elements, children tiling their parent, and leaves tiling 0..N."""
    assert np.array_equal(np.sort(t.permutation), np.arange(t.n_elements))
    for node in t.nodes:
        if node.is_leaf:
            assert node.level == t.depth
            assert 0 < node.size <= leaf_size
        else:
            left, right = (t.nodes[i] for i in node.children)
            assert (left.start, left.stop, right.stop) == (node.start, right.start, node.stop)
            assert left.level == right.level == node.level + 1
    covered = sorted(leaf_ranges(t))
    assert len(covered) == 2**t.depth
    assert [start for start, _ in covered] == [0] + [stop for _, stop in covered[:-1]]
    assert covered[-1][1] == t.n_elements


def test_tree_on_eight_collinear_points():
    m = discretize_strip(0.8, 10)
    assert m.n_elements == 8
    t = build_cluster_tree(m, 2)
    assert t.depth == 2
    assert_tree_invariants(t, 2)
    assert leaf_ranges(t) == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_tree_depth_on_150_segments():
    t = build_cluster_tree(discretize_strip(15.0, 10), 20)
    assert t.depth == 3
    assert all(stop - start <= 20 for start, stop in leaf_ranges(t))
    assert_tree_invariants(t, 20)


def test_single_element_tree_is_one_node():
    m = Mesh("surface", np.array([[0.0, 0.0]]), np.array([0.05]), np.array([1.0 + 0j]))
    t = build_cluster_tree(m, 2)
    assert t.depth == 0
    assert len(t.nodes) == 1
    assert t.nodes[0].is_leaf
    assert_tree_invariants(t, 2)


def test_permutation_is_bijection_and_leaves_tile():
    t = build_cluster_tree(discretize_disk(0.3, 12, 2.0), 8)
    assert np.array_equal(np.sort(t.permutation), np.arange(t.n_elements))
    covered = sorted(leaf_ranges(t))
    assert covered[0][0] == 0
    assert covered[-1][1] == t.n_elements
    for (a0, a1), (b0, b1) in zip(covered, covered[1:]):
        assert a1 == b0
    # the tree keeps no leaf size and is not re-checked, so its invariants
    # are asserted here on each mesh family, at sizes that are not powers of two
    for mesh, leaf_size in (
        (discretize_disk(0.3, 12, 2.0), 8),
        (discretize_strip(10.3, 10), 7),
        (discretize_circle(1.3, 11), 5),
        (discretize_disk(0.8, 10, 2.0), 16),
    ):
        assert_tree_invariants(build_cluster_tree(mesh, leaf_size), leaf_size)


def recursive_cluster_tree(mesh, leaf_size):
    """The reference builder: one node at a time, depth first, each node's
    elements stably sorted along its own longest axis before it is halved."""
    n = mesh.n_elements
    depth = 0
    while math.ceil(n / 2**depth) > leaf_size:
        depth += 1
    perm = np.arange(n)
    nodes = []

    def make_node(level, start, stop):
        pts = mesh.centers[perm[start:stop]]
        bb_min, bb_max = pts.min(axis=0), pts.max(axis=0)
        node = TreeNode(len(nodes), level, start, stop, (*bb_min.tolist(), *bb_max.tolist()), float(np.linalg.norm(bb_max - bb_min)))
        nodes.append(node)
        if level < depth:
            local = perm[start:stop]
            perm[start:stop] = local[np.argsort(pts[:, int(np.argmax(bb_max - bb_min))], kind="stable")]
            mid = start + (stop - start + 1) // 2
            node.children = (make_node(level + 1, start, mid), make_node(level + 1, mid, stop))
        return node.index

    make_node(0, 0, n)
    return ClusterTree(nodes, perm, depth, n)


def tied_mesh():
    """Points of a shuffled 9 x 6 grid, so many share an x or a y, and
    square boxes tie their two axes."""
    gx, gy = np.meshgrid(np.arange(9) * 0.05, np.arange(6) * 0.05)
    centers = np.column_stack([gx.ravel(), gy.ravel()])[np.random.default_rng(31).permutation(54)]
    return Mesh("surface", centers, np.full(54, 0.05), np.ones(54, dtype=complex))


@pytest.mark.parametrize(
    "mesh, leaf_size",
    [
        (discretize_strip(10.3, 10), 7),
        (discretize_circle(1.3, 11), 5),
        (discretize_disk(0.8, 10, 2.0), 16),
        (discretize_disk(0.3, 16, 2.0), 8),
        (tied_mesh(), 2),
        (tied_mesh(), 4),
    ],
    ids=["strip", "circle", "disk", "small-disk", "ties-leaf-2", "ties-leaf-4"],
)
def test_tree_is_the_recursive_builders_bit_for_bit(mesh, leaf_size):
    """The level-at-a-time builder gives the depth-first one's permutation,
    pre-order node indices, ranges, children, boxes and diameters."""
    got, want = build_cluster_tree(mesh, leaf_size), recursive_cluster_tree(mesh, leaf_size)
    assert got.depth == want.depth and got.n_elements == want.n_elements
    assert np.array_equal(got.permutation, want.permutation)
    # repr tells every float bit pattern apart, the sign of a zero included
    assert repr(got.nodes) == repr(want.nodes)


def boxes_tree(*boxes):
    """A depth-1 tree whose level-1 nodes 1, 2, ... have the given
    ((x min, y min), (x max, y max)) boxes; ``is_admissible`` reads only
    those and their diagonals."""
    root = TreeNode(0, 0, 0, len(boxes), (0.0, 0.0, 0.0, 0.0), 0.0)
    nodes = [root] + [
        TreeNode(i + 1, 1, i, i + 1, (*map(float, lo), *map(float, hi)), float(np.linalg.norm(np.subtract(hi, lo))))
        for i, (lo, hi) in enumerate(boxes)
    ]
    return ClusterTree(nodes, np.arange(len(boxes)), 1, len(boxes))


def test_admissibility_hand_cases():
    # same node is never admissible: distance zero against positive diameter
    t = build_cluster_tree(discretize_strip(2.0, 10), 5)
    leaf = next(node.index for node in t.nodes if node.is_leaf)
    assert not is_admissible(t, leaf, leaf, 1.0)

    unit = ((0.0, 0.0), (1.0, 1.0))
    # detached unit squares [0,1]^2 and [3,4]^2: dist 2*sqrt(2) against diam sqrt(2)
    t = boxes_tree(unit, ((3.0, 3.0), (4.0, 4.0)))
    assert is_admissible(t, 1, 2, 1.0) and is_admissible(t, 2, 1, 1.0)
    assert not is_admissible(t, 1, 2, 0.49)
    # a gap along x alone: dist 2, so eta 0.71 passes and 0.70 does not
    t = boxes_tree(unit, ((3.0, 0.0), (4.0, 1.0)))
    assert is_admissible(t, 1, 2, 0.71) and not is_admissible(t, 1, 2, 0.70)
    # and along y alone
    t = boxes_tree(unit, ((0.0, -3.0), (1.0, -2.0)))
    assert is_admissible(t, 2, 1, 0.71) and not is_admissible(t, 2, 1, 0.70)
    # touching corners give distance zero: never admissible
    t = boxes_tree(unit, ((1.0, 1.0), (2.0, 2.0)))
    assert not is_admissible(t, 1, 2, 1e6)
    for eta in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            is_admissible(t, 1, 2, eta)


def test_admissibility_is_symmetric():
    t = build_cluster_tree(discretize_strip(4.0, 16), 8)
    for level in range(1, t.depth + 1):
        ids = [node.index for node in t.nodes if node.level == level]
        for a in ids:
            for b in ids:
                assert is_admissible(t, a, b, 1.0) == is_admissible(t, b, a, 1.0)


def test_mesh_csv_roundtrip(tmp_path):
    m = discretize_disk(0.3, 10, 2.0 - 0.1j)
    path = tmp_path / "mesh.csv"
    write_mesh_csv(m, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "cx,cy,extent,eps_r_re,eps_r_im"
    # 17 significant digits give every value back bit for bit
    values = np.loadtxt(path, delimiter=",", skiprows=1)
    assert values.shape == (m.n_elements, 5)
    assert np.array_equal(values[:, :2], m.centers)
    assert np.array_equal(values[:, 2], m.extents)
    assert np.array_equal(values[:, 3] + 1j * values[:, 4], m.eps_r)


# the columns of a mesh CSV row: 2 is the extent, 3 and 4 are eps_r's parts
@pytest.mark.parametrize("column, value", [(2, "nan"), (3, "nan"), (4, "inf"), (3, "-inf")])
def test_mesh_csv_with_a_non_finite_extent_or_eps_r_names_the_element(column, value):
    mesh = discretize_disk(0.3, 10, 2.0)
    extents, eps_r = mesh.extents.copy(), mesh.eps_r.copy()
    target = {2: extents, 3: eps_r.real, 4: eps_r.imag}[column]
    target[[9, 6]] = float(value)
    with pytest.raises(ValueError, match=r"^element 6 is not finite: "):
        Mesh(mesh.kind, mesh.centers, extents, eps_r)
