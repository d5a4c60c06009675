import math

import numpy as np
import pytest

from hpss import (
    Mesh,
    build_cluster_tree,
    discretize_circle,
    discretize_disk,
    discretize_strip,
    is_admissible,
    read_mesh_csv,
    write_mesh_csv,
)
from hpss.geometry import box_distance


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
        assert np.all(m.extents * k_scale <= m.wavelength / 10.0 + 1e-12)


def test_mesh_rejects_two_elements_with_one_centre():
    centers = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.1, 0.0]])
    with pytest.raises(ValueError, match=r"elements 1 and 3 share the centre \(0.1, 0\)"):
        Mesh("surface", centers, np.full(4, 0.05), np.ones(4, dtype=complex))
    cells = discretize_disk(0.3, 10, 2.0)
    centers = cells.centers.copy()
    centers[0] = centers[-1]
    with pytest.raises(ValueError, match=f"elements 0 and {cells.n_elements - 1} share the centre"):
        Mesh("volume", centers, cells.extents, cells.eps_r)


def test_tree_on_eight_collinear_points():
    m = discretize_strip(0.8, 10)
    assert m.n_elements == 8
    t = build_cluster_tree(m, 2)
    assert t.depth == 2
    leaves = list(t.leaf_ranges())
    assert leaves == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_tree_depth_on_150_segments():
    t = build_cluster_tree(discretize_strip(15.0, 10), 20)
    assert t.depth == 3
    assert all(stop - start <= 20 for start, stop in t.leaf_ranges())


def test_single_element_tree_is_one_node():
    m = Mesh("surface", np.array([[0.0, 0.0]]), np.array([0.05]), np.array([1.0 + 0j]))
    t = build_cluster_tree(m, 2)
    assert t.depth == 0
    assert len(t.nodes) == 1
    assert t.root.is_leaf


def test_permutation_is_bijection_and_leaves_tile():
    t = build_cluster_tree(discretize_disk(0.3, 12, 2.0), 8)
    assert np.array_equal(np.sort(t.permutation), np.arange(t.n_elements))
    covered = sorted(t.leaf_ranges())
    assert covered[0][0] == 0
    assert covered[-1][1] == t.n_elements
    for (a0, a1), (b0, b1) in zip(covered, covered[1:]):
        assert a1 == b0


def test_admissibility_hand_cases():
    # same node is never admissible: distance zero against positive diameter
    t = build_cluster_tree(discretize_strip(2.0, 10), 5)
    leaf = t.leaves[0]
    assert not is_admissible(t, leaf, leaf, 1.0)

    # detached unit squares [0,1]^2 and [3,4]^2: dist 2*sqrt(2) >= diam sqrt(2)
    d = box_distance(np.zeros(2), np.ones(2), np.array([3.0, 3.0]), np.array([4.0, 4.0]))
    assert math.isclose(d, 2.0 * math.sqrt(2.0), rel_tol=1e-12)
    assert d >= math.sqrt(2.0)

    # touching corners give distance zero
    assert box_distance(np.zeros(2), np.ones(2), np.ones(2), np.array([2.0, 2.0])) == 0.0


def test_admissibility_is_symmetric():
    t = build_cluster_tree(discretize_strip(4.0, 16), 8)
    for level in range(1, t.depth + 1):
        ids = t.level_nodes(level)
        for a in ids:
            for b in ids:
                assert is_admissible(t, a, b, 1.0) == is_admissible(t, b, a, 1.0)


def test_mesh_csv_roundtrip(tmp_path):
    m = discretize_disk(0.3, 10, 2.0 - 0.1j)
    path = tmp_path / "mesh.csv"
    write_mesh_csv(m, str(path))
    back = read_mesh_csv(str(path), kind="volume")
    assert back.n_elements == m.n_elements
    assert np.allclose(back.centers, m.centers)
    assert np.allclose(back.extents, m.extents)
    assert np.allclose(back.eps_r, m.eps_r)
    header = path.read_text().splitlines()[0]
    assert "cx" in header and "eps_r_im" in header
