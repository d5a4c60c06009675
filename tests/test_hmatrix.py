import dataclasses

import numpy as np
import pytest

from hpss import (
    KernelSpec,
    assemble,
    assemble_dense,
    build_block_partition,
    build_cluster_tree,
    discretize_disk,
    discretize_strip,
    memory_report,
)
from hpss.hmatrix import _probe_reciprocity


def entries_by_label(rep):
    return {label: entries for label, _, entries, _ in rep.rows}


def coverage_counts(tree, partition, symmetric=False):
    """Count how many blocks claim each (i, j) index pair."""
    n = tree.n_elements
    hits = np.zeros((n, n), dtype=int)
    for t, s in partition.near_pairs:
        nt, ns = tree.node(t), tree.node(s)
        hits[nt.start : nt.stop, ns.start : ns.stop] += 1
    for pairs in partition.far_pairs.values():
        for t, s in pairs:
            nt, ns = tree.node(t), tree.node(s)
            hits[nt.start : nt.stop, ns.start : ns.stop] += 1
    return hits


def test_partition_tiles_index_square_exactly():
    for mesh, leaf in ((discretize_strip(4.0, 16), 8), (discretize_disk(0.3, 12, 2.0), 8)):
        tree = build_cluster_tree(mesh, leaf)
        partition = build_block_partition(tree, eta=1.0)
        hits = coverage_counts(tree, partition)
        assert np.all(hits == 1), f"tiling broken for {mesh.kind}"


def test_strip_partition_structure():
    tree = build_cluster_tree(discretize_strip(8.0, 10), 10)
    assert tree.depth == 3  # 80 elements, 8 leaves
    partition = build_block_partition(tree, eta=1.0)
    leaf_nodes = set(tree.level_nodes(tree.depth))
    # every leaf keeps its own dense diagonal block
    near_self = {(t, s) for t, s in partition.near_pairs if t == s}
    assert len(near_self) == 8
    # near pairs live only between touching leaves: a banded layout
    for t, s in partition.near_pairs:
        assert t in leaf_nodes and s in leaf_nodes
        nt, ns = tree.node(t), tree.node(s)
        assert abs(nt.start - ns.start) <= nt.size  # adjacent ranges only
    # far field appears at more than one level, coarser blocks higher up
    levels = [lvl for lvl, pairs in partition.far_pairs.items() if pairs]
    assert len(levels) >= 2
    coarse = min(levels)
    sizes_coarse = [tree.node(t).size for t, _ in partition.far_pairs[coarse]]
    sizes_leaf = [tree.node(t).size for t, _ in partition.far_pairs[tree.depth]]
    assert min(sizes_coarse) > max(sizes_leaf)


def test_single_leaf_everything_is_near():
    mesh = discretize_strip(1.0, 10)
    tree = build_cluster_tree(mesh, 16)
    assert tree.depth == 0
    partition = build_block_partition(tree, 1.0)
    assert partition.near_pairs == [(0, 0)]
    assert not any(partition.far_pairs.values())
    h = assemble(KernelSpec.for_mesh(mesh), tree, tol=1e-3)
    rep = memory_report(h)
    assert entries_by_label(rep)["near"] == mesh.n_elements**2
    assert rep.compression_ratio == 1.0


def test_full_matvec_matches_dense(strip_system):
    h, z = strip_system["h"], strip_system["z_perm"]
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
        err = np.linalg.norm(h.matvec(x) - z @ x) / np.linalg.norm(z @ x)
        assert err <= 5e-3  # 5 times the 1e-3 assembly tolerance


def test_matvec_column_extraction(strip_system):
    h, z = strip_system["h"], strip_system["z_perm"]
    for j in (0, 17, h.n - 1):
        e = np.zeros(h.n, dtype=np.complex128)
        e[j] = 1.0
        err = np.linalg.norm(h.matvec(e) - z[:, j]) / np.linalg.norm(z[:, j])
        assert err <= 5e-3


def test_matvec_linearity_and_zero(strip_system):
    h = strip_system["h"]
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    x2 = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    a = 2.0 - 0.5j
    lhs = h.matvec(a * x1 + x2)
    rhs_ = a * h.matvec(x1) + h.matvec(x2)
    assert np.linalg.norm(lhs - rhs_) <= 1e-12 * np.linalg.norm(rhs_)
    assert np.all(h.matvec(np.zeros(h.n, dtype=np.complex128)) == 0.0)


def test_level_split_sums_to_full(strip_system):
    h = strip_system["h"]
    rng = np.random.default_rng(9)
    x = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    total = h.near_matvec(x)
    for level in range(1, h.depth + 1):
        total = total + h.matvec_level(level, x)
    assert np.array_equal(total, h.matvec(x))


def test_empty_level_yields_zero_vector():
    # depth-2 strip: the two halves touch, so level 1 has no admissible pair
    mesh = discretize_strip(2.0, 10)
    tree = build_cluster_tree(mesh, 5)
    assert tree.depth == 2
    h = assemble(KernelSpec.for_mesh(mesh), tree, tol=1e-3)
    x = np.ones(h.n, dtype=np.complex128)
    assert np.all(h.matvec_level(1, x) == 0.0)
    assert np.any(h.matvec_level(2, x) != 0.0)


def test_level_filter_leaf_only():
    mesh = discretize_disk(0.3, 16, 2.0)
    tree = build_cluster_tree(mesh, 8)
    spec = KernelSpec.for_mesh(mesh)
    full = assemble(spec, tree, tol=1e-3)
    leaf_only = assemble(spec, tree, tol=1e-3, level_filter=[tree.depth])
    for level in range(1, tree.depth):
        assert not leaf_only.far_blocks.get(level)
    rep_full, rep_leaf = memory_report(full), memory_report(leaf_only)
    assert rep_leaf.total_entries < rep_full.total_entries
    leaf_rows = entries_by_label(rep_leaf)
    for level in range(1, tree.depth):
        assert leaf_rows.get(str(level), 0) == 0
    # the assembled leaf level acts exactly like the full far field minus
    # the skipped levels
    rng = np.random.default_rng(21)
    x = rng.standard_normal(full.n) + 1j * rng.standard_normal(full.n)
    recombined = leaf_only.near_matvec(x) + leaf_only.matvec_level(tree.depth, x)
    assert np.array_equal(recombined, leaf_only.matvec(x))
    assert not leaf_only.covers_all_far_levels()
    assert full.covers_all_far_levels()


def test_level_filter_rejects_bad_levels():
    mesh = discretize_strip(2.0, 10)
    tree = build_cluster_tree(mesh, 5)
    with pytest.raises(ValueError):
        assemble(KernelSpec.for_mesh(mesh), tree, tol=1e-3, level_filter=[7])


def test_assemble_rejects_negative_tolerance(monkeypatch):
    def no_fill(*args):
        raise AssertionError("entries were evaluated before the tolerance check")

    monkeypatch.setattr("hpss.hmatrix.entry_function", no_fill)
    # a 4-wavelength strip has no far blocks, a 16-wavelength one has some
    for length in (4.0, 16.0):
        mesh = discretize_strip(length, 10)
        with pytest.raises(ValueError, match="tolerance must be non-negative"):
            assemble(KernelSpec.for_mesh(mesh), build_cluster_tree(mesh, 32), tol=-1.0)


def test_symmetric_mode_halves_storage(strip_system):
    mesh, tree = strip_system["mesh"], strip_system["tree"]
    spec = strip_system["spec"]
    full = strip_system["h"]
    half = assemble(spec, tree, tol=1e-3, symmetric_mode=True)
    assert half.symmetric
    full_far = sum(len(blks) for blks in full.far_blocks.values())
    half_far = sum(len(blks) for blks in half.far_blocks.values())
    assert half_far * 2 == full_far
    full_offdiag = sum(1 for blk in full.near_blocks if not blk.is_diagonal)
    half_offdiag = sum(1 for blk in half.near_blocks if not blk.is_diagonal)
    assert half_offdiag * 2 == full_offdiag
    rng = np.random.default_rng(2)
    x = rng.standard_normal(full.n) + 1j * rng.standard_normal(full.n)
    y_full, y_half = full.matvec(x), half.matvec(x)
    # mirrored blocks are compressed independently in full mode, so the two
    # assemblies agree to the compression tolerance, not machine precision
    assert np.linalg.norm(y_full - y_half) <= 5e-3 * np.linalg.norm(y_full)
    del mesh


def test_reciprocity_probe_rejects_asymmetric_kernels():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))

    def entry_fn(rows, cols):
        return m[np.ix_(np.asarray(rows, int), np.asarray(cols, int))]

    with pytest.raises(ValueError, match="reciprocity"):
        _probe_reciprocity(entry_fn, 12)
    _probe_reciprocity(lambda r, c: (m + m.T)[np.ix_(np.asarray(r, int), np.asarray(c, int))], 12)


def test_memory_report_totals(strip_system):
    h = strip_system["h"]
    rep = memory_report(h)
    n = h.n
    rows = entries_by_label(rep)
    far_sum = sum(v for k, v in rows.items() if k not in ("near", "total"))
    assert rep.total_entries == rows["near"] + far_sum
    assert rows["total"] == rep.total_entries
    assert rep.total_entries < n * n
    assert 0.0 < rep.compression_ratio < 1.0
    stored = sum(blk.stored_entries for blk in h.near_blocks) + sum(
        blk.stored_entries for blks in h.far_blocks.values() for blk in blks
    )
    assert rep.total_entries == stored


def test_memory_report_csv_is_deterministic(tmp_path, strip_system):
    rep = memory_report(strip_system["h"])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rep.to_csv(str(p1))
    rep.to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert "time" not in header.lower()


# -- packed sparse storage ---------------------------------------------------


def loop_near_matvec(h, x):
    """Reference near action: one dense product per stored block."""
    y = np.zeros(h.n, dtype=np.complex128)
    for blk in h.near_blocks:
        y[blk.row_start : blk.row_stop] += blk.data @ x[blk.col_start : blk.col_stop]
        if h.symmetric and not blk.is_diagonal:
            y[blk.col_start : blk.col_stop] += blk.data.T @ x[blk.row_start : blk.row_stop]
    return y


def loop_level_matvec(h, level, x):
    """Reference level action: u (v x) per block, plus the mirror."""
    y = np.zeros(h.n, dtype=np.complex128)
    for blk in h.far_blocks.get(level, ()):
        m, n = blk.shape
        rows, cols = slice(blk.row_start, blk.row_start + m), slice(blk.col_start, blk.col_start + n)
        y[rows] += blk.u @ (blk.v @ x[cols])
        if h.symmetric:
            y[cols] += blk.v.T @ (blk.u.T @ x[rows])
    return y


def report_from_blocks(h):
    """memory_report rows recomputed from the block shapes alone."""
    near = sum((b.row_stop - b.row_start) * (b.col_stop - b.col_start) for b in h.near_blocks)
    rows = [("near", len(h.near_blocks), near)]
    for level in sorted(h.far_blocks):
        blks = h.far_blocks[level]
        rows.append((str(level), len(blks), sum(b.rank * (b.shape[0] + b.shape[1]) for b in blks)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    return rows


def packed_case(name, strip_system):
    spec, tree = strip_system["spec"], strip_system["tree"]
    if name == "strip":
        return strip_system["h"]
    if name == "symmetric-strip":
        return assemble(spec, tree, tol=1e-3, symmetric_mode=True)
    if name == "depth-0":
        mesh = discretize_strip(1.0, 10)
        return assemble(KernelSpec.for_mesh(mesh), build_cluster_tree(mesh, 16), tol=1e-3)
    mesh = discretize_disk(0.3, 16, 2.0)
    disk_tree = build_cluster_tree(mesh, 8)
    levels = [disk_tree.depth] if name == "leaf-only-disk" else None
    return assemble(KernelSpec.for_mesh(mesh), disk_tree, tol=1e-3, level_filter=levels)


@pytest.mark.parametrize("name", ["strip", "symmetric-strip", "disk", "leaf-only-disk", "depth-0"])
def test_packed_operator_matches_block_loops(name, strip_system):
    h = packed_case(name, strip_system)
    rng = np.random.default_rng(31)
    x = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    want = loop_near_matvec(h, x)
    assert close(h.near_matvec(x), want)
    for level in range(1, h.depth + 1):
        y = loop_level_matvec(h, level, x)
        assert close(h.matvec_level(level, x), y)
        want = want + y
    assert close(h.matvec(x), want)

    # one copy of every entry: the blocks view the sparse buffers, which
    # hold nothing else
    store = h.storage
    assert all(np.shares_memory(blk.data, store.near.data) for blk in h.near_blocks)
    assert store.near.data.size == sum(blk.data.size for blk in h.near_blocks)
    assert store.near.row.dtype == store.near.col.dtype == np.int32
    assert set(store.levels) == {lvl for lvl, blks in h.far_blocks.items() if blks}
    for level, (u, v) in store.levels.items():
        blks = h.far_blocks[level]
        assert all(np.shares_memory(b.u, u.data) and np.shares_memory(b.v, v.data) for b in blks)
        assert u.data.size + v.data.size == sum(b.stored_entries for b in blks)
        assert u.indices.dtype == v.indices.dtype == np.int32
    assert [r[:3] for r in memory_report(h).rows] == report_from_blocks(h)


def test_blocks_are_the_operator_storage():
    """A block cannot be rebound, and a write into it changes the operator."""
    mesh = discretize_strip(2.0, 10)
    h = assemble(KernelSpec.for_mesh(mesh), build_cluster_tree(mesh, 5), tol=1e-3, symmetric_mode=True)
    near = next(blk for blk in h.near_blocks if not blk.is_diagonal)
    far = next(blk for blks in h.far_blocks.values() for blk in blks)
    with pytest.raises(dataclasses.FrozenInstanceError):
        near.data = np.zeros_like(near.data)
    with pytest.raises(dataclasses.FrozenInstanceError):
        far.u = np.zeros_like(far.u)

    rng = np.random.default_rng(8)
    x = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    before = h.near_matvec(x)
    new = rng.standard_normal(near.data.shape) + 1j * rng.standard_normal(near.data.shape)
    near.data[...] = new
    after = h.near_matvec(x)
    assert not np.allclose(after, before)
    assert np.linalg.norm(after - loop_near_matvec(h, x)) <= 1e-14 * np.linalg.norm(after)
    zn = h.near_matrix().toarray()
    rows, cols = slice(near.row_start, near.row_stop), slice(near.col_start, near.col_stop)
    assert np.array_equal(zn[rows, cols], new)
    assert np.array_equal(zn[cols, rows], new.T)
