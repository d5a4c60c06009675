import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp

from hpss import (
    KernelSpec,
    assemble,
    build_block_partition,
    build_cluster_tree,
    discretize_circle,
    discretize_disk,
    discretize_strip,
    memory_report,
)
import hpss
from conftest import applied_far_blocks, applied_near_blocks, halved_strip, stored_near_blocks


def entries_by_label(rep):
    return {label: entries for label, _, entries, _ in rep.rows}


def coverage_counts(tree, partition):
    """Count how many blocks claim each (i, j) index pair."""
    n = tree.n_elements
    hits = np.zeros((n, n), dtype=int)
    for t, s in partition.near_pairs:
        nt, ns = tree.nodes[t], tree.nodes[s]
        hits[nt.start : nt.stop, ns.start : ns.stop] += 1
    for pairs in partition.far_pairs.values():
        for t, s in pairs:
            nt, ns = tree.nodes[t], tree.nodes[s]
            hits[nt.start : nt.stop, ns.start : ns.stop] += 1
    return hits


def test_partition_tiles_index_square_exactly():
    for mesh, leaf in ((discretize_strip(4.0, 16), 8), (discretize_disk(0.3, 12, 2.0), 8)):
        tree = build_cluster_tree(mesh, leaf)
        partition = build_block_partition(tree, eta=1.0)
        hits = coverage_counts(tree, partition)
        assert np.all(hits == 1), f"tiling broken for {mesh.kind}"


def numpy_box_partition(tree, eta):
    """The descent with the admissibility test ``is_admissible`` had before
    it read the boxes as floats: numpy's box distance and diagonals."""

    def box_distance(amin, amax, bmin, bmax):
        gap = np.maximum(0.0, np.maximum(bmin - amax, amin - bmax))
        return float(np.linalg.norm(gap))

    def corners(node):
        return np.array(node.box[:2]), np.array(node.box[2:])

    def admissible(nt, ns):
        dist = box_distance(*corners(nt), *corners(ns))
        diameters = (float(np.linalg.norm(hi - lo)) for lo, hi in map(corners, (nt, ns)))
        return eta * dist >= min(diameters)

    near, far = [], {level: [] for level in range(1, tree.depth + 1)}

    def descend(t, s, level):
        nt, ns = tree.nodes[t], tree.nodes[s]
        if t != s and admissible(nt, ns):
            far[level].append((t, s))
        elif nt.is_leaf and ns.is_leaf:
            near.append((t, s))
        else:
            for tc in nt.children:
                for sc in ns.children:
                    descend(tc, sc, level + 1)

    descend(0, 0, 0)
    return near, far


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "mesh, leaf",
    [(discretize_strip(25.6, 10), 8), (discretize_circle(2.0, 16), 8), (discretize_disk(0.5, 12, 2.0), 8)],
    ids=["strip", "circle", "disk"],
)
def test_partition_is_the_numpy_box_descent(mesh, leaf, eta):
    tree = build_cluster_tree(mesh, leaf)
    partition = build_block_partition(tree, eta)
    near, far = numpy_box_partition(tree, eta)
    assert partition.near_pairs == near
    assert partition.far_pairs == far
    assert any(far.values())


@pytest.mark.parametrize("eta", [0.0, -1.0, float("nan"), float("inf")])
def test_partition_refuses_nonpositive_eta_even_for_one_leaf(eta):
    tree = build_cluster_tree(discretize_strip(1.0, 10), 16)
    assert tree.depth == 0  # the descent tests no pair at all
    with pytest.raises(ValueError, match="eta must be positive and finite"):
        build_block_partition(tree, eta)


def test_strip_partition_structure():
    tree = build_cluster_tree(discretize_strip(8.0, 10), 10)
    assert tree.depth == 3  # 80 elements, 8 leaves
    partition = build_block_partition(tree, eta=1.0)
    leaf_nodes = {node.index for node in tree.nodes if node.level == tree.depth}
    # every leaf keeps its own dense diagonal block
    near_self = {(t, s) for t, s in partition.near_pairs if t == s}
    assert len(near_self) == 8
    # near pairs live only between touching leaves: a banded layout
    for t, s in partition.near_pairs:
        assert t in leaf_nodes and s in leaf_nodes
        nt, ns = tree.nodes[t], tree.nodes[s]
        assert abs(nt.start - ns.start) <= nt.size  # adjacent ranges only
    # far field appears at more than one level, coarser blocks higher up
    levels = [lvl for lvl, pairs in partition.far_pairs.items() if pairs]
    assert len(levels) >= 2
    coarse = min(levels)
    sizes_coarse = [tree.nodes[t].size for t, _ in partition.far_pairs[coarse]]
    sizes_leaf = [tree.nodes[t].size for t, _ in partition.far_pairs[tree.depth]]
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
    assert entries_by_label(rep)["near"] == rep.total_entries == mesh.n_elements**2


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
    # the full matvec sums the levels in one stacked product, so only
    # rounding may differ
    full = h.matvec(x)
    assert np.linalg.norm(total - full) <= 1e-14 * np.linalg.norm(full)


@pytest.mark.parametrize("name", ["strip", "disk", "halved-strip"])
def test_a_level_product_takes_a_left_factor_in_place_of_the_stored_one(name, strip_system):
    """``matvec_level(level, x, left)`` is left (R_l x)[swap]: the stored L_l
    handed in dense gives the level product, and any N x w_l matrix replaces it."""
    h, _ = packed_case(name, strip_system)
    rng = np.random.default_rng(34)
    x = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    for level, part in h.level_factors.items():
        want = h.matvec_level(level, x)
        dense = part.left.toarray()
        assert np.linalg.norm(h.matvec_level(level, x, dense) - want) <= 1e-14 * np.linalg.norm(want)
        other = rng.standard_normal(dense.shape)
        assert np.allclose(h.matvec_level(level, x, other), other @ (part.right @ x)[part.swap], rtol=1e-14, atol=0)


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
    leaf_only = assemble(spec, tree, tol=1e-3, coarsest=tree.depth)
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
    assert not leaf_only.complete
    assert full.complete


def test_assemble_rejects_negative_tolerance(monkeypatch):
    def no_fill(*args):
        raise AssertionError("entries were evaluated before the tolerance check")

    monkeypatch.setattr("hpss.hmatrix.entry_function", no_fill)
    # a 4-wavelength strip has no far blocks, a 16-wavelength one has some
    for length in (4.0, 16.0):
        mesh = discretize_strip(length, 10)
        with pytest.raises(ValueError, match=re.escape("compression tolerance must be in [0, 1), got -1")):
            assemble(KernelSpec.for_mesh(mesh), build_cluster_tree(mesh, 32), tol=-1.0)


@pytest.mark.parametrize(
    "tol, eta, message",
    [
        (float("nan"), 1.0, "compression tolerance must be in [0, 1), got nan"),
        (1e-3, float("nan"), "eta must be positive and finite, got nan"),
        (1e-3, float("inf"), "eta must be positive and finite, got inf"),
    ],
    ids=["tol", "eta", "eta-inf"],
)
def test_assemble_refuses_a_nan_tolerance_or_eta(monkeypatch, tol, eta, message):
    """A NaN tolerance would store every far block at rank 0, a NaN eta
    would make every leaf pair near and an infinite one would make pairs
    far that no finite eta admits; each is refused before any fill."""

    def no_fill(*args):
        raise AssertionError("entries were evaluated before the check")

    monkeypatch.setattr("hpss.hmatrix.entry_function", no_fill)
    mesh = discretize_strip(25.6, 10)
    tree = build_cluster_tree(mesh, 32)
    assert any(build_block_partition(tree).far_pairs.values())
    with pytest.raises(ValueError, match=re.escape(message)):
        assemble(KernelSpec.for_mesh(mesh), tree, tol=tol, eta=eta)


@pytest.mark.parametrize("tol", [1.0, 1.5, float("inf")])
def test_assemble_refuses_a_tolerance_of_one_or_more(monkeypatch, tol):
    """Recompression at such a tolerance keeps no singular value, so every
    far block would be stored at rank 0; it is refused before any fill."""

    def no_fill(*args):
        raise AssertionError("entries were evaluated before the check")

    monkeypatch.setattr("hpss.hmatrix.entry_function", no_fill)
    mesh = discretize_strip(25.6, 10)
    tree = build_cluster_tree(mesh, 32)
    assert any(build_block_partition(tree).far_pairs.values())
    with pytest.raises(ValueError, match=re.escape(f"compression tolerance must be in [0, 1), got {tol:g}")):
        assemble(KernelSpec.for_mesh(mesh), tree, tol=tol)


@pytest.mark.parametrize(
    "mesh, leaf",
    [(discretize_strip(25.6, 10), 8), (discretize_strip(2.0, 10), 5), (discretize_disk(0.5, 12, 2.0), 8)],
    ids=["strip", "depth-2-strip", "disk"],
)
def test_complete_is_the_same_assembled_or_kept(mesh, leaf):
    """From every coarsest level c, ``complete`` is true exactly when no
    level above c has admissible pairs, whether the operator is assembled
    from c or kept from the full one."""
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, leaf)
    partition = build_block_partition(tree)
    full = assemble(spec, tree, tol=1e-3)
    assert full.complete
    for coarsest in range(1, tree.depth + 1):
        want = not any(partition.far_pairs[level] for level in range(1, coarsest))
        assert assemble(spec, tree, tol=1e-3, coarsest=coarsest).complete == want
        assert full.keep_levels(coarsest).complete == want
    if tree.depth == 2:
        # the halves of a strip touch: level 1 has no pairs, so keeping
        # levels 2.. drops nothing
        assert not partition.far_pairs[1] and full.keep_levels(2).complete
    else:
        assert not full.keep_levels(tree.depth).complete


def test_non_finite_far_block_is_named_inside_its_stack(monkeypatch):
    mesh = discretize_strip(16.0, 10)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, 10)
    level = tree.depth
    pairs = build_block_partition(tree).far_pairs[level]
    shapes = {(tree.nodes[t].size, tree.nodes[s].size) for t, s in pairs}
    assert len(pairs) >= 4 and len(shapes) == 1  # one stack of several blocks
    bad = tree.nodes[pairs[2][0]], tree.nodes[pairs[2][1]]
    bad_rows = tree.permutation[bad[0].start : bad[0].stop]
    bad_cols = tree.permutation[bad[1].start : bad[1].stop]
    z_block = hpss.kernels.z_block

    def poisoned(spec, rows, cols):
        block = z_block(spec, rows, cols)
        hit = np.isin(np.asarray(rows), bad_rows)[..., :, None] & np.isin(np.asarray(cols), bad_cols)[..., None, :]
        block[hit] = np.nan
        return block

    monkeypatch.setattr(hpss.kernels, "z_block", poisoned)
    where = f"level {level}, rows [{bad[0].start}, {bad[0].stop}), cols [{bad[1].start}, {bad[1].stop})"
    with pytest.raises(RuntimeError, match=re.escape(where) + ".*non-finite"):
        assemble(spec, tree, tol=1e-3)


STACK_MESHES = {
    "strip": (lambda: discretize_strip(40.0, 10), 8),
    "circle629": (lambda: discretize_circle(5.0, 20), 32),
    "disk2k5": (lambda: discretize_disk(1.0, 20, 2.0), 32),
}


@pytest.mark.parametrize("name", list(STACK_MESHES))
def test_far_buffers_do_not_depend_on_the_aca_stacks(monkeypatch, name):
    """ACA gives every block of a stack the pivots and rank it gets alone,
    so one block per stack and one stack per shape store the default's
    far data, indices, pointers and swap byte for byte."""
    make, leaf = STACK_MESHES[name]
    mesh = make()
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, leaf)
    aca = hpss.hmatrix.aca
    stacks = []

    def counted(entry_fn, rows, cols, tol):
        stacks.append(len(rows))
        return aca(entry_fn, rows, cols, tol)

    monkeypatch.setattr(hpss.hmatrix, "aca", counted)

    def far_bytes():
        stacks.clear()
        far = assemble(spec, tree, tol=1e-3).far
        arrays = (far.left.data, far.left.indices, far.left.indptr, far.right.data, far.right.indices, far.right.indptr, far.swap)
        return [array.tobytes() for array in arrays], list(stacks)

    nodes = tree.nodes
    shapes = {
        (level, nodes[t].size, nodes[s].size)
        for level, pairs in build_block_partition(tree).far_pairs.items()
        for t, s in pairs
        if not spec.reciprocal or nodes[t].start < nodes[s].start
    }
    want, default_stacks = far_bytes()
    for entries, stack_count in ((1, sum(default_stacks)), (2**40, len(shapes))):
        monkeypatch.setattr(hpss.hmatrix, "ACA_STACK_ENTRIES", entries)
        got, got_stacks = far_bytes()
        assert got == want
        assert len(got_stacks) == stack_count and sum(got_stacks) == sum(default_stacks)


def test_memory_report_totals(strip_system):
    h = strip_system["h"]
    rep = memory_report(h)
    n = h.n
    rows = entries_by_label(rep)
    far_sum = sum(v for k, v in rows.items() if k not in ("near", "total"))
    assert rep.total_entries == rows["near"] + far_sum
    assert rows["total"] == rep.total_entries
    assert 0 < rep.total_entries < n * n
    stored = sum(block.size for _, _, block in stored_near_blocks(h)) + sum(
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
    """Reference near action: one dense product per stored or mirrored block."""
    y = np.zeros(h.n, dtype=np.complex128)
    for r0, c0, block in applied_near_blocks(h):
        m, n = block.shape
        y[r0 : r0 + m] += block @ x[c0 : c0 + n]
    return y


def loop_level_matvec(h, mirror, level, x):
    """Reference level action: u (v x) per stored or mirrored block."""
    y = np.zeros(h.n, dtype=np.complex128)
    for r0, c0, u, v in applied_far_blocks(h, level, mirror):
        y[r0 : r0 + u.shape[0]] += u @ (v @ x[c0 : c0 + v.shape[1]])
    return y


def stored_pairs(h, mirror, pairs):
    """The pairs the mirror rule stores: all of them without mirrors, else
    the diagonal ones and those whose row start lies below their col start."""
    nodes = h.tree.nodes
    return [(t, s) for t, s in pairs if t == s or not mirror or nodes[t].start < nodes[s].start]


def report_from_blocks(h, mirror):
    """memory_report rows recomputed from the partition, the mirror rule
    and the far blocks' shapes."""
    nodes = h.tree.nodes
    partition = build_block_partition(h.tree)
    near_pairs = stored_pairs(h, mirror, partition.near_pairs)
    rows = [("near", len(near_pairs), sum(nodes[t].size * nodes[s].size for t, s in near_pairs))]
    for level in sorted(h.far_blocks):
        blks = h.far_blocks[level]
        assert len(blks) == len(stored_pairs(h, mirror, partition.far_pairs[level]))
        rows.append((str(level), len(blks), sum(b.rank * (b.shape[0] + b.shape[1]) for b in blks)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    return rows


def packed_case(name, strip_system):
    """The operator of case ``name`` and whether it mirrors (its kernel is
    reciprocal)."""
    if name == "strip":
        return strip_system["h"], strip_system["spec"].reciprocal
    if name == "depth-0":
        mesh = discretize_strip(1.0, 10)
        spec = KernelSpec.for_mesh(mesh)
        return assemble(spec, build_cluster_tree(mesh, 16), tol=1e-3), spec.reciprocal
    if name.endswith("halved-strip"):
        mesh, leaf = halved_strip(7), 32
    else:
        mesh, leaf = discretize_disk(0.3, 16, 2.0), 8
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, leaf)
    coarsest = tree.depth if name.startswith("leaf-only") else 1
    return assemble(spec, tree, tol=1e-3, coarsest=coarsest), spec.reciprocal


# mirrored (disk) or not (halved-strip), each with every level and with
# the leaf level only
CASES = ["strip", "disk", "leaf-only-disk", "depth-0", "halved-strip", "leaf-only-halved-strip"]


@pytest.mark.parametrize("name", CASES)
def test_packed_operator_matches_block_loops(name, strip_system):
    h, mirror = packed_case(name, strip_system)
    assert mirror == (not name.endswith("halved-strip"))
    assert h.complete == (not name.startswith("leaf-only"))
    rng = np.random.default_rng(31)
    x = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    want = loop_near_matvec(h, x)
    assert close(h.near_matvec(x), want)
    for level in range(1, h.depth + 1):
        y = loop_level_matvec(h, mirror, level, x)
        assert close(h.matvec_level(level, x), y)
        want = want + y
    assert close(h.matvec(x), want)

    # one copy of every entry: the stacks hold each entry of the stored
    # near pairs once, diagonal stacks first, and with the mirrors they
    # cover the near pairs once
    stacks = h.near.stacks
    assert all(stack.data.flags.c_contiguous for stack in stacks)
    diagonal = [bool(np.array_equal(stack.row_starts, stack.col_starts)) for stack in stacks]
    assert diagonal == sorted(diagonal, reverse=True)
    assert [stack.mirrored for stack in stacks] == [mirror and not d for d in diagonal]
    nodes = h.tree.nodes
    partition = build_block_partition(h.tree)
    stored = [(nodes[t], nodes[s]) for t, s in stored_pairs(h, mirror, partition.near_pairs)]
    coords = [
        (stack.row_starts[:, None, None] + np.arange(stack.data.shape[1])[:, None],
         stack.col_starts[:, None, None] + np.arange(stack.data.shape[2]))
        for stack in stacks
    ]
    flat = np.concatenate([(r * h.n + c).ravel() for r, c in coords])
    assert flat.size == np.unique(flat).size == sum(nt.size * ns.size for nt, ns in stored)
    applied = np.concatenate([flat] + [(c * h.n + r).ravel() for (r, c), s in zip(coords, stacks) if s.mirrored])
    near_pairs = [(nodes[t], nodes[s]) for t, s in partition.near_pairs]
    assert applied.size == np.unique(applied).size == sum(nt.size * ns.size for nt, ns in near_pairs)

    # the far factors view one buffer that holds each stored far entry
    # once; with mirrors, left and right are the same arrays and swap
    # exchanges each level's halves, without them right follows left in
    # the buffer and swap is the identity
    far, blocks = h.far, [b for blks in h.far_blocks.values() for b in blks]
    k, entries = sum(b.rank for b in blocks), sum(b.stored_entries for b in blocks)
    width = 2 * k if mirror else k
    assert far.left.shape == (h.n, width) and far.right.shape == (width, h.n)
    assert np.array_equal(np.sort(far.swap), np.arange(width))
    assert np.array_equal(far.swap[far.swap], np.arange(width))
    if mirror:
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(far.left, attr), getattr(far.right, attr))
        assert entries == 0 or np.shares_memory(far.left.data, far.right.data)
        assert far.left.data.size == entries
    else:
        assert np.array_equal(far.swap, np.arange(k))
        assert far.left.data.size == sum(b.rank * b.shape[0] for b in blocks)
        assert far.left.data.size + far.right.data.size == entries
    assert set(h.level_factors) == {lvl for lvl, blks in h.far_blocks.items() if blks}
    for level, part in h.level_factors.items():
        blks = h.far_blocks[level]
        level_entries = sum(b.stored_entries for b in blks)
        for mat, whole in ((part.left, far.left), (part.right, far.right)):
            assert np.shares_memory(mat.data, whole.data) and np.shares_memory(mat.indices, whole.indices)
            assert mat.indices.dtype == mat.indptr.dtype == np.int32
        assert all(np.shares_memory(b.u, far.left.data) and np.shares_memory(b.v, far.right.data) for b in blks)
        assert part.width == (2 if mirror else 1) * sum(b.rank for b in blks)
        assert (part.left.data.size if mirror else part.left.data.size + part.right.data.size) == level_entries
    assert far.left.indices.dtype == far.right.indices.dtype == np.int32
    assert [r[:3] for r in memory_report(h).rows] == report_from_blocks(h, mirror)


def near_mask(h):
    """Boolean N x N mask of the near pattern, mirrors included."""
    mask = np.zeros((h.n, h.n), dtype=bool)
    for t, s in build_block_partition(h.tree).near_pairs:
        nt, ns = h.tree.nodes[t], h.tree.nodes[s]
        mask[nt.start : nt.stop, ns.start : ns.stop] = True
    return mask


def test_non_reciprocal_mesh_stores_every_block_and_mirrors_none():
    mesh = halved_strip(40)
    spec = KernelSpec.for_mesh(mesh)
    assert not spec.reciprocal
    tree = build_cluster_tree(mesh, 32)
    h = assemble(spec, tree, tol=1e-3)
    partition = build_block_partition(tree)
    assert not any(stack.mirrored for stack in h.near.stacks)
    nodes = tree.nodes
    starts = lambda pairs: sorted((nodes[t].start, nodes[s].start) for t, s in pairs)
    assert sorted((r0, c0) for r0, c0, _ in stored_near_blocks(h)) == starts(partition.near_pairs)
    for level, pairs in partition.far_pairs.items():
        assert sorted((b.row_start, b.col_start) for b in h.far_blocks[level]) == starts(pairs)
    assert np.array_equal(h.far.swap, np.arange(h.far.width))

    # its action against dense Z, level by level, within the ACA tolerance
    z = hpss.assemble_dense(spec)[np.ix_(tree.permutation, tree.permutation)]
    rng = np.random.default_rng(4)
    x = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    assert np.linalg.norm(h.matvec(x) - z @ x) <= 5e-3 * np.linalg.norm(z @ x)
    assert np.array_equal(h.near.csr().tocsc().toarray(), np.where(near_mask(h), z, 0))
    held = [level for level, pairs in partition.far_pairs.items() if pairs]
    assert len(held) >= 2
    for level in held:
        z_level = np.zeros_like(z)
        for t, s in partition.far_pairs[level]:
            rows, cols = slice(nodes[t].start, nodes[t].stop), slice(nodes[s].start, nodes[s].stop)
            z_level[rows, cols] = z[rows, cols]
        want = z_level @ x
        assert np.linalg.norm(h.matvec_level(level, x) - want) <= 5e-3 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "mesh, leaf",
    [(discretize_strip(25.6, 10), 32), (discretize_circle(2.0, 16), 16), (discretize_disk(0.5, 12, 2.0), 16)],
    ids=["strip", "circle", "disk"],
)
def test_reciprocal_near_matrix_is_dense_z_on_the_near_pattern(mesh, leaf):
    spec = KernelSpec.for_mesh(mesh)
    assert spec.reciprocal
    tree = build_cluster_tree(mesh, leaf)
    h = assemble(spec, tree, tol=1e-3)
    assert any(stack.mirrored for stack in h.near.stacks)
    z = hpss.assemble_dense(spec)[np.ix_(tree.permutation, tree.permutation)]
    zn = h.near.csr().tocsc().toarray()
    mask = near_mask(h)
    assert np.array_equal(zn[mask].view(np.uint64), z[mask].view(np.uint64))
    assert not np.any(zn[~mask])


def test_blocks_are_the_operator_storage():
    """A stack or block cannot be rebound, and a write into a stacked block
    changes the operator, at the block and, transposed, at its mirror."""
    mesh = discretize_strip(2.0, 10)
    spec = KernelSpec.for_mesh(mesh)
    h = assemble(spec, build_cluster_tree(mesh, 5), tol=1e-3)
    assert spec.reciprocal
    for stack in h.near.stacks:
        stack.data.flags.writeable = True  # assembly froze them
    r0, c0, near = next(blk for blk in stored_near_blocks(h) if blk[0] != blk[1])
    far = next(blk for blks in h.far_blocks.values() for blk in blks)
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.near.stacks[0].data = np.zeros_like(h.near.stacks[0].data)
    with pytest.raises(dataclasses.FrozenInstanceError):
        far.u = np.zeros_like(far.u)

    rng = np.random.default_rng(8)
    x = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    before = h.near_matvec(x)
    new = rng.standard_normal(near.shape) + 1j * rng.standard_normal(near.shape)
    near[...] = new
    after = h.near_matvec(x)
    assert not np.allclose(after, before)
    assert np.linalg.norm(after - loop_near_matvec(h, x)) <= 1e-14 * np.linalg.norm(after)
    zn = h.near.csr().tocsc().toarray()
    m, n = near.shape
    assert np.array_equal(zn[r0 : r0 + m, c0 : c0 + n], new)
    assert np.array_equal(zn[c0 : c0 + n, r0 : r0 + m], new.T)


def test_operators_compare_and_hash_by_identity():
    mesh = discretize_strip(4.0, 10)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, 10)
    h = assemble(spec, tree, 1e-3)
    again = assemble(spec, tree, 1e-3)
    assert h == h and h != again and not h == again
    assert len({h, again, h}) == 2


@pytest.mark.parametrize("name", ["strip", "disk", "depth-0", "halved-strip"])
def test_near_matrix_is_the_canonical_csc_of_the_blocks(name, strip_system):
    """The CSC of ``NearField.csr`` has the same bytes whatever order the
    stored and mirrored blocks are in."""
    h, _ = packed_case(name, strip_system)
    got = h.near.csr().tocsc()
    assert got.has_sorted_indices
    rng = np.random.default_rng(12)
    applied = applied_near_blocks(h)
    for order in (np.arange(len(applied)), rng.permutation(len(applied))):
        blocks = [applied[i] for i in order]
        dense = np.zeros((h.n, h.n), dtype=np.complex128)
        rows, cols = [], []
        for r0, c0, block in blocks:
            m, n = block.shape
            dense[r0 : r0 + m, c0 : c0 + n] = block
            r, c = np.meshgrid(np.arange(r0, r0 + m), np.arange(c0, c0 + n), indexing="ij")
            rows.append(r.ravel())
            cols.append(c.ravel())
        data = np.concatenate([block.ravel() for _, _, block in blocks])
        rows, cols = np.concatenate(rows).astype(np.int32), np.concatenate(cols).astype(np.int32)
        for want in (sp.csc_matrix(dense), sp.coo_matrix((data, (rows, cols)), shape=dense.shape).tocsc()):
            assert want.nnz == data.size
            for attr in ("data", "indices", "indptr"):
                assert getattr(got, attr).dtype == getattr(want, attr).dtype
                assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()


@pytest.mark.parametrize("name", ["strip", "disk", "halved-strip"])
def test_near_coo_converts_to_the_canonical_csr(name, strip_system):
    """The one COO -> CSR conversion in ``NearField.csr`` gives the arrays
    the canonical CSC's ``tocsr`` does."""
    h, _ = packed_case(name, strip_system)
    got = h.near.csr()
    want = got.tocsc().tocsr()
    assert got.has_sorted_indices
    for attr in ("data", "indices", "indptr"):
        assert getattr(got, attr).dtype == getattr(want, attr).dtype
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()


@pytest.mark.parametrize("name", CASES)
def test_near_csr_is_the_canonical_csr_the_factorization_reads(name, strip_system, monkeypatch):
    """``NearField.csr`` has the bytes of the canonical CSR of the applied
    blocks, and those are the arrays the near factorization reads, as the
    CSC of Z_N^T."""
    h, _ = packed_case(name, strip_system)
    got = h.near.csr()
    rows, cols, data = [], [], []
    for r0, c0, block in applied_near_blocks(h):
        m, n = block.shape
        r, c = np.meshgrid(np.arange(r0, r0 + m), np.arange(c0, c0 + n), indexing="ij")
        rows.append(r.ravel())
        cols.append(c.ravel())
        data.append(block.ravel())
    rows, cols, data = (np.concatenate(parts) for parts in (rows, cols, data))
    want = sp.coo_matrix((data, (rows.astype(np.int32), cols.astype(np.int32))), shape=(h.n, h.n)).tocsr()
    factored = []
    real_splu = hpss.scaling.splu
    monkeypatch.setattr(hpss.scaling, "splu", lambda a, **kw: factored.append(a) or real_splu(a, **kw))
    hpss.scaling._factor_near_field(h)
    (read,) = factored
    assert read.format == "csc"
    for attr in ("data", "indices", "indptr"):
        assert getattr(got, attr).dtype == getattr(want, attr).dtype == getattr(read, attr).dtype
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes() == getattr(read, attr).tobytes()


KEPT_LEVELS = [list(range(coarsest, 6)) for coarsest in range(1, 6)]


@pytest.mark.parametrize("reciprocal", [True, False])
@pytest.mark.parametrize("keep", KEPT_LEVELS)
def test_kept_levels_act_as_a_filtered_assembly(reciprocal, keep):
    """``keep_levels`` from each coarsest level of a strip, mirrored or not,
    acts as an assembly from that level (see ``check_kept_levels``)."""
    mesh = discretize_strip(25.6, 10) if reciprocal else halved_strip(100)
    assert KernelSpec.for_mesh(mesh).reciprocal == reciprocal
    check_kept_levels(mesh, keep)


@pytest.mark.parametrize("keep", KEPT_LEVELS)
def test_kept_disk_levels_act_as_a_filtered_assembly(keep):
    """The same on a disk, whose 2-D cluster tree holds far blocks of
    several shapes on levels 3 to 5 and none above."""
    check_kept_levels(discretize_disk(0.3, 16, 2.0), keep)


def check_kept_levels(mesh, keep):
    """``keep_levels`` from ``keep[0]`` shares the near field and acts bit
    for bit as an assembly from that level; the run of levels ``keep``
    names ends at the leaf level 5 of the tree at leaf size 8."""
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, 8)
    assert tree.depth == 5
    full = assemble(spec, tree, tol=1e-3)
    kept = full.keep_levels(keep[0])
    fresh = assemble(spec, tree, tol=1e-3, coarsest=keep[0])
    assert kept.near is full.near and kept.complete == fresh.complete
    assert sorted(kept.far_blocks) == sorted(fresh.far_blocks) == keep and kept.stats == fresh.stats
    assert memory_report(kept).rows == memory_report(fresh).rows
    rng = np.random.default_rng(6)
    x = rng.standard_normal(full.n) + 1j * rng.standard_normal(full.n)
    assert np.array_equal(kept.matvec(x), fresh.matvec(x))
    for level in range(1, tree.depth + 1):
        assert np.array_equal(kept.matvec_level(level, x), fresh.matvec_level(level, x))
        assert np.array_equal(kept.matvec_level(level, x), full.matvec_level(level, x) if level in keep else 0 * x)
    # a kept operator views the suffix of the full far buffer its levels fill
    assert kept.far.width == fresh.far.width
    assert kept.far.width == 0 or np.shares_memory(kept.far.left.data, full.far.left.data)
    # and keeps again, from its own coarsest level down
    again = kept.keep_levels(keep[-1])
    assert np.array_equal(again.matvec(x), full.keep_levels(keep[-1]).matvec(x))


def test_products_refuse_a_vector_of_the_wrong_shape(strip_system):
    h = strip_system["h"]
    maps = {
        "near_matvec": h.near_matvec,
        "matvec_level": lambda x: h.matvec_level(h.depth, x),
        "matvec": h.matvec,
        "permute": h.permute,
        "unpermute": h.unpermute,
    }
    for name, apply in maps.items():
        for shape in ((h.n + 1,), (h.n + 5,), (h.n - 1,), (1,), (h.n, 1), (1, h.n)):
            with pytest.raises(ValueError, match=re.escape(f"expected a vector of shape ({h.n},), got shape {shape}")):
                apply(np.ones(shape, dtype=np.complex128))

