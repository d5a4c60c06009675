"""Level-separated hierarchical matrix: partition, assembly, and matvecs.

The block partition descends the cluster-tree pair graph from the root
pair.  An admissible same-level pair becomes a far block attached at that
level (coarsest-admissible attachment: its parent pair was not admissible);
a non-admissible leaf pair becomes a dense near block; everything else
recurses.  Far blocks therefore live on levels 1..L and the near field is
a union of leaf-pair blocks that always includes every diagonal leaf pair.

Storage is the standard sparse H-matrix form: the near field Z_N is one
COO matrix, and far level l is the product U_l V_l of a CSC factor U_l
(N x K_l) and a CSR factor V_l (K_l x N), K_l being the level's summed
block ranks.  Every block's data is one contiguous run of those matrices'
buffers, and ``NearBlock.data``, ``LowRankBlock.u`` and ``LowRankBlock.v``
are views of it, so no entry is stored twice; indices are int32.  A near
matvec is one sparse product and a level matvec two, and the near
factorization in ``scaling`` factors the same matrix.

Far levels can be assembled selectively (``level_filter``); skipped levels
simply contribute nothing, which downstream solvers treat as exact zeros.
``symmetric_mode`` stores one of each off-diagonal block pair and applies
the mirrored action with plain (unconjugated) transposes of the same
sparse matrices; it is allowed only after a runtime reciprocity probe of
the kernel.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np
import scipy.sparse as sp

from .compression import LowRankBlock, aca, recompress
from .geometry import ClusterTree, is_admissible
from .kernels import KernelSpec, entry_function

BYTES_PER_ENTRY = 16  # complex128
RECIPROCITY_PROBE_PAIRS = 16
RECIPROCITY_RTOL = 1e-10


@dataclass(frozen=True)
class NearBlock:
    """Dense leaf-pair block in tree-permuted coordinates.

    Inside an ``HMatrix``, ``data`` is a view of its sparse Z_N.
    """

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int
    data: np.ndarray

    @property
    def is_diagonal(self) -> bool:
        return self.row_start == self.col_start and self.row_stop == self.col_stop

    @property
    def stored_entries(self) -> int:
        return self.data.size


@dataclass
class BlockPartition:
    """Near/far pair lists produced by the admissibility descent."""

    tree: ClusterTree
    eta: float
    near_pairs: List[Tuple[int, int]]
    far_pairs: Dict[int, List[Tuple[int, int]]]


def build_block_partition(tree: ClusterTree, eta: float = 1.0) -> BlockPartition:
    """Classify cluster pairs by recursive admissibility descent."""
    near: List[Tuple[int, int]] = []
    far: Dict[int, List[Tuple[int, int]]] = {lvl: [] for lvl in range(1, tree.depth + 1)}

    def descend(t: int, s: int, level: int) -> None:
        # self pairs are never admissible: their box distance is zero
        if t != s and is_admissible(tree, t, s, eta):
            far[level].append((t, s))
            return
        nt, ns = tree.nodes[t], tree.nodes[s]
        if nt.is_leaf and ns.is_leaf:
            near.append((t, s))
            return
        for tc in nt.children:
            for sc in ns.children:
                descend(tc, sc, level + 1)

    descend(0, 0, 0)
    return BlockPartition(tree, eta, near, far)


@dataclass
class SparseStorage:
    """The stored entries of an H-matrix as sparse matrices.

    ``near`` is Z_N in COO form, one C-ordered block after another with the
    diagonal blocks first; ``near_mirror`` is the transpose of its
    off-diagonal part (a slice of the same buffers), set in symmetric mode
    only.  ``levels`` maps each far level that holds blocks to (U_l, V_l).
    """

    near: sp.coo_matrix
    near_mirror: Optional[sp.coo_matrix]
    levels: Dict[int, Tuple[sp.csc_matrix, sp.csr_matrix]]


def _near_storage(
    geometry: List[Tuple[int, int, int, int]], n: int, symmetric: bool
) -> Tuple[List[NearBlock], sp.coo_matrix, Optional[sp.coo_matrix]]:
    """Near blocks with unfilled data viewing one COO matrix Z_N.

    ``geometry`` lists (row_start, row_stop, col_start, col_stop) per block,
    and the returned blocks keep that order.  In the buffers the diagonal
    blocks come first, so the off-diagonal part is a slice.
    """
    sizes = [(r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in geometry]
    diagonal = [r0 == c0 and r1 == c1 for r0, r1, c0, c1 in geometry]
    offsets = [0] * len(geometry)
    start = 0
    for i in sorted(range(len(geometry)), key=lambda i: not diagonal[i]):
        offsets[i] = start
        start += sizes[i]
    data = np.empty(start, dtype=np.complex128)
    rows = np.empty(start, dtype=np.int32)
    cols = np.empty(start, dtype=np.int32)
    blocks: List[NearBlock] = []
    for (r0, r1, c0, c1), off, size in zip(geometry, offsets, sizes):
        run = slice(off, off + size)
        rows[run].reshape(r1 - r0, c1 - c0)[...] = np.arange(r0, r1, dtype=np.int32)[:, None]
        cols[run].reshape(r1 - r0, c1 - c0)[...] = np.arange(c0, c1, dtype=np.int32)
        blocks.append(NearBlock(r0, r1, c0, c1, data[run].reshape(r1 - r0, c1 - c0)))
    near = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    mirror = None
    if symmetric:
        off = sum(size for size, diag in zip(sizes, diagonal) if diag)
        mirror = sp.coo_matrix((data[off:], (cols[off:], rows[off:])), shape=(n, n))
    return blocks, near, mirror


def _level_storage(
    blocks: List[LowRankBlock], n: int
) -> Tuple[List[LowRankBlock], Tuple[sp.csc_matrix, sp.csr_matrix]]:
    """Copy one level's factors into U_l (CSC) and V_l (CSR).

    Each column of U_l and each row of V_l belongs to one block, so a
    block's u is one Fortran-ordered run of U_l's buffer and its v one
    C-ordered run of V_l's.  The returned blocks view those runs.
    """
    ranks = [blk.rank for blk in blocks]
    heights = [blk.shape[0] for blk in blocks]
    widths = [blk.shape[1] for blk in blocks]
    u_ptr = np.concatenate([[0], np.cumsum(np.repeat(heights, ranks))]).astype(np.int32)
    v_ptr = np.concatenate([[0], np.cumsum(np.repeat(widths, ranks))]).astype(np.int32)
    u_data = np.empty(int(u_ptr[-1]), dtype=np.complex128)
    v_data = np.empty(int(v_ptr[-1]), dtype=np.complex128)
    u_rows = np.empty(u_data.size, dtype=np.int32)
    v_cols = np.empty(v_data.size, dtype=np.int32)
    packed: List[LowRankBlock] = []
    us = vs = 0
    for blk, k, m, w in zip(blocks, ranks, heights, widths):
        # the k columns of u, each m long; the k rows of v, each w long
        u_run, v_run = slice(us, us + k * m), slice(vs, vs + k * w)
        u_rows[u_run].reshape(k, m)[...] = np.arange(blk.row_start, blk.row_start + m, dtype=np.int32)
        v_cols[v_run].reshape(k, w)[...] = np.arange(blk.col_start, blk.col_start + w, dtype=np.int32)
        u = u_data[u_run].reshape(k, m).T
        v = v_data[v_run].reshape(k, w)
        u[...] = blk.u
        v[...] = blk.v
        packed.append(LowRankBlock(blk.row_start, blk.col_start, u, v, blk.level))
        us, vs = u_run.stop, v_run.stop
    k_total = sum(ranks)
    u_mat = sp.csc_matrix((u_data, u_rows, u_ptr), shape=(n, k_total))
    v_mat = sp.csr_matrix((v_data, v_cols, v_ptr), shape=(k_total, n))
    return packed, (u_mat, v_mat)


@dataclass
class HMatrix:
    """Assembled hierarchical operator in tree-permuted coordinates.

    ``storage`` is the operator's only state: the near field and every far
    level live in its sparse matrices, which both the matvecs and the
    near factorization in ``scaling`` use.  ``near_blocks`` and
    ``far_blocks`` are views of it.  Only ``assemble`` builds one.
    """

    tree: ClusterTree
    partition: BlockPartition
    near_blocks: List[NearBlock]
    far_blocks: Dict[int, List[LowRankBlock]]
    symmetric: bool
    storage: SparseStorage = field(repr=False, compare=False)
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.tree.n_elements

    @property
    def depth(self) -> int:
        return self.tree.depth

    @property
    def assembled_levels(self) -> Set[int]:
        """Far levels that were assembled, empty or not."""
        return set(self.far_blocks)

    @property
    def permutation(self) -> np.ndarray:
        return self.tree.permutation

    def permute(self, x_mesh: np.ndarray) -> np.ndarray:
        """Mesh-order vector -> tree-order vector."""
        return np.asarray(x_mesh)[self.tree.permutation]

    def unpermute(self, x_tree: np.ndarray) -> np.ndarray:
        out = np.empty_like(np.asarray(x_tree))
        out[self.tree.permutation] = x_tree
        return out

    # -- near field -------------------------------------------------------

    def near_matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.storage.near @ x
        if self.storage.near_mirror is not None:
            y += self.storage.near_mirror @ x
        return y

    def near_matrix(self) -> sp.csc_matrix:
        """Z_N, mirrored blocks included, as the CSC matrix ``splu`` takes."""
        near = self.storage.near
        if self.storage.near_mirror is not None:
            near = near + self.storage.near_mirror
        return near.tocsc()

    def diagonal_blocks(self) -> List[NearBlock]:
        """Diagonal leaf blocks ordered by row range."""
        blocks = [blk for blk in self.near_blocks if blk.is_diagonal]
        blocks.sort(key=lambda blk: blk.row_start)
        return blocks

    # -- far field --------------------------------------------------------

    def matvec_level(self, level: int, x: np.ndarray) -> np.ndarray:
        """Action of the level-``level`` far-field part alone: U_l (V_l x)."""
        if level < 1 or level > self.depth:
            raise ValueError(f"far-field level must lie in 1..{self.depth}")
        factors = self.storage.levels.get(level)
        if factors is None:
            return np.zeros(self.n, dtype=np.complex128)
        u, v = factors
        y = u @ (v @ x)
        if self.symmetric:
            y += v.T @ (u.T @ x)
        return y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Full assembled action: near field plus every level holding blocks."""
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n,):
            raise ValueError(f"matvec expects a length-{self.n} vector")
        y = self.near_matvec(x)
        for level in sorted(self.storage.levels):
            y += self.matvec_level(level, x)
        return y

    def covers_all_far_levels(self) -> bool:
        """True when every level with admissible pairs was assembled."""
        needed = {lvl for lvl, pairs in self.partition.far_pairs.items() if pairs}
        return needed.issubset(self.assembled_levels)


def _probe_reciprocity(entry_fn, n: int, seed: int = 0) -> None:
    """Sample random (i, j) pairs and demand Z_ij == Z_ji to tight tolerance."""
    if n < 2:
        return
    rng = np.random.default_rng(seed)
    for _ in range(RECIPROCITY_PROBE_PAIRS):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        zij = complex(entry_fn(np.array([i]), np.array([j]))[0, 0])
        zji = complex(entry_fn(np.array([j]), np.array([i]))[0, 0])
        if abs(zij - zji) > RECIPROCITY_RTOL * abs(zij):
            raise ValueError(
                "symmetric_mode refused: kernel failed the reciprocity probe "
                f"at pair ({i}, {j}): |Zij - Zji| = {abs(zij - zji):.3e}"
            )


def assemble(
    spec: KernelSpec,
    tree: ClusterTree,
    tol: float,
    eta: float = 1.0,
    level_filter: Optional[Iterable[int]] = None,
    symmetric_mode: bool = False,
    probe_seed: int = 0,
) -> HMatrix:
    """Build the H-matrix: dense near blocks plus per-level ACA far blocks.

    Parameters
    ----------
    level_filter : iterable of int, optional
        Far levels to assemble; default is every level.  Levels skipped
        here act as exact zeros in all downstream products.
    symmetric_mode : bool
        Store one block of each off-diagonal pair; only permitted when the
        kernel passes a random reciprocity probe.
    """
    if tree.n_elements != spec.n:
        raise ValueError("tree and kernel disagree on element count")
    if tol < 0.0:
        raise ValueError(f"compression tolerance must be non-negative, got {tol:g}")
    partition = build_block_partition(tree, eta)
    entry_fn = entry_function(spec, tree.permutation)
    if symmetric_mode:
        _probe_reciprocity(entry_fn, spec.n, probe_seed)

    levels = set(range(1, tree.depth + 1)) if level_filter is None else set(level_filter)
    bad = levels - set(range(1, tree.depth + 1))
    if bad:
        raise ValueError(f"level_filter contains invalid levels {sorted(bad)} for depth {tree.depth}")

    nodes = tree.nodes
    geometry = [
        (nodes[t].start, nodes[t].stop, nodes[s].start, nodes[s].stop)
        for t, s in partition.near_pairs
        if not (symmetric_mode and nodes[t].start > nodes[s].start)
    ]
    near_blocks, near, mirror = _near_storage(geometry, spec.n, symmetric_mode)
    for blk in near_blocks:
        blk.data[...] = entry_fn(np.arange(blk.row_start, blk.row_stop), np.arange(blk.col_start, blk.col_stop))

    rank_flags: List[Tuple[int, int, int, int]] = []
    far_blocks: Dict[int, List[LowRankBlock]] = {}
    level_storage: Dict[int, Tuple[sp.csc_matrix, sp.csr_matrix]] = {}

    for level in sorted(levels):
        pairs = partition.far_pairs.get(level, [])
        if symmetric_mode:
            pairs = [(t, s) for t, s in pairs if nodes[t].start < nodes[s].start]
        blocks: List[LowRankBlock] = []
        for t, s in pairs:
            nt, ns = nodes[t], nodes[s]
            rows = np.arange(nt.start, nt.stop)
            cols = np.arange(ns.start, ns.stop)
            try:
                u, v = aca(entry_fn, rows, cols, tol)
                u, v = recompress(u, v, tol)
            except Exception as exc:
                raise RuntimeError(
                    f"far-block compression failed at level {level}, rows "
                    f"[{nt.start}, {nt.stop}), cols [{ns.start}, {ns.stop}): {exc}"
                ) from exc
            blk = LowRankBlock(nt.start, ns.start, u, v, level)
            m, n = blk.shape
            if 2 * blk.rank > min(m, n):
                rank_flags.append((level, blk.row_start, blk.col_start, blk.rank))
            blocks.append(blk)
        if blocks:
            blocks, level_storage[level] = _level_storage(blocks, spec.n)
        far_blocks[level] = blocks

    stats: Dict[str, object] = {
        "near_blocks": len(near_blocks),
        "near_entries": int(sum(blk.stored_entries for blk in near_blocks)),
        "far_levels": {
            lvl: {
                "blocks": len(blks),
                "entries": int(sum(b.stored_entries for b in blks)),
                "max_rank": max((b.rank for b in blks), default=0),
            }
            for lvl, blks in far_blocks.items()
        },
        "rank_flags": rank_flags,
    }
    storage = SparseStorage(near, mirror, level_storage)
    return HMatrix(tree, partition, near_blocks, far_blocks, symmetric_mode, storage, stats)


# ---------------------------------------------------------------------------
# memory accounting


@dataclass
class MemoryReport:
    """Stored-entry census at 16 bytes per complex entry."""

    rows: List[Tuple[str, int, int, float]]
    total_entries: int
    dense_entries: int

    @property
    def compression_ratio(self) -> float:
        """Stored fraction of the dense requirement (1.0 = no savings)."""
        return self.total_entries / self.dense_entries

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level", "blocks", "entries", "megabytes"])
            for label, blocks, entries, megabytes in self.rows:
                writer.writerow([label, blocks, entries, f"{megabytes:.6f}"])


def memory_report(h: HMatrix) -> MemoryReport:
    rows: List[Tuple[str, int, int, float]] = []
    near_entries = int(sum(blk.stored_entries for blk in h.near_blocks))
    rows.append(("near", len(h.near_blocks), near_entries, near_entries * BYTES_PER_ENTRY / 1e6))
    total = near_entries
    for level in sorted(h.far_blocks):
        blks = h.far_blocks[level]
        entries = int(sum(b.stored_entries for b in blks))
        rows.append((str(level), len(blks), entries, entries * BYTES_PER_ENTRY / 1e6))
        total += entries
    rows.append(("total", sum(r[1] for r in rows), total, total * BYTES_PER_ENTRY / 1e6))
    return MemoryReport(rows, total, h.n * h.n)
