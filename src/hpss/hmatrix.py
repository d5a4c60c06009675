"""Level-separated hierarchical matrix: partition, assembly, and matvecs.

The block partition descends the cluster-tree pair graph from the root
pair.  An admissible same-level pair becomes a far block attached at that
level (coarsest-admissible attachment: its parent pair was not admissible);
a non-admissible leaf pair becomes a dense near block; everything else
recurses.  Far blocks therefore live on levels 1..L and the near field is
a union of leaf-pair blocks that always includes every diagonal leaf pair.

Far levels can be assembled selectively (``level_filter``); skipped levels
simply contribute nothing, which downstream solvers treat as exact zeros.
``symmetric_mode`` stores one of each off-diagonal block pair and applies
the mirrored action with plain (unconjugated) transposes; it is allowed
only after a runtime reciprocity probe of the kernel.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from .compression import LowRankBlock, aca, recompress
from .geometry import ClusterTree, is_admissible
from .kernels import KernelSpec, entry_function

BYTES_PER_ENTRY = 16  # complex128
RECIPROCITY_PROBE_PAIRS = 16
RECIPROCITY_RTOL = 1e-10


@dataclass
class NearBlock:
    """Dense leaf-pair block in tree-permuted coordinates."""

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

    @property
    def levels(self) -> List[int]:
        return sorted(self.far_pairs)


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
class HMatrix:
    """Assembled hierarchical operator in tree-permuted coordinates."""

    tree: ClusterTree
    partition: BlockPartition
    near_blocks: List[NearBlock]
    far_blocks: Dict[int, List[LowRankBlock]]
    assembled_levels: Set[int]
    tol: float
    symmetric: bool
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.tree.n_elements

    @property
    def depth(self) -> int:
        return self.tree.depth

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
        y = np.zeros(self.n, dtype=np.complex128)
        for blk in self.near_blocks:
            y[blk.row_start : blk.row_stop] += blk.data @ x[blk.col_start : blk.col_stop]
            if self.symmetric and not blk.is_diagonal:
                y[blk.col_start : blk.col_stop] += blk.data.T @ x[blk.row_start : blk.row_stop]
        return y

    def diagonal_blocks(self) -> List[NearBlock]:
        """Diagonal leaf blocks ordered by row range."""
        blocks = [blk for blk in self.near_blocks if blk.is_diagonal]
        blocks.sort(key=lambda blk: blk.row_start)
        return blocks

    # -- far field --------------------------------------------------------

    def matvec_level(self, level: int, x: np.ndarray) -> np.ndarray:
        """Action of the level-``level`` far-field part alone."""
        if level < 1 or level > self.depth:
            raise ValueError(f"far-field level must lie in 1..{self.depth}")
        y = np.zeros(self.n, dtype=np.complex128)
        for blk in self.far_blocks.get(level, ()):
            m, n = blk.shape
            y[blk.row_start : blk.row_start + m] += blk.matvec(x[blk.col_start : blk.col_start + n])
            if self.symmetric:
                y[blk.col_start : blk.col_start + n] += blk.tmatvec(x[blk.row_start : blk.row_start + m])
        return y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Full assembled action: near field plus every assembled level."""
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n,):
            raise ValueError(f"matvec expects a length-{self.n} vector")
        y = self.near_matvec(x)
        for level in sorted(self.assembled_levels):
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
    partition = build_block_partition(tree, eta)
    entry_fn = entry_function(spec, tree.permutation)
    if symmetric_mode:
        _probe_reciprocity(entry_fn, spec.n, probe_seed)

    levels = set(range(1, tree.depth + 1)) if level_filter is None else set(level_filter)
    bad = levels - set(range(1, tree.depth + 1))
    if bad:
        raise ValueError(f"level_filter contains invalid levels {sorted(bad)} for depth {tree.depth}")

    nodes = tree.nodes
    near_blocks: List[NearBlock] = []
    for t, s in partition.near_pairs:
        nt, ns = nodes[t], nodes[s]
        if symmetric_mode and nt.start > ns.start:
            continue
        rows = np.arange(nt.start, nt.stop)
        cols = np.arange(ns.start, ns.stop)
        near_blocks.append(NearBlock(nt.start, nt.stop, ns.start, ns.stop, entry_fn(rows, cols)))

    rank_flags: List[Tuple[int, int, int, int]] = []
    far_blocks: Dict[int, List[LowRankBlock]] = {}

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
    return HMatrix(tree, partition, near_blocks, far_blocks, set(far_blocks), tol, symmetric_mode, stats)


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
