"""Level-separated hierarchical matrix: partition, assembly, and matvecs.

The block partition descends the cluster-tree pair graph from the root
pair.  An admissible same-level pair becomes a far block attached at that
level (coarsest-admissible attachment: its parent pair was not admissible);
a non-admissible leaf pair becomes a dense near block; everything else
recurses.  Far blocks therefore live on levels 1..L and the near field is
a union of leaf-pair blocks that always includes every diagonal leaf pair.

Assembly fills the near field with one kernel call per near block.  Each
far level is compressed on its own: its pairs are grouped by block shape,
each group goes to ACA in lockstep stacks, every block is recompressed on
its own, and the level's factors are packed into one buffer each before
the next level starts.  Once the last level is done, the levels move, one
at a time, into the operator's one U and V.

Storage keeps each part of the operator in the layout it is applied in.
The near field Z_N is one C-ordered dense stack of shape (B, m, n) per
near-block shape, which lists each block's row and col start.  A near
matvec is one gather of x, one batched ``np.matmul`` per stack into
a preallocated buffer, and one ``np.bincount`` that adds the products into
their rows.  ``near_matrix`` builds the canonical CSC matrix that the near
factorization in ``scaling`` takes from the same stacks.  All far levels
share one CSC factor U (N x K) and one CSR factor V (K x N), K being the
summed ranks of all far blocks, level after level; far level l is the
product U_l V_l of zero-copy column and row views of them.  Every block's
u is one Fortran-ordered run of U's buffer and its v one C-ordered run of
V's, so no entry is stored twice; far indices are int32.  A full matvec
is the near product plus U (V x).

Far levels can be assembled selectively (``level_filter``); skipped levels
simply contribute nothing, which downstream solvers treat as exact zeros,
and the power-series cascade runs exactly the levels that hold blocks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .compression import BlockError, LowRankBlock, aca, recompress
from .geometry import ClusterTree, TreeNode, is_admissible
from .kernels import KernelSpec, entry_function

if TYPE_CHECKING:
    from .scaling import NearFactor

BYTES_PER_ENTRY = 16  # complex128
# block entries B*m*n of one stack handed to ``aca`` (at least one block);
# bounds its lockstep factors and the ACA factors awaiting recompression
ACA_STACK_ENTRIES = 2**18


@dataclass
class BlockPartition:
    """Near/far pair lists produced by the admissibility descent."""

    tree: ClusterTree
    near_pairs: List[Tuple[int, int]]
    far_pairs: Dict[int, List[Tuple[int, int]]]


def build_block_partition(tree: ClusterTree, eta: float = 1.0) -> BlockPartition:
    """Classify cluster pairs by recursive admissibility descent."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
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
    return BlockPartition(tree, near, far)


@dataclass(frozen=True)
class NearStack:
    """The near blocks of one shape (m, n) as one dense stack.

    ``data`` is C-ordered with shape (B, m, n); ``data[i]`` is the block at
    rows ``row_starts[i]`` + [0, m) and cols ``col_starts[i]`` + [0, n).
    """

    data: np.ndarray
    row_starts: np.ndarray
    col_starts: np.ndarray

    def coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """int32 row and col index of every entry of ``data``, each of its shape."""
        b, m, n = self.data.shape
        rows = self.row_starts[:, None, None] + np.arange(m, dtype=np.int32)[:, None]
        cols = self.col_starts[:, None, None] + np.arange(n, dtype=np.int32)
        return np.broadcast_to(rows, (b, m, n)), np.broadcast_to(cols, (b, m, n))


@dataclass
class SparseStorage:
    """The stored entries of an H-matrix, each in the layout it is applied in.

    ``near`` holds Z_N as one dense stack per near-block shape.  ``u``
    (N x K, CSC) and ``v`` (K x N, CSR) hold every far level, level after
    level, and ``levels`` maps each far level that holds blocks to its
    (U_l, V_l), whose data and indices are views of ``u``'s and ``v``'s.

    The rest is the near product's plan, derived from ``near``: ``gather``
    lists the x entry each row of each stacked block product reads,
    ``scatter`` the slot of y, viewed as interleaved real and imaginary
    float64, that each product entry's real and imaginary part adds into,
    and ``products`` is the buffer the batched products are written to, so
    two near products on one operator must not run at the same time.

    ``near_factor`` is derived state kept with the operator: the near-field
    factorization ``scaling.compute_scaling`` makes on its first call for
    this operator, and ``None`` before that.  ``assemble`` makes the near
    stacks read-only, and so every view of them, so the stored entries
    cannot drift from the factor.
    """

    near: List[NearStack]
    u: sp.csc_matrix
    v: sp.csr_matrix
    levels: Dict[int, Tuple[sp.csc_matrix, sp.csr_matrix]]
    gather: np.ndarray = field(init=False)
    scatter: np.ndarray = field(init=False)
    products: np.ndarray = field(init=False)
    near_factor: Optional["NearFactor"] = field(default=None, init=False)

    def __post_init__(self) -> None:
        coords = [stack.coordinates() for stack in self.near]
        self.gather = np.concatenate([cols[:, 0, :].ravel() for _, cols in coords]).astype(np.intp)
        rows = np.concatenate([rows[:, :, 0].ravel() for rows, _ in coords]).astype(np.intp)
        self.scatter = (2 * rows[:, None] + np.arange(2)).ravel()
        self.products = np.empty(rows.size, dtype=np.complex128)


def _near_storage(geometry: List[Tuple[int, int, int, int]]) -> List[NearStack]:
    """Unfilled near stacks, one per block shape.

    ``geometry`` lists (row_start, row_stop, col_start, col_stop) per block.
    Stacks come in the order their shape first appears, and blocks within
    a stack in list order.
    """
    shapes: Dict[Tuple[int, int], List[Tuple[int, int, int, int]]] = {}
    for r0, r1, c0, c1 in geometry:
        shapes.setdefault((r1 - r0, c1 - c0), []).append((r0, r1, c0, c1))
    stacks: List[NearStack] = []
    for (m, n), members in shapes.items():
        starts = np.array(members, dtype=np.int32)
        stacks.append(NearStack(np.empty((len(members), m, n), dtype=np.complex128), starts[:, 0], starts[:, 2]))
    return stacks


def _compressed_view(kind, arrays: Tuple[np.ndarray, np.ndarray, np.ndarray], shape: Tuple[int, int]):
    """A CSC or CSR matrix on the given (data, indices, indptr), not copies.

    scipy's constructor copies an array that views less than half of its
    base, so the arrays are set on an empty matrix of the shape instead.
    """
    mat = kind(shape, dtype=np.complex128)
    mat.data, mat.indices, mat.indptr = arrays
    return mat


def _views(info: np.ndarray, u_data: np.ndarray, v_data: np.ndarray) -> List[LowRankBlock]:
    """Blocks whose factors view consecutive runs of the buffers of a CSC
    factor U and a CSR factor V, one block after another.

    ``info`` holds each block's (rank, height, width, row_start, col_start).
    A block of rank k owns k columns of U, each m long, and k rows of V,
    each w long, so its u is one Fortran-ordered run of U's buffer and its
    v one C-ordered run of V's.
    """
    views: List[LowRankBlock] = []
    us = vs = 0
    for k, m, w, row_start, col_start in info.tolist():
        u = u_data[us : us + k * m].reshape(k, m).T
        v = v_data[vs : vs + k * w].reshape(k, w)
        views.append(LowRankBlock(row_start, col_start, u, v))
        us, vs = us + k * m, vs + k * w
    return views


def _pack_level(blocks: List[LowRankBlock]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One level's factors copied into one buffer each, laid out as in U
    and V; this frees the many small arrays compression left before the
    next level starts.  Returns the ``_views`` info and the two buffers."""
    info = np.array([(b.rank, *b.shape, b.row_start, b.col_start) for b in blocks], dtype=np.int64).reshape(-1, 5)
    u_data = np.empty(int(info[:, 0] @ info[:, 1]), dtype=np.complex128)
    v_data = np.empty(int(info[:, 0] @ info[:, 2]), dtype=np.complex128)
    for blk, view in zip(blocks, _views(info, u_data, v_data)):
        view.u[...] = blk.u
        view.v[...] = blk.v
    return info, u_data, v_data


def _runs(starts: np.ndarray, lengths: np.ndarray, repeats: np.ndarray) -> np.ndarray:
    """int32 runs start + [0, length), each repeated ``repeats`` times."""
    starts, lengths = np.repeat(starts, repeats), np.repeat(lengths, repeats)
    out = np.arange(lengths.sum(), dtype=np.int32)
    out += np.repeat((starts - (np.cumsum(lengths) - lengths)).astype(np.int32), lengths)
    return out


def _far_storage(
    packed: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]], n: int
) -> Tuple[Dict[int, List[LowRankBlock]], sp.csc_matrix, sp.csr_matrix, Dict[int, Tuple[sp.csc_matrix, sp.csr_matrix]]]:
    """Move the packed far levels into one U (CSC) and one V (CSR).

    Levels are copied in level order and taken out of ``packed`` one at a
    time, so each level's buffers are freed before the next is copied.
    Returns blocks viewing U and V, U, V, and for each level holding blocks
    its (U_l, V_l), which view the columns of U and the rows of V its
    blocks own.
    """
    every = np.concatenate([np.zeros((0, 5), dtype=np.int64)] + [packed[level][0] for level in sorted(packed)])
    u_ptr = np.concatenate([[0], np.cumsum(np.repeat(every[:, 1], every[:, 0]))]).astype(np.int32)
    v_ptr = np.concatenate([[0], np.cumsum(np.repeat(every[:, 2], every[:, 0]))]).astype(np.int32)
    u_data = np.empty(int(u_ptr[-1]), dtype=np.complex128)
    v_data = np.empty(int(v_ptr[-1]), dtype=np.complex128)
    u_rows = np.empty(u_data.size, dtype=np.int32)
    v_cols = np.empty(v_data.size, dtype=np.int32)
    far_blocks: Dict[int, List[LowRankBlock]] = {}
    levels: Dict[int, Tuple[sp.csc_matrix, sp.csr_matrix]] = {}
    k0 = 0
    for level in sorted(packed):
        info, u_chunk, v_chunk = packed.pop(level)
        ranks, heights, widths, row_starts, col_starts = info.T
        k1 = k0 + int(ranks.sum())
        u_cols, v_rows = slice(u_ptr[k0], u_ptr[k1]), slice(v_ptr[k0], v_ptr[k1])
        u_data[u_cols], v_data[v_rows] = u_chunk, v_chunk
        u_rows[u_cols] = _runs(row_starts, heights, ranks)
        v_cols[v_rows] = _runs(col_starts, widths, ranks)
        far_blocks[level] = _views(info, u_data[u_cols], v_data[v_rows])
        if k1 > k0:
            levels[level] = (
                _compressed_view(sp.csc_matrix, (u_data[u_cols], u_rows[u_cols], u_ptr[k0 : k1 + 1] - u_ptr[k0]), (n, k1 - k0)),
                _compressed_view(sp.csr_matrix, (v_data[v_rows], v_cols[v_rows], v_ptr[k0 : k1 + 1] - v_ptr[k0]), (k1 - k0, n)),
            )
        k0 = k1
    u_mat = sp.csc_matrix((u_data, u_rows, u_ptr), shape=(n, k0))
    v_mat = sp.csr_matrix((v_data, v_cols, v_ptr), shape=(k0, n))
    return far_blocks, u_mat, v_mat, levels


@dataclass
class HMatrix:
    """Assembled hierarchical operator in tree-permuted coordinates.

    ``storage`` is the operator's only state and has one layout: every
    block is stored as it is applied.  The near stacks serve the near
    product and, through ``near_matrix``, the near factorization in
    ``scaling``; the one U and V serve the full matvec, and their per-level
    views the level products.  ``far_blocks`` are views of it, and the
    levels it holds blocks on are the levels the power-series cascade
    runs.  The only derived state is the near factorization, made once per
    operator and kept in ``storage.near_factor``; the near field is
    read-only from assembly on.  Only ``assemble`` builds one.
    """

    tree: ClusterTree
    partition: BlockPartition
    far_blocks: Dict[int, List[LowRankBlock]]
    storage: SparseStorage = field(repr=False, compare=False)
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

    def _vector(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of shape ({self.n},), got shape {x.shape}")
        return x

    # -- near field -------------------------------------------------------

    def near_matvec(self, x: np.ndarray) -> np.ndarray:
        """Z_N x: one batched product per near stack, summed into rows."""
        x = self._vector(x)
        store = self.storage
        xs = x[store.gather]
        start_x = start_y = 0
        for stack in store.near:
            b, m, n = stack.data.shape
            out = store.products[start_y : start_y + b * m].reshape(b, m, 1)
            np.matmul(stack.data, xs[start_x : start_x + b * n].reshape(b, n, 1), out=out)
            start_x, start_y = start_x + b * n, start_y + b * m
        y = np.bincount(store.scatter, weights=store.products.view(np.float64), minlength=2 * self.n)
        return y.view(np.complex128)

    def near_matrix(self) -> sp.csc_matrix:
        """Z_N as the CSC matrix ``splu`` takes, in canonical form (sorted
        indices), so it does not depend on the order the blocks are stored in."""
        coords = [stack.coordinates() for stack in self.storage.near]
        rows = np.concatenate([r.ravel() for r, _ in coords])
        cols = np.concatenate([c.ravel() for _, c in coords])
        data = np.concatenate([stack.data.ravel() for stack in self.storage.near])
        return sp.coo_matrix((data, (rows, cols)), shape=(self.n, self.n)).tocsc()

    def diagonal_blocks(self) -> List[Tuple[int, np.ndarray]]:
        """(row start, view of the block in its stack) of every diagonal
        leaf block, ordered by row start."""
        blocks = []
        for stack in self.storage.near:
            starts = zip(stack.row_starts.tolist(), stack.col_starts.tolist(), stack.data)
            blocks += [(r0, block) for r0, c0, block in starts if r0 == c0]
        return sorted(blocks, key=lambda pair: pair[0])

    # -- far field --------------------------------------------------------

    def matvec_level(self, level: int, x: np.ndarray) -> np.ndarray:
        """Action of the level-``level`` far-field part alone: U_l (V_l x)."""
        if level < 1 or level > self.depth:
            raise ValueError(f"far-field level must lie in 1..{self.depth}")
        x = self._vector(x)
        factors = self.storage.levels.get(level)
        if factors is None:
            return np.zeros(self.n, dtype=np.complex128)
        u, v = factors
        return u @ (v @ x)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Full assembled action: the near product plus U (V x), which
        covers every level holding blocks."""
        x = self._vector(np.asarray(x, dtype=np.complex128))
        y = self.near_matvec(x)
        y += self.storage.u @ (self.storage.v @ x)
        return y

    def covers_all_far_levels(self) -> bool:
        """True when every level with admissible pairs was assembled."""
        needed = {lvl for lvl, pairs in self.partition.far_pairs.items() if pairs}
        return needed.issubset(self.far_blocks)


def _compress_level(
    entry_fn, nodes: List[TreeNode], pairs: List[Tuple[int, int]], level: int, tol: float
) -> List[LowRankBlock]:
    """ACA and recompression of one level's far pairs, in pair order.

    Pairs of one block shape go to ``aca`` as stacks of at most
    ``ACA_STACK_ENTRIES`` block entries; a failure names the level and,
    where it can, the block's rows and cols.
    """

    def where(t: int, s: int) -> str:
        nt, ns = nodes[t], nodes[s]
        return f"level {level}, rows [{nt.start}, {nt.stop}), cols [{ns.start}, {ns.stop})"

    shapes: Dict[Tuple[int, int], List[int]] = {}
    for i, (t, s) in enumerate(pairs):
        shapes.setdefault((nodes[t].size, nodes[s].size), []).append(i)
    blocks: List[Optional[LowRankBlock]] = [None] * len(pairs)
    for (m, n), group in shapes.items():
        step = max(1, ACA_STACK_ENTRIES // (m * n))
        for first in range(0, len(group), step):
            stack = group[first : first + step]
            rows = np.array([nodes[pairs[i][0]].start for i in stack])[:, None] + np.arange(m)
            cols = np.array([nodes[pairs[i][1]].start for i in stack])[:, None] + np.arange(n)
            try:
                factors = aca(entry_fn, rows, cols, tol)
            except BlockError as exc:
                raise RuntimeError(f"far-block compression failed at {where(*pairs[stack[exc.index]])}: {exc}") from exc
            except Exception as exc:
                raise RuntimeError(f"far-block compression failed at level {level}, shape ({m}, {n}): {exc}") from exc
            for i, (u, v) in zip(stack, factors):
                t, s = pairs[i]
                try:
                    u, v = recompress(u, v, tol)
                except Exception as exc:
                    raise RuntimeError(f"far-block compression failed at {where(t, s)}: {exc}") from exc
                blocks[i] = LowRankBlock(nodes[t].start, nodes[s].start, u, v)
    return blocks  # type: ignore[return-value]


def assemble(
    spec: KernelSpec,
    tree: ClusterTree,
    tol: float,
    eta: float = 1.0,
    level_filter: Optional[Iterable[int]] = None,
) -> HMatrix:
    """Build the H-matrix: dense near blocks plus per-level ACA far blocks.

    Parameters
    ----------
    level_filter : iterable of int, optional
        Far levels to assemble; default is every level.  Levels skipped
        here act as exact zeros in all downstream products.
    """
    if tree.n_elements != spec.n:
        raise ValueError("tree and kernel disagree on element count")
    if tol < 0.0:
        raise ValueError(f"compression tolerance must be non-negative, got {tol:g}")
    partition = build_block_partition(tree, eta)
    entry_fn = entry_function(spec, tree.permutation)

    levels = set(range(1, tree.depth + 1)) if level_filter is None else set(level_filter)
    bad = levels - set(range(1, tree.depth + 1))
    if bad:
        raise ValueError(f"level_filter contains invalid levels {sorted(bad)} for depth {tree.depth}")

    nodes = tree.nodes
    geometry = [(nodes[t].start, nodes[t].stop, nodes[s].start, nodes[s].stop) for t, s in partition.near_pairs]
    near = _near_storage(geometry)
    for stack in near:
        _, m, n = stack.data.shape
        for block, r0, c0 in zip(stack.data, stack.row_starts.tolist(), stack.col_starts.tolist()):
            block[...] = entry_fn(np.arange(r0, r0 + m), np.arange(c0, c0 + n))
        # before any view of it is handed out: a view keeps the flag it had
        stack.data.flags.writeable = False

    rank_flags: List[Tuple[int, int, int, int]] = []
    packed: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for level in sorted(levels):
        packed[level] = _pack_level(_compress_level(entry_fn, nodes, partition.far_pairs.get(level, []), level, tol))
        rank_flags.extend((level, r0, c0, k) for k, m, w, r0, c0 in packed[level][0].tolist() if 2 * k > min(m, w))
    far_blocks, u, v, level_storage = _far_storage(packed, spec.n)

    stats: Dict[str, object] = {
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
    storage = SparseStorage(near, u, v, level_storage)
    return HMatrix(tree, partition, far_blocks, storage, stats)


# ---------------------------------------------------------------------------
# memory accounting


@dataclass
class MemoryReport:
    """Stored-entry census at 16 bytes per complex entry."""

    rows: List[Tuple[str, int, int, float]]
    total_entries: int

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level", "blocks", "entries", "megabytes"])
            for label, blocks, entries, megabytes in self.rows:
                writer.writerow([label, blocks, entries, f"{megabytes:.6f}"])


def memory_report(h: HMatrix) -> MemoryReport:
    rows: List[Tuple[str, int, int, float]] = []
    near = h.storage.near
    near_entries = int(sum(stack.data.size for stack in near))
    rows.append(("near", sum(len(stack.data) for stack in near), near_entries, near_entries * BYTES_PER_ENTRY / 1e6))
    total = near_entries
    for level in sorted(h.far_blocks):
        blks = h.far_blocks[level]
        entries = int(sum(b.stored_entries for b in blks))
        rows.append((str(level), len(blks), entries, entries * BYTES_PER_ENTRY / 1e6))
        total += entries
    rows.append(("total", sum(r[1] for r in rows), total, total * BYTES_PER_ENTRY / 1e6))
    return MemoryReport(rows, total)
