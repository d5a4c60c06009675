"""Level-separated hierarchical matrix: partition, assembly, and matvecs.

The block partition descends the cluster-tree pair graph from the root
pair.  An admissible same-level pair becomes a far block attached at that
level (coarsest-admissible attachment: its parent pair was not admissible);
a non-admissible leaf pair becomes a dense near block; everything else
recurses.  Far blocks therefore live on levels 1..L and the near field is
a union of leaf-pair blocks that always includes every diagonal leaf pair.
The partition is symmetric: (t, s) is a pair exactly when (s, t) is.

The kernel decides what is stored.  When it is reciprocal
(``KernelSpec.reciprocal``: Z_ij = Z_ji off the diagonal, bit for bit),
assembly fills, compresses and stores only the diagonal leaf blocks and
the off-diagonal pairs whose row start lies below their col start; each
of those also stands, transposed, at its mirror position (s, t).  For any
other kernel every pair is stored and the mirror set is empty.  Either
way the code is the same and no entry is stored twice.

Assembly fills the near field with one kernel call per stored near block.
Each far level is compressed on its own: its stored pairs are grouped by
block shape, each group goes to ACA in lockstep stacks, every block is
recompressed on its own, and the level's factors are packed into one
buffer before the next level starts.  Once the last level is done, the
levels move, one at a time, into the operator's one far buffer.

Storage keeps each part of the operator in the layout it is applied in.
The near field Z_N is one C-ordered dense stack of shape (B, m, n) per
block shape, the diagonal blocks apart from the off-diagonal ones, each
stack listing its blocks' row and col starts.  A near matvec is one
gather of x, one batched ``np.matmul`` per stack, one more over the
transposed view of each mirrored stack, all into a preallocated buffer,
and one ``np.bincount`` that adds the products into their rows.
``NearField.matrix`` builds from the stacks, mirrors included, the
canonical CSC matrix the near factorization in ``scaling`` takes.

Every rank-one term of a far block owns a column u of length m and a row
v of length n, stored as runs of one buffer.  A block's u is one
Fortran-ordered run and its v one C-ordered run; far indices are int32.
The far field is applied as L (R x)[swap], with L a CSC and R a CSR
matrix over runs of that buffer.  With mirrors each level's buffer holds
its u columns and then its v rows, and L = [U_l, V_l^T] and
R = [U_l^T; V_l] = L^T view the same data, indices and pointers; ``swap``
exchanges the halves of R x, so the product is U_l (V_l x) +
V_l^T (U_l^T x) in two sparse products.  Without mirrors every level's
u columns come first and then every level's v rows, L = U, R = V and
``swap`` is the identity.  Either way a far level is one run of L's
columns and R's rows, and the full far field covers them all.

An operator holds the near field and the far levels from a coarsest
level down to the leaf level.  ``assemble`` takes that level (1, every
level, by default), and ``HMatrix.keep_levels`` gives the operator that
keeps another's levels from a coarser one down, viewing the suffix of its
far buffer those levels fill.  Levels above the coarsest contribute
nothing, which downstream solvers treat as exact zeros, and the
power-series cascade runs exactly the levels that hold blocks.  The pair
lists serve assembly alone: the operator keeps its blocks' starts in its
stacks and far blocks, and one flag, ``HMatrix.complete``, for whether it
holds every far level with admissible pairs.

A full product ``HMatrix.matvec`` is a near product plus a far product,
two independent halves of about equal cost.  When the process may run on
two or more CPUs, one private worker thread, made on the first product
that needs it, computes the near half while the calling thread applies
the far half; the caller always waits for the worker before it returns
or raises, and then adds the halves in the same order as the serial
product, so every result is bitwise the same.  With one usable CPU, or an
operator without far blocks, the caller computes both halves itself.
Nothing else runs on the worker: assembly, the level products and the
near factorization stay on the calling thread.  A process forked after
a product gets a fresh worker on its first product.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .compression import BlockError, LowRankBlock, aca, check_tolerance, recompress
from .geometry import ClusterTree, TreeNode, is_admissible
from .kernels import KernelSpec, entry_function

if TYPE_CHECKING:
    from .scaling import NearFactor

BYTES_PER_ENTRY = 16  # complex128
# block entries B*m*n of one stack handed to ``aca`` (at least one block);
# bounds its lockstep factors and the ACA factors awaiting recompression
ACA_STACK_ENTRIES = 2**18

# the thread that runs near products beside the caller's far product
_near_worker: Optional[ThreadPoolExecutor] = None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker() -> Optional[ThreadPoolExecutor]:
    """The near-product worker, made on first use; None when the process
    may run on one CPU only, where a second thread only slows the product."""
    global _near_worker
    if _usable_cpus() < 2:
        return None
    if _near_worker is None:
        _near_worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hpss-near")
    return _near_worker


def _forget_worker() -> None:
    # a forked child has no copy of the parent's worker thread
    global _near_worker
    _near_worker = None


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_forget_worker)


@dataclass
class BlockPartition:
    """Near/far pair lists produced by the admissibility descent."""

    tree: ClusterTree
    near_pairs: List[Tuple[int, int]]
    far_pairs: Dict[int, List[Tuple[int, int]]]


def build_block_partition(tree: ClusterTree, eta: float = 1.0) -> BlockPartition:
    """Classify cluster pairs by recursive admissibility descent."""
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta:g}")
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
    """The stored near blocks of one shape (m, n) as one dense stack.

    ``data`` is C-ordered with shape (B, m, n); ``data[i]`` is the block at
    rows ``row_starts[i]`` + [0, m) and cols ``col_starts[i]`` + [0, n).
    When ``mirrored``, ``data[i]`` transposed also stands at rows
    ``col_starts[i]`` + [0, n) and cols ``row_starts[i]`` + [0, m).
    """

    data: np.ndarray
    row_starts: np.ndarray
    col_starts: np.ndarray
    mirrored: bool = False

    def coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """int32 row and col index of every entry of ``data``, each of its shape."""
        b, m, n = self.data.shape
        rows = self.row_starts[:, None, None] + np.arange(m, dtype=np.int32)[:, None]
        cols = self.col_starts[:, None, None] + np.arange(n, dtype=np.int32)
        return np.broadcast_to(rows, (b, m, n)), np.broadcast_to(cols, (b, m, n))


@dataclass
class NearField:
    """Z_N on N unknowns: its stacks, the plan of its product and its factor.

    ``stacks`` lists the diagonal stacks, then the off-diagonal ones.  The
    product applies ``operands`` in turn, each stack and then, if
    mirrored, its transposed view: ``gather`` lists the x entry each row
    of each batched product reads, ``scatter`` the slot of y, viewed as
    interleaved real and imaginary float64, that each product entry's
    real and imaginary part adds into, and ``products`` is the buffer the
    batched products are written to, so two near products on one near
    field must not run at the same time.

    ``factor`` is derived state: the factorization and its level-0 defect
    ``scaling.compute_scaling`` makes on its first call for an operator
    holding this near field, and ``None`` before that.  ``assemble`` makes
    the stacks read-only, so the stored entries cannot drift from it.
    """

    n: int
    stacks: List[NearStack]
    operands: List[np.ndarray] = field(init=False)
    gather: np.ndarray = field(init=False)
    scatter: np.ndarray = field(init=False)
    products: np.ndarray = field(init=False)
    factor: Optional["NearFactor"] = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.operands, reads, writes = [], [], []
        for stack in self.stacks:
            rows, cols = stack.coordinates()
            rows, cols = rows[:, :, 0], cols[:, 0, :]
            self.operands.append(stack.data)
            reads.append(cols.ravel())
            writes.append(rows.ravel())
            if stack.mirrored:
                self.operands.append(stack.data.transpose(0, 2, 1))
                reads.append(rows.ravel())
                writes.append(cols.ravel())
        self.gather = np.concatenate(reads).astype(np.intp)
        rows = np.concatenate(writes).astype(np.intp)
        self.scatter = (2 * rows[:, None] + np.arange(2)).ravel()
        self.products = np.empty(rows.size, dtype=np.complex128)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Z_N x: one batched product per operand, summed into rows."""
        xs = x[self.gather]
        start_x = start_y = 0
        for operand in self.operands:
            b, m, n = operand.shape
            out = self.products[start_y : start_y + b * m].reshape(b, m, 1)
            np.matmul(operand, xs[start_x : start_x + b * n].reshape(b, n, 1), out=out)
            start_x, start_y = start_x + b * n, start_y + b * m
        y = np.bincount(self.scatter, weights=self.products.view(np.float64), minlength=2 * self.n)
        return y.view(np.complex128)

    def matrix(self) -> sp.csc_matrix:
        """Z_N, mirrors included, as the CSC matrix ``splu`` takes, in
        canonical form (sorted indices), so it does not depend on the order
        or the orientation the blocks are stored in."""
        rows, cols, data = [], [], []
        for stack in self.stacks:
            r, c = stack.coordinates()
            rows.append(r.ravel())
            cols.append(c.ravel())
            data.append(stack.data.ravel())
            if stack.mirrored:
                rows.append(c.ravel())
                cols.append(r.ravel())
                data.append(stack.data.ravel())
        rows, cols, data = (np.concatenate(parts) for parts in (rows, cols, data))
        return sp.coo_matrix((data, (rows, cols)), shape=(self.n, self.n)).tocsc()

    def diagonal_blocks(self) -> List[Tuple[int, np.ndarray]]:
        """(row start, view of the block in its stack) of every diagonal
        leaf block, ordered by row start."""
        blocks = []
        for stack in self.stacks:
            starts = zip(stack.row_starts.tolist(), stack.col_starts.tolist(), stack.data)
            blocks += [(r0, block) for r0, c0, block in starts if r0 == c0]
        return sorted(blocks, key=lambda pair: pair[0])


@dataclass(frozen=True)
class FarFactors:
    """Far blocks applied as ``left @ (right @ x)[swap]``.

    ``left`` (N x R, CSC) and ``right`` (R x N, CSR) view runs of the
    operator's far buffer, and ``swap`` (R,) names the entry of
    ``right @ x`` each column of ``left`` multiplies (see the module
    docstring).
    """

    left: sp.csc_matrix
    right: sp.csr_matrix
    swap: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.left @ (self.right @ x)[self.swap]

    @property
    def width(self) -> int:
        return self.left.shape[1]

    def part(self, start: int, stop: int) -> "FarFactors":
        """Columns [start, stop) of ``left`` with the same rows of ``right``,
        zero-copy; ``swap`` must keep that range to itself."""
        return FarFactors(
            _major_range(sp.csc_matrix, _arrays(self.left), start, stop, (self.left.shape[0], stop - start)),
            _major_range(sp.csr_matrix, _arrays(self.right), start, stop, (stop - start, self.right.shape[1])),
            self.swap[start:stop] - start,
        )


def _compressed_view(kind, arrays: Tuple[np.ndarray, np.ndarray, np.ndarray], shape: Tuple[int, int]):
    """A CSC or CSR matrix on the given (data, indices, indptr), not copies.

    scipy's constructor copies an array that views less than half of its
    base, so the arrays are set on an empty matrix of the shape instead.
    """
    mat = kind(shape, dtype=np.complex128)
    mat.data, mat.indices, mat.indptr = arrays
    return mat


def _arrays(mat) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return mat.data, mat.indices, mat.indptr


def _major_range(kind, arrays: Tuple[np.ndarray, np.ndarray, np.ndarray], start: int, stop: int, shape: Tuple[int, int]):
    """Columns (CSC) or rows (CSR) [start, stop) of the compressed
    (data, indices, indptr) ``arrays`` as a matrix viewing them."""
    data, indices, indptr = arrays
    lo, hi = indptr[start], indptr[stop]
    return _compressed_view(kind, (data[lo:hi], indices[lo:hi], indptr[start : stop + 1] - lo), shape)


def _near_storage(geometry: List[Tuple[int, int, int, int]], mirrored: bool) -> List[NearStack]:
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
        data = np.empty((len(members), m, n), dtype=np.complex128)
        stacks.append(NearStack(data, starts[:, 0], starts[:, 2], mirrored))
    return stacks


def _views(info: np.ndarray, u_data: np.ndarray, v_data: np.ndarray) -> List[LowRankBlock]:
    """Blocks whose factors view consecutive runs of a buffer of u columns
    and one of v rows, one block after another.

    ``info`` holds each block's (rank, height, width, row_start, col_start).
    A block of rank k owns k u columns, each m long, and k v rows, each w
    long, so its u is one Fortran-ordered run and its v one C-ordered run.
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
    """One level's factors copied into one buffer each, laid out as in the
    far buffer; this frees the many small arrays compression left before
    the next level starts.  Returns the ``_views`` info and the two buffers."""
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
    packed: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]], n: int, mirror: bool
) -> Tuple[Dict[int, List[LowRankBlock]], FarFactors, Dict[int, FarFactors]]:
    """Move the packed far levels into the one far buffer, laid out as the
    module docstring says.

    Levels are copied in level order and taken out of ``packed`` one at a
    time, so each level's buffers are freed before the next is copied.
    Returns blocks viewing the buffer, the far field, and for each level
    holding blocks the part of it that applies that level alone.
    """
    order = sorted(packed)
    rank = {level: int(packed[level][0][:, 0].sum()) for level in order}
    # the buffer's runs in order: side 0 is a level's u columns, side 1 its v rows
    runs = [(level, side) for level in order for side in (0, 1)]
    if not mirror:
        runs.sort(key=lambda run: run[1])
    lengths = [np.repeat(packed[level][0][:, 1 + side], packed[level][0][:, 0]) for level, side in runs]
    ptr = np.cumsum(np.concatenate([[0]] + lengths)).astype(np.int32)
    first = dict(zip(runs, np.cumsum([0] + [rank[level] for level, _ in runs]).tolist()))
    data = np.empty(int(ptr[-1]), dtype=np.complex128)
    indices = np.empty(data.size, dtype=np.int32)
    far_blocks: Dict[int, List[LowRankBlock]] = {}
    for level in order:
        info, u_chunk, v_chunk = packed.pop(level)
        ranks, heights, widths, row_starts, col_starts = info.T
        u, v = (slice(ptr[first[level, side]], ptr[first[level, side] + rank[level]]) for side in (0, 1))
        data[u], data[v] = u_chunk, v_chunk
        indices[u] = _runs(row_starts, heights, ranks)
        indices[v] = _runs(col_starts, widths, ranks)
        far_blocks[level] = _views(info, data[u], data[v])

    k = sum(rank.values())
    arrays = (data, indices, ptr)
    if mirror:
        far = FarFactors(
            _major_range(sp.csc_matrix, arrays, 0, 2 * k, (n, 2 * k)),
            _major_range(sp.csr_matrix, arrays, 0, 2 * k, (2 * k, n)),
            np.concatenate(
                [np.zeros(0, dtype=np.intp)]
                + [np.roll(np.arange(first[level, 0], first[level, 0] + 2 * rank[level]), rank[level]) for level in order]
            ),
        )
        bounds = {level: (first[level, 0], first[level, 0] + 2 * rank[level]) for level in order}
    else:
        far = FarFactors(
            _major_range(sp.csc_matrix, arrays, 0, k, (n, k)),
            _major_range(sp.csr_matrix, arrays, k, 2 * k, (k, n)),
            np.arange(k, dtype=np.intp),
        )
        bounds = {level: (first[level, 0], first[level, 0] + rank[level]) for level in order}
    level_factors = {level: far.part(*bounds[level]) for level in order if rank[level]}
    return far_blocks, far, level_factors


def _check_coarsest(coarsest: int, lowest: int, depth: int) -> None:
    """The coarsest far level an operator keeps must lie in lowest..depth
    (1..1 on a depth-0 tree, whose operator has no far levels)."""
    if not lowest <= coarsest <= max(depth, 1):
        raise ValueError(f"coarsest far level must lie in {lowest}..{max(depth, 1)}, got {coarsest}")


@dataclass
class HMatrix:
    """Assembled hierarchical operator in tree-permuted coordinates.

    Its stored entries have one layout: every stored block is kept as it
    is applied, and a mirror is applied from the block it mirrors.
    ``near`` is Z_N (see ``NearField``); it serves the near product and,
    through ``NearField.matrix``, the near factorization in ``scaling``.
    ``far`` applies every far level the operator holds, and
    ``level_factors`` maps each of those levels that holds blocks to the
    part of ``far`` that applies it alone.  Whether a stored block also
    stands transposed at its mirror position is told by the near stacks'
    ``mirrored`` flags and the far factors' ``swap``.  ``far_blocks`` are
    views of the stored far blocks, keyed by the levels held, and the
    levels it holds blocks on are the levels the power-series cascade
    runs.  ``complete`` is true when every far level with admissible pairs
    is held, so the operator is the whole assembled H-matrix.  The only
    derived state is the near factorization, made once per near field and
    kept with it; the near field is read-only from assembly on.
    ``assemble`` builds an operator, and ``keep_levels`` one that shares
    another's stored entries.
    """

    tree: ClusterTree
    far_blocks: Dict[int, List[LowRankBlock]]
    near: NearField = field(repr=False, compare=False)
    far: FarFactors = field(repr=False, compare=False)
    level_factors: Dict[int, FarFactors] = field(repr=False, compare=False)
    complete: bool

    @property
    def stats(self) -> Dict[str, object]:
        """``far_levels``: blocks, stored entries and max rank per held
        level; ``rank_flags``: (level, row start, col start, rank) of every
        far block of rank above half its smaller side, in block order."""
        return {
            "far_levels": {
                level: {
                    "blocks": len(blocks),
                    "entries": int(sum(b.stored_entries for b in blocks)),
                    "max_rank": max((b.rank for b in blocks), default=0),
                }
                for level, blocks in self.far_blocks.items()
            },
            "rank_flags": [
                (level, b.row_start, b.col_start, b.rank)
                for level, blocks in self.far_blocks.items()
                for b in blocks
                if 2 * b.rank > min(b.shape)
            ],
        }

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
        return self._vector(x_mesh)[self.tree.permutation]

    def unpermute(self, x_tree: np.ndarray) -> np.ndarray:
        """Tree-order vector -> mesh-order vector."""
        x_tree = self._vector(x_tree)
        out = np.empty_like(x_tree)
        out[self.tree.permutation] = x_tree
        return out

    def _vector(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of shape ({self.n},), got shape {x.shape}")
        return x

    # -- near field -------------------------------------------------------

    def near_matvec(self, x: np.ndarray) -> np.ndarray:
        """Z_N x: one batched product per near stack and per mirror, summed into rows."""
        return self.near.apply(self._vector(x))

    # -- far field --------------------------------------------------------

    def matvec_level(self, level: int, x: np.ndarray) -> np.ndarray:
        """Action of the level-``level`` far-field part alone, mirrors included."""
        if not 1 <= level <= self.depth:
            raise ValueError(f"far-field level must lie in 1..{self.depth}")
        x = self._vector(x)
        factors = self.level_factors.get(level)
        if factors is None:
            return np.zeros(self.n, dtype=np.complex128)
        return factors.apply(x)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Full assembled action: the near product plus the far factors,
        which cover every level holding blocks.

        When the process may run on two or more CPUs and the operator has
        far blocks, the module's worker thread computes the near product
        while this thread applies the far factors (see the module
        docstring); a failure in either half raises here, once both are done.
        """
        x = self._vector(np.asarray(x, dtype=np.complex128))
        worker = _worker() if self.far.width else None
        if worker is None:
            y = self.near_matvec(x)
            y += self.far.apply(x)
            return y
        near = worker.submit(self.near_matvec, x)
        try:
            far = self.far.apply(x)
        finally:
            # the near field's product buffer must not be reused mid-write
            wait((near,))
        y = near.result()
        y += far
        return y

    def keep_levels(self, coarsest: int) -> "HMatrix":
        """This operator with only its far levels ``coarsest``..depth, which
        must not reach above the coarsest level it holds.

        The result shares this operator's near field, its near
        factorization included, and views the suffix of its far factors
        those levels fill, and it acts bit for bit as ``assemble`` with
        that ``coarsest`` would; it is ``complete`` when this one is and
        the levels it drops hold no blocks.
        """
        _check_coarsest(coarsest, min(self.far_blocks, default=1), self.depth)
        parts = {level: part for level, part in self.level_factors.items() if level >= coarsest}
        far = self.far.part(self.far.width - sum(part.width for part in parts.values()), self.far.width)
        far_blocks = {level: blocks for level, blocks in self.far_blocks.items() if level >= coarsest}
        complete = self.complete and not any(blocks for level, blocks in self.far_blocks.items() if level < coarsest)
        return HMatrix(self.tree, far_blocks, self.near, far, parts, complete)


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
    coarsest: int = 1,
) -> HMatrix:
    """Build the H-matrix: dense near blocks plus per-level ACA far blocks.

    For a reciprocal kernel only the diagonal blocks and the pairs whose
    row start lies below their col start are filled, compressed and
    stored; the rest are applied as their transposes.

    Parameters
    ----------
    tol : float
        The ACA and recompression tolerance, in [0, 1)
        (``compression.check_tolerance``).
    coarsest : int
        The coarsest far level assembled: the operator holds the far
        levels ``coarsest``..depth.  The default, 1, assembles every
        level; levels above ``coarsest`` act as exact zeros in all
        downstream products.
    """
    if tree.n_elements != spec.n:
        raise ValueError("tree and kernel disagree on element count")
    check_tolerance(tol)
    _check_coarsest(coarsest, 1, tree.depth)
    partition = build_block_partition(tree, eta)
    entry_fn = entry_function(spec, tree.permutation)

    nodes = tree.nodes
    mirror = spec.reciprocal

    def stored(pairs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
        return [(t, s) for t, s in pairs if not mirror or nodes[t].start < nodes[s].start]

    def geometry(pairs: List[Tuple[int, int]]) -> List[Tuple[int, int, int, int]]:
        return [(nodes[t].start, nodes[t].stop, nodes[s].start, nodes[s].stop) for t, s in pairs]

    diagonal = [(t, s) for t, s in partition.near_pairs if t == s]
    off_diagonal = stored([(t, s) for t, s in partition.near_pairs if t != s])
    stacks = _near_storage(geometry(diagonal), False) + _near_storage(geometry(off_diagonal), mirror)
    for stack in stacks:
        _, m, n = stack.data.shape
        for block, r0, c0 in zip(stack.data, stack.row_starts.tolist(), stack.col_starts.tolist()):
            block[...] = entry_fn(np.arange(r0, r0 + m), np.arange(c0, c0 + n))
        # before any view of it is handed out: a view keeps the flag it had
        stack.data.flags.writeable = False

    packed: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for level in range(coarsest, tree.depth + 1):
        pairs = stored(partition.far_pairs[level])
        packed[level] = _pack_level(_compress_level(entry_fn, nodes, pairs, level, tol))
    far_blocks, far, level_factors = _far_storage(packed, spec.n, mirror)
    complete = not any(partition.far_pairs[level] for level in range(1, coarsest))
    return HMatrix(tree, far_blocks, NearField(spec.n, stacks), far, level_factors, complete)


# ---------------------------------------------------------------------------
# memory accounting


@dataclass
class MemoryReport:
    """Stored-entry census at 16 bytes per complex entry; a mirror stores nothing."""

    rows: List[Tuple[str, int, int, float]]
    total_entries: int

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level", "blocks", "entries", "megabytes"])
            for label, blocks, entries, megabytes in self.rows:
                writer.writerow([label, blocks, entries, f"{megabytes:.6f}"])


def memory_report(h: HMatrix) -> MemoryReport:
    """Stored blocks and entries of the near field and, from ``h.stats``,
    of each far level."""
    rows: List[Tuple[str, int, int, float]] = []
    stacks = h.near.stacks
    near_entries = int(sum(stack.data.size for stack in stacks))
    rows.append(("near", sum(len(stack.data) for stack in stacks), near_entries, near_entries * BYTES_PER_ENTRY / 1e6))
    total = near_entries
    for level, census in sorted(h.stats["far_levels"].items()):
        rows.append((str(level), census["blocks"], census["entries"], census["entries"] * BYTES_PER_ENTRY / 1e6))
        total += census["entries"]
    rows.append(("total", sum(r[1] for r in rows), total, total * BYTES_PER_ENTRY / 1e6))
    return MemoryReport(rows, total)
