"""Shared fixtures: small assembled systems reused across test modules."""

import numpy as np
import pytest

from hpss import KernelSpec, assemble, assemble_dense, build_cluster_tree, discretize_strip, scaling
from hpss.geometry import Mesh


def dense_from_operator(apply, n):
    """Densify a linear operator by applying it to the identity columns."""
    cols = []
    for j in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[j] = 1.0
        cols.append(apply(e))
    return np.column_stack(cols)


def stored_near_blocks(h):
    """(row start, col start, block) of every stored near block, each block
    a view of its slice of the near stack it sits in."""
    return [
        (r0, c0, block)
        for stack in h.near.stacks
        for r0, c0, block in zip(stack.row_starts.tolist(), stack.col_starts.tolist(), stack.data)
    ]


def applied_near_blocks(h):
    """(row start, col start, block) of every near block the operator
    applies: each stored block, and after it its mirror, if it has one, as
    the transposed view of the stored block."""
    blocks = []
    for stack in h.near.stacks:
        for r0, c0, block in zip(stack.row_starts.tolist(), stack.col_starts.tolist(), stack.data):
            blocks.append((r0, c0, block))
            if stack.mirrored:
                blocks.append((c0, r0, block.T))
    return blocks


def applied_far_blocks(h, level, mirror):
    """(row start, col start, u, v) of every far block of ``level`` the
    operator applies: each stored block, and after it its mirror
    (v^T, u^T at the transposed position) when the operator mirrors, that
    is when its kernel is reciprocal."""
    blocks = []
    for blk in h.far_blocks.get(level, ()):
        blocks.append((blk.row_start, blk.col_start, blk.u, blk.v))
        if mirror:
            blocks.append((blk.col_start, blk.row_start, blk.v.T, blk.u.T))
    return blocks


def factor_scaled_near_field(monkeypatch, c):
    """Make ``compute_scaling`` factor c * Z_N in place of the stored Z_N:
    the near solve is then alpha / c, and the level-0 defect |1/c - 1|.
    The factor is kept with the near field, so an operator factored under
    this patch keeps the de-scaled solve."""
    real_splu = scaling.splu
    monkeypatch.setattr(scaling, "splu", lambda a, **kw: real_splu(c * a, **kw))


def halved_strip(element):
    """25.6-wavelength strip at 10 per wavelength (N = 256) with the extent
    of one element halved, so its kernel is not reciprocal."""
    mesh = discretize_strip(25.6, 10)
    extents = mesh.extents.copy()
    extents[element] *= 0.5
    return Mesh(mesh.kind, mesh.centers, extents, mesh.eps_r)


@pytest.fixture(scope="session")
def strip_system():
    """4-wavelength strip, N = 128, depth-2 tree, with its dense oracle.

    Session-scoped because assembly is the slow part and every consumer
    treats the objects as read-only.
    """
    mesh = discretize_strip(4.0, 32)
    spec = KernelSpec.for_mesh(mesh)
    tree = build_cluster_tree(mesh, 32)
    h = assemble(spec, tree, tol=1e-3)
    z_mesh = assemble_dense(spec)
    z_perm = z_mesh[np.ix_(tree.permutation, tree.permutation)]
    return {"mesh": mesh, "spec": spec, "tree": tree, "h": h, "z_mesh": z_mesh, "z_perm": z_perm}
