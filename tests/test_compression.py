import re
from functools import partial

import numpy as np
import pytest

from hpss import KernelSpec, aca, discretize_strip, recompress, z_block
from hpss.compression import ACA_START_RANK, BlockError


def dense_block(entry_fn, rows, cols):
    return entry_fn(np.asarray(rows), np.asarray(cols))


def matrix_entry_fn(matrix):
    """Entries of ``matrix``, broadcast over stacks as ``z_block`` does."""
    return lambda rows, cols: matrix[np.asarray(rows, int)[..., :, None], np.asarray(cols, int)[..., None, :]]


def test_rank_one_block_terminates_at_one_cross():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    b = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    m = np.outer(a, b)
    [(u, v)] = aca(matrix_entry_fn(m), np.arange(40)[None], np.arange(25)[None], tol=1e-10)
    assert u.shape[1] == 1
    assert np.linalg.norm(u @ v - m) <= 1e-12 * np.linalg.norm(m)


def test_zero_block_yields_rank_zero():
    [(u, v)] = aca(matrix_entry_fn(np.zeros((8, 6), dtype=complex)), np.arange(8)[None], np.arange(6)[None], tol=1e-6)
    assert u.shape == (8, 0)
    assert v.shape == (0, 6)


def test_exactly_low_rank_block_exhausts_cleanly():
    # rank 3 with tight tolerance: pivot exhaustion must not loop or raise
    rng = np.random.default_rng(4)
    m = sum(
        np.outer(rng.standard_normal(12) + 1j * rng.standard_normal(12), rng.standard_normal(9))
        for _ in range(3)
    )
    [(u, v)] = aca(matrix_entry_fn(m), np.arange(12)[None], np.arange(9)[None], tol=1e-14)
    assert u.shape[1] <= 6
    assert np.linalg.norm(u @ v - m) <= 1e-10 * np.linalg.norm(m)


# (40, 24) and (24, 40) outgrow the factors' first ACA_START_RANK = 16 columns
@pytest.mark.parametrize("m, n", [(12, 7), (40, 24), (24, 40)])
def test_zero_tolerance_runs_to_full_rank(m, n):
    rng = np.random.default_rng(5)
    block = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    [(u, v)] = aca(matrix_entry_fn(block), np.arange(m)[None], np.arange(n)[None], tol=0.0)
    assert u.shape == (m, min(m, n))
    assert v.shape == (min(m, n), n)
    assert np.linalg.norm(u @ v - block) <= 1e-10 * np.linalg.norm(block)


def well_separated_block():
    """Two 64-element clusters, four diameters apart, on a long strip, as
    a stack of one block."""
    mesh = discretize_strip(40.0, 10)
    spec = KernelSpec.for_mesh(mesh)
    entry_fn = partial(z_block, spec)
    rows = np.arange(0, 64)[None]       # spans 6.4 wavelengths
    cols = np.arange(320, 384)[None]    # gap of 25.6 wavelengths = 4 diameters
    return entry_fn, rows, cols


def test_separated_surface_block_compresses_well():
    entry_fn, rows, cols = well_separated_block()
    ref = dense_block(entry_fn, rows[0], cols[0])
    [(u, v)] = aca(entry_fn, rows, cols, tol=1e-3)
    assert u.shape[1] <= 32  # far below full rank 64
    err = np.linalg.norm(u @ v - ref) / np.linalg.norm(ref)
    assert err <= 3e-3
    # the dense SVD says how many singular values actually matter; ACA may
    # overshoot that count a little but not wildly
    s = np.linalg.svd(ref, compute_uv=False)
    svd_rank = int(np.sum(s > 1e-3 * s[0]))
    assert u.shape[1] <= svd_rank + 6


def test_aca_is_deterministic():
    entry_fn, rows, cols = well_separated_block()
    [(u1, v1)] = aca(entry_fn, rows, cols, tol=1e-4)
    [(u2, v2)] = aca(entry_fn, rows, cols, tol=1e-4)
    assert np.array_equal(u1, u2)
    assert np.array_equal(v1, v2)


@pytest.mark.parametrize(
    "rows, cols",
    [(np.arange(4), np.arange(3)[None]), (np.arange(4)[None], np.arange(3)), (np.arange(8).reshape(2, 4), np.arange(3)[None])],
    ids=["rows-1d", "cols-1d", "stack-sizes-differ"],
)
def test_aca_takes_only_stacks(rows, cols):
    entry_fn = matrix_entry_fn(np.eye(8, dtype=complex))
    with pytest.raises(ValueError, match=r"aca takes \(B, m\) rows and \(B, n\) cols, got shapes"):
        aca(entry_fn, rows, cols, 1e-6)
    # a stack of one gives a list of one
    factors = aca(entry_fn, np.arange(4)[None], np.arange(3)[None], 1e-6)
    assert isinstance(factors, list) and len(factors) == 1


def test_recompress_drops_duplicated_directions():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
    u[:, 3] = u[:, 0]  # redundant cross
    v = rng.standard_normal((4, 20)) + 1j * rng.standard_normal((4, 20))
    u2, v2 = recompress(u, v, tol=1e-10)
    assert u2.shape[1] < 4
    assert np.linalg.norm(u2 @ v2 - u @ v) <= 1e-9 * np.linalg.norm(u @ v)


def test_recompress_idempotent_and_rank_stable():
    entry_fn, rows, cols = well_separated_block()
    [(u, v)] = aca(entry_fn, rows, cols, tol=1e-3)
    u1, v1 = recompress(u, v, tol=1e-3)
    assert u1.shape[1] <= u.shape[1]
    u2, v2 = recompress(u1, v1, tol=1e-3)
    assert u2.shape[1] == u1.shape[1]
    assert np.linalg.norm(u2 @ v2 - u1 @ v1) <= 1e-10 * np.linalg.norm(u1 @ v1)


def test_recompress_lossless_at_zero_tol():
    rng = np.random.default_rng(11)
    u = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
    v = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
    u2, v2 = recompress(u, v, tol=0.0)
    assert np.linalg.norm(u2 @ v2 - u @ v) <= 1e-13 * np.linalg.norm(u @ v)


def test_recompress_caps_rank_at_block_dimensions():
    # more crosses than either block dimension: the rank drops to min(m, n)
    rng = np.random.default_rng(13)
    u = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    v = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
    u2, v2 = recompress(u, v, tol=0.0)
    assert u2.shape[1] <= 5
    assert u2.shape[0] == 6 and v2.shape == (u2.shape[1], 5)
    assert np.linalg.norm(u2 @ v2 - u @ v) <= 1e-13 * np.linalg.norm(u @ v)


def numpy_recompress(u, v, tol):
    """The formula ``recompress`` had before it called LAPACK directly:
    numpy's thin ``qr`` of U and thin ``svd`` of (R V)^H."""
    q, r = np.linalg.qr(u)
    x, sigma, yh = np.linalg.svd((r @ v).conj().T, full_matrices=False)
    if sigma[0] == 0.0:
        keep = 0
    elif tol == 0.0:
        keep = int(np.count_nonzero(sigma > 0.0))
    else:
        keep = int(np.count_nonzero(sigma > tol * sigma[0]))
    return q @ (yh[:keep].conj().T * sigma[:keep]), x[:, :keep].conj().T


# the three-way keep rule above is the reference for recompress's one
# comparison, which keeps the same rank for every tol in [0, 1)
@pytest.mark.parametrize("tol", [0.0, 1e-3, 0.5])
@pytest.mark.parametrize(
    "m, k, n",
    [(40, 4, 40), (20, 6, 1), (130, 3, 140), (6, 6, 9), (9, 9, 9), (6, 9, 5), (2, 40, 30)],
    ids=["k<m", "k<m, n=1", "k<m, large", "k=m", "k=m=n", "k>m", "k>>m"],
)
def test_recompress_is_numpys_qr_and_svd_bitwise(m, k, n, tol):
    rng = np.random.default_rng(m * 10_000 + k * 100 + n)
    u = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    v = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    deficient = u.copy()
    deficient[:, -1] = deficient[:, 0]  # one redundant cross
    for uu in (u, np.asfortranarray(u), np.zeros_like(u), deficient):
        got, want = recompress(uu, v, tol), numpy_recompress(uu, v, tol)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_recompress_refuses_a_non_finite_factor():
    # numpy's svd raised "SVD did not converge" here; LAPACK's zgesdd
    # refuses the matrix (info -4) and returns zero singular values, which
    # must not become a silently stored rank-0 block
    rng = np.random.default_rng(17)
    u = rng.standard_normal((20, 6)) + 1j * rng.standard_normal((20, 6))
    v = rng.standard_normal((6, 20)) + 1j * rng.standard_normal((6, 20))
    for bad in (np.nan, np.inf):
        broken = u.copy()
        broken[3, 2] = bad
        with pytest.raises(np.linalg.LinAlgError):
            recompress(broken, v, 1e-3)
        with pytest.raises(np.linalg.LinAlgError):
            numpy_recompress(broken, v, 1e-3)


def test_tolerance_rejects_negative():
    import pytest

    with pytest.raises(ValueError):
        aca(matrix_entry_fn(np.eye(3, dtype=complex)), np.arange(3)[None], np.arange(3)[None], tol=-1.0)


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_nan_or_negative_tolerance_is_refused_by_aca_and_recompress(tol):
    with pytest.raises(ValueError, match=r"compression tolerance must be in \[0, 1\)"):
        aca(matrix_entry_fn(np.eye(3, dtype=complex)), np.arange(3)[None], np.arange(3)[None], tol=tol)
    u, v = np.ones((3, 1), dtype=complex), np.ones((1, 3), dtype=complex)
    with pytest.raises(ValueError, match=r"compression tolerance must be in \[0, 1\)"):
        recompress(u, v, tol)


@pytest.mark.parametrize("tol", [1.0, 1.5, float("inf")])
def test_tolerance_of_one_or_more_is_refused_by_aca_and_recompress(tol):
    # recompress keeps the singular values above tol times the largest, so
    # from tol = 1 on it would keep none and store the block as zero
    message = re.escape(f"compression tolerance must be in [0, 1), got {tol:g}")
    with pytest.raises(ValueError, match=message):
        aca(matrix_entry_fn(np.eye(3, dtype=complex)), np.arange(3)[None], np.arange(3)[None], tol=tol)
    u, v = np.ones((3, 1), dtype=complex), np.ones((1, 3), dtype=complex)
    with pytest.raises(ValueError, match=message):
        recompress(u, v, tol)


def recording(entry_fn):
    """``entry_fn`` that also logs, in order, every row it samples alone."""
    sampled = []

    def fn(rows, cols):
        rows = np.asarray(rows)
        if rows.shape[-1] == 1:
            sampled.extend(int(r) for r in rows.ravel())
        return entry_fn(rows, cols)

    return fn, sampled


def mixed_stack(m=24, n=20):
    """Seven m-by-n blocks stacked on disjoint rows of one matrix.

    Block 0 has rank 1, block 1 rank 3, block 2 is zero, block 3 has a zero
    first row (its first pivot needs the noise-floor probe), block 4 is a
    smooth kernel of moderate rank, block 5 is random, so it runs to full
    rank, past the factors' first ``ACA_START_RANK`` columns, and block 6
    has rank 3 at 1e-14 the scale of the others, so its noise floor must
    be its own.
    """
    rng = np.random.default_rng(23)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    low_rank = cplx(m, 2) @ cplx(2, n)
    low_rank[0] = 0.0
    x, y = np.linspace(0.0, 1.0, m), np.linspace(3.0, 4.0, n)
    blocks = [
        np.outer(cplx(m), cplx(n)),
        cplx(m, 3) @ cplx(3, n),
        np.zeros((m, n), dtype=complex),
        low_rank,
        1.0 / (y[None, :] - x[:, None]) + 0j,
        cplx(m, n),
        1e-14 * cplx(m, 3) @ cplx(3, n),
    ]
    matrix = np.vstack(blocks)
    rows = np.arange(len(blocks) * m).reshape(len(blocks), m)
    cols = np.tile(np.arange(n), (len(blocks), 1))
    return matrix, rows, cols


@pytest.mark.parametrize("tol", [1e-6, 0.0])
def test_stacked_aca_equals_per_block_aca(tol):
    matrix, rows, cols = mixed_stack()
    entry_fn, sampled = recording(matrix_entry_fn(matrix))
    stacked = aca(entry_fn, rows, cols, tol)
    stacked_rows = list(sampled)
    ranks = []
    for b, (u, v) in enumerate(stacked):
        sampled.clear()
        [(u1, v1)] = aca(entry_fn, rows[b : b + 1], cols[b : b + 1], tol)
        assert u.shape == u1.shape and v.shape == v1.shape
        assert [r for r in stacked_rows if r in rows[b]] == sampled
        assert len(set(sampled)) == len(sampled)  # no row is sampled twice
        reference = u1 @ v1
        assert np.linalg.norm(u @ v - reference) <= 1e-12 * np.linalg.norm(reference)
        ranks.append(u.shape[1])
    assert ranks[2] == 0 and ranks[6] == 3
    assert len(set(ranks)) >= 4
    assert max(ranks) > ACA_START_RANK
    # the zero first row of block 3 is sampled and rejected before row 1
    block3 = [r for r in stacked_rows if r in rows[3]]
    assert block3[:2] == [rows[3, 0], rows[3, 1]]


def test_non_finite_sample_raises_and_names_its_block():
    matrix, rows, cols = mixed_stack()
    all_nan = matrix.copy()
    all_nan[rows[4]] = np.nan
    with pytest.raises(BlockError, match="non-finite") as info:
        aca(matrix_entry_fn(all_nan), rows, cols, 1e-6)
    assert info.value.index == 4
    # one NaN in the first pivot row of block 1, and on its own
    one_nan = matrix.copy()
    one_nan[rows[1, 0], 7] = np.nan
    with pytest.raises(BlockError) as info:
        aca(matrix_entry_fn(one_nan), rows, cols, 1e-6)
    assert info.value.index == 1
    with pytest.raises(BlockError, match=f"row {rows[1, 0]}"):
        aca(matrix_entry_fn(one_nan), rows[1:2], cols[1:2], 1e-6)
    # an infinity in block 0's first pivot column, met there before any row
    col_nan = matrix.copy()
    col_nan[rows[0, 5], np.argmax(np.abs(matrix[rows[0, 0]]))] = np.inf
    with pytest.raises(BlockError, match="column") as info:
        aca(matrix_entry_fn(col_nan), rows, cols, 1e-6)
    assert info.value.index == 0
