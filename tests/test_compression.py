import numpy as np
import pytest

from hpss import KernelSpec, aca, discretize_strip, recompress
from hpss.kernels import entry_function


def dense_block(entry_fn, rows, cols):
    return entry_fn(np.asarray(rows), np.asarray(cols))


def matrix_entry_fn(matrix):
    return lambda rows, cols: matrix[np.ix_(np.asarray(rows, int), np.asarray(cols, int))]


def test_rank_one_block_terminates_at_one_cross():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    b = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    m = np.outer(a, b)
    u, v = aca(matrix_entry_fn(m), np.arange(40), np.arange(25), tol=1e-10)
    assert u.shape[1] == 1
    assert np.linalg.norm(u @ v - m) <= 1e-12 * np.linalg.norm(m)


def test_zero_block_yields_rank_zero():
    u, v = aca(matrix_entry_fn(np.zeros((8, 6), dtype=complex)), np.arange(8), np.arange(6), tol=1e-6)
    assert u.shape == (8, 0)
    assert v.shape == (0, 6)


def test_exactly_low_rank_block_exhausts_cleanly():
    # rank 3 with tight tolerance: pivot exhaustion must not loop or raise
    rng = np.random.default_rng(4)
    m = sum(
        np.outer(rng.standard_normal(12) + 1j * rng.standard_normal(12), rng.standard_normal(9))
        for _ in range(3)
    )
    u, v = aca(matrix_entry_fn(m), np.arange(12), np.arange(9), tol=1e-14)
    assert u.shape[1] <= 6
    assert np.linalg.norm(u @ v - m) <= 1e-10 * np.linalg.norm(m)


# (40, 24) and (24, 40) outgrow the factors' first ACA_START_RANK = 16 columns
@pytest.mark.parametrize("m, n", [(12, 7), (40, 24), (24, 40)])
def test_zero_tolerance_runs_to_full_rank(m, n):
    rng = np.random.default_rng(5)
    block = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    u, v = aca(matrix_entry_fn(block), np.arange(m), np.arange(n), tol=0.0)
    assert u.shape == (m, min(m, n))
    assert v.shape == (min(m, n), n)
    assert np.linalg.norm(u @ v - block) <= 1e-10 * np.linalg.norm(block)


def well_separated_block():
    """Two 64-element clusters, four diameters apart, on a long strip."""
    mesh = discretize_strip(40.0, 10)
    spec = KernelSpec.for_mesh(mesh)
    entry_fn = entry_function(spec)
    rows = np.arange(0, 64)       # spans 6.4 wavelengths
    cols = np.arange(320, 384)    # gap of 25.6 wavelengths = 4 diameters
    return entry_fn, rows, cols


def test_separated_surface_block_compresses_well():
    entry_fn, rows, cols = well_separated_block()
    ref = dense_block(entry_fn, rows, cols)
    u, v = aca(entry_fn, rows, cols, tol=1e-3)
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
    u1, v1 = aca(entry_fn, rows, cols, tol=1e-4)
    u2, v2 = aca(entry_fn, rows, cols, tol=1e-4)
    assert np.array_equal(u1, u2)
    assert np.array_equal(v1, v2)


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
    u, v = aca(entry_fn, rows, cols, tol=1e-3)
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


def test_tolerance_rejects_negative():
    import pytest

    with pytest.raises(ValueError):
        aca(matrix_entry_fn(np.eye(3, dtype=complex)), np.arange(3), np.arange(3), tol=-1.0)
