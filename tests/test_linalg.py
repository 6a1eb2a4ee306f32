"""Tests for the dense linear-algebra kernels.

Expected values come from hand calculations on small fixed matrices and
from the characteristic polynomial, which are independent of LAPACK.
Where numpy.linalg serves as a reference, it is the same LAPACK the
kernels call, so those cases check the wrapping (order, signs, shapes)
rather than the numbers.
"""

import numpy as np
import pytest

from lowrank_ctr.errors import NumericError, RankError, ShapeError
from lowrank_ctr.linalg import (
    TTCores,
    low_rank_factors_svd,
    plan_tt_factors,
    svd_thin,
    sym_eigen,
    tt_decompose_matrix,
    tt_reconstruct_row,
)


def eig2_by_char_poly(a):
    """Quadratic-formula eigenvalues of a symmetric 2x2, descending."""
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])


# -- eigendecomposition ------------------------------------------------------


def test_eigen_two_sample_covariance_matrix():
    a = np.array([[0.25, -0.25], [-0.25, 0.25]])
    res = sym_eigen(a)
    np.testing.assert_allclose(res.eigenvalues, [0.5, 0.0], atol=1e-14)
    np.testing.assert_allclose(res.eigenvalues, eig2_by_char_poly(a), atol=1e-14)
    # sign rule: the largest-magnitude component (tie -> first) is positive
    np.testing.assert_allclose(
        res.eigenvectors[:, 0], np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-14
    )


def test_eigen_identity_keeps_order_and_columns():
    res = sym_eigen(np.eye(3))
    np.testing.assert_allclose(res.eigenvalues, [1.0, 1.0, 1.0], atol=0)
    np.testing.assert_allclose(res.eigenvectors, np.eye(3), atol=0)


def test_eigen_diagonal():
    res = sym_eigen(np.diag([5.0, 2.0, 0.0]))
    np.testing.assert_allclose(res.eigenvalues, [5.0, 2.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(res.eigenvectors), np.eye(3), atol=1e-14)


def test_eigen_random_2x2_against_char_poly():
    rng = np.random.default_rng(11)
    for _ in range(50):
        b = rng.standard_normal((2, 2))
        a = b + b.T
        res = sym_eigen(a)
        np.testing.assert_allclose(
            res.eigenvalues, eig2_by_char_poly(a), atol=1e-12
        )


def test_eigen_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        b = rng.standard_normal((8, 8))
        a = b + b.T
        res = sym_eigen(a)
        lam, u = res.eigenvalues, res.eigenvectors
        assert np.all(np.diff(lam) <= 1e-12)  # descending
        np.testing.assert_allclose(u.T @ u, np.eye(8), atol=1e-9)
        np.testing.assert_allclose(a @ u, u * lam, atol=1e-8)


def test_eigen_deterministic():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((6, 6))
    a = b + b.T
    r1 = sym_eigen(a)
    r2 = sym_eigen(a)
    assert r1.eigenvalues.tobytes() == r2.eigenvalues.tobytes()
    assert r1.eigenvectors.tobytes() == r2.eigenvectors.tobytes()


def test_eigen_rejects_bad_input():
    with pytest.raises(ShapeError):
        sym_eigen(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NumericError):
        sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# -- singular value decomposition -------------------------------------------


def test_svd_diagonal():
    res = svd_thin(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(res.singular_values, [3.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(res.u, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(res.v, np.eye(2), atol=1e-14)


def test_svd_rank_one():
    a = np.array([1.0, -2.0, 2.0])
    b = np.array([3.0, 4.0])
    res = svd_thin(np.outer(a, b))
    expected = np.linalg.norm(a) * np.linalg.norm(b)
    np.testing.assert_allclose(res.singular_values[0], expected, rtol=1e-12)
    np.testing.assert_allclose(res.singular_values[1:], 0.0, atol=1e-9)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(21)
    for shape in [(4, 3), (3, 4), (6, 6), (2, 9)]:
        m = rng.standard_normal(shape)
        res = svd_thin(m)
        k = min(shape)
        recon = res.u * res.singular_values @ res.v.T
        assert np.linalg.norm(m - recon) <= 1e-8 * np.linalg.norm(m)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(k), atol=1e-8)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(k), atol=1e-8)
        assert np.all(np.diff(res.singular_values) <= 1e-12)
        np.testing.assert_allclose(
            res.singular_values, np.linalg.svd(m, compute_uv=False), atol=1e-9
        )


@pytest.mark.parametrize("shape", [(7, 4), (4, 7)])
def test_svd_rank_deficient_keeps_orthonormal_factors(shape):
    rng = np.random.default_rng(41)
    # rank 2 of min(shape) = 4: two singular values are zero
    m = rng.standard_normal((shape[0], 2)) @ rng.standard_normal((2, shape[1]))
    res = svd_thin(m)
    assert res.u.shape == (shape[0], 4) and res.v.shape == (shape[1], 4)
    np.testing.assert_allclose(res.singular_values[2:], 0.0, atol=1e-12)
    np.testing.assert_allclose(res.u.T @ res.u, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(res.v.T @ res.v, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(res.u * res.singular_values @ res.v.T, m, atol=1e-12)


def test_svd_sign_convention_on_u_columns():
    rng = np.random.default_rng(43)
    for shape in [(6, 3), (3, 6), (5, 5)]:
        res = svd_thin(rng.standard_normal(shape))
        cols = np.arange(res.u.shape[1])
        lead = res.u[np.abs(res.u).argmax(axis=0), cols]
        assert np.all(lead > 0)


def test_svd_deterministic():
    rng = np.random.default_rng(47)
    m = rng.standard_normal((9, 5))
    r1 = svd_thin(m)
    r2 = svd_thin(m)
    for a, b in [(r1.u, r2.u), (r1.singular_values, r2.singular_values), (r1.v, r2.v)]:
        assert a.tobytes() == b.tobytes()


def test_low_rank_factors_hand_case():
    m1, m2 = low_rank_factors_svd(np.diag([3.0, 1.0]), 1)
    np.testing.assert_allclose(m1 @ m2, [[3.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert np.isclose(np.linalg.norm(np.diag([3.0, 1.0]) - m1 @ m2), 1.0)


def test_low_rank_factors_full_rank_identity():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 4))
    m1, m2 = low_rank_factors_svd(m, 4)
    assert np.linalg.norm(m - m1 @ m2) <= 1e-8 * np.linalg.norm(m)


def test_low_rank_factors_error_is_tail_energy():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((5, 4))
    m1, m2 = low_rank_factors_svd(m, 2)
    sigma = np.linalg.svd(m, compute_uv=False)
    expected = np.sqrt(np.sum(sigma[2:] ** 2))
    assert np.isclose(np.linalg.norm(m - m1 @ m2), expected, rtol=1e-6)


def test_low_rank_factors_rank_bounds():
    m = np.eye(3)
    with pytest.raises(RankError):
        low_rank_factors_svd(m, 0)
    with pytest.raises(RankError):
        low_rank_factors_svd(m, 4)


# -- tensor-train decomposition ----------------------------------------------


def dense_tt_sweep(mat, row_factors, col_factors, max_rank):
    """Reference TT-SVD using numpy.linalg.svd, truncated reconstruction."""
    rf, cf = tuple(row_factors), tuple(col_factors)
    n = len(rf)
    padded = np.zeros((np.prod(rf), np.prod(cf)))
    padded[: mat.shape[0], : mat.shape[1]] = mat
    tensor = padded.reshape(rf + cf)
    perm = []
    for i in range(n):
        perm.extend((i, n + i))
    tensor = tensor.transpose(perm).reshape([rf[i] * cf[i] for i in range(n)])
    cores = []
    rank = 1
    cur = tensor.reshape(1, -1)
    for i in range(n - 1):
        step = cur.reshape(rank * rf[i] * cf[i], -1)
        u, s, vt = np.linalg.svd(step, full_matrices=False)
        r = max(int(np.count_nonzero(s > s[0] * 1e-13)), 1) if s.size else 1
        r = min(r, max_rank)
        cores.append(u[:, :r].reshape(rank, rf[i], cf[i], r))
        rank = r
        cur = s[:r, None] * vt[:r]
    cores.append(cur.reshape(rank, rf[-1], cf[-1], 1))
    return contract_tt(cores)


def contract_tt(cores):
    """The padded matrix that tensor-train ``cores`` (each (r, m, n, r_next))
    reconstruct, by one ``np.tensordot`` per core, in the cores' dtype."""
    n = len(cores)
    acc = cores[0][0]
    for core in cores[1:]:
        acc = np.tensordot(acc, core, axes=([acc.ndim - 1], [0]))
    # acc axes: m_0, n_0, m_1, n_1, ..., m_{n-1}, n_{n-1}, 1
    acc = acc.reshape(acc.shape[:-1])
    back = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    rows = int(np.prod([c.shape[1] for c in cores]))
    cols = int(np.prod([c.shape[2] for c in cores]))
    return acc.transpose(back).reshape(rows, cols)


def test_tt_full_rank_identity():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4))
    tt = tt_decompose_matrix(m, (2, 2), (2, 2))
    np.testing.assert_allclose(contract_tt(tt.cores), m, atol=1e-7)


def test_tt_zero_matrix():
    tt = tt_decompose_matrix(np.zeros((4, 4)), (2, 2), (2, 2))
    assert not contract_tt(tt.cores).any()
    # the truncation keeps at least rank 1, so the cores have the given factors
    assert tt.ranks == (1, 1, 1)
    assert tt.row_factors == (2, 2) and tt.col_factors == (2, 2)


def test_tt_truncation_matches_dense_sweep_oracle():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((6, 6))
    tt = tt_decompose_matrix(m, (2, 4), (2, 4), max_rank=2)
    recon = contract_tt(tt.cores)
    oracle = dense_tt_sweep(m, (2, 4), (2, 4), max_rank=2)
    padded = np.zeros((8, 8))
    padded[:6, :6] = m
    err = np.linalg.norm(padded - recon)
    err_oracle = np.linalg.norm(padded - oracle)
    assert np.isclose(err, err_oracle, rtol=1e-7)


def test_tt_row_lookup_full_rank():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((6, 5))
    tt = tt_decompose_matrix(m, (2, 3), (5, 1))
    np.testing.assert_allclose(tt_reconstruct_row(tt, 0), m[0], atol=1e-7)


def test_tt_row_lookup_zero_cores():
    tt = tt_decompose_matrix(np.zeros((4, 4)), (2, 2), (2, 2))
    assert not tt_reconstruct_row(tt, 3).any()


def test_tt_row_lookup_matches_full_reconstruction():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((4, 4))
    tt = tt_decompose_matrix(m, (2, 2), (2, 2), max_rank=2)
    full = contract_tt(tt.cores)
    for row in range(4):
        np.testing.assert_allclose(tt_reconstruct_row(tt, row), full[row], atol=1e-7)
    with pytest.raises(IndexError):
        tt_reconstruct_row(tt, 4)


def tt_row_by_tensordot(tt, row):
    """The ``np.tensordot`` chain the row kernel replaced, as its reference."""
    digits, rest = [], int(row)
    for f in reversed(tt.row_factors):
        digits.append(rest % f)
        rest //= f
    digits.reverse()
    acc = tt.cores[0][0, digits[0], :, :]
    for core, digit in zip(tt.cores[1:], digits[1:]):
        piece = core[:, digit, :, :]
        acc = np.tensordot(acc, piece, axes=([acc.ndim - 1], [0]))
        acc = acc.reshape(-1, piece.shape[-1])
    return acc.reshape(-1)


@pytest.mark.parametrize("rank", [4, 8])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tt_row_kernel_bit_identical_to_tensordot_chain(rank, dtype):
    # a synth-shaped table: 10 000 items of width 16 in three cores, cast to
    # the model dtype as tt_compress_embedding does
    rng = np.random.default_rng(41)
    table = rng.uniform(-0.01, 0.01, (10000, 16))
    tt = tt_decompose_matrix(
        table, plan_tt_factors(10000), plan_tt_factors(16), max_rank=rank
    )
    assert len(tt.cores) == 3 and max(tt.ranks) == rank
    tt = TTCores(tuple(c.astype(dtype) for c in tt.cores))
    rows = [0, 1, 9999] + rng.integers(0, 10000, size=1000).tolist()
    for row in rows:
        got = tt_reconstruct_row(tt, row)
        want = tt_row_by_tensordot(tt, row)
        assert got.dtype == want.dtype and got.shape == want.shape == (16,)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape, row_factors, col_factors", [
    ((6, 4), (7,), (5,)),
    ((7, 5), (2, 4), (3, 2)),
    ((11, 5), (2, 3, 2), (2, 1, 3)),
    ((13, 7), (2, 2, 2, 2), (1, 2, 2, 2)),
])
def test_tt_row_kernel_matches_full_reconstruction_with_padding(
    shape, row_factors, col_factors
):
    m = np.random.default_rng(43).standard_normal(shape)
    tt = tt_decompose_matrix(m, row_factors, col_factors, max_rank=3)
    assert tt.row_factors == row_factors and tt.col_factors == col_factors
    full = contract_tt(tt.cores)
    assert full.shape[0] > shape[0] and full.shape[1] > shape[1]
    for row in range(full.shape[0]):  # padding rows included
        np.testing.assert_allclose(
            tt_reconstruct_row(tt, row), full[row], rtol=0, atol=1e-12
        )


def test_tt_row_kernel_range_check_and_integer_inputs():
    m = np.random.default_rng(47).standard_normal((11, 5))
    tt = tt_decompose_matrix(m, (2, 3, 2), (2, 1, 3), max_rank=2)
    for bad in (-1, -12, 12, 13, np.int64(-1), np.int64(12)):
        with pytest.raises(IndexError, match=r"outside \[0, 12\)"):
            tt_reconstruct_row(tt, bad)
    want = tt_reconstruct_row(tt, 7)
    for row in (np.int64(7), np.int32(7), np.uint8(7), np.array([7])[0]):
        assert tt_reconstruct_row(tt, row).tobytes() == want.tobytes()


def test_tt_rank_chain_shapes():
    rng = np.random.default_rng(37)
    m = rng.standard_normal((8, 8))
    tt = tt_decompose_matrix(m, (2, 2, 2), (2, 2, 2), max_rank=3)
    # both inner bonds would be 4 uncapped; the cap holds them at 3
    assert tt.ranks == (1, 3, 3, 1)
    assert tt.row_factors == tt.col_factors == (2, 2, 2)
    for i, core in enumerate(tt.cores):
        assert core.shape == (tt.ranks[i], 2, 2, tt.ranks[i + 1])


def test_tt_factor_validation():
    with pytest.raises(ShapeError):
        tt_decompose_matrix(np.zeros((10, 4)), (2, 2), (2, 2))
    with pytest.raises(ShapeError):
        tt_decompose_matrix(np.zeros((4, 4)), (2, 2), (2, 2, 1))
    with pytest.raises(RankError):
        tt_decompose_matrix(np.zeros((4, 4)), (2, 2), (2, 2), max_rank=0)


def test_plan_tt_factors():
    for dim in (16, 50, 64, 10000, 7):
        fac = plan_tt_factors(dim)
        assert len(fac) == 3
        assert np.prod(fac) >= dim
    assert np.prod(plan_tt_factors(10000)) == 10000  # splits evenly
