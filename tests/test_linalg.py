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
    low_rank_factors_svd,
    plan_tt_factors,
    svd_thin,
    sym_eigen,
    tt_decompose_matrix,
    tt_reconstruct_full,
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
    acc = cores[0][0]
    for core in cores[1:]:
        acc = np.tensordot(acc, core, axes=([acc.ndim - 1], [0]))
    acc = acc.reshape(acc.shape[:-1])
    back = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return acc.transpose(back).reshape(np.prod(rf), np.prod(cf))


def test_tt_full_rank_identity():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4))
    tt = tt_decompose_matrix(m, (2, 2), (2, 2))
    np.testing.assert_allclose(tt_reconstruct_full(tt), m, atol=1e-7)


def test_tt_zero_matrix():
    tt = tt_decompose_matrix(np.zeros((4, 4)), (2, 2), (2, 2))
    for core in tt.cores:
        assert not core.any()
    assert not tt_reconstruct_full(tt).any()


def test_tt_truncation_matches_dense_sweep_oracle():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((6, 6))
    tt = tt_decompose_matrix(m, (2, 4), (2, 4), max_rank=2)
    recon = tt_reconstruct_full(tt)
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
    full = tt_reconstruct_full(tt)
    for row in range(4):
        np.testing.assert_allclose(tt_reconstruct_row(tt, row), full[row], atol=1e-7)
    with pytest.raises(IndexError):
        tt_reconstruct_row(tt, 4)


def test_tt_rank_chain_shapes():
    rng = np.random.default_rng(37)
    m = rng.standard_normal((8, 8))
    tt = tt_decompose_matrix(m, (2, 2, 2), (2, 2, 2), max_rank=3)
    assert tt.ranks[0] == tt.ranks[-1] == 1
    assert all(r <= 3 for r in tt.ranks)
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
