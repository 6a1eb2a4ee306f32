"""Dense linear algebra kernels.

Everything here runs in float64 regardless of the input dtype, and every
routine is deterministic: the same input yields bit-identical output (for
a fixed BLAS thread count).  Matrices are plain 2-D numpy arrays.

Eigen- and singular value decompositions are LAPACK's, called through
numpy.  The wrappers here order eigenvalues descending (ties keep LAPACK's
order) and fix the sign of each vector by making its largest-magnitude
component positive, so downstream factorizations are reproducible across
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import NumericError, RankError, ShapeError

def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise NumericError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues in descending order and eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: ``u @ diag(s) @ v.T`` reconstructs the input."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class TTCores:
    """Tensor-train cores of a padded matrix.

    Core ``i`` has shape ``(ranks[i], row_factors[i], col_factors[i],
    ranks[i+1])`` with boundary ranks 1.  The cores reconstruct a matrix of
    shape ``(prod(row_factors), prod(col_factors))``; callers that padded
    the input crop the reconstruction back down.
    """

    cores: tuple
    row_factors: tuple
    col_factors: tuple
    ranks: tuple

    def param_count(self) -> int:
        return sum(core.size for core in self.cores)


def _fix_column_signs(*mats: np.ndarray) -> None:
    """Flip column pairs in place so the first matrix obeys the convention:
    the largest-magnitude component of each column is positive.  Extra
    matrices receive the same flips (keeps products unchanged)."""
    lead = mats[0]
    if lead.shape[1] == 0:
        return
    pick = np.abs(lead).argmax(axis=0)
    signs = np.sign(lead[pick, np.arange(lead.shape[1])])
    signs[signs == 0] = 1.0
    for m in mats:
        m *= signs


def sym_eigen(a) -> EigenResult:
    """Eigendecomposition of a symmetric matrix.

    The input is symmetrized as (A + A.T)/2 before solving; inputs that are
    asymmetric beyond 1e-9 are rejected.  Eigenvalues come back in
    descending order with a stable tie order, eigenvectors as orthonormal
    columns with the sign convention applied.
    """
    arr = _as_matrix(a)
    n, m = arr.shape
    if n != m:
        raise ShapeError(f"expected a square matrix, got {arr.shape}")
    if n == 0:
        return EigenResult(np.zeros(0), np.zeros((0, 0)))
    scale = max(1.0, float(np.abs(arr).max()))
    if float(np.abs(arr - arr.T).max()) > 1e-9 * scale:
        raise ShapeError("matrix is not symmetric within tolerance 1e-9")
    values, vectors = np.linalg.eigh(0.5 * (arr + arr.T))
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    _fix_column_signs(vectors)
    return EigenResult(values, vectors)


def svd_thin(m) -> SvdResult:
    """Thin SVD.

    Singular values are non-negative and descending; u and v have
    orthonormal columns, also where singular values are zero.
    """
    mat = _as_matrix(m)
    d1, d2 = mat.shape
    if d1 == 0 or d2 == 0:
        k = min(d1, d2)
        return SvdResult(np.zeros((d1, k)), np.zeros(k), np.zeros((d2, k)))
    u, sigma, vt = np.linalg.svd(mat, full_matrices=False)
    v = vt.T
    _fix_column_signs(u, v)
    return SvdResult(u, sigma, v)


def svd_factors(res: SvdResult, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the rank-k truncation of a thin SVD into factors (M1, M2).

    M1 = U_k sqrt(S_k) has shape (rows, k); M2 = sqrt(S_k) V_k^T has shape
    (k, cols).  The singular mass splits evenly between the factors.
    """
    limit = res.singular_values.size
    if not 1 <= k <= limit:
        shape = (res.u.shape[0], res.v.shape[0])
        raise RankError(f"rank {k} outside [1, {limit}] for shape {shape}")
    root = np.sqrt(res.singular_values[:k])
    return res.u[:, :k] * root, root[:, None] * res.v[:, :k].T


def low_rank_factors_svd(m, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-k factors (M1, M2) with M1 @ M2 the best rank-k approximation,
    split as in :func:`svd_factors`."""
    return svd_factors(svd_thin(m), k)


def _check_factors(factors, dim: int, name: str) -> tuple:
    fac = tuple(int(f) for f in factors)
    if not fac or any(f < 1 for f in fac):
        raise ShapeError(f"{name} must be a non-empty tuple of positive ints")
    if prod(fac) < dim:
        raise ShapeError(
            f"product of {name} {fac} = {prod(fac)} is smaller than the "
            f"matrix dimension {dim}"
        )
    return fac


def tt_decompose_matrix(m, row_factors, col_factors, max_rank=None) -> TTCores:
    """Tensor-train decomposition of a matrix via the TT-SVD sweep.

    The matrix is zero-padded so its dimensions equal the factor products,
    reshaped into a tensor whose mode ``i`` pairs ``row_factors[i]`` with
    ``col_factors[i]``, and swept left to right with truncated SVDs.  Bond
    ranks are capped at ``max_rank`` when given, otherwise only numerically
    zero singular values are dropped.
    """
    mat = _as_matrix(m)
    rows, cols = mat.shape
    rf = _check_factors(row_factors, rows, "row_factors")
    cf = _check_factors(col_factors, cols, "col_factors")
    if len(rf) != len(cf):
        raise ShapeError("row_factors and col_factors must have equal length")
    if max_rank is not None and int(max_rank) < 1:
        raise RankError(f"max_rank must be >= 1, got {max_rank}")
    n_cores = len(rf)
    padded = np.zeros((prod(rf), prod(cf)))
    padded[:rows, :cols] = mat
    tensor = padded.reshape(rf + cf)
    perm = []
    for i in range(n_cores):
        perm.extend((i, n_cores + i))
    tensor = tensor.transpose(perm).reshape([rf[i] * cf[i] for i in range(n_cores)])

    cores = []
    ranks = [1]
    cur = tensor.reshape(1, -1)
    for i in range(n_cores - 1):
        step = cur.reshape(ranks[-1] * rf[i] * cf[i], -1)
        res = svd_thin(step)
        top = res.singular_values[0] if res.singular_values.size else 0.0
        if top <= 0.0:
            # zero remainder: emit zero cores for everything that is left
            r = 1
            cores.append(np.zeros((ranks[-1], rf[i], cf[i], r)))
            ranks.append(r)
            cur = np.zeros((r, step.shape[1]))
            continue
        r = int(np.count_nonzero(res.singular_values > top * 1e-13))
        r = max(r, 1)
        if max_rank is not None:
            r = min(r, int(max_rank))
        cores.append(
            np.ascontiguousarray(res.u[:, :r].reshape(ranks[-1], rf[i], cf[i], r))
        )
        ranks.append(r)
        cur = res.singular_values[:r, None] * res.v[:, :r].T
    cores.append(np.ascontiguousarray(cur.reshape(ranks[-1], rf[-1], cf[-1], 1)))
    ranks.append(1)
    return TTCores(tuple(cores), rf, cf, tuple(ranks))


def tt_reconstruct_row(tt: TTCores, row_index: int) -> np.ndarray:
    """Rebuild one row of the (padded) matrix by contracting core slices.

    This is the embedding lookup path for tensor-train tables: every call
    redoes the full chain of small matrix products, which is exactly the
    cost the throughput benchmark measures.
    """
    total = prod(tt.row_factors)
    idx = int(row_index)
    if not 0 <= idx < total:
        raise IndexError(f"row index {row_index} outside [0, {total})")
    digits = []
    rest = idx
    for f in reversed(tt.row_factors):
        digits.append(rest % f)
        rest //= f
    digits.reverse()
    acc = tt.cores[0][0, digits[0], :, :]  # (n_0, r_1)
    for core, digit in zip(tt.cores[1:], digits[1:]):
        piece = core[:, digit, :, :]  # (r_prev, n_i, r_next)
        acc = np.tensordot(acc, piece, axes=([acc.ndim - 1], [0]))
        acc = acc.reshape(-1, piece.shape[-1])
    return acc.reshape(-1)


def tt_reconstruct_full(tt: TTCores) -> np.ndarray:
    """Contract all cores back into the padded matrix (test/report helper)."""
    k = len(tt.cores)
    acc = tt.cores[0][0]  # (m_0, n_0, r_1)
    for core in tt.cores[1:]:
        acc = np.tensordot(acc, core, axes=([acc.ndim - 1], [0]))
    # acc axes: m_0, n_0, m_1, n_1, ..., m_{k-1}, n_{k-1}, 1
    acc = acc.reshape(acc.shape[:-1])
    perm = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))
    acc = acc.transpose(perm)
    return acc.reshape(prod(tt.row_factors), prod(tt.col_factors))


def plan_tt_factors(dim: int, parts: int = 3) -> tuple:
    """Pick ``parts`` roughly balanced factors whose product covers ``dim``.

    Searches upward from ``dim`` for the first integer that splits into
    ``parts`` factors all within 4x of the ideal cube root; used to derive
    default tensor-train shapes for embedding tables.
    """
    if dim < 1:
        raise ShapeError(f"dimension must be positive, got {dim}")
    if parts < 1:
        raise ShapeError(f"parts must be positive, got {parts}")
    if parts == 1:
        return (dim,)

    def balanced_split(n: int) -> tuple | None:
        ideal = n ** (1.0 / parts)
        factors = []
        rest = n
        for _ in range(parts - 1):
            best = None
            limit = int(rest ** 0.5) + 1
            for f in range(2, max(3, limit + 1)):
                if rest % f == 0:
                    if best is None or abs(f - ideal) < abs(best - ideal):
                        best = f
            if best is None:
                return None
            factors.append(best)
            rest //= best
        factors.append(rest)
        factors.sort()
        if factors[0] < 2 or factors[-1] > 4.0 * ideal:
            return None
        return tuple(factors)

    for cand in range(dim, 4 * dim + 2):
        split = balanced_split(cand)
        if split is not None:
            return split
    return (dim,) + (1,) * (parts - 1)
