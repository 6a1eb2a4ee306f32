"""Streaming first and second moments of layer activations.

Accumulators keep a running sum, a running outer-product sum and a sample
count, all in float64, so calibration can stream over a dataset in batches
(or in shards merged afterwards) and still produce the same covariance a
two-pass computation would.  Covariances are population-normalized (1/n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyAccumulatorError, NumericError, ShapeError


class MomentAccumulator:
    """Accumulates sum(y), sum(y y^T) and n over batches of row vectors."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ShapeError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        self.n = 0
        self.sum = np.zeros(self.dim)
        self.sum_outer = np.zeros((self.dim, self.dim))

    def update(self, batch) -> None:
        """Fold a (batch, dim) block of samples into the accumulator."""
        arr = np.asarray(batch, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ShapeError(
                f"expected batch of shape (n, {self.dim}), got {arr.shape}"
            )
        fold([self], arr[:, None, :])

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Combine two accumulators built over disjoint shards."""
        if other.dim != self.dim:
            raise ShapeError(
                f"cannot merge accumulators of dim {self.dim} and {other.dim}"
            )
        out = MomentAccumulator(self.dim)
        out.n = self.n + other.n
        out.sum = self.sum + other.sum
        out.sum_outer = self.sum_outer + other.sum_outer
        return out

    def mean(self) -> np.ndarray:
        if self.n == 0:
            raise EmptyAccumulatorError("no samples accumulated")
        return self.sum / self.n

    def covariance(self) -> tuple[np.ndarray, np.ndarray]:
        """Population mean and covariance: E[yy^T] - E[y]E[y]^T.

        The result is symmetrized; positive semidefiniteness is enforced
        downstream (tiny negative eigenvalues are clamped there).
        """
        mu = self.mean()
        cov = self.sum_outer / self.n - np.outer(mu, mu)
        return mu, 0.5 * (cov + cov.T)


def fold(accumulators, block, scratch=None) -> None:
    """Fold an (n, k, d) block of samples into k accumulators of width d:
    column i, ``block[:, i]``, into ``accumulators[i]``, or into none where
    that is None.

    Each column is read as a float64 (n, d) array ``x``: the column itself
    when the block is float64, else its C-ordered copy in ``scratch``, a
    flat float64 array of at least n * d entries that every column reuses
    (allocated when not given).  What a column adds equals a fold of that
    column alone, to the byte: its outer product is ``x.T @ x``, and its
    sum adds the rows in order, taken for all columns at once by one
    float64 sum over the block (numpy sums a lone column of width 1
    pairwise instead, so at width 1 each sum is ``x.sum(axis=0)``).  The
    sums tell finiteness: a NaN or infinite entry makes its column's sum
    non-finite, so the entries are read only when a sum is not finite (a
    float64 column of finite values can overflow one, and is accepted).
    No accumulator changes unless every column passes."""
    n, k, d = block.shape
    if len(accumulators) != k or any(a is not None and a.dim != d for a in accumulators):
        raise ShapeError(f"cannot fold a block of shape {block.shape} into "
                         f"{len(accumulators)} accumulators")
    sums = block.sum(axis=0, dtype=np.float64) if d > 1 else None
    buffer = None
    if block.dtype != np.float64:
        buffer = (np.empty(n * d) if scratch is None else scratch)[: n * d].reshape(n, d)
    folds = []
    for i, acc in enumerate(accumulators):
        if acc is None:
            continue
        x = block[:, i]
        if buffer is not None:
            x = buffer
            np.copyto(x, block[:, i])
        col_sum = x.sum(axis=0) if sums is None else sums[i]
        if not np.isfinite(col_sum).all() and not np.isfinite(x).all():
            raise NumericError("batch contains non-finite values")
        folds.append((acc, col_sum, x.T @ x))
    for acc, col_sum, outer in folds:
        acc.n += n
        acc.sum += col_sum
        acc.sum_outer += 0.5 * (outer + outer.T)


@dataclass
class ActivationTap:
    """Pairs a capture point name with its accumulator."""

    layer_id: str
    accumulator: MomentAccumulator = field(repr=False)

    @classmethod
    def for_dim(cls, layer_id: str, dim: int) -> "ActivationTap":
        return cls(layer_id, MomentAccumulator(dim))
