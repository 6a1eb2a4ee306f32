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
        if not np.isfinite(arr).all():
            raise NumericError("batch contains non-finite values")
        self.n += arr.shape[0]
        self.sum += arr.sum(axis=0)
        outer = arr.T @ arr
        self.sum_outer += 0.5 * (outer + outer.T)

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


@dataclass
class ActivationTap:
    """Pairs a capture point name with its accumulator."""

    layer_id: str
    accumulator: MomentAccumulator = field(repr=False)

    @classmethod
    def for_dim(cls, layer_id: str, dim: int) -> "ActivationTap":
        return cls(layer_id, MomentAccumulator(dim))
