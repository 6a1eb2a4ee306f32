"""Ranking and probability metrics plus the throughput benchmark.

AUC uses the rank-sum formulation with average ranks for tied scores, which
gives half credit to ties exactly like a pairwise comparison would.
LogLoss clamps predictions to [1e-7, 1 - 1e-7] before taking logs.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DataError


def _check_labels_scores(labels, scores):
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1:
        raise DataError(
            f"labels and scores must be 1-D with equal length, got "
            f"{y.shape} and {s.shape}"
        )
    if y.size == 0:
        raise DataError("empty label set")
    uniq = np.unique(y)
    if not np.isin(uniq, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    return y.astype(np.int64), s


def auc(labels, scores) -> float:
    """Area under the ROC curve with average-rank tie handling."""
    y, s = _check_labels_scores(labels, scores)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC undefined: only one class present")
    order = np.argsort(s, kind="mergesort")
    sorted_scores = s[order]
    # average rank within each tie group (1-based ranks), vectorized:
    # group ids -> per-group [start, end] ranks -> midpoint
    group = np.concatenate(([0], np.cumsum(np.diff(sorted_scores) != 0)))
    counts = np.bincount(group)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    ranks = np.empty(y.size, dtype=np.float64)
    ranks[order] = (0.5 * (starts + ends))[group]
    pos_rank_sum = ranks[y == 1].sum()
    return float(
        (pos_rank_sum - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg)
    )


def logloss(labels, scores) -> float:
    """Mean binary cross entropy over clamped probability scores."""
    y, s = _check_labels_scores(labels, scores)
    p = np.clip(s, 1e-7, 1.0 - 1e-7)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log1p(-p)))


@dataclass
class MetricReport:
    auc: float
    logloss: float
    n_samples: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def evaluate_scores(labels, scores) -> MetricReport:
    return MetricReport(
        auc=auc(labels, scores),
        logloss=logloss(labels, scores),
        n_samples=int(np.asarray(labels).size),
    )


def bench_throughput(
    run_batch,
    batches,
    warmup: int = 3,
    batch_size: int | None = None,
) -> dict:
    """Median-based throughput of ``run_batch`` over pre-built batches.

    ``batches`` must hold at least ``warmup`` + 20 inputs; generation cost
    never lands inside the timed region, and the first ``warmup`` calls are
    discarded.  Returns samples/sec (median per-batch wall time) plus the
    raw timings and a hardware tag.
    """
    batches = list(batches)
    if len(batches) < warmup + 20:
        raise DataError(
            f"need at least {warmup + 20} pre-built batches, got {len(batches)}"
        )
    if batch_size is None:
        batch_size = len(batches[0])
    for b in batches[:warmup]:
        run_batch(b)
    timings = []
    for b in batches[warmup:]:
        start = time.perf_counter()
        run_batch(b)
        timings.append(time.perf_counter() - start)
    median = float(np.median(timings))
    return {
        "batch_size": int(batch_size),
        "batches_timed": len(timings),
        "warmup_batches": warmup,
        "median_batch_seconds": median,
        "samples_per_second": batch_size / median if median > 0 else float("inf"),
        "hardware": platform.processor() or platform.machine(),
        "timing_scope": "model execution only; input generation excluded",
    }
