"""Tests for AUC, LogLoss and the benchmark harness."""

import numpy as np
import pytest

from lowrank_ctr.errors import DataError
from lowrank_ctr.metrics import MetricReport, auc, bench_throughput, evaluate_scores, logloss


def pairwise_auc(labels, scores):
    """O(P*N) reference: win fraction with half credit for ties."""
    s = np.asarray(scores, dtype=np.float64)
    pos = s[np.asarray(labels) == 1]
    neg = s[np.asarray(labels) == 0]
    wins = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / float(pos.size * neg.size)


def test_auc_perfect_and_inverted():
    assert auc([1, 0], [0.9, 0.1]) == 1.0
    assert auc([1, 0], [0.1, 0.9]) == 0.0


def test_auc_hand_case_with_tie():
    assert auc([1, 0, 1, 0], [0.5, 0.5, 0.8, 0.3]) == 0.875


def test_auc_equals_pairwise_oracle_exactly():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = 500
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 2)
        assert auc(labels, scores) == pairwise_auc(labels, scores)


@pytest.mark.parametrize("metric", [auc, logloss])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_are_rejected(metric, bad):
    with pytest.raises(DataError, match="scores must be finite"):
        metric([1, 0, 1, 0], [bad, 0.4, 0.8, 0.3])


def test_auc_rejects_degenerate_input():
    with pytest.raises(DataError):
        auc([1, 1], [0.2, 0.3])
    with pytest.raises(DataError):
        auc([0, 2], [0.2, 0.3])
    with pytest.raises(DataError):
        auc([], [])
    with pytest.raises(DataError):
        auc([1, 0, 1], [0.5, 0.5])


def test_logloss_half_everywhere():
    assert np.isclose(logloss([1, 0, 1], [0.5, 0.5, 0.5]), np.log(2.0), atol=1e-12)


def test_logloss_clamped_perfection():
    assert logloss([1, 0], [1.0, 0.0]) <= 1e-6


def test_logloss_matches_direct_summation():
    labels = np.array([1, 0, 0, 1])
    scores = np.array([0.7, 0.2, 0.9, 0.4])
    direct = -(
        np.log(0.7) + np.log(1 - 0.2) + np.log(1 - 0.9) + np.log(0.4)
    ) / 4.0
    assert np.isclose(logloss(labels, scores), direct, atol=1e-12)


def test_evaluate_scores_report():
    rep = evaluate_scores([1, 0], [0.8, 0.1])
    assert isinstance(rep, MetricReport)
    assert rep.n_samples == 2
    assert rep.to_dict()["auc"] == 1.0


def test_bench_requires_enough_batches():
    with pytest.raises(DataError):
        bench_throughput(lambda b: None, [np.zeros(4)] * 10, warmup=3)


def test_bench_reports_median_based_throughput():
    batches = [np.zeros(8) for _ in range(25)]
    report = bench_throughput(lambda b: b.sum(), batches, warmup=3)
    assert report["batches_timed"] == 22
    assert report["batch_size"] == 8
    assert report["samples_per_second"] > 0
    assert report["median_batch_seconds"] > 0
    assert "hardware" in report and "timing_scope" in report
