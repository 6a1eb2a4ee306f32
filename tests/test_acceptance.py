"""Acceptance suite.

Each test covers one acceptance criterion and prints a single verdict line
(written past pytest's capture so it shows up in a plain ``pytest -v`` run)
before asserting.  Criteria 8-11 share one full pipeline run on the
million-row synthetic benchmark via a module fixture.
"""

import copy
import json
import time

import numpy as np
import pytest

from lowrank_ctr.checkpoint import load_checkpoint
from lowrank_ctr.compress import (
    afm_apply_embedding,
    afm_plan_embedding,
    afm_plan_fc,
    compress_mlp,
    fuse_projection_into_first_fc,
    tt_compress_embedding,
)
from lowrank_ctr.config import PROFILES, load_config
from lowrank_ctr.data import FeatureBatch, SynthSpec, synth_generate, transform_continuous
from lowrank_ctr.linalg import low_rank_factors_svd
from lowrank_ctr.metrics import auc, logloss
from lowrank_ctr.nn import compute_gradients, forward, init_deepfm, loss_bce_l2
from lowrank_ctr.stats import ActivationTap, MomentAccumulator
from lowrank_ctr.train import (
    calibrate,
    predict,
    prepare_data,
    run_pipeline,
)

pytestmark = pytest.mark.slow


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 1: full-rank compression is the identity ----------------------


def test_criterion_01_full_rank_identity(capsys):
    started = time.perf_counter()
    ds = synth_generate(SynthSpec(n_samples=10000, vocab_sizes=[40] * 4, seed=1))
    model = init_deepfm(ds.vocab_sizes, 8, [32, 32, 32], seed=0, dropout_rate=0.5)
    base = predict(model, ds)

    mlp_full = copy.deepcopy(model)
    taps = calibrate(mlp_full, ds, ["mlp.1", "mlp.2"])
    compress_mlp(mlp_full, 32, "afm", taps, insert_relu=False)
    err_mlp = float(np.max(np.abs(predict(mlp_full, ds) - base)))

    emb_full = copy.deepcopy(model)
    taps = calibrate(emb_full, ds, [f"emb.{i}" for i in range(4)])
    plan = afm_plan_embedding([taps[f"emb.{i}"] for i in range(4)], 8)
    afm_apply_embedding(emb_full, plan)
    fuse_projection_into_first_fc(emb_full)
    err_emb = float(np.max(np.abs(predict(emb_full, ds) - base)))

    tt = copy.deepcopy(model)
    tt_compress_embedding(tt, max_rank=4096)
    err_tt = float(np.max(np.abs(predict(tt, ds) - base)))

    wall = time.perf_counter() - started
    ok = err_mlp <= 1e-5 and err_emb <= 1e-5 and err_tt <= 1e-6 and wall < 60
    verdict(
        capsys, 1, ok,
        f"full-rank prediction drift on 10k inputs: mlp split {err_mlp:.2e} "
        f"(<=1e-5), emb pca {err_emb:.2e} (<=1e-5), tt {err_tt:.2e} (<=1e-6); "
        f"{wall:.1f}s",
    )


# -- criterion 2: projection fusion does not change the network --------------


def test_criterion_02_fusion_equivalence(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    batches_checked = 0
    for _ in range(10):
        t = int(rng.integers(4, 17))
        d = int(rng.integers(1, min(8, t) + 1))
        n_fields = int(rng.integers(2, 7))
        vocab = [int(v) for v in rng.integers(10, 50, n_fields)]
        hidden = int(rng.integers(8, 33))
        model = init_deepfm(vocab, t, [hidden] * 3,
                            seed=int(rng.integers(10000)), dropout_rate=0.0)
        calib = synth_generate(
            SynthSpec(n_samples=400, vocab_sizes=vocab,
                      seed=int(rng.integers(10000)))
        )
        taps = calibrate(model, calib, [f"emb.{i}" for i in range(n_fields)])
        plan = afm_plan_embedding(
            [taps[f"emb.{i}"] for i in range(n_fields)], d
        )
        afm_apply_embedding(model, plan)
        fused = copy.deepcopy(model)
        fuse_projection_into_first_fc(fused)
        for _ in range(100):
            idx = rng.integers(0, vocab, size=(32, n_fields))
            batch = FeatureBatch(idx, np.zeros((32, 0), dtype=np.float32))
            a = forward(model, batch, mode="infer").predictions
            b = forward(fused, batch, mode="infer").predictions
            worst = max(worst, float(np.max(np.abs(a - b))))
            batches_checked += 1
    wall = time.perf_counter() - started
    ok = worst <= 1e-5 and batches_checked == 1000 and wall < 60
    verdict(
        capsys, 2, ok,
        f"pre/post fusion drift over {batches_checked} random batches: "
        f"{worst:.2e} (<=1e-5); {wall:.1f}s",
    )


# -- criterion 3: output-PCA truncation is the optimal data reconstruction ---


def test_criterion_03_pca_optimality(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_rel = 0.0
    svd_violations = 0
    for _ in range(20):
        n = int(rng.integers(60, 400))
        dim = int(rng.integers(3, 17))
        scales = rng.uniform(0.1, 3.0, dim)
        data = rng.standard_normal((n, dim)) * scales + rng.uniform(-2, 2, dim)
        tap = ActivationTap.for_dim("mlp.1", dim)
        tap.accumulator.update(data)
        sigma = np.linalg.svd(data, compute_uv=False)
        for k in range(1, dim + 1):
            plan = afm_plan_fc(tap, k)
            u, mean = plan.basis, plan.mean
            recon = mean + (data - mean) @ u @ u.T
            mse = float(np.mean(np.sum((data - recon) ** 2, axis=1)))
            tail = float(plan.eigenvalues[k:].sum())
            if tail > 1e-12:
                worst_rel = max(worst_rel, abs(mse - tail) / tail)
            else:
                worst_rel = max(worst_rel, mse)
            # rank-k truncation of the raw (uncentered) data can never beat
            # the centered projection
            mse_svd = float((sigma[k:] ** 2).sum()) / n
            if mse > mse_svd * (1 + 1e-9) + 1e-12:
                svd_violations += 1
    wall = time.perf_counter() - started
    ok = worst_rel <= 1e-6 and svd_violations == 0 and wall < 60
    verdict(
        capsys, 3, ok,
        f"pca mse vs tail eigenvalue sum: rel err {worst_rel:.2e} (<=1e-6), "
        f"svd-beats-pca violations {svd_violations}/all ranks of 20 cases; "
        f"{wall:.1f}s",
    )


# -- criterion 4: streamed and sharded moments equal the two-pass answer -----


def test_criterion_04_streaming_moments(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    cases = 0
    worst = 0.0
    for _ in range(220):
        dim = int(rng.integers(1, 13))
        n = int(rng.integers(1, 300))
        data = rng.standard_normal((n, dim)) * rng.uniform(0.2, 4.0)
        # random shard boundaries, empty shards included
        cuts = np.sort(rng.integers(0, n + 1, size=int(rng.integers(0, 6))))
        shards = np.split(data, cuts)
        accs = []
        for shard in shards:
            acc = MomentAccumulator(dim)
            acc.update(shard)
            accs.append(acc)
        merged = accs[0]
        for acc in accs[1:]:
            merged = merged.merge(acc)
        mu, cov = merged.covariance()
        ref_mu = data.mean(axis=0)
        centered = data - ref_mu
        ref_cov = centered.T @ centered / n
        worst = max(
            worst,
            float(np.max(np.abs(mu - ref_mu))),
            float(np.max(np.abs(cov - ref_cov))),
        )
        cases += 1
    wall = time.perf_counter() - started
    ok = worst <= 1e-10 and cases >= 200 and wall < 60
    verdict(
        capsys, 4, ok,
        f"sharded/merged vs two-pass moments over {cases} partitions: "
        f"max abs diff {worst:.2e} (<=1e-10); {wall:.1f}s",
    )


# -- criterion 5: svd truncation error equals the tail energy ----------------


def test_criterion_05_eckart_young(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(2, 65))
        a = rng.standard_normal((m, n)) * rng.uniform(0.1, 5.0)
        k = int(rng.integers(1, min(m, n) + 1))
        m1, m2 = low_rank_factors_svd(a, k)
        err = float(np.linalg.norm(a - m1 @ m2))
        sigma = np.linalg.svd(a, compute_uv=False)
        tail = float(np.sqrt((sigma[k:] ** 2).sum()))
        if tail > 1e-12:
            worst = max(worst, abs(err - tail) / tail)
        else:
            worst = max(worst, err / np.linalg.norm(a))
    wall = time.perf_counter() - started
    ok = worst <= 1e-6 and wall < 60
    verdict(
        capsys, 5, ok,
        f"rank-k factor error vs sqrt tail energy on 50 matrices: "
        f"rel err {worst:.2e} (<=1e-6); {wall:.1f}s",
    )


# -- criterion 6: analytic gradients match finite differences ----------------


def test_criterion_06_gradient_check(capsys):
    started = time.perf_counter()
    model = init_deepfm([5, 7], 4, [6, 6, 6], seed=3,
                        dropout_rate=0.3, dtype=np.float64)
    idx = np.array([[1, 2], [4, 6], [0, 0], [3, 1], [2, 5]])
    batch = FeatureBatch(idx, np.zeros((5, 0), dtype=np.float32))
    labels = np.array([1, 0, 1, 1, 0])
    l2_ratio = 1e-4
    _, grads, _ = compute_gradients(
        model, batch, labels, l2_ratio=l2_ratio, dropout_override=0.0
    )

    def loss_at():
        trace = forward(model, batch, mode="train",
                        rng=np.random.default_rng(0), dropout_override=0.0)
        return loss_bce_l2(trace.logits, labels, model, l2_ratio)

    h = 1e-6
    worst = 0.0
    checked = 0
    for name, p in model.packed_parameters():
        g = grads[name]
        for pos in np.ndindex(p.shape):
            orig = p[pos]
            p[pos] = orig + h
            up = loss_at()
            p[pos] = orig - h
            down = loss_at()
            p[pos] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(g[pos]), 1e-3)
            worst = max(worst, abs(g[pos] - fd) / denom)
            checked += 1
    wall = time.perf_counter() - started
    ok = worst <= 1e-4 and wall < 60
    verdict(
        capsys, 6, ok,
        f"finite differences over all {checked} coordinates of a 2-field "
        f"model: max rel err {worst:.2e} (<=1e-4); {wall:.1f}s",
    )


# -- criterion 7: metric implementations equal their oracles -----------------


def pairwise_auc(labels, scores):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = float((pos[:, None] > neg[None, :]).sum())
    ties = float((pos[:, None] == neg[None, :]).sum())
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_criterion_07_metric_oracles(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    auc_mismatches = 0
    worst_ll = 0.0
    for _ in range(50):
        labels = rng.integers(0, 2, 500).astype(np.uint8)
        if labels.min() == labels.max():
            labels[0] ^= 1
        # coarse quantization forces heavy ties
        scores = rng.integers(1, 40, 500) / 40.0
        if auc(labels, scores) != pairwise_auc(labels, scores):
            auc_mismatches += 1
        direct = -float(
            np.mean(labels * np.log(scores) + (1 - labels) * np.log1p(-scores))
        )
        worst_ll = max(worst_ll, abs(logloss(labels, scores) - direct))
    wall = time.perf_counter() - started
    ok = auc_mismatches == 0 and worst_ll <= 1e-12 and wall < 60
    verdict(
        capsys, 7, ok,
        f"auc exact-equality mismatches {auc_mismatches}/50 tied suites, "
        f"logloss vs direct sum {worst_ll:.2e} (<=1e-12); {wall:.1f}s",
    )


# -- criteria 8-10 share the million-row synthetic pipeline ------------------


def run_synth_pipeline(seed, out_dir):
    resolved = load_config({"profile": "synth", "seed": seed})
    started = time.perf_counter()
    run_pipeline(resolved, out_dir)
    wall = time.perf_counter() - started
    rows = [
        json.loads(line)
        for line in (out_dir / "metrics.jsonl").read_text().splitlines()
    ]

    def row(tag):
        return next(r for r in rows if r["stage"] == tag)

    report = json.loads(
        (out_dir / "reports" / "stage05-afm-emb.json").read_text()
    )
    emb_before = report["params_before"]["embeddings"]
    emb_after = (
        report["params_after"]["embeddings"]
        + report["params_after"]["projections"]
    )
    return {
        "resolved": resolved,
        "out": out_dir,
        "wall": wall,
        "baseline_auc": row("stage00-train_baseline")["test_auc"],
        "pre_mlp_auc": row("stage02-afm-mlp:pre-finetune")["test_auc"],
        "pre_emb_auc": row("stage05-afm-emb:pre-finetune")["test_auc"],
        "final_auc": row("stage07-eval")["test_auc"],
        "emb_shrink": emb_before / emb_after,
    }


@pytest.fixture(scope="module")
def seed0_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "seed0"
    return run_synth_pipeline(0, out)


def test_criterion_08_desk_scale_pipeline(capsys, tmp_path_factory, seed0_run):
    results = [seed0_run]
    for seed in range(1, 5):
        out = tmp_path_factory.mktemp("accept") / f"seed{seed}"
        results.append(run_synth_pipeline(seed, out))
    recovered = sum(1 for r in results if r["final_auc"] > r["pre_emb_auc"])
    r0 = results[0]
    drop = r0["baseline_auc"] - r0["final_auc"]
    ok = (
        drop <= 0.002
        and recovered >= 4
        and r0["emb_shrink"] >= 3.0
        and r0["wall"] < 1200
    )
    verdict(
        capsys, 8, ok,
        f"seed-0 final auc {r0['final_auc']:.4f} vs baseline "
        f"{r0['baseline_auc']:.4f} (drop {drop:+.4f} <= 0.002), finetune "
        f"recovered auc in {recovered}/5 seeds (>=4), embedding params "
        f"shrink {r0['emb_shrink']:.2f}x (>=3), pipeline {r0['wall']:.0f}s "
        f"(<1200)",
    )


def test_criterion_09_throughput(capsys, seed0_run):
    started = time.perf_counter()
    out = seed0_run["out"]
    baseline = load_checkpoint(out / "checkpoints" / "stage00-train_baseline.lrck")
    mlp_small = load_checkpoint(out / "checkpoints" / "stage02-afm-mlp.lrck")

    train_ds, test_ds = prepare_data(seed0_run["resolved"])
    calib = train_ds.subset(np.arange(100000))
    emb_small = copy.deepcopy(baseline)
    taps = calibrate(emb_small, calib, [f"emb.{i}" for i in range(10)])
    plan = afm_plan_embedding([taps[f"emb.{i}"] for i in range(10)], 4)
    afm_apply_embedding(emb_small, plan)
    fuse_projection_into_first_fc(emb_small)
    tt = copy.deepcopy(baseline)
    tt_compress_embedding(tt, max_rank=4)

    batch_list = [
        test_ds.batch(slice(j * 10000, (j + 1) * 10000)) for j in range(10)
    ]
    batches = (batch_list * 3)[:23]

    # the four models take turns on each batch, so host drift hits them
    # alike, and the turn order rotates, so no model always runs right after
    # the same one; 3 warm-up and 20 timed batches each, median per model
    models = (baseline, mlp_small, emb_small, tt)
    timings = [[] for _ in models]
    for j, batch in enumerate(batches):
        for i in range(len(models)):
            m = (i + j) % len(models)
            start = time.perf_counter()
            forward(models[m], batch, mode="infer")
            if j >= 3:
                timings[m].append(time.perf_counter() - start)
    t_base, t_mlp, t_emb, t_tt = (10000 / float(np.median(t)) for t in timings)
    mlp_ratio = t_mlp / t_base
    emb_ratio = t_emb / t_tt
    wall = time.perf_counter() - started
    ok = mlp_ratio >= 1.0 and emb_ratio >= 5.0 and wall < 300
    verdict(
        capsys, 9, ok,
        f"batch-10000 median-of-20 throughput: mlp-compressed {t_mlp:.0f}/s = "
        f"{mlp_ratio:.2f}x baseline {t_base:.0f}/s (>=1.0), pca-embedding "
        f"{t_emb:.0f}/s = {emb_ratio:.1f}x tensor-train {t_tt:.0f}/s (>=5); "
        f"{wall:.0f}s",
    )


# -- criterion 11: the model the pipeline ships is faster than its baseline --


def interleaved_rows_per_s(models, batches, warmup=3):
    """Median rows/s of each model's inference on ``batches``: the models
    take turns on each batch, in an order that rotates, and the first
    ``warmup`` batches go untimed."""
    timings = [[] for _ in models]
    for j, batch in enumerate(batches):
        for i in range(len(models)):
            m = (i + j) % len(models)
            start = time.perf_counter()
            forward(models[m], batch, mode="infer")
            if j >= warmup:
                timings[m].append(time.perf_counter() - start)
    return [len(batches[0]) / float(np.median(t)) for t in timings]


def criteo_shaped_pair():
    """An untrained model of the criteo profile's shape (26 fields of 1 000
    items, 13 continuous inputs) and its copy compressed as that profile's
    pipeline does: afm-mlp, then afm-emb with the projections fused.  The
    copy is calibrated on the first 20 000 of 60 000 synthetic rows, and
    the other 40 000 make four test batches."""
    profile = PROFILES["criteo"]
    n_fields, n_cont = profile["n_categorical"], profile["n_continuous"]
    ds = synth_generate(SynthSpec(n_samples=60000, vocab_sizes=[1000] * n_fields, seed=11))
    raw = np.random.default_rng(11).exponential(10.0, (len(ds), n_cont))
    ds.continuous = transform_continuous(raw).astype(np.float32)
    base = init_deepfm(ds.vocab_sizes, profile["embed_dim"], profile["hidden_dims"],
                       n_continuous=n_cont, seed=11)
    small = copy.deepcopy(base)
    calib = ds.subset(np.arange(20000))
    compress_mlp(small, profile["mlp_rank"], "afm", calibrate(small, calib, ["mlp.1", "mlp.2"]))
    emb_ids = [f"emb.{i}" for i in range(n_fields)]
    taps = calibrate(small, calib, emb_ids)
    afm_apply_embedding(small, afm_plan_embedding([taps[t] for t in emb_ids], profile["emb_rank"]))
    fuse_projection_into_first_fc(small)
    batch_list = [ds.batch(slice(j, j + 10000)) for j in range(20000, 60000, 10000)]
    return base, small, batch_list


def test_criterion_11_compressed_model_throughput(capsys, seed0_run):
    started = time.perf_counter()
    out = seed0_run["out"] / "checkpoints"
    baseline = load_checkpoint(out / "stage00-train_baseline.lrck")
    final = load_checkpoint(out / "stage06-finetune.lrck")
    _, test_ds = prepare_data(seed0_run["resolved"])
    batch_list = [
        test_ds.batch(slice(j * 10000, (j + 1) * 10000)) for j in range(10)
    ]
    # 3 warm-up and 20 timed batches per model, as in criterion 9
    t_base, t_final = interleaved_rows_per_s((baseline, final), (batch_list * 3)[:23])
    synth_ratio = t_final / t_base

    c_base, c_small, c_batches = criteo_shaped_pair()
    tc_base, tc_small = interleaved_rows_per_s((c_base, c_small), (c_batches * 6)[:23])
    criteo_ratio = tc_small / tc_base
    wall = time.perf_counter() - started
    ok = synth_ratio >= 1.1 and criteo_ratio >= 1.5 and wall < 120
    verdict(
        capsys, 11, ok,
        f"batch-10000 median-of-20 throughput: synth final model "
        f"{t_final:.0f}/s = {synth_ratio:.2f}x baseline {t_base:.0f}/s (>=1.1), "
        f"criteo-shaped compressed {tc_small:.0f}/s = {criteo_ratio:.2f}x "
        f"baseline {tc_base:.0f}/s (>=1.5); {wall:.0f}s",
    )


def test_criterion_10_determinism(capsys, tmp_path_factory, seed0_run):
    out = tmp_path_factory.mktemp("accept") / "seed0-rerun"
    rerun = run_synth_pipeline(0, out)
    names = [
        "stage00-train_baseline.lrck",
        "stage02-afm-mlp.lrck",
        "stage03-finetune.lrck",
        "stage05-afm-emb.lrck",
        "stage06-finetune.lrck",
    ]
    identical = [
        (seed0_run["out"] / "checkpoints" / n).read_bytes()
        == (rerun["out"] / "checkpoints" / n).read_bytes()
        for n in names
    ]
    ok = all(identical)
    verdict(
        capsys, 10, ok,
        f"rerun checkpoints byte-identical: {sum(identical)}/{len(names)} "
        f"(final auc {rerun['final_auc']:.4f} both runs)"
        if ok
        else f"mismatched checkpoints: "
             f"{[n for n, same in zip(names, identical) if not same]}",
    )
