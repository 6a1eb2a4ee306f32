"""Tests for the optimizer, training loop, calibration and pipeline runner."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from lowrank_ctr import compress as comp
from lowrank_ctr import train as train_module

from lowrank_ctr.config import PROFILES, load_config
from lowrank_ctr.checkpoint import save_checkpoint
from lowrank_ctr.data import ClickDataset, SynthSpec, split, synth_generate
from lowrank_ctr.errors import ConfigError, EmptyAccumulatorError, NumericError, ShapeError
from lowrank_ctr.nn import (
    FeatureBatch, compute_gradients, forward, init_deepfm, l2_penalty, loss_bce_l2,
)
from lowrank_ctr.stats import MomentAccumulator, fold
from lowrank_ctr.train import (
    STAGE_HANDLERS,
    Adam,
    TrainConfig,
    calibrate,
    evaluate_model,
    run_pipeline,
    train,
)


def reference_adam(p0, grads, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook recurrence, written independently of the optimizer class."""
    p = p0.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p)
    return p


def small_model(seed=0):
    return init_deepfm([10, 10], 4, [8, 8, 8], seed=seed, dropout_rate=0.0)


def params_bytes(model):
    return b"".join(p.tobytes() for _, p in model.named_parameters())


def test_adam_matches_reference_recurrence():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((3, 4))
    grads = [rng.standard_normal((3, 4)) for _ in range(10)]
    expected = reference_adam(p, grads, lr=0.01, wd=0.004)
    opt = Adam(0.01, weight_decay=0.004)
    live = p.copy()
    for g in grads:
        opt.step([("w", live)], {"w": g})
    np.testing.assert_allclose(live, expected, rtol=1e-12, atol=1e-14)


def test_adam_state_is_per_parameter():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(5), rng.standard_normal((2, 2))
    ga = [rng.standard_normal(5) for _ in range(6)]
    gb = [rng.standard_normal((2, 2)) for _ in range(6)]
    opt = Adam(0.05)
    la, lb = a.copy(), b.copy()
    for t in range(6):
        opt.step([("a", la), ("b", lb)], {"a": ga[t], "b": gb[t]})
    np.testing.assert_allclose(la, reference_adam(a, ga, 0.05, 0.0), rtol=1e-12)
    np.testing.assert_allclose(lb, reference_adam(b, gb, 0.05, 0.0), rtol=1e-12)


def test_decay_is_decoupled_from_moments():
    # with zero gradients the moments stay zero and the whole update
    # collapses to p *= (1 - lr * wd) per step, the decoupling signature
    p = np.array([2.0, -3.0])
    opt = Adam(0.1, weight_decay=0.5)
    for _ in range(4):
        opt.step([("w", p)], {"w": np.zeros(2)})
    np.testing.assert_allclose(p, np.array([2.0, -3.0]) * (1 - 0.1 * 0.5) ** 4,
                               rtol=1e-12)


class FormulaAdam:
    """The optimizer's update over whole arrays, with its state per name,
    as the blocked step must reproduce to the bit."""

    def __init__(self, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.wd, self.beta1, self.beta2, self.eps = lr, wd, beta1, beta2, eps
        self.t = 0
        self.state = {}

    def step(self, named_params, grads):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in named_params:
            g = grads[name]
            if name not in self.state:
                self.state[name] = (np.zeros_like(p), np.zeros_like(p))
            m, v = self.state[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            if self.wd:
                update = update + self.wd * p
            p -= self.lr * update


def test_training_steps_are_bit_identical_to_the_formulas():
    ds = synth_generate(SynthSpec(n_samples=400, vocab_sizes=[30, 20, 25], seed=4))
    model = init_deepfm(ds.vocab_sizes, 4, [8, 8, 8], seed=5, dropout_rate=0.0)
    twin = model.clone()
    opt, ref = Adam(0.01, weight_decay=0.004), FormulaAdam(0.01, 0.004)
    l2 = 1e-3
    for step in range(6):
        sel = np.arange(step * 60, step * 60 + 60)
        batch, labels = ds.batch(sel), ds.labels[sel]
        loss, grads, _ = compute_gradients(model, batch, labels, l2_ratio=l2)
        loss0, plain, _ = compute_gradients(twin, batch, labels)
        flats = [p.ravel(order="K") for _, p in twin.named_parameters()]
        penalty = sum(float(np.dot(flat, flat)) for flat in flats)
        assert l2_penalty(twin) == penalty
        assert loss == loss0 + l2 * penalty
        assert grads.keys() == dict(twin.packed_parameters()).keys()
        for name, p in twin.packed_parameters():
            want = plain[name] + (2.0 * l2) * p
            assert grads[name].tobytes() == want.tobytes(), name
        # the table gradient reads the parameters, so it is materialised first
        dense = {name: np.asarray(g) for name, g in grads.items()}
        opt.step(model.packed_parameters(), grads)
        ref.step(twin.packed_parameters(), dense)
        assert params_bytes(model) == params_bytes(twin), f"step {step}"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_equals_the_formulas_across_block_boundaries(dtype):
    block = Adam.BLOCK
    sizes = {"one": 1, "under": block - 1, "block": block, "over": block + 1,
             "two": 2 * block + 3}
    rng = np.random.default_rng(2)
    params = {k: rng.standard_normal(size).astype(dtype) for k, size in sizes.items()}
    twins = {k: v.copy() for k, v in params.items()}
    opt, ref = Adam(0.05, weight_decay=0.01), FormulaAdam(0.05, 0.01)
    for _ in range(4):
        grads = {k: rng.standard_normal(v.shape).astype(dtype) for k, v in params.items()}
        opt.step(list(params.items()), grads)
        ref.step(list(twins.items()), grads)
    for k in params:
        assert params[k].tobytes() == twins[k].tobytes(), k
    assert sorted(s for k, s in opt.state if k == "two") == [0, block, 2 * block]


def whole_table_gradient(model, grad, l2_ratio):
    """The dense table gradient as one whole-table build: every row at the
    L2 term (+ 0.0, which turns -0.0 into 0.0), then each field's sums
    added to the rows the batch touched."""
    g = np.multiply(model.emb_rows, 2.0 * l2_ratio)
    g += 0.0
    starts = np.searchsorted(grad.items, [*model.offsets, len(g)])
    for lo, hi in zip(starts[:-1], starts[1:]):
        g[grad.items[lo:hi]] += grad.sums[lo:hi]
    return g


def straddling_model(dtype, seed=0):
    """A two-field model of width 7 whose packed table spans three Adam
    blocks, and a batch touching the rows that straddle both block
    boundaries, the rows beside them, and some of them twice.  Returns
    (model, batch, labels, edges), ``edges`` the straddling rows."""
    width = 7
    assert Adam.BLOCK % width
    vocab = Adam.BLOCK // width + 1000
    model = init_deepfm([vocab, vocab], width, [5], seed=seed, dtype=dtype, dropout_rate=0.0)
    edges = [Adam.BLOCK // width, 2 * Adam.BLOCK // width]
    assert len(model.emb_rows) * width > 2 * Adam.BLOCK
    for k, e in enumerate(edges, start=1):
        assert e * width < k * Adam.BLOCK < (e + 1) * width  # row e straddles boundary k
    first, second = edges[0], edges[1] - vocab  # field 0's and field 1's item
    idx = [[first - 1, second - 1], [first, second], [first + 1, second + 1],
           [0, vocab - 1], [first, second], [first + 1, 3]]
    batch = FeatureBatch(np.array(idx), np.zeros((len(idx), 0), np.float32))
    labels = np.array([1, 0, 0, 1, 1, 0])
    return model, batch, labels, edges


@pytest.mark.parametrize("l2_ratio", [0.0, 1e-3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_table_gradient_builds_the_whole_table_formula(dtype, l2_ratio):
    model, batch, labels, (edge, _) = straddling_model(dtype)
    rows = model.emb_rows
    rows[edge - 1] = -0.0  # touched
    rows[edge, 3:] = -0.0  # touched, both sides of the boundary
    rows[edge + 2] = -0.0  # untouched
    _, grads, _ = compute_gradients(model, batch, labels, l2_ratio=l2_ratio)
    grad = grads["emb_rows"]
    want = whole_table_gradient(model, grad, l2_ratio)
    assert grad.coef == 2.0 * l2_ratio and grad.shape == rows.shape and grad.dtype == dtype
    assert np.array_equal(grad.items, np.unique(batch.indices + model.offsets))
    assert np.asarray(grad).tobytes() == want.tobytes()
    assert not np.signbit(want[edge + 2]).any()  # the untouched -0.0 row reads +0.0
    # block by block into a buffer holding stale values, as Adam builds it,
    # and over stretches that start or stop inside a row
    buf = np.full(Adam.BLOCK + grad.pad(), np.nan, dtype)
    flat = want.reshape(-1)
    stretches = [(s, min(s + Adam.BLOCK, flat.size)) for s in range(0, flat.size, Adam.BLOCK)]
    w = rows.shape[1]
    stretches += [(edge * w + 2, edge * w + 5), (edge * w - 3, edge * w + 2 * w + 1), (0, 1)]
    for start, stop in stretches:
        assert grad.block(start, stop, buf).tobytes() == flat[start:stop].tobytes(), start


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_multi_block_training_steps_are_bit_identical_to_the_formulas(dtype):
    model, batch, labels, _ = straddling_model(dtype, seed=1)
    twin = model.clone()
    opt, ref = Adam(0.01, weight_decay=0.004), FormulaAdam(0.01, 0.004)
    rng = np.random.default_rng(5)
    for step in range(4):
        if step:  # the straddling batch first, then random rows
            idx = rng.integers(0, model.vocab, size=(50, 2))
            batch = FeatureBatch(idx, np.zeros((50, 0), np.float32))
            labels = rng.integers(0, 2, 50)
        _, grads, _ = compute_gradients(model, batch, labels, l2_ratio=1e-3)
        dense = {name: np.asarray(g) for name, g in grads.items()}
        opt.step(model.packed_parameters(), grads)
        ref.step(twin.packed_parameters(), dense)
        assert params_bytes(model) == params_bytes(twin), f"step {step}"
    assert sorted(s for k, s in opt.state if k == "emb_rows") == [0, Adam.BLOCK, 2 * Adam.BLOCK]


def test_a_training_step_holds_no_whole_table_temporary():
    """tracemalloc counts numpy's allocations: a batch-200 gradient of the
    synth-sized model peaks below half the table, and once Adam holds its
    state and buffers a step allocates less than one block."""
    vocab, n = [10000] * 10, 200
    model = init_deepfm(vocab, 16, [64, 64, 64], seed=0)
    rng = np.random.default_rng(0)
    batch = FeatureBatch(rng.integers(0, vocab, size=(n, 10)), np.zeros((n, 0), np.float32))
    labels = rng.integers(0, 2, n)
    opt = Adam(1e-3, weight_decay=1e-3)
    opt.step(model.packed_parameters(), compute_gradients(model, batch, labels, 1e-5, rng)[1])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grads = compute_gradients(model, batch, labels, 1e-5, rng)[1]
        grad_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        opt.step(model.packed_parameters(), grads)
        step_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grad_peak < model.emb_rows.nbytes / 2, grad_peak
    assert step_peak < Adam.BLOCK * model.emb_rows.itemsize, step_peak


def test_adam_rejects_a_parameter_that_is_not_c_contiguous():
    rng = np.random.default_rng(3)
    first = rng.standard_normal(4)
    table = rng.standard_normal((7, 3)).astype(np.float32).T  # column-major
    before = first.copy(), table.copy()
    opt = Adam(0.05)
    grads = {"first": np.ones(4), "table": np.ones((3, 7), np.float32)}
    with pytest.raises(ShapeError, match="table is not C-contiguous"):
        opt.step([("first", first), ("table", table)], grads)
    assert np.array_equal(first, before[0]) and np.array_equal(table, before[1])
    assert opt.t == 0 and not opt.state


def test_zero_learning_rate_freezes_everything():
    model = small_model()
    before = params_bytes(model)
    ds = synth_generate(SynthSpec(n_samples=200, vocab_sizes=[10, 10], seed=3))
    train(model, ds, TrainConfig(learning_rate=0.0, batch_size=50, epochs=2))
    assert params_bytes(model) == before


def test_zero_epochs_is_a_no_op():
    model = small_model()
    before = params_bytes(model)
    ds = synth_generate(SynthSpec(n_samples=100, vocab_sizes=[10, 10], seed=3))
    rows = train(model, ds, TrainConfig(epochs=0))
    assert rows == []
    assert params_bytes(model) == before
    with pytest.raises(ConfigError):
        train(model, ds, TrainConfig(epochs=-1))
    with pytest.raises(ConfigError):
        train(model, ds, TrainConfig(batch_size=0))


def test_training_reduces_loss_and_reports_rows(tmp_path):
    ds = synth_generate(
        SynthSpec(n_samples=5000, vocab_sizes=[30, 30], latent_rank=2,
                  noise=0.0, seed=7)
    )
    tr, te = split(ds, 0.2, 0)
    model = init_deepfm(tr.vocab_sizes, 8, [16, 16, 16], seed=0, dropout_rate=0.0)
    path = tmp_path / "metrics.jsonl"
    rows = train(
        model,
        tr,
        TrainConfig(learning_rate=1e-2, batch_size=200, epochs=4,
                    weight_decay=0.0, l2_ratio=0.0, seed=1),
        test_dataset=te,
        metrics_path=path,
    )
    assert len(rows) == 4
    assert rows[-1]["train_loss"] < rows[0]["train_loss"]
    assert rows[-1]["test_auc"] > 0.75
    for row in rows:
        assert {"stage", "epoch", "train_loss", "train_auc", "train_logloss",
                "wall_seconds", "test_auc", "test_logloss"} <= set(row)
    logged = [json.loads(line) for line in path.read_text().splitlines()]
    assert logged == rows


def test_training_is_deterministic():
    ds = synth_generate(SynthSpec(n_samples=1000, vocab_sizes=[10, 10], seed=5))
    cfg = TrainConfig(learning_rate=1e-3, batch_size=100, epochs=2, seed=42)
    a = small_model(seed=9)
    b = small_model(seed=9)
    train(a, ds, cfg)
    train(b, ds, cfg)
    assert params_bytes(a) == params_bytes(b)


def test_finetune_runs_exactly_one_epoch():
    """The runner and the CLI train a finetune stage with its filled
    TrainConfig as it is, so every one must hold a single epoch."""
    explicit = [{"stage": "train_baseline", "epochs": 3},
                {"stage": "compress", "method": "svd-mlp", "rank": 2},
                {"stage": "finetune", "epochs": 1, "batch_size": 100}]
    sources = [{"pipeline": {"order": "mlp-emb"}},
               {"pipeline": {"order": "emb-mlp", "mlp": "svd-mlp", "emb": "tt-emb"}},
               {"stages": explicit}]
    for profile in sorted(PROFILES):
        for source in sources:
            rc = load_config({"profile": profile, "data": {"path": "unread.tsv"}, **source})
            tunes = [s["train"] for s in rc.stages if s["stage"] == "finetune"]
            assert len(tunes) == (1 if "stages" in source else 2)
            assert all(cfg.epochs == 1 for cfg in tunes)


def test_loss_bce_l2_values():
    labels = np.array([0, 1, 0, 1], dtype=np.uint8)
    assert abs(loss_bce_l2(np.zeros(4), labels) - np.log(2.0)) < 1e-12
    good = np.array([-40.0, 40.0, -40.0, 40.0])
    assert loss_bce_l2(good, labels) <= 1e-9
    model = small_model()
    base = loss_bce_l2(np.zeros(4), labels)
    with_pen = loss_bce_l2(np.zeros(4), labels, model=model, l2_ratio=1e-3)
    np.testing.assert_allclose(with_pen - base, 1e-3 * l2_penalty(model),
                               rtol=1e-12)


def test_calibrate_counts_and_batch_invariance():
    ds = synth_generate(SynthSpec(n_samples=1234, vocab_sizes=[10, 10], seed=8))
    model = small_model(seed=4)
    taps_a = calibrate(model, ds, ["emb.0", "mlp.1"], batch_size=10000)
    taps_b = calibrate(model, ds, ["emb.0", "mlp.1"], batch_size=77)
    assert set(taps_a) == {"emb.0", "mlp.1"}
    for tid in taps_a:
        acc_a, acc_b = taps_a[tid].accumulator, taps_b[tid].accumulator
        assert acc_a.n == len(ds) and acc_b.n == len(ds)
        mu_a, cov_a = acc_a.covariance()
        mu_b, cov_b = acc_b.covariance()
        np.testing.assert_allclose(mu_a, mu_b, atol=1e-12)
        np.testing.assert_allclose(cov_a, cov_b, atol=1e-12)
    assert taps_a["emb.0"].accumulator.dim == model.tables[0].dim
    assert taps_a["mlp.1"].accumulator.dim == model.mlp[1].weight.shape[0]


def test_calibrate_matches_direct_capture():
    ds = synth_generate(SynthSpec(n_samples=400, vocab_sizes=[10, 10], seed=8))
    model = small_model(seed=4)
    taps = calibrate(model, ds, ["mlp.2"])
    trace = forward(model, ds.batch(slice(None)), mode="infer", capture=["mlp.2"])
    acts = trace.captured["mlp.2"].astype(np.float64)
    mu, cov = taps["mlp.2"].accumulator.covariance()
    np.testing.assert_allclose(mu, acts.mean(axis=0), atol=1e-10)
    centered = acts - acts.mean(axis=0)
    np.testing.assert_allclose(cov, centered.T @ centered / len(acts), atol=1e-10)


def test_calibrate_rejects_bad_taps_and_empty_data():
    ds = synth_generate(SynthSpec(n_samples=10, vocab_sizes=[5, 5], seed=0))
    model = small_model()
    with pytest.raises(ConfigError):
        calibrate(model, ds, ["emb.9"])
    with pytest.raises(ConfigError):
        calibrate(model, ds, ["conv.0"])
    empty = ds.subset(np.array([], dtype=np.int64))
    taps = calibrate(model, empty, ["emb.0"])
    with pytest.raises(EmptyAccumulatorError):
        taps["emb.0"].accumulator.covariance()


@pytest.mark.parametrize("tap", ["emb.01", "mlp.-0", "mlp.+1", "emb.2", "x.1"])
def test_calibrate_rejects_a_tap_the_forward_pass_does_not_name(monkeypatch, tap):
    ds = synth_generate(SynthSpec(n_samples=10, vocab_sizes=[5, 5], seed=0))
    model = small_model()  # two fields
    calls = []
    monkeypatch.setattr(train_module, "capture", lambda *a, **k: calls.append(a))
    with pytest.raises(ConfigError, match=f"tap '{re.escape(tap)}' does not exist"):
        calibrate(model, ds, ["emb.0", tap])
    assert calls == []  # raised before any pass over the data


def oracle_calibrate(model, ds, tap_ids, batch_size):
    """Calibration as a full forward pass per batch and one float64 fold
    per tap, written out as the accumulator used to fold a batch."""
    accs = {t: MomentAccumulator(d) for t, d in train_module.tap_dims(model, tap_ids).items()}
    for start in range(0, len(ds), batch_size):
        trace = forward(model, ds.batch(slice(start, start + batch_size)), capture=tap_ids)
        for tid, acc in accs.items():
            arr = np.asarray(trace.captured[tid], dtype=np.float64)
            assert np.isfinite(arr).all()
            acc.n += arr.shape[0]
            acc.sum += arr.sum(axis=0)
            outer = arr.T @ arr
            acc.sum_outer += 0.5 * (outer + outer.T)
    return accs


def calibration_models():
    """(name, model, dataset): a dense base, an afm-mlp split, unfused and
    fused afm-emb projections, tensor-train tables, continuous inputs and
    a float64 model."""
    vocab = [10, 12, 9]
    ds = synth_generate(SynthSpec(n_samples=1234, vocab_sizes=vocab, seed=8))
    base = init_deepfm(vocab, 4, [8, 8, 8], seed=4, dropout_rate=0.0)
    emb_ids = [f"emb.{i}" for i in range(3)]
    taps = calibrate(base, ds, ["mlp.1", "mlp.2", *emb_ids])
    afm_mlp = base.clone()
    comp.compress_mlp(afm_mlp, 3, "afm", taps)
    unfused = base.clone()
    comp.afm_apply_embedding(unfused, comp.afm_plan_embedding([taps[t] for t in emb_ids], 2))
    fused = unfused.clone()
    comp.fuse_projection_into_first_fc(fused)
    tt = base.clone()
    comp.tt_compress_embedding(tt, 2)
    rng = np.random.default_rng(3)
    cont_ds = ClickDataset(ds.labels, ds.indices,
                           rng.normal(size=(len(ds), 2)).astype(np.float32), vocab)
    cont = init_deepfm(vocab, 4, [8, 8, 8], n_continuous=2, seed=5, dropout_rate=0.0)
    # float64 sums of float32 values are exact here; float64 ones show the order
    wide = init_deepfm(vocab, 4, [8, 8, 8], seed=6, dropout_rate=0.0, dtype=np.float64)
    return [("base", base, ds), ("afm-mlp", afm_mlp, ds), ("unfused", unfused, ds),
            ("fused", fused, ds), ("tt", tt, ds), ("continuous", cont, cont_ds),
            ("float64", wide, ds)]


@pytest.mark.parametrize("batch_size", [500, 10000])  # 1234 rows: a short last batch at 500
def test_calibrate_is_byte_identical_to_a_full_forward_per_tap(batch_size):
    for name, model, ds in calibration_models():
        layers = [f"mlp.{j}" for j in range(len(model.mlp))]  # the head is one wide
        for tap_ids in ([f"emb.{i}" for i in range(3)], layers, ["mlp.1", "emb.2", "emb.0"]):
            want = oracle_calibrate(model, ds, tap_ids, batch_size)
            got = calibrate(model, ds, tap_ids, batch_size=batch_size)
            assert list(got) == tap_ids
            for tid in tap_ids:
                acc, ref = got[tid].accumulator, want[tid]
                where = f"{name} {tid} of {tap_ids}"
                assert acc.n == ref.n == len(ds), where
                assert acc.sum.tobytes() == ref.sum.tobytes(), where
                assert acc.sum_outer.tobytes() == ref.sum_outer.tobytes(), where


def test_calibrate_holds_one_block_one_layer_output_and_the_fold_buffer():
    """tracemalloc counts numpy's allocations: a batch-10 000 calibration of
    a 10-field, 96-wide model at its MLP and embedding taps peaks below the
    float64 fold buffer, the gathered (rows, fields, dim) block and one
    layer output, plus 1 MB, because the walk drops the block and each
    layer's input once the product that reads them returns."""
    vocab, n, dim, width = [1000] * 10, 10000, 16, 96
    ds = synth_generate(SynthSpec(n_samples=2 * n, vocab_sizes=vocab, seed=1))
    model = init_deepfm(vocab, dim, [width] * 3, seed=0)
    tap_ids = ["mlp.1", "mlp.2"] + [f"emb.{i}" for i in range(len(vocab))]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        calibrate(model, ds, tap_ids, batch_size=n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    fold_buffer, block, layer = n * width * 8, n * len(vocab) * dim * 4, n * width * 4
    assert peak <= fold_buffer + block + layer + (1 << 20), peak


class LayerSpy:
    """A dense layer that records its index whenever its bias is read,
    which only the layer step does."""

    def __init__(self, layer, j, reads):
        self._layer, self._j, self._reads = layer, j, reads

    def __getattr__(self, name):
        if name == "bias":
            self._reads.append(self._j)
        return getattr(self._layer, name)


def test_calibration_runs_only_as_far_as_its_last_tap():
    ds = synth_generate(SynthSpec(n_samples=300, vocab_sizes=[10, 10], seed=8))
    model = small_model(seed=4)
    reads = []
    model.mlp = [LayerSpy(layer, j, reads) for j, layer in enumerate(model.mlp)]
    calibrate(model, ds, ["emb.0", "emb.1"])
    assert reads == []  # no dense layer runs
    calibrate(model, ds, ["mlp.1", "emb.0"], batch_size=200)
    assert reads == [0, 1, 0, 1]  # two batches, each up to the tapped layer


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fold_rejects_a_non_finite_column_before_any_accumulator_changes(bad):
    block = np.ones((5, 3, 2), dtype=np.float32)
    block[4, 2, 1] = bad
    accs = [MomentAccumulator(2) for _ in range(3)]
    with pytest.raises(NumericError, match="non-finite"):
        fold(accs, block)
    for acc in accs:
        assert acc.n == 0 and not acc.sum.any() and not acc.sum_outer.any()
    single = MomentAccumulator(2)
    with pytest.raises(NumericError, match="non-finite"):
        single.update(block[:, 2])
    assert single.n == 0 and not single.sum.any()


@pytest.mark.parametrize("tap", ["emb.1", "mlp.1"])
def test_calibrate_rejects_a_non_finite_tap(tap):
    ds = synth_generate(SynthSpec(n_samples=300, vocab_sizes=[10, 10], seed=8))
    model = small_model(seed=4)
    if tap == "emb.1":
        model.tables[1].weights[:, ds.indices[250, 1]] = np.nan
    else:
        model.mlp[1].bias[0] = np.inf
    with pytest.raises(NumericError, match="non-finite"):
        calibrate(model, ds, ["emb.0", tap], batch_size=200)


def test_a_finite_float64_block_whose_sum_overflows_is_accepted():
    rows = np.array([[1e308, 0.5], [1e308, -0.25], [-3.0, 2.0]])
    ref = MomentAccumulator(2)
    with np.errstate(over="ignore"):
        ref.n += 3
        ref.sum += rows.sum(axis=0)
        outer = rows.T @ rows
        ref.sum_outer += 0.5 * (outer + outer.T)
        acc = MomentAccumulator(2)
        acc.update(rows)
        accs = [MomentAccumulator(2), MomentAccumulator(2)]
        fold(accs, np.stack([rows, rows], axis=1))
    assert acc.sum[0] == np.inf
    for got in (acc, *accs):
        assert got.n == 3
        assert got.sum.tobytes() == ref.sum.tobytes()
        assert got.sum_outer.tobytes() == ref.sum_outer.tobytes()


def tiny_pipeline_config(tmp_path, stages, seed=0, n_samples=2000):
    return load_config(
        {
            "profile": "synth",
            "seed": seed,
            "data": {
                "synth": {
                    "n_samples": n_samples,
                    "vocab_sizes": [30, 30, 30],
                    "latent_rank": 2,
                    "noise": 0.05,
                    "seed": 11,
                },
                "test_fraction": 0.2,
            },
            "model": {
                "embed_dim": 8,
                "hidden_dims": [16, 16, 16],
                "dropout_rate": 0.0,
            },
            "stages": stages,
        }
    )


IDENTITY_STAGES = [
    {"stage": "train_baseline", "epochs": 1, "learning_rate": 1e-3},
    {"stage": "eval"},
    {"stage": "calibrate"},
    {"stage": "compress", "method": "afm-mlp", "rank": 16, "insert_relu": False},
    {"stage": "finetune", "learning_rate": 0.0},
    {"stage": "eval"},
]


def test_full_rank_pipeline_is_metric_neutral(tmp_path):
    resolved = tiny_pipeline_config(tmp_path, IDENTITY_STAGES)
    out = tmp_path / "run"
    manifest = run_pipeline(resolved, out)
    assert [s["status"] for s in manifest["stages"]] == ["completed"] * 6
    rows = [json.loads(line)
            for line in (out / "metrics.jsonl").read_text().splitlines()]
    by_stage = {r["stage"]: r for r in rows}
    base = by_stage["stage01-eval"]
    pre = by_stage["stage03-afm-mlp:pre-finetune"]
    final = by_stage["stage05-eval"]
    for row in (pre, final):
        assert abs(row["test_auc"] - base["test_auc"]) < 1e-6
        assert abs(row["test_logloss"] - base["test_logloss"]) < 1e-6


def test_pipeline_artifacts_and_manifest(tmp_path):
    resolved = tiny_pipeline_config(tmp_path, IDENTITY_STAGES)
    out = tmp_path / "run"
    manifest = run_pipeline(resolved, out)
    expected = {
        "metrics.jsonl",
        "checkpoints/stage00-train_baseline.lrck",
        "reports/stage03-afm-mlp.json",
        "checkpoints/stage03-afm-mlp.lrck",
        "checkpoints/stage04-finetune.lrck",
        "manifest.json",
    }
    assert set(manifest["artifacts"]) == expected
    for rel in expected:
        assert (out / rel).exists()
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk == manifest
    assert on_disk["config_hash"] == resolved.config_hash
    report = json.loads((out / "reports/stage03-afm-mlp.json").read_text())
    assert report["method"] == "afm-mlp"
    assert report["params_before"]["total"] > 0


def test_svd_and_tt_chains_run_without_calibrate(tmp_path):
    stages = [
        {"stage": "train_baseline", "epochs": 1, "learning_rate": 1e-3},
        {"stage": "compress", "method": "svd-mlp", "rank": 4},
        {"stage": "finetune", "epochs": 1},
        {"stage": "compress", "method": "tt-emb", "rank": 2},
        {"stage": "finetune", "epochs": 1},
        {"stage": "eval"},
    ]
    resolved = tiny_pipeline_config(tmp_path, stages, n_samples=500)
    out = tmp_path / "run"
    manifest = run_pipeline(resolved, out)
    assert [s["status"] for s in manifest["stages"]] == ["completed"] * 6
    for rel in ("checkpoints/stage01-svd-mlp.lrck",
                "checkpoints/stage03-tt-emb.lrck",
                "checkpoints/stage04-finetune.lrck"):
        assert rel in manifest["artifacts"]
        assert (out / rel).exists()

    svd_emb = load_config({
        "profile": "synth",
        "data": resolved.data,
        "model": resolved.model,
        "pipeline": {"mlp": None, "emb": "svd-emb"},
    })
    assert [s["stage"] for s in svd_emb.stages] == [
        "train_baseline", "compress", "finetune", "eval"
    ]
    manifest = run_pipeline(svd_emb, tmp_path / "svd-emb")
    assert "checkpoints/stage01-svd-emb.lrck" in manifest["artifacts"]


def test_pipeline_failure_is_recorded(tmp_path, monkeypatch):
    stages = [
        {"stage": "train_baseline", "epochs": 0},
        {"stage": "calibrate"},
        {"stage": "compress", "method": "afm-mlp", "rank": 4},
        {"stage": "finetune"},
    ]
    resolved = tiny_pipeline_config(tmp_path, stages, n_samples=500)

    def broken_compress(run, i, stage):
        raise ValueError("compression went wrong")

    monkeypatch.setitem(STAGE_HANDLERS, "compress", broken_compress)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="compression went wrong"):
        run_pipeline(resolved, out)
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = [s["status"] for s in manifest["stages"]]
    assert statuses == ["completed", "completed", "failed"]
    assert manifest["stages"][-1]["error"] == "compression went wrong"
    assert manifest["stages"][-1]["index"] == 2
    assert manifest["stages"][-1]["stage"] == "compress"
    for entry in manifest["stages"]:  # completed or failed, each carries its span
        for key, kind in (("seconds", float), ("peak_rss_mb", float), ("minor_faults", int)):
            assert type(entry[key]) is kind and entry[key] >= 0, (entry, key)
        assert entry["peak_rss_mb"] > 0


def test_pipeline_reruns_byte_identical(tmp_path):
    """Two runs of one config write the same run directory, apart from
    what they measure: ``wall_seconds`` in the metrics rows and the span
    fields ``seconds``, ``peak_rss_mb`` and ``minor_faults`` of each
    manifest stage."""
    stages = [
        {"stage": "train_baseline", "epochs": 1, "learning_rate": 1e-3},
        {"stage": "calibrate"},
        {"stage": "compress", "method": "afm-mlp", "rank": 4},
        {"stage": "finetune"},
        {"stage": "calibrate"},
        {"stage": "compress", "method": "afm-emb", "rank": 2},
        {"stage": "finetune", "dropout": 0.2},
        {"stage": "eval"},
    ]
    resolved = tiny_pipeline_config(tmp_path, stages, n_samples=1000)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_pipeline(resolved, out_a)
    run_pipeline(resolved, out_b)

    def files(out):
        return sorted(p.relative_to(out) for d in ("checkpoints", "reports")
                      for p in (out / d).iterdir())

    assert files(out_a) == files(out_b) and len(files(out_a)) == 7
    for rel in files(out_a):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def unmeasured(out):
        rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert any("wall_seconds" in row for row in rows)
        for row in rows:
            row.pop("wall_seconds", None)
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["stages"]:
            for key in ("seconds", "peak_rss_mb", "minor_faults"):
                del entry[key]
        return rows, manifest

    assert unmeasured(out_a) == unmeasured(out_b)


def test_evaluate_model_matches_direct_metrics():
    ds = synth_generate(SynthSpec(n_samples=300, vocab_sizes=[10, 10], seed=6))
    model = small_model(seed=2)
    report = evaluate_model(model, ds, batch_size=64)
    assert report.n_samples == 300
    assert 0.0 <= report.auc <= 1.0
    assert report.logloss > 0.0
