"""Tests for the DeepFM model: forward math, gradients, parameter tally."""

import copy
import dataclasses
import weakref

import numpy as np
import pytest

from lowrank_ctr import nn
from lowrank_ctr.checkpoint import load_checkpoint, save_checkpoint
from lowrank_ctr.compress import (
    afm_apply_embedding,
    afm_plan_embedding,
    compress_mlp,
    fuse_projection_into_first_fc,
    svd_compress_embedding,
    tt_compress_embedding,
)
from lowrank_ctr.errors import DataError, ShapeError
from lowrank_ctr.linalg import (
    TTCores,
    plan_tt_factors,
    tt_decompose_matrix,
    tt_reconstruct_row,
)
from lowrank_ctr.nn import (
    DeepFMModel,
    EmbeddingTable,
    FeatureBatch,
    ProjectionLayer,
    TTEmbeddingTable,
    _stacked_identity,
    _tt_chain,
    _tt_lookup_grads,
    bce_from_logits,
    compute_gradients,
    forward,
    init_deepfm,
    l2_penalty,
    loss_bce_l2,
    param_count,
    sigmoid,
)
from lowrank_ctr.stats import ActivationTap
from lowrank_ctr.train import Adam
from test_linalg import contract_tt


def make_batch(indices, n_continuous=0):
    idx = np.asarray(indices, dtype=np.int64)
    cont = np.zeros((idx.shape[0], n_continuous), dtype=np.float32)
    return FeatureBatch(indices=idx, continuous=cont)


def zero_model(vocab_sizes, embed_dim, hidden, **kw):
    model = init_deepfm(vocab_sizes, embed_dim, hidden, **kw)
    for _, p in model.named_parameters():
        p[...] = 0.0
    return model


def test_zero_model_predicts_half():
    model = zero_model([5, 7], 4, [8, 8])
    trace = forward(model, make_batch([[0, 3], [4, 6], [2, 2]]))
    np.testing.assert_allclose(trace.predictions, 0.5, atol=0)
    np.testing.assert_allclose(trace.logits, 0.0, atol=0)


def test_single_field_hand_forward():
    model = init_deepfm([3], 1, [2], seed=0, dtype=np.float64)
    model.tables[0].weights[:] = [[0.1, 0.2, 0.3]]
    model.first_order[0][:] = [1.0, 2.0, 3.0]
    model.mlp[0].weight[:] = [[1.0], [-1.0]]
    model.mlp[0].bias[:] = [0.5, 0.0]
    model.mlp[1].weight[:] = [[1.0, 1.0]]
    model.mlp[1].bias[:] = [0.25]

    trace = forward(model, make_batch([[1]]))
    # by hand: e = 0.2, first-order = 2.0, one field -> no pairwise term,
    # relu([0.2 + 0.5, -0.2]) = [0.7, 0], deep = 0.7 + 0.25 = 0.95
    assert np.isclose(trace.first_order_term[0], 2.0, atol=1e-15)
    assert np.isclose(trace.pairwise_term[0], 0.0, atol=1e-15)
    assert np.isclose(trace.deep_term[0], 0.95, atol=1e-15)
    assert np.isclose(trace.logits[0], 2.95, atol=1e-15)
    assert np.isclose(trace.predictions[0], 1.0 / (1.0 + np.exp(-2.95)), atol=1e-15)


def test_pairwise_orthogonal_fields_cancel():
    model = zero_model([2, 2], 2, [4])
    model.tables[0].weights[:, 0] = [1.0, 0.0]
    model.tables[1].weights[:, 0] = [0.0, 1.0]
    trace = forward(model, make_batch([[0, 0]]))
    assert trace.pairwise_term[0] == 0.0

    # same direction: <e1, e2> = 1
    model.tables[1].weights[:, 0] = [1.0, 0.0]
    trace = forward(model, make_batch([[0, 0]]))
    assert np.isclose(trace.pairwise_term[0], 1.0, atol=1e-6)


def test_pairwise_matches_bruteforce_dot_sum():
    model = init_deepfm([9, 9, 9], 5, [4], seed=12, dtype=np.float64)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 9, size=(32, 3))
    trace = forward(model, make_batch(idx))
    e = [model.tables[i].lookup(idx[:, i]) for i in range(3)]
    brute = np.zeros(32)
    for i in range(3):
        for j in range(i + 1, 3):
            brute += np.sum(e[i] * e[j], axis=1)
    np.testing.assert_allclose(trace.pairwise_term, brute, atol=1e-6)


def test_capture_matches_external_matmul():
    model = init_deepfm([6, 6], 3, [5, 4], seed=3)
    rng = np.random.default_rng(1)
    idx = rng.integers(0, 6, size=(20, 2))
    trace = forward(model, make_batch(idx), capture=["emb.0", "mlp.0", "mlp.1"])

    e0 = model.tables[0].lookup(idx[:, 0])
    np.testing.assert_allclose(trace.captured["emb.0"], e0, atol=0)

    x = np.concatenate([e0, model.tables[1].lookup(idx[:, 1])], axis=1)
    z0 = x @ model.mlp[0].weight.T + model.mlp[0].bias
    np.testing.assert_allclose(trace.captured["mlp.0"], z0, atol=1e-6)
    z1 = np.maximum(z0, 0) @ model.mlp[1].weight.T + model.mlp[1].bias
    np.testing.assert_allclose(trace.captured["mlp.1"], z1, atol=1e-6)


def test_continuous_block_enters_mlp():
    model = zero_model([3], 2, [4], n_continuous=2)
    model.mlp[0].weight[:, 2] = 1.0  # first continuous column
    model.mlp[1].weight[:] = 1.0
    batch = FeatureBatch(
        indices=np.array([[1]]),
        continuous=np.array([[0.5, -1.0]], dtype=np.float32),
    )
    trace = forward(model, batch)
    assert np.isclose(trace.deep_term[0], 4 * 0.5, atol=1e-6)


def test_validate_batch_errors():
    model = init_deepfm([4, 4], 2, [4], seed=0)
    with pytest.raises(ShapeError):
        forward(model, make_batch([[0]]))  # missing a field
    with pytest.raises(DataError):
        forward(model, make_batch([[0, 4]]))  # index out of vocabulary
    with pytest.raises(ShapeError):
        forward(model, make_batch(np.zeros((0, 2), dtype=int)))


# int32 is what the loaders store; the others are what a caller may pass
INDEX_DTYPES = [np.int32, np.int64, np.uint8, np.int16, np.uint64, ">i4"]


@pytest.mark.parametrize("kind", ["init", "afm-mlp", "afm-emb", "afm-emb-fused", "tt-emb"])
def test_index_dtype_does_not_change_logits_or_gradients(kind, tmp_path):
    model = invariant_model(kind, tmp_path)
    idx = np.random.default_rng(21).integers(0, [7, 5, 9], size=(30, 3))
    idx[0] = [6, 4, 8]  # every field's last item
    labels = np.random.default_rng(22).integers(0, 2, 30)
    outputs = set()
    for dtype in INDEX_DTYPES:
        batch = FeatureBatch(idx.astype(dtype), np.zeros((30, 0), np.float32))
        logits = forward(model, batch).logits
        _, grads, _ = compute_gradients(model, batch, labels, l2_ratio=1e-3)
        outputs.add(logits.tobytes() + b"".join(
            name.encode() + np.asarray(g).tobytes() for name, g in sorted(grads.items())
        ))
    assert len(outputs) == 1


@pytest.mark.parametrize("dtype", INDEX_DTYPES + [np.int8, np.uint16])
def test_validate_batch_bounds_in_every_index_dtype(dtype):
    model = init_deepfm([4, 7, 3], 2, [4], seed=0)
    for bad in ([-1] if np.dtype(dtype).kind == "i" else []) + [7, 200]:
        idx = np.array([[3, 6, 2], [0, bad, 1]]).astype(dtype)
        lo, hi = idx[:, 1].min(), idx[:, 1].max()  # 200 wraps in an 8-bit dtype
        with pytest.raises(DataError, match=rf"field 1: index range \[{lo}, {hi}\] "
                                            r"outside vocabulary of size 7"):
            forward(model, FeatureBatch(idx, np.zeros((2, 0), np.float32)))
    ok = np.array([[3, 6, 2], [0, 0, 0]]).astype(dtype)  # vocab - 1 in every field
    forward(model, FeatureBatch(ok, np.zeros((2, 0), np.float32)))


@pytest.mark.parametrize("dtype", [np.int8, np.uint8])
def test_vocabulary_beyond_the_index_dtype_caps_the_check(dtype):
    model = init_deepfm([300, 2], 2, [4], seed=0)
    info = np.iinfo(dtype)
    ok = np.array([[info.max, 1], [0, 0]], dtype=dtype)  # every value is an item
    forward(model, FeatureBatch(ok, np.zeros((2, 0), np.float32)))
    if info.min < 0:
        bad = np.array([[info.min, 1]], dtype=dtype)
        with pytest.raises(DataError, match=r"field 0: index range \[-128, -128\]"):
            forward(model, FeatureBatch(bad, np.zeros((1, 0), np.float32)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, bool, object])
def test_non_integer_indices_are_rejected_naming_the_dtype(dtype):
    model = init_deepfm([4, 4], 2, [4], seed=0)
    idx = np.array([[0, 1], [1, 0]]).astype(dtype)
    batch = FeatureBatch(idx, np.zeros((2, 0), np.float32))
    with pytest.raises(DataError, match=f"integer array, got dtype {np.dtype(dtype)}"):
        forward(model, batch)
    with pytest.raises(DataError, match="integer array"):
        compute_gradients(model, batch, np.array([0, 1]))


def test_dropout_train_vs_infer():
    model = init_deepfm([8], 4, [64], seed=5, dropout_rate=0.5)
    idx = np.zeros((200, 1), dtype=np.int64)
    batch = make_batch(idx)
    clean = forward(model, batch, mode="infer")
    rng = np.random.default_rng(9)
    noisy = forward(model, batch, mode="train", rng=rng)
    assert not np.allclose(clean.predictions, noisy.predictions)
    # override 0 makes train mode deterministic and equal to inference
    quiet = forward(model, batch, mode="train", rng=np.random.default_rng(9), dropout_override=0.0)
    np.testing.assert_allclose(quiet.predictions, clean.predictions, atol=0)


def test_dropout_masks_scale_inversely():
    # with rate p the kept units are scaled by 1/(1-p); on a constant
    # activation map the mean output should stay near the input level
    model = init_deepfm([2], 2, [400], seed=6, dropout_rate=0.5)
    model.mlp[0].weight[...] = 0.0
    model.mlp[0].bias[...] = 1.0
    trace, = [forward(model, make_batch([[0]]), mode="train", rng=np.random.default_rng(0), capture=["mlp.0"])]
    z = trace.captured["mlp.0"]
    np.testing.assert_allclose(z, 1.0, atol=0)


@pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.7])
def test_dropout_masks_are_the_keep_draws_times_the_inverse_keep_rate(rate):
    model = init_deepfm([8, 8], 4, [64, 32], seed=5, dropout_rate=0.5)
    batch = make_batch(np.arange(2000).reshape(1000, 2) % 8)
    _, cache = nn._run_forward(model, batch, "train", (), np.random.default_rng(4), rate)
    rng = np.random.default_rng(4)  # the same draws, in layer order
    for _, z, mask in cache["layers"][:2]:
        want = (rng.random(z.shape) >= rate).astype(np.float32) / np.float32(1.0 - rate)
        assert mask.dtype == np.float32 and mask.tobytes() == want.tobytes()


def test_capture_hands_over_what_forward_captures():
    model = init_deepfm([5, 7, 6], 4, [8, 8, 8], seed=3, dropout_rate=0.0)
    batch = make_batch(np.arange(60).reshape(20, 3) % 5)
    tap_ids = ["mlp.1", "emb.2", "emb.0"]
    captured = forward(model, batch, capture=tap_ids).captured
    handed = []
    nn.capture(model, batch, tap_ids,
               lambda ids, block: handed.append((ids, block.copy())))
    assert [ids for ids, _ in handed] == [["emb.0", None, "emb.2"], ["mlp.1"]]
    for ids, block in handed:
        for i, tid in enumerate(ids):
            if tid:
                assert block[:, i].tobytes() == captured[tid].tobytes()
    handed.clear()
    nn.capture(model, batch, ["emb.1"], lambda ids, block: handed.append(ids))
    assert handed == [[None, "emb.1", None]]
    with pytest.raises(ShapeError, match="indices must be"):
        nn.capture(model, make_batch([[0, 0]]), ["emb.0"], handed.append)


@pytest.mark.parametrize("mode, rate", [("infer", 0.0), ("train", 0.5)])
def test_forward_captures_outlive_the_in_place_relu(mode, rate):
    # every relu overwrites its pre-activation once the tap is handed over,
    # so a capture that kept the pass's block would lose its negatives
    model = init_deepfm([5, 7, 6], 4, [8, 8, 8], seed=3, dropout_rate=rate)
    batch = make_batch(np.arange(60).reshape(20, 3) % 5)
    relu_taps = ["mlp.0", "mlp.1", "mlp.2"]
    assert all(model.mlp[j].activation == "relu" for j in range(3))

    def run(capture):
        return forward(model, batch, mode=mode, capture=capture,
                       rng=np.random.default_rng(8))

    trace = run(["emb.1", *relu_taps])
    for tid in relu_taps:
        assert (trace.captured[tid] < 0).any(), tid
    assert trace.logits.tobytes() == run(()).logits.tobytes()


def test_bce_from_logits_reference_values():
    assert np.isclose(bce_from_logits(np.zeros(3), np.array([1, 0, 1])), np.log(2.0), atol=1e-12)
    assert bce_from_logits(np.array([30.0, -30.0]), np.array([1, 0])) <= 1e-9


def test_l2_ratio_shifts_loss_by_penalty():
    model = init_deepfm([5, 5], 3, [6], seed=7, dtype=np.float64)
    batch = make_batch([[1, 2], [3, 4]])
    labels = np.array([1, 0])
    loss0, _, _ = compute_gradients(model, batch, labels, l2_ratio=0.0, dropout_override=0.0)
    loss1, _, _ = compute_gradients(model, batch, labels, l2_ratio=1e-5, dropout_override=0.0)
    assert np.isclose(loss1 - loss0, 1e-5 * l2_penalty(model), atol=1e-9)


def fd_check(model, batch, labels, l2_ratio=1e-4, h=1e-6, rtol=1e-4, dropout=0.0):
    """Central finite differences against analytic gradients, all params.
    Every pass draws its dropout masks from the same seed, so they agree."""
    _, grads, _ = compute_gradients(
        model, batch, labels, l2_ratio=l2_ratio,
        rng=np.random.default_rng(0), dropout_override=dropout,
    )

    def loss_at():
        trace = forward(model, batch, mode="train",
                        rng=np.random.default_rng(0), dropout_override=dropout)
        return loss_bce_l2(trace.logits, labels, model, l2_ratio)

    for name, p in model.packed_parameters():
        g = np.asarray(grads[name], dtype=np.float64)
        assert g.shape == p.shape, name
        for pos in np.ndindex(p.shape):
            orig = p[pos]
            p[pos] = orig + h
            up = loss_at()
            p[pos] = orig - h
            down = loss_at()
            p[pos] = orig
            fd = (up - down) / (2.0 * h)
            assert np.isclose(g[pos], fd, rtol=rtol, atol=1e-7), (
                f"{name}[{pos}]: analytic {g[pos]:.3e} vs fd {fd:.3e}"
            )


def test_gradients_match_finite_differences():
    model = init_deepfm([3, 4], 2, [3, 3], seed=8, dtype=np.float64)
    batch = make_batch([[0, 1], [2, 3], [1, 0], [2, 2]])
    labels = np.array([1, 0, 0, 1])
    fd_check(model, batch, labels)


def test_gradients_with_dropout_match_finite_differences():
    model = init_deepfm([3, 4], 2, [4, 4], seed=8, dtype=np.float64)
    batch = make_batch([[0, 1], [2, 3], [1, 0], [2, 2]])
    labels = np.array([1, 0, 0, 1])
    losses = [
        compute_gradients(model, batch, labels, rng=np.random.default_rng(0),
                          dropout_override=rate)[0]
        for rate in (0.0, 0.5)
    ]
    assert losses[0] != losses[1]  # the masks drop units
    fd_check(model, batch, labels, dropout=0.5)


def test_gradients_with_projections_match_finite_differences():
    model = init_deepfm([3, 3], 4, [3], seed=9, dtype=np.float64)
    rng = np.random.default_rng(2)
    model.projections = [
        ProjectionLayer(rng.standard_normal((4, 2)), rng.standard_normal(4)),
        ProjectionLayer(rng.standard_normal((4, 2)), rng.standard_normal(4)),
    ]
    model.tables = [EmbeddingTable(t.weights[:2, :]) for t in model.tables]  # reduced
    batch = make_batch([[0, 1], [2, 0]])
    labels = np.array([0, 1])
    fd_check(model, batch, labels)


def test_gradients_with_tt_tables_match_finite_differences():
    model = init_deepfm([4, 6], 4, [3], seed=10, dtype=np.float64)
    tt_compress_embedding(model, max_rank=2, n_cores=2)
    batch = make_batch([[0, 5], [3, 1], [2, 2]])
    labels = np.array([1, 0, 1])
    fd_check(model, batch, labels, rtol=2e-4)


def test_param_count_uncompressed():
    model = init_deepfm([10, 20, 30], 4, [8], seed=0)
    counts = param_count(model)
    assert counts["embeddings"] == 4 * 60  # 240
    assert counts["projections"] == 0
    assert counts["first_order"] == 60
    assert counts["total"] == sum(
        v for k, v in counts.items() if k != "total"
    )


def test_param_count_compressed_with_projections():
    model = init_deepfm([10, 20, 30], 4, [8], seed=0)
    rng = np.random.default_rng(0)
    model.tables = [EmbeddingTable(t.weights[:2, :]) for t in model.tables]
    model.projections = [
        ProjectionLayer(
            rng.standard_normal((4, 2)).astype(np.float32),
            np.zeros(4, dtype=np.float32),
        )
        for _ in model.tables
    ]
    counts = param_count(model)
    assert counts["embeddings"] + counts["projections"] == 2 * 60 + 3 * (4 * 2 + 4)  # 156


def test_empty_fields_param_count():
    model = DeepFMModel(tables=[], first_order=[], mlp=[], n_continuous=0)
    assert param_count(model)["total"] == 0


def test_sigmoid_extremes_are_stable():
    z = np.array([-1000.0, -30.0, 0.0, 30.0, 1000.0])
    p = sigmoid(z)
    assert np.all(np.isfinite(p))
    assert p[0] >= 0.0 and p[-1] <= 1.0
    assert np.isclose(p[2], 0.5, atol=0)


def test_forward_deterministic_across_calls():
    model = init_deepfm([50, 50], 8, [16, 16], seed=4)
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 50, size=(64, 2))
    a = forward(model, make_batch(idx)).predictions
    b = forward(model, make_batch(idx)).predictions
    assert a.tobytes() == b.tobytes()


# -- packed table storage ----------------------------------------------------


def full_width_reference(model, idx, raw=None):
    """Float64 logits and pairwise term, field by field from the full-width
    vectors P_i c_i + b_i (or the raw rows when there are no projections).
    ``raw`` gives each field's (n, width) rows; by default the tables'
    lookups."""
    if raw is None:
        raw = [model.tables[i].lookup(idx[:, i]).astype(np.float64) for i in range(model.n_fields)]
    if model.projections is not None:
        full = [r @ p.weight.T.astype(np.float64) + p.bias for r, p in zip(raw, model.projections)]
    else:
        full = raw
    pairwise = np.zeros(idx.shape[0])
    for i in range(len(full)):
        for j in range(i + 1, len(full)):
            pairwise += np.sum(full[i] * full[j], axis=1)
    first = sum(fo[idx[:, i]].astype(np.float64) for i, fo in enumerate(model.first_order))
    x = np.concatenate(raw if model.fused else full, axis=1)
    for layer in model.mlp:
        x = x @ layer.weight.T.astype(np.float64) + layer.bias
        if layer.activation == "relu":
            x = np.maximum(x, 0.0)
    return first + pairwise + x[:, 0], pairwise


def projected_model(fused, seed=0, dtype=np.float64):
    """A model with reduced tables and random projections."""
    model = init_deepfm([7, 5, 9], 4, [6, 6, 6], seed=seed, dtype=dtype, dropout_rate=0.0)
    rng = np.random.default_rng(seed)
    taps = []
    for i in range(3):
        tap = ActivationTap.for_dim(f"emb.{i}", 4)
        tap.accumulator.update(rng.standard_normal((40, 4)))
        taps.append(tap)
    afm_apply_embedding(model, afm_plan_embedding(taps, 2))
    for p in model.projections:  # make the biases and bases generic
        p.weight[...] = rng.standard_normal(p.weight.shape)
        p.bias[...] = rng.standard_normal(p.bias.shape)
    if fused:
        fuse_projection_into_first_fc(model)
    return model


def test_tables_are_views_of_one_packed_array():
    model = init_deepfm([4, 6, 3], 5, [4], seed=0)
    assert model.emb_rows.shape == (13, 5) and model.emb_rows.flags.c_contiguous
    assert model.fo_rows.shape == (13,)
    for i, (table, fo) in enumerate(zip(model.tables, model.first_order)):
        start = int(model.offsets[i])
        assert table.weights.shape == (5, table.vocab)
        np.testing.assert_array_equal(table.weights, model.emb_rows[start : start + table.vocab].T)
        assert np.shares_memory(table.weights, model.emb_rows)
        assert np.shares_memory(fo, model.fo_rows)


def test_in_place_table_writes_reach_forward():
    model = init_deepfm([6, 6], 3, [5], seed=1, dtype=np.float64)
    idx = np.array([[2, 4], [5, 0], [2, 2]])
    model.tables[0].weights[:, 2] = [1.0, -2.0, 0.5]
    model.first_order[1][4] = 3.0
    for _, p in model.named_parameters():
        p *= 1.5
    want, _ = full_width_reference(model, idx)
    np.testing.assert_allclose(forward(model, make_batch(idx)).logits, want, rtol=1e-12, atol=1e-12)


def test_rebound_weights_reach_forward():
    model = init_deepfm([6, 6], 3, [5], seed=2, dtype=np.float64)
    idx = np.array([[1, 4], [5, 0]])
    forward(model, make_batch(idx))
    mine = np.arange(18, dtype=np.float64).reshape(3, 6) / 10.0
    model.tables = [model.tables[0], EmbeddingTable(mine)]
    model.first_order = [np.full(6, 0.25), model.first_order[1]]
    want, _ = full_width_reference(model, idx)
    np.testing.assert_allclose(forward(model, make_batch(idx)).logits, want, rtol=1e-12, atol=1e-12)
    # the assignment copied the new arrays into new storage; the tables are views
    assert np.shares_memory(model.tables[1].weights, model.emb_rows)
    assert not np.shares_memory(model.tables[1].weights, mine)
    model.tables[1].weights[:, 4] = 0.0
    want, _ = full_width_reference(model, idx)
    np.testing.assert_allclose(forward(model, make_batch(idx)).logits, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("how", ["deepcopy", "clone"])
def test_copies_share_no_memory(how):
    model = projected_model(fused=True)
    other = copy.deepcopy(model) if how == "deepcopy" else model.clone()
    idx = np.array([[1, 2, 3], [6, 4, 8]])
    before = forward(model, make_batch(idx)).logits
    np.testing.assert_array_equal(forward(other, make_batch(idx)).logits, before)
    for (name, a), (_, b) in zip(model.named_parameters(), other.named_parameters()):
        assert not np.shares_memory(a, b), name
    for kind in ("emb_rows", "fo_rows", "proj_weight", "proj_bias"):
        assert not np.shares_memory(getattr(model, kind), getattr(other, kind))
    for _, p in other.named_parameters():
        p[...] = 0.0
    np.testing.assert_array_equal(forward(other, make_batch(idx)).logits, 0.0)
    np.testing.assert_array_equal(forward(model, make_batch(idx)).logits, before)


@pytest.mark.parametrize("kind", ["fm-off", "tt"])
def test_deepcopy_with_one_packed_array_repacks(kind):
    """A copy of a model with only packed tables (fm disabled) or only packed
    first-order weights (tensor-train fields) has arrays of its own."""
    model = init_deepfm([6, 6], 4, [5], seed=5, dtype=np.float64, fm_enabled=kind == "tt")
    if kind == "tt":
        tt_compress_embedding(model, 2)
    idx = np.array([[1, 2], [5, 0], [3, 3]])
    forward(model, make_batch(idx))
    other = copy.deepcopy(model)
    for _, p in other.named_parameters():
        p += 0.25
    want = forward(other.clone(), make_batch(idx)).logits
    np.testing.assert_array_equal(forward(other, make_batch(idx)).logits, want)


@pytest.mark.parametrize("compressor", [svd_compress_embedding, tt_compress_embedding])
def test_replacing_the_tables_frees_the_old_packed_array(compressor):
    model = init_deepfm([10_000] * 10, 16, [8, 8, 8], seed=0)
    old = weakref.ref(model.emb_rows)  # 6.4 MB of float32
    compressor(model, 4)
    assert old() is None
    old = weakref.ref(model.fo_rows)
    model.first_order = list(model.first_order)  # copied in from views of the old array
    assert old() is None
    idx = np.array([[1] * 10, [9_999] * 10])
    np.testing.assert_array_equal(
        forward(model, make_batch(idx)).logits,
        forward(model.clone(), make_batch(idx)).logits,
    )


def invariant_model(kind, tmp_path):
    """A float32 model of ``kind``, not yet run, for the storage invariant."""
    model = init_deepfm([7, 5, 9], 4, [6, 6, 6], seed=13, dropout_rate=0.0)
    idx = np.random.default_rng(13).integers(0, [7, 5, 9], size=(40, 3))

    def taps(names):
        out = {}
        for name, samples in forward(model, make_batch(idx), capture=names).captured.items():
            out[name] = ActivationTap.for_dim(name, samples.shape[1])
            out[name].accumulator.update(samples.astype(np.float64))
        return out

    if kind == "afm-mlp":
        compress_mlp(model, 2, "afm", taps(["mlp.1", "mlp.2"]))
    elif kind == "svd-mlp":
        compress_mlp(model, 2, "svd")
    elif kind in ("svd-emb", "svd-emb-fused"):
        svd_compress_embedding(model, 2)
    elif kind in ("afm-emb", "afm-emb-fused"):
        emb_taps = taps([f"emb.{i}" for i in range(3)])
        afm_apply_embedding(model, afm_plan_embedding(list(emb_taps.values()), 2))
    elif kind == "tt-emb":
        tt_compress_embedding(model, max_rank=2)
    elif kind == "checkpoint":
        save_checkpoint(model, tmp_path / "model.lrck")
        model = load_checkpoint(tmp_path / "model.lrck")
    elif kind != "init":
        forward(model, make_batch(idx))  # the original has run before the copy
        copier = {"clone": DeepFMModel.clone, "deepcopy": copy.deepcopy, "copy": copy.copy}
        model = copier[kind](model)
    if kind.endswith("-fused"):
        fuse_projection_into_first_fc(model)
    return model


def storage_of(model, name):
    """The model's packed array that parameter ``name`` is a view of, or None."""
    kind, _, rest = name.partition(".")
    if kind == "emb" and rest.endswith(".weight"):
        return model.emb_rows
    if kind == "fo":
        return model.fo_rows
    if kind == "proj":
        return model.proj_weight if rest.endswith(".weight") else model.proj_bias
    return None


@pytest.mark.parametrize("kind", [
    "init", "afm-mlp", "svd-emb", "svd-emb-fused", "afm-emb", "tt-emb",
    "checkpoint", "clone", "deepcopy", "copy",
])
def test_forward_reads_the_arrays_adam_updates_and_checkpoints_write(kind, tmp_path):
    model = invariant_model(kind, tmp_path)
    batch = make_batch(np.random.default_rng(14).integers(0, [7, 5, 9], size=(20, 3)))
    before = forward(model, batch).logits
    viewed = 0
    for name, p in model.named_parameters():
        base = storage_of(model, name)
        if base is not None:
            assert np.shares_memory(p, base), name
            viewed += 1
    projected = kind in ("svd-emb", "svd-emb-fused", "afm-emb")
    assert viewed == (3 if kind == "tt-emb" else 6) + (6 if projected else 0)

    # a per-field object and its arrays are fixed views of the storage
    with pytest.raises(TypeError):
        model.tables[0] = model.tables[0]
    with pytest.raises(TypeError):
        model.first_order[0] = model.first_order[0]
    if kind != "tt-emb":
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.tables[0].weights = model.tables[0].weights.copy()
    if model.projections is not None:
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.projections[1].bias = model.projections[1].bias.copy()

    # Adam's in-place update reaches the forward pass and the checkpoint
    rng = np.random.default_rng(15)
    params = model.packed_parameters()
    Adam(1e-2).step(params, {n: rng.standard_normal(p.shape).astype(p.dtype) for n, p in params})
    after = forward(model, batch).logits
    assert not np.array_equal(after, before)
    save_checkpoint(model, tmp_path / "stepped.lrck")
    loaded = load_checkpoint(tmp_path / "stepped.lrck")
    assert forward(loaded, batch).logits.tobytes() == after.tobytes()


@pytest.mark.parametrize("kind", [
    "init", "afm-mlp", "svd-mlp", "svd-emb", "svd-emb-fused", "afm-emb", "afm-emb-fused",
    "tt-emb", "clone",
])
def test_packed_parameters_are_c_contiguous_and_reload_so(kind, tmp_path):
    # Adam updates a packed array through its flat view, which is the array
    # itself only when it is C-contiguous
    model = invariant_model(kind, tmp_path)
    save_checkpoint(model, tmp_path / "packed.lrck")
    for m in (model, load_checkpoint(tmp_path / "packed.lrck")):
        loose = [name for name, p in m.packed_parameters() if not p.flags.c_contiguous]
        assert not loose


def test_shallow_copy_packs_its_own_arrays():
    model = init_deepfm([7, 5, 9], 4, [6, 6, 6], seed=16, dropout_rate=0.0)
    batch = make_batch(np.random.default_rng(16).integers(0, [7, 5, 9], size=(20, 3)))
    want = forward(model, batch).logits
    other = copy.copy(model)
    for kind in ("emb_rows", "fo_rows"):
        assert not np.shares_memory(getattr(model, kind), getattr(other, kind))
    other.emb_rows[...] = 0.0
    other.fo_rows[...] = 0.0
    assert forward(model, batch).logits.tobytes() == want.tobytes()
    assert not np.array_equal(forward(other, batch).logits, want)


# -- forward-pass constants --------------------------------------------------


def served_model(fused):
    """A float32 projected model, already run once, and a batch of rows."""
    model = projected_model(fused, seed=6, dtype=np.float32)
    batch = make_batch(np.random.default_rng(7).integers(0, [7, 5, 9], size=(20, 3)))
    forward(model, batch)
    return model, batch


def assert_logits_match_a_fresh_clone(model, batch):
    want = forward(model.clone(), batch).logits
    assert forward(model, batch).logits.tobytes() == want.tobytes()


def test_projections_are_views_of_packed_arrays():
    model = projected_model(fused=True)
    assert model.proj_weight.shape == (3, 4, 2) and model.proj_bias.shape == (3, 4)
    for i, proj in enumerate(model.projections):
        assert proj.weight.base is model.proj_weight and proj.bias.base is model.proj_bias
        np.testing.assert_array_equal(proj.weight, model.proj_weight[i])
        np.testing.assert_array_equal(proj.bias, model.proj_bias[i])


@pytest.mark.parametrize("fused", [False, True])
@pytest.mark.parametrize("what", ["weight", "bias"])
def test_in_place_projection_write_reaches_forward(fused, what):
    model, batch = served_model(fused)
    before = forward(model, batch).logits
    getattr(model.projections[1], what)[0] += 0.5
    assert not np.array_equal(forward(model, batch).logits, before)
    assert_logits_match_a_fresh_clone(model, batch)


@pytest.mark.parametrize("how", ["array", "layer", "list"])
def test_rebound_projections_reach_forward(how):
    model, batch = served_model(fused=True)
    rng = np.random.default_rng(8)
    new = [
        ProjectionLayer(
            rng.standard_normal((4, 2)).astype(np.float32),
            rng.standard_normal(4).astype(np.float32),
        )
        for _ in range(3)
    ]
    old = model.projections
    if how == "array":  # field 2 gets a new weight, through a new list
        new = [*old[:2], ProjectionLayer(new[2].weight, old[2].bias)]
    elif how == "layer":  # field 2 gets a new projection
        new = [*old[:2], new[2]]
    model.projections = new
    assert_logits_match_a_fresh_clone(model, batch)
    # the assignment copied the new arrays in; the projections are views of them
    assert model.projections[2].weight.base is model.proj_weight
    assert not np.shares_memory(model.proj_weight, new[2].weight)
    np.testing.assert_array_equal(model.projections[2].weight, new[2].weight)


def test_deepcopy_derives_its_own_projection_terms():
    model, batch = served_model(fused=False)
    want = forward(model, batch).logits
    other = copy.deepcopy(model)
    for proj in other.projections:
        proj.weight[...] *= 2.0
    assert_logits_match_a_fresh_clone(other, batch)
    assert forward(model, batch).logits.tobytes() == want.tobytes()
    assert not np.shares_memory(model.proj_weight, other.proj_weight)


def test_float64_copy_derives_its_terms_in_float64():
    _, batch = served_model(fused=False)
    model = projected_model(fused=False, seed=6)
    forward(model, batch)
    wide = copy.deepcopy(model)
    forward(wide, batch)
    wide.projections[0].bias[1] = 3.0
    assert_logits_match_a_fresh_clone(wide, batch)
    terms = wide.projection_terms(np.dtype(np.float64))
    assert all(t.dtype == np.float64 for t in terms)


def test_projection_terms_are_derived_once_per_parameter_change(monkeypatch):
    model = projected_model(fused=True, seed=9, dtype=np.float32)
    batch = make_batch(np.random.default_rng(9).integers(0, [7, 5, 9], size=(20, 3)))
    labels = np.random.default_rng(10).integers(0, 2, size=20)
    derive = nn._projection_terms
    calls = []
    monkeypatch.setattr(nn, "_projection_terms", lambda *a: calls.append(a) or derive(*a))
    for _ in range(5):
        forward(model, batch)
    assert len(calls) == 1
    _, grads, _ = compute_gradients(model, batch, labels)
    assert len(calls) == 1  # nothing changed since the inference calls
    Adam(1e-2).step(model.packed_parameters(), grads)  # updates in place
    for _ in range(5):
        forward(model, batch)
    assert len(calls) == 2
    monkeypatch.undo()
    assert_logits_match_a_fresh_clone(model, batch)


@pytest.mark.parametrize("kind", ["base", "fused", "tt"])
def test_deferred_trace_fields(kind):
    if kind == "fused":
        model = projected_model(fused=True, seed=11, dtype=np.float32)
    else:
        model = init_deepfm([7, 5, 9], 4, [6, 6, 6], seed=11, dropout_rate=0.0)
        if kind == "tt":
            tt_compress_embedding(model, max_rank=2)
    idx = np.random.default_rng(12).integers(0, [7, 5, 9], size=(30, 3))
    last = f"mlp.{len(model.mlp) - 1}"
    trace = forward(model, make_batch(idx), capture=[last])
    assert "predictions" not in vars(trace)  # nothing computed before the first read
    assert trace.predictions.tobytes() == sigmoid(trace.logits).tobytes()
    assert trace.predictions is trace.predictions
    terms = (trace.first_order_term, trace.pairwise_term, trace.deep_term)
    assert all(t.dtype == np.float64 for t in terms)
    # each term is exactly its float32 part, and the logits are their sum
    fo, pairwise, deep = (t.astype(np.float32) for t in terms)
    assert all(t.tobytes() == p.astype(np.float64).tobytes() for t, p in zip(terms, (fo, pairwise, deep)))
    assert trace.logits.tobytes() == (fo + pairwise + deep).astype(np.float64).tobytes()
    assert deep.tobytes() == trace.captured[last][:, 0].tobytes()
    rows = np.stack([f[idx[:, i]] for i, f in enumerate(model.first_order)], axis=1)
    assert fo.tobytes() == (rows @ np.ones(3, dtype=np.float32)).tobytes()
    if kind != "tt":
        _, want_pairwise = full_width_reference(model, idx)
        np.testing.assert_allclose(trace.pairwise_term, want_pairwise, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("fused", [False, True])
def test_reduced_space_pairwise_equals_full_width(fused):
    model = projected_model(fused, seed=3)
    idx = np.random.default_rng(4).integers(0, [7, 5, 9], size=(50, 3))
    trace = forward(model, make_batch(idx))
    want_logits, want_pairwise = full_width_reference(model, idx)
    np.testing.assert_allclose(trace.pairwise_term, want_pairwise, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace.logits, want_logits, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["base", "unfused", "fused", "tt"])
def test_batch_one_matches_batch_n(kind):
    if kind in ("base", "tt"):
        model = init_deepfm([7, 5, 9], 4, [6, 6, 6], seed=5, dtype=np.float64)
        if kind == "tt":
            tt_compress_embedding(model, max_rank=2)
    else:
        model = projected_model(kind == "fused", seed=5)
    idx = np.random.default_rng(6).integers(0, [7, 5, 9], size=(40, 3))
    taps = [f"emb.{i}" for i in range(3)]
    batch = forward(model, make_batch(idx), capture=taps)
    for r in range(40):
        single = forward(model, make_batch(idx[r : r + 1]), capture=taps)
        for tap in taps:  # a row's lookup does not depend on the batch
            assert single.captured[tap][0].tobytes() == batch.captured[tap][r].tobytes()
        # the MLP's matmul takes BLAS's matrix-vector path at batch 1
        np.testing.assert_allclose(single.logits[0], batch.logits[r], rtol=0, atol=1e-12)


def test_fused_projected_gradients_match_finite_differences():
    model = projected_model(fused=True, seed=7)
    batch = make_batch([[0, 1, 2], [6, 4, 8], [3, 3, 3]])
    labels = np.array([1, 0, 1])
    fd_check(model, batch, labels)


def test_unfused_projected_gradients_without_fm_match_finite_differences():
    model = projected_model(fused=False, seed=8)
    model.first_order = []  # no first-order weights: the FM terms are off
    batch = make_batch([[0, 1, 2], [6, 4, 8]])
    fd_check(model, batch, np.array([0, 1]))


def test_fm_enabled_is_read_from_the_first_order_weights():
    model = init_deepfm([6, 6], 4, [5], seed=5)
    assert model.fm_enabled
    with pytest.raises(AttributeError):
        model.fm_enabled = False
    model.first_order = []
    assert not model.fm_enabled
    assert not init_deepfm([6, 6], 4, [5], seed=5, fm_enabled=False).fm_enabled


def dense_scatter(grad_rows, idx, vocab):
    """Sum (n, k) rows into a (vocab, k) float64 gradient over every item
    of the vocabulary by one ``bincount``, duplicates added."""
    n, k = grad_rows.shape
    flat = idx.astype(np.int64)[:, None] * k + np.arange(k, dtype=np.int64)
    out = np.bincount(
        flat.ravel(),
        weights=grad_rows.astype(np.float64, copy=False).ravel(),
        minlength=vocab * k,
    )
    return out.reshape(vocab, k)


def row_grads(model, batch, labels):
    """Each batch row's gradient w.r.t. the embedding it looked up, per
    field as (n, k): read off a copy of the model whose field i holds one
    item per batch row (row r's item), so no two rows share an item and
    the copy computes the same forward pass as the model."""
    idx, n = batch.indices, len(batch)
    spread = model.clone()
    spread.tables = [EmbeddingTable(t.weights[:, idx[:, i]]) for i, t in enumerate(model.tables)]
    spread.first_order = [fo[idx[:, i]] for i, fo in enumerate(model.first_order)]
    own = make_batch(np.repeat(np.arange(n)[:, None], model.n_fields, axis=1))
    _, grads, _ = compute_gradients(spread, own, labels)
    return [g.T for g in spread._split(grads["emb_rows"])]


@pytest.mark.parametrize("l2_ratio", [0.0, 1e-3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["dense", "projected", "fused"])
def test_table_gradient_equals_the_dense_scatter(kind, dtype, l2_ratio):
    if kind == "dense":
        model = init_deepfm([7, 5, 9], 4, [6, 6, 6], seed=3, dtype=dtype, dropout_rate=0.0)
    else:
        model = projected_model(fused=kind == "fused", seed=3, dtype=dtype)
    rng = np.random.default_rng(3)
    n = 30
    # field 0: one item in every row; field 1: repeats among items 0-2;
    # field 2: items 0 and 8 untouched
    idx = np.stack([np.full(n, 4), rng.integers(0, 3, n), rng.integers(1, 8, n)], axis=1)
    model.tables[2].weights[:, 0] = -0.0  # the dense sum 0 + (2λ)(-0.0) is +0.0
    batch, labels = make_batch(idx), rng.integers(0, 2, n)
    _, grads, _ = compute_gradients(model, batch, labels, l2_ratio=l2_ratio)
    for i, (table, d_rows) in enumerate(zip(model.tables, row_grads(model, batch, labels))):
        want = dense_scatter(d_rows, idx[:, i], table.vocab).astype(dtype)
        if l2_ratio:
            want += (2.0 * l2_ratio) * table.weights.T
        got = model._split(grads["emb_rows"])[i]
        assert got.dtype == dtype and got.T.tobytes() == want.tobytes(), i


def test_touched_rows_match_unique():
    rows = np.random.default_rng(4).integers(3, 40, size=(30, 3))
    items, slots = nn._touched_rows(rows, 50)
    want_items, want_slots = np.unique(rows, return_inverse=True)
    assert np.array_equal(items, want_items) and np.array_equal(slots, want_slots)


def test_l2_penalty_agrees_with_the_float64_sum():
    for dtype, rtol in ((np.float32, 1e-6), (np.float64, 1e-12)):
        model = init_deepfm([10000] * 10, 16, [64, 64, 64], seed=1, dtype=dtype)
        exact = sum(float(np.square(p, dtype=np.float64).sum()) for _, p in model.named_parameters())
        assert l2_penalty(model) == pytest.approx(exact, rel=rtol, abs=0)


def test_mixed_dense_and_tt_fields_are_rejected():
    model = init_deepfm([4, 6], 4, [3], seed=10)
    tt = init_deepfm([4, 6], 4, [3], seed=10)
    tt_compress_embedding(tt, max_rank=2, n_cores=2)
    want = forward(model, make_batch([[0, 1]])).logits
    with pytest.raises(ShapeError, match="all dense or all tensor-train"):
        model.tables = [model.tables[0], tt.tables[1]]
    # the rejected assignment left the storage as it was
    assert forward(model, make_batch([[0, 1]])).logits.tobytes() == want.tobytes()


def test_tt_fields_of_unequal_widths_are_rejected():
    model = init_deepfm([4, 6], 4, [3], seed=10)
    tt_compress_embedding(model, max_rank=2, n_cores=2)
    narrow = init_deepfm([6], 2, [3], seed=10)
    tt_compress_embedding(narrow, max_rank=2, n_cores=2)
    want = forward(model, make_batch([[0, 1]])).logits
    with pytest.raises(ShapeError, match=r"fields must share one width, got \[2, 4\]"):
        model.tables = [model.tables[0], narrow.tables[0]]
    assert model.embed_dim == 4
    assert forward(model, make_batch([[0, 1]])).logits.tobytes() == want.tobytes()


def tt_grads_per_row(table, idx, d_rows):
    """Row-by-row reference for the tensor-train lookup gradient."""
    cores = table.cores.cores
    rf, cf = table.cores.row_factors, table.cores.col_factors
    grads = [np.zeros(c.shape) for c in cores]
    pad_cols = int(np.prod(cf))
    for row_i in range(idx.shape[0]):
        digits, rest = [], int(idx[row_i])
        for f in reversed(rf):
            digits.append(rest % f)
            rest //= f
        digits.reverse()
        slices = [core[:, dig, :, :] for core, dig in zip(cores, digits)]
        lefts = [np.ones((1, 1))]
        for sl in slices[:-1]:
            lefts.append(np.tensordot(lefts[-1], sl, axes=([1], [0])).reshape(-1, sl.shape[-1]))
        rights = [np.ones((1, 1))]
        for sl in reversed(slices[1:]):
            rights.append(np.tensordot(sl, rights[-1], axes=([2], [0])).reshape(sl.shape[0], -1))
        rights.reverse()
        de = np.zeros(pad_cols)
        de[: table.dim] = d_rows[row_i]
        for j in range(len(cores)):
            de3 = de.reshape(lefts[j].shape[0], cf[j], rights[j].shape[1])
            tmp = np.einsum("xr,xab->rab", lefts[j], de3)
            grads[j][:, digits[j], :, :] += np.einsum("rab,sb->ras", tmp, rights[j])
    return grads


@pytest.mark.parametrize("n_cores", [2, 3])
def test_tt_lookup_grads_match_per_row_loop(n_cores):
    model = init_deepfm([60], 6, [3], seed=11, dtype=np.float64)
    tt_compress_embedding(model, max_rank=3, n_cores=n_cores)
    table = model.tables[0]
    rng = np.random.default_rng(12)
    idx = rng.integers(0, 60, size=200)  # with repeats, so slices accumulate
    d_rows = rng.standard_normal((200, 6))
    got = _tt_lookup_grads(table, idx, d_rows)
    for g, want in zip(got, tt_grads_per_row(table, idx, d_rows)):
        assert g.shape == want.shape
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_tt_forward_matches_gather_from_full_reconstruction(dtype, tol):
    # 301 and 41 items pad to 304 and 42 rows, width 7 pads to 8 columns
    vocab = [500, 301, 41]
    model = init_deepfm(vocab, 7, [16, 16, 16], seed=13, dtype=dtype, dropout_rate=0.0)
    tt_compress_embedding(model, max_rank=4)
    rng = np.random.default_rng(14)
    idx = rng.integers(0, vocab, size=(200, 3))
    idx[0] = 0
    idx[1] = np.array(vocab) - 1  # the last real rows, next to the padding
    raw = []
    for i, t in enumerate(model.tables):
        full = contract_tt(t.cores.cores).astype(np.float64)  # padded
        raw.append(full[: t.vocab, : t.dim][idx[:, i]])
    want, _ = full_width_reference(model, idx, raw)
    got = forward(model, make_batch(idx)).logits
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def tt_in(tt, dtype):
    """``tt`` with its cores cast to ``dtype``, as tt_compress_embedding does."""
    cores = tuple(c.astype(dtype) for c in tt.cores)
    return TTCores(cores)


def assert_lookup_matches_row_kernel(tt, vocab, dim):
    """Every padded row of ``tt``, batched, against the single-row kernel."""
    rows = np.arange(int(np.prod(tt.row_factors)))
    want = np.stack([tt_reconstruct_row(tt, r) for r in rows])
    _, _, chain = _tt_chain(tt, rows, tt.cores[0].dtype)
    full = chain[-1].reshape(len(rows), -1)  # padding columns included
    assert full.dtype == want.dtype and full.tobytes() == want.tobytes()
    got = TTEmbeddingTable(tt, vocab, dim).lookup(rows)
    assert got.shape == (len(rows), dim)
    assert got.tobytes() == np.ascontiguousarray(want[:, :dim]).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, row_factors, col_factors", [
    ((6, 4), (7,), (5,)),
    ((7, 5), (2, 4), (3, 2)),
    ((11, 5), (2, 3, 2), (2, 1, 3)),
    ((13, 7), (2, 2, 2, 2), (1, 2, 2, 2)),
])
def test_tt_batched_lookup_matches_row_kernel_bit_for_bit(
    shape, row_factors, col_factors, dtype
):
    m = np.random.default_rng(51).standard_normal(shape)
    tt = tt_decompose_matrix(m, row_factors, col_factors, max_rank=3)
    assert np.prod(row_factors) > shape[0] and np.prod(col_factors) > shape[1]
    assert_lookup_matches_row_kernel(tt_in(tt, dtype), *shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rank", [4, 8])
def test_tt_batched_lookup_matches_row_kernel_on_synth_tables(rank, dtype):
    # a synth-shaped table: 10 000 items of width 16 in three cores
    table = np.random.default_rng(53).uniform(-0.01, 0.01, (10000, 16))
    tt = tt_decompose_matrix(
        table, plan_tt_factors(10000), plan_tt_factors(16), max_rank=rank
    )
    assert len(tt.cores) == 3 and max(tt.ranks) == rank
    assert_lookup_matches_row_kernel(tt_in(tt, dtype), 10000, 16)


def test_tt_lookup_range_check_and_integer_arrays():
    m = np.random.default_rng(55).standard_normal((11, 5))
    tt = tt_decompose_matrix(m, (2, 3, 2), (2, 1, 3), max_rank=2)
    table = TTEmbeddingTable(tt, 11, 5)
    for bad in ([-1], [0, 12], [3, 13, 5], [-12, 4]):
        with pytest.raises(IndexError, match=r"outside \[0, 12\)"):
            table.lookup(np.array(bad))
    with pytest.raises(IndexError, match="integers"):
        table.lookup(np.array([1.0, 2.0]))
    rows = [0, 7, 11, 7]
    want = table.lookup(np.array(rows, dtype=np.int64))
    for dtype in (np.int32, np.uint8, np.int16, np.uint64, np.intp):
        assert table.lookup(np.array(rows, dtype=dtype)).tobytes() == want.tobytes()
    assert table.lookup(rows).tobytes() == want.tobytes()


def test_stacked_identity_is_built_once_and_read_only():
    eye = _stacked_identity(3, 4, np.dtype(np.float32))
    assert eye is _stacked_identity(3, 4, np.dtype(np.float32))
    assert eye.dtype == np.float32 and not eye.flags.writeable
    assert eye.tobytes() == np.tile(np.eye(4, dtype=np.float32), (3, 1)).tobytes()
    assert _stacked_identity(3, 4, np.dtype(np.float64)).dtype == np.float64
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0
