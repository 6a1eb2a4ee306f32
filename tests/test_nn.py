"""Tests for the DeepFM model: forward math, gradients, parameter tally."""

import copy
import weakref

import numpy as np
import pytest

from lowrank_ctr.compress import (
    afm_apply_embedding,
    afm_plan_embedding,
    fuse_projection_into_first_fc,
    svd_compress_embedding,
    tt_compress_embedding,
)
from lowrank_ctr.errors import DataError, ShapeError
from lowrank_ctr.linalg import (
    TTCores,
    plan_tt_factors,
    tt_decompose_matrix,
    tt_reconstruct_full,
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
    param_count,
    sigmoid,
)
from lowrank_ctr.stats import ActivationTap
from lowrank_ctr.train import loss_bce_l2


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


def fd_check(model, batch, labels, l2_ratio=1e-4, h=1e-6, rtol=1e-4):
    """Central finite differences against analytic gradients, all params."""
    _, grads, _ = compute_gradients(
        model, batch, labels, l2_ratio=l2_ratio, dropout_override=0.0
    )

    def loss_at():
        trace = forward(model, batch, mode="train",
                        rng=np.random.default_rng(0), dropout_override=0.0)
        return loss_bce_l2(trace.logits, labels, model, l2_ratio)

    for name, p in model.named_parameters():
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


def test_gradients_with_projections_match_finite_differences():
    model = init_deepfm([3, 3], 4, [3], seed=9, dtype=np.float64)
    rng = np.random.default_rng(2)
    model.projections = [
        ProjectionLayer(rng.standard_normal((4, 2)), rng.standard_normal(4)),
        ProjectionLayer(rng.standard_normal((4, 2)), rng.standard_normal(4)),
    ]
    for t in model.tables:
        t.weights = np.ascontiguousarray(t.weights[:2, :])  # reduced tables
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
    model.projections = []
    for t in model.tables:
        t.weights = np.ascontiguousarray(t.weights[:2, :])
        model.projections.append(
            ProjectionLayer(
                rng.standard_normal((4, 2)).astype(np.float32),
                np.zeros(4, dtype=np.float32),
            )
        )
    counts = param_count(model)
    assert counts["embeddings"] + counts["projections"] == 2 * 60 + 3 * (4 * 2 + 4)  # 156


def test_empty_fields_param_count():
    model = DeepFMModel(tables=[], first_order=[], mlp=[], n_continuous=0, embed_dim=0)
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


def projected_model(fused, seed=0):
    """A float64 model with reduced tables and random projections."""
    model = init_deepfm([7, 5, 9], 4, [6, 6, 6], seed=seed, dtype=np.float64, dropout_rate=0.0)
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
    packed = model.packed()
    assert packed.tables.shape == (13, 5) and packed.tables.flags.c_contiguous
    assert packed.first_order.shape == (13,)
    for i, (table, fo) in enumerate(zip(model.tables, model.first_order)):
        start = int(packed.offsets[i])
        assert table.weights.shape == (5, table.vocab)
        np.testing.assert_array_equal(table.weights, packed.tables[start : start + table.vocab].T)
        assert np.shares_memory(table.weights, packed.tables)
        assert np.shares_memory(fo, packed.first_order)


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
    model.tables[1].weights = mine
    model.first_order[0] = np.full(6, 0.25)
    want, _ = full_width_reference(model, idx)
    np.testing.assert_allclose(forward(model, make_batch(idx)).logits, want, rtol=1e-12, atol=1e-12)
    # the forward pass packed the new arrays; the tables are views again
    assert np.shares_memory(model.tables[1].weights, model.packed().tables)
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
    for kind in ("tables", "first_order"):
        assert not np.shares_memory(getattr(model.packed(), kind), getattr(other.packed(), kind))
    for _, p in other.named_parameters():
        p[...] = 0.0
    np.testing.assert_array_equal(forward(other, make_batch(idx)).logits, 0.0)
    np.testing.assert_array_equal(forward(model, make_batch(idx)).logits, before)


@pytest.mark.parametrize("kind", ["fm-off", "tt"])
def test_deepcopy_with_one_packed_array_repacks(kind):
    """A copy of a model with only packed tables (fm disabled) or only packed
    first-order weights (tensor-train fields) packs its own arrays again."""
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
    old = weakref.ref(model.packed().tables)  # 6.4 MB of float32
    compressor(model, 4)
    assert old() is None
    model.first_order = list(model.first_order)
    assert model._packed is None
    idx = np.array([[1] * 10, [9_999] * 10])
    np.testing.assert_array_equal(  # repacked from the current arrays
        forward(model, make_batch(idx)).logits,
        forward(model.clone(), make_batch(idx)).logits,
    )


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
    model.fm_enabled = False
    model.first_order = []
    batch = make_batch([[0, 1, 2], [6, 4, 8]])
    fd_check(model, batch, np.array([0, 1]))


def test_mixed_dense_and_tt_fields_are_rejected():
    model = init_deepfm([4, 6], 4, [3], seed=10)
    tt = init_deepfm([4, 6], 4, [3], seed=10)
    tt_compress_embedding(tt, max_rank=2, n_cores=2)
    model.tables[1] = tt.tables[1]
    with pytest.raises(ShapeError):
        forward(model, make_batch([[0, 1]]))


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
        full = tt_reconstruct_full(t.cores).astype(np.float64)  # padded
        raw.append(full[: t.vocab, : t.dim][idx[:, i]])
    want, _ = full_width_reference(model, idx, raw)
    got = forward(model, make_batch(idx)).logits
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def tt_in(tt, dtype):
    """``tt`` with its cores cast to ``dtype``, as tt_compress_embedding does."""
    cores = tuple(c.astype(dtype) for c in tt.cores)
    return TTCores(cores, tt.row_factors, tt.col_factors, tt.ranks)


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
