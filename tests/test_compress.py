"""Tests for the compression paths: output-PCA, SVD split, TT tables, fusion."""

import numpy as np
import pytest

from lowrank_ctr.checkpoint import manifest_for
from lowrank_ctr.compress import (
    afm_apply_embedding,
    afm_plan_embedding,
    afm_plan_fc,
    afm_split_fc,
    compress_mlp,
    fuse_projection_into_first_fc,
    svd_compress_embedding,
    svd_split_fc,
    tt_compress_embedding,
)
from lowrank_ctr.errors import RankError, ShapeError
from lowrank_ctr.nn import (
    DenseLayer,
    FeatureBatch,
    forward,
    init_deepfm,
    param_count,
)
from lowrank_ctr.stats import ActivationTap


def tap_from(layer_id, samples):
    tap = ActivationTap.for_dim(layer_id, samples.shape[1])
    tap.accumulator.update(np.asarray(samples, dtype=np.float64))
    return tap


def run_layer(layer, x):
    z = x @ layer.weight.T + layer.bias
    if layer.activation == "relu":
        return np.maximum(z, 0)
    return z


def make_batch(indices):
    idx = np.asarray(indices, dtype=np.int64)
    return FeatureBatch(idx, np.zeros((idx.shape[0], 0), dtype=np.float32))


# -- output-PCA plan on dense layers -----------------------------------------


def test_plan_two_sample_hand_case():
    tap = tap_from("mlp.1", np.array([[1.0, 0.0], [0.0, 1.0]]))
    plan = afm_plan_fc(tap, 1)
    np.testing.assert_allclose(plan.mean, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(
        np.abs(plan.basis[:, 0]), np.ones(2) / np.sqrt(2.0), atol=1e-12
    )
    np.testing.assert_allclose(plan.eigenvalues, [0.5, 0.0], atol=1e-12)


def test_plan_full_rank_basis_is_orthonormal():
    rng = np.random.default_rng(0)
    tap = tap_from("mlp.1", rng.standard_normal((100, 6)))
    plan = afm_plan_fc(tap, 6)
    np.testing.assert_allclose(plan.basis.T @ plan.basis, np.eye(6), atol=1e-9)


def test_plan_rank2_data_reconstructs_exactly():
    # data on a 2-D affine subspace of R^5: PCA at k=2 must be lossless
    rng = np.random.default_rng(1)
    coeff = rng.standard_normal((200, 2))
    directions = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    shift = rng.standard_normal(5)
    y = coeff @ directions.T + shift
    plan = afm_plan_fc(tap_from("mlp.1", y), 2)
    u = plan.basis
    recon = (y - plan.mean) @ u @ u.T + plan.mean
    assert np.mean((recon - y) ** 2) <= 1e-10


def test_plan_needs_enough_samples():
    tap = tap_from("mlp.2", np.ones((2, 5)))
    with pytest.raises(RankError):
        afm_plan_fc(tap, 2)
    # an embedding tap gets the same guard as a dense layer's
    tap = tap_from("emb.0", np.random.default_rng(0).standard_normal((5, 16)))
    with pytest.raises(RankError, match="5 samples for dimension 16"):
        afm_plan_embedding([tap], 4)


def test_split_full_rank_identity_without_relu():
    rng = np.random.default_rng(2)
    layer = DenseLayer(
        rng.standard_normal((4, 3)), rng.standard_normal(4), activation="relu"
    )
    y = run_layer(DenseLayer(layer.weight, layer.bias, activation="none"),
                  rng.standard_normal((500, 3)))
    plan = afm_plan_fc(tap_from("mlp.1", y), 4)
    la, lb = afm_split_fc(layer, plan, insert_relu=False)
    x = rng.standard_normal((1000, 3))
    composed = run_layer(lb, run_layer(la, x))
    original = run_layer(layer, x)
    assert np.max(np.abs(composed - original)) <= 1e-5


def test_split_identity_weight_hand_case():
    # identity layer, calibration data {(1,0),(0,1)}, k=1: the sample points
    # sit on the retained affine line, so they reproduce exactly
    layer = DenseLayer(np.eye(2), np.zeros(2), activation="none")
    plan = afm_plan_fc(tap_from("mlp.1", np.array([[1.0, 0.0], [0.0, 1.0]])), 1)
    la, lb = afm_split_fc(layer, plan, insert_relu=False)
    out = run_layer(lb, run_layer(la, np.array([[1.0, 0.0]])))
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)


def test_split_inserted_layer_settings():
    rng = np.random.default_rng(3)
    layer = DenseLayer(
        rng.standard_normal((4, 4)), rng.standard_normal(4),
        activation="relu", dropout_rate=0.5, dropout_site=True,
    )
    plan = afm_plan_fc(tap_from("mlp.1", rng.standard_normal((30, 4))), 2)
    la, lb = afm_split_fc(layer, plan, insert_relu=True)
    assert la.activation == "relu" and not la.dropout_site
    assert not la.bias.any()
    assert lb.activation == "relu" and lb.dropout_site and lb.dropout_rate == 0.5
    la2, _ = afm_split_fc(layer, plan, insert_relu=False)
    assert la2.activation == "none"


def test_split_weight_only_param_formula():
    # m*n -> k*n + m*k + m on the 400x400, k=64 shape
    rng = np.random.default_rng(4)
    layer = DenseLayer(
        rng.standard_normal((400, 400)).astype(np.float32),
        rng.standard_normal(400).astype(np.float32),
    )
    plan = afm_plan_fc(tap_from("mlp.1", rng.standard_normal((500, 400))), 64)
    la, lb = afm_split_fc(layer, plan)
    assert layer.weight.size == 160000
    assert la.weight.size + lb.weight.size + lb.bias.size == 51600


def test_plan_mean_preserved_through_split():
    # E[composed(x)] equals E[original(x)] when the plan was built on the
    # same input distribution: the bias correction restores the mean
    rng = np.random.default_rng(5)
    layer = DenseLayer(rng.standard_normal((6, 4)), rng.standard_normal(6),
                       activation="none")
    x = rng.standard_normal((2000, 4))
    y = run_layer(layer, x)
    plan = afm_plan_fc(tap_from("mlp.1", y), 2)
    la, lb = afm_split_fc(layer, plan, insert_relu=False)
    composed = run_layer(lb, run_layer(la, x))
    np.testing.assert_allclose(composed.mean(axis=0), y.mean(axis=0), atol=1e-8)


# -- SVD split ----------------------------------------------------------------


def test_svd_split_full_rank_identity():
    rng = np.random.default_rng(6)
    layer = DenseLayer(rng.standard_normal((4, 4)), rng.standard_normal(4),
                       activation="relu")
    la, lb, _ = svd_split_fc(layer, 4, insert_relu=False)
    x = rng.standard_normal((1000, 4))
    assert np.max(np.abs(run_layer(lb, run_layer(la, x)) - run_layer(layer, x))) <= 1e-5


def test_svd_split_diagonal_hand_case():
    layer = DenseLayer(np.diag([3.0, 1.0]), np.zeros(2), activation="none")
    la, lb, _ = svd_split_fc(layer, 1, insert_relu=False)
    s3 = np.sqrt(3.0)
    np.testing.assert_allclose(la.weight, [[s3, 0.0]], atol=1e-12)
    np.testing.assert_allclose(lb.weight, [[s3], [0.0]], atol=1e-12)


def test_afm_and_svd_checkpoints_have_identical_shapes():
    base = init_deepfm([7, 7], 4, [8, 8, 8], seed=7)
    rng = np.random.default_rng(7)
    idx = rng.integers(0, 7, size=(64, 2))
    m_afm = base.clone()
    m_svd = base.clone()
    trace = forward(m_afm, make_batch(idx), capture=["mlp.1", "mlp.2"])
    taps = {k: tap_from(k, v) for k, v in trace.captured.items()}
    compress_mlp(m_afm, 2, "afm", taps)
    compress_mlp(m_svd, 2, "svd")
    man_a = manifest_for(m_afm)
    man_b = manifest_for(m_svd)
    shapes_a = [(t["name"], tuple(t["shape"])) for t in man_a["tensors"]]
    shapes_b = [(t["name"], tuple(t["shape"])) for t in man_b["tensors"]]
    assert shapes_a == shapes_b
    assert man_a["topology"] == man_b["topology"]


# -- whole-MLP compression -----------------------------------------------------


def test_compress_mlp_splits_middle_layers_only():
    model = init_deepfm([5], 4, [16, 16, 16], seed=8)
    first = model.mlp[0]
    head = model.mlp[3]
    rng = np.random.default_rng(8)
    idx = rng.integers(0, 5, size=(40, 1))
    trace = forward(model, make_batch(idx), capture=["mlp.1", "mlp.2"])
    taps = {k: tap_from(k, v) for k, v in trace.captured.items()}
    detail = compress_mlp(model, 4, "afm", taps)
    assert len(model.mlp) == 6
    assert model.mlp[0] is first  # untouched
    assert model.mlp[5] is head
    assert set(detail) == {"mlp.1", "mlp.2"}
    for frag in detail.values():
        assert frag["params_after"] < frag["params_before"]
        assert 0.0 < frag["retained_fraction"] <= 1.0 + 1e-12


def test_compress_mlp_requires_three_hidden_layers():
    model = init_deepfm([5], 4, [16, 16], seed=9)
    with pytest.raises(ShapeError):
        compress_mlp(model, 4, "svd")


# -- embedding compression ------------------------------------------------------


def embedding_taps(model, idx):
    names = [f"emb.{i}" for i in range(model.n_fields)]
    trace = forward(model, make_batch(idx), capture=names)
    return [tap_from(name, trace.captured[name]) for name in names]


def test_afm_embedding_full_rank_identity():
    model = init_deepfm([10, 10], 4, [8, 8, 8], seed=10)
    rng = np.random.default_rng(10)
    idx = rng.integers(0, 10, size=(120, 2))
    original = forward(model, make_batch(idx)).predictions
    plan = afm_plan_embedding(embedding_taps(model, idx), 4)
    afm_apply_embedding(model, plan)
    projected = forward(model, make_batch(idx)).predictions
    np.testing.assert_allclose(projected, original, atol=1e-5)


def test_afm_embedding_constant_field_degenerate():
    model = init_deepfm([6, 6], 4, [8, 8, 8], seed=11)
    model.tables[0].weights[:] = np.tile(
        np.array([[1.0], [2.0], [-1.0], [0.5]], dtype=np.float32), (1, 6)
    )
    rng = np.random.default_rng(11)
    idx = rng.integers(0, 6, size=(50, 2))
    plan = afm_plan_embedding(embedding_taps(model, idx), 1)
    afm_apply_embedding(model, plan)
    # field 0 always produced the same vector; bias must restore it exactly
    out = model.tables[0].lookup(np.arange(6))
    proj = model.projections[0]
    restored = out @ proj.weight.T + proj.bias
    np.testing.assert_allclose(
        restored, np.tile([1.0, 2.0, -1.0, 0.5], (6, 1)), atol=1e-6
    )


def test_afm_embedding_planar_field_is_lossless():
    model = init_deepfm([8, 8], 4, [8, 8, 8], seed=12)
    rng = np.random.default_rng(12)
    basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    coords = rng.standard_normal((2, 8))
    model.tables[0].weights[:] = (basis @ coords).astype(np.float32)
    model.tables[1].weights[:] = (basis @ rng.standard_normal((2, 8))).astype(np.float32)
    idx = rng.integers(0, 8, size=(100, 2))
    before = [model.tables[i].lookup(idx[:, i]).copy() for i in range(2)]
    plan = afm_plan_embedding(embedding_taps(model, idx), 2)
    afm_apply_embedding(model, plan)
    for i in range(2):
        reduced = model.tables[i].lookup(idx[:, i])
        proj = model.projections[i]
        restored = reduced @ proj.weight.T + proj.bias
        np.testing.assert_allclose(restored, before[i], atol=1e-5)


def test_afm_embedding_residual_matches_eigenvalue_tail():
    model = init_deepfm([40, 40], 8, [8, 8, 8], seed=13)
    rng = np.random.default_rng(13)
    idx = rng.integers(0, 40, size=(600, 2))
    before = [model.tables[i].lookup(idx[:, i]).astype(np.float64) for i in range(2)]
    taps = embedding_taps(model, idx)
    k = 4
    plan = afm_plan_embedding(taps, k)
    afm_apply_embedding(model, plan)
    for i in range(2):
        reduced = model.tables[i].lookup(idx[:, i]).astype(np.float64)
        proj = model.projections[i]
        restored = reduced @ proj.weight.astype(np.float64).T + proj.bias
        sq_err = np.sum((restored - before[i]) ** 2)
        tail = idx.shape[0] * plan.eigenvalues[i][k:].sum()
        assert np.isclose(sq_err, tail, rtol=1e-4)


def test_afm_embedding_rejects_second_pass():
    model = init_deepfm([6, 6], 4, [8, 8, 8], seed=14)
    rng = np.random.default_rng(14)
    idx = rng.integers(0, 6, size=(30, 2))
    plan = afm_plan_embedding(embedding_taps(model, idx), 2)
    afm_apply_embedding(model, plan)
    with pytest.raises(ShapeError):
        afm_apply_embedding(model, plan)


def test_svd_embedding_full_rank_identity_and_zero_bias():
    model = init_deepfm([9, 9], 4, [8, 8, 8], seed=15)
    rng = np.random.default_rng(15)
    idx = rng.integers(0, 9, size=(80, 2))
    original = forward(model, make_batch(idx)).predictions
    svd_compress_embedding(model, 4)
    after = forward(model, make_batch(idx)).predictions
    np.testing.assert_allclose(after, original, atol=1e-5)
    for proj in model.projections:
        assert not proj.bias.any()


def test_svd_and_afm_embedding_shapes_match():
    base = init_deepfm([9, 9], 4, [8, 8, 8], seed=16)
    rng = np.random.default_rng(16)
    idx = rng.integers(0, 9, size=(60, 2))
    m_afm = base.clone()
    afm_apply_embedding(m_afm, afm_plan_embedding(embedding_taps(m_afm, idx), 2))
    m_svd = base.clone()
    svd_compress_embedding(m_svd, 2)
    shapes_a = [(n, p.shape) for n, p in m_afm.named_parameters()]
    shapes_b = [(n, p.shape) for n, p in m_svd.named_parameters()]
    assert shapes_a == shapes_b


# -- tensor-train embedding -----------------------------------------------------


def test_tt_embedding_unbounded_rank_identity():
    model = init_deepfm([12, 10], 4, [8, 8, 8], seed=17)
    originals = [t.weights.T.astype(np.float64).copy() for t in model.tables]
    tt_compress_embedding(model, max_rank=64, n_cores=2)
    for table, orig in zip(model.tables, originals):
        lookup = table.lookup(np.arange(table.vocab))
        np.testing.assert_allclose(lookup, orig, atol=1e-6)


def test_tt_embedding_rank1_table_exact():
    # outer product whose factors are themselves Kronecker products over
    # the mode split (2,4)x(2,2), so every TT bond has rank one
    model = init_deepfm([8, 8], 4, [8, 8, 8], seed=18)
    a = np.kron([1.0, 0.5], [1.0, -2.0])[:, None]  # dim 4
    b = np.kron([1.0, 3.0], [0.5, 1.0, 2.0, 4.0])[None, :]  # vocab 8
    for t in model.tables:
        t.weights[:] = (a @ b).astype(np.float32)
    tt_compress_embedding(model, max_rank=1, n_cores=2)
    assert model.tables[0].cores.ranks == (1, 1, 1)
    lookup = model.tables[0].lookup(np.arange(8))
    np.testing.assert_allclose(lookup, (a @ b).T, atol=1e-6)


def test_tt_embedding_param_count_formula():
    model = init_deepfm([1024], 16, [8, 8, 8], seed=19)
    detail = tt_compress_embedding(model, max_rank=16)
    cores = model.tables[0].cores
    assert cores.row_factors == (8, 8, 16) and cores.col_factors == (2, 2, 4)
    expected = sum(
        cores.ranks[i] * cores.row_factors[i] * cores.col_factors[i] * cores.ranks[i + 1]
        for i in range(3)
    )
    assert param_count(model)["embeddings"] == expected
    assert detail["emb.0"]["params_after"] == expected
    assert detail["emb.0"]["params_before"] == 16 * 1024


def test_tt_embedding_rejects_when_projections_exist():
    model = init_deepfm([9, 9], 4, [8, 8, 8], seed=20)
    svd_compress_embedding(model, 2)
    with pytest.raises(ShapeError):
        tt_compress_embedding(model, max_rank=4)


# -- projection fusion ----------------------------------------------------------


def test_fuse_identity_projections_is_bitwise():
    model = init_deepfm([5, 5], 4, [8, 8, 8], seed=21)
    from lowrank_ctr.nn import ProjectionLayer

    model.projections = [
        ProjectionLayer(np.eye(4, dtype=np.float32), np.zeros(4, dtype=np.float32))
        for _ in range(2)
    ]
    w_before = model.mlp[0].weight.copy()
    b_before = model.mlp[0].bias.copy()
    fuse_projection_into_first_fc(model)
    assert model.fused
    assert model.mlp[0].weight.tobytes() == w_before.tobytes()
    assert model.mlp[0].bias.tobytes() == b_before.tobytes()


def test_fuse_preserves_mlp_path():
    model = init_deepfm([7, 7], 4, [8, 8, 8], seed=22)
    rng = np.random.default_rng(22)
    idx = rng.integers(0, 7, size=(1000, 2))
    plan = afm_plan_embedding(embedding_taps(model, idx), 2)
    afm_apply_embedding(model, plan)
    before = forward(model, make_batch(idx))
    fuse_projection_into_first_fc(model)
    after = forward(model, make_batch(idx))
    np.testing.assert_allclose(after.deep_term, before.deep_term, atol=1e-5)
    # the FM path still reads the projected embeddings, so whole predictions agree
    np.testing.assert_allclose(after.predictions, before.predictions, atol=1e-5)


def test_fuse_shape_criteo_profile():
    model = init_deepfm([50] * 26, 16, [400, 400, 400], n_continuous=13, seed=23)
    rng = np.random.default_rng(23)
    batch = FeatureBatch(
        rng.integers(0, 50, size=(500, 26)), rng.random((500, 13), dtype=np.float32)
    )
    names = [f"emb.{i}" for i in range(26)]
    captured = forward(model, batch, capture=names).captured
    plan = afm_plan_embedding([tap_from(n, captured[n]) for n in names], 2)
    afm_apply_embedding(model, plan)
    assert model.mlp[0].weight.shape == (400, 429)
    unfused = forward(model, batch).logits
    fuse_projection_into_first_fc(model)
    assert model.mlp[0].weight.shape == (400, 65)  # continuous block kept last
    np.testing.assert_allclose(forward(model, batch).logits, unfused, rtol=0, atol=1e-5)


def test_fuse_requires_projections():
    model = init_deepfm([5], 4, [8, 8, 8], seed=24)
    with pytest.raises(ShapeError):
        fuse_projection_into_first_fc(model)


def test_order_ablation_manifests_match():
    rng = np.random.default_rng(25)
    idx = rng.integers(0, 9, size=(200, 2))

    def mlp_then_emb():
        m = init_deepfm([9, 9], 4, [8, 8, 8], seed=25)
        trace = forward(m, make_batch(idx), capture=["mlp.1", "mlp.2"])
        compress_mlp(m, 2, "afm", {k: tap_from(k, v) for k, v in trace.captured.items()})
        afm_apply_embedding(m, afm_plan_embedding(embedding_taps(m, idx), 2))
        fuse_projection_into_first_fc(m)
        return m

    def emb_then_mlp():
        m = init_deepfm([9, 9], 4, [8, 8, 8], seed=25)
        afm_apply_embedding(m, afm_plan_embedding(embedding_taps(m, idx), 2))
        fuse_projection_into_first_fc(m)
        trace = forward(m, make_batch(idx), capture=["mlp.1", "mlp.2"])
        compress_mlp(m, 2, "afm", {k: tap_from(k, v) for k, v in trace.captured.items()})
        return m

    man_a = manifest_for(mlp_then_emb())
    man_b = manifest_for(emb_then_mlp())
    shapes_a = [(t["name"], tuple(t["shape"])) for t in man_a["tensors"]]
    shapes_b = [(t["name"], tuple(t["shape"])) for t in man_b["tensors"]]
    assert shapes_a == shapes_b
