"""Tests for the binary checkpoint format."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from lowrank_ctr.checkpoint import MAGIC, load_checkpoint, manifest_for, save_checkpoint
from lowrank_ctr.compress import (
    afm_plan_embedding,
    afm_apply_embedding,
    tt_compress_embedding,
)
from lowrank_ctr.errors import DataError, ShapeError
from lowrank_ctr.nn import FeatureBatch, forward, init_deepfm
from lowrank_ctr.stats import ActivationTap


def roundtrip(model, tmp_path):
    path = tmp_path / "model.lrck"
    save_checkpoint(model, path)
    return load_checkpoint(path), path


def assert_same_params(a, b):
    pa = dict(a.named_parameters())
    pb = dict(b.named_parameters())
    assert sorted(pa) == sorted(pb)
    for name in pa:
        assert pa[name].dtype == pb[name].dtype, name
        assert pa[name].tobytes() == pb[name].tobytes(), name


def test_roundtrip_bit_exact(tmp_path):
    model = init_deepfm([11, 7], 4, [8, 8, 8], n_continuous=2, seed=1)
    loaded, _ = roundtrip(model, tmp_path)
    assert_same_params(model, loaded)
    assert loaded.n_continuous == 2
    assert loaded.embed_dim == 4
    assert loaded.fm_enabled

    # no read-only view of the file stays in the model: every table and
    # first-order array is a writable view of the model's packed storage
    for m in (loaded, loaded.astype(np.float64)):
        tables = [t.weights for t in m.tables]
        first_order = list(m.first_order)
        packed = m.packed()
        for arr in tables:
            assert arr.flags.writeable and np.shares_memory(arr, packed.tables)
        for arr in first_order:
            assert arr.flags.writeable and np.shares_memory(arr, packed.first_order)

    idx = np.array([[3, 5], [10, 0]])
    batch = FeatureBatch(idx, np.ones((2, 2), dtype=np.float32))
    a = forward(model, batch).predictions
    b = forward(loaded, batch).predictions
    assert a.tobytes() == b.tobytes()


def test_roundtrip_preserves_layer_settings(tmp_path):
    model = init_deepfm([5], 2, [4], seed=2, dropout_rate=0.3)
    loaded, _ = roundtrip(model, tmp_path)
    for before, after in zip(model.mlp, loaded.mlp):
        assert before.activation == after.activation
        assert before.dropout_rate == after.dropout_rate
        assert before.dropout_site == after.dropout_site


def test_roundtrip_with_projections_and_fuse_flag(tmp_path):
    model = init_deepfm([9, 9], 4, [6], seed=3)
    taps = []
    rng = np.random.default_rng(0)
    for i in range(2):
        tap = ActivationTap.for_dim(f"emb.{i}", 4)
        tap.accumulator.update(rng.standard_normal((50, 4)))
        taps.append(tap)
    afm_apply_embedding(model, afm_plan_embedding(taps, 2))
    loaded, _ = roundtrip(model, tmp_path)
    assert loaded.projections is not None and len(loaded.projections) == 2
    assert_same_params(model, loaded)


def test_roundtrip_tt_model(tmp_path):
    model = init_deepfm([12, 8], 4, [6], seed=4)
    tt_compress_embedding(model, max_rank=2, n_cores=2)
    loaded, _ = roundtrip(model, tmp_path)
    assert_same_params(model, loaded)
    t0 = loaded.tables[0]
    assert t0.cores.ranks == model.tables[0].cores.ranks
    assert t0.vocab == 12 and t0.dim == 4


def test_save_is_deterministic(tmp_path):
    model = init_deepfm([6, 6], 3, [5], seed=5)
    p1 = tmp_path / "a.lrck"
    p2 = tmp_path / "b.lrck"
    save_checkpoint(model, p1)
    save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_manifest_layout(tmp_path):
    model = init_deepfm([4], 2, [3], seed=6)
    manifest = manifest_for(model)
    assert manifest["format_version"] == 1
    names = [t["name"] for t in manifest["tensors"]]
    assert names == [n for n, _ in model.named_parameters()]
    offset = 0
    for t in manifest["tensors"]:
        assert t["dtype"] == "f32"
        assert t["offset"] == offset
        offset += t["nbytes"]

    _, path = roundtrip(model, tmp_path)
    blob = path.read_bytes()
    assert blob.startswith(MAGIC)
    (length,) = struct.unpack("<Q", blob[len(MAGIC) : len(MAGIC) + 8])
    parsed = json.loads(blob[len(MAGIC) + 8 : len(MAGIC) + 8 + length])
    assert parsed == manifest


def test_rejects_non_f32_model(tmp_path):
    model = init_deepfm([4], 2, [3], seed=0, dtype=np.float64)
    with pytest.raises(ShapeError):
        save_checkpoint(model, tmp_path / "bad.lrck")


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.lrck"
    path.write_bytes(b"NOTCKPT " + b"\x00" * 64)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_rejects_truncated_payload(tmp_path):
    model = init_deepfm([4], 2, [3], seed=7)
    path = tmp_path / "model.lrck"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_missing_file_raises_filenotfound(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "absent.lrck")


def test_rejects_truncated_header_and_manifest(tmp_path):
    model = init_deepfm([4], 2, [3], seed=7)
    path = tmp_path / "model.lrck"
    save_checkpoint(model, path)
    blob = path.read_bytes()

    # file ends inside the 8-byte length field
    path.write_bytes(blob[: len(MAGIC) + 3])
    with pytest.raises(DataError, match="truncated checkpoint header"):
        load_checkpoint(path)

    # file ends inside the JSON manifest
    path.write_bytes(blob[: len(MAGIC) + 8 + 20])
    with pytest.raises(DataError, match="truncated manifest"):
        load_checkpoint(path)


def test_rejects_corrupt_manifest_bytes(tmp_path):
    model = init_deepfm([4], 2, [3], seed=7)
    path = tmp_path / "model.lrck"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[len(MAGIC) : len(MAGIC) + 8])

    # manifest region present but not valid JSON
    garbled = blob[: len(MAGIC) + 8] + b"\xff" * length + blob[len(MAGIC) + 8 + length :]
    path.write_bytes(garbled)
    with pytest.raises(DataError, match="corrupt manifest"):
        load_checkpoint(path)

    # valid JSON of the right length, wrong shape
    filler = b"[" + b" " * (length - 2) + b"]"
    path.write_bytes(blob[: len(MAGIC) + 8] + filler + blob[len(MAGIC) + 8 + length :])
    with pytest.raises(DataError, match="not an object"):
        load_checkpoint(path)


# -- fail fast on tensors the topology does not imply -------------------------


def craft(tmp_path, model, edit):
    """Write ``model`` as a checkpoint after ``edit(topology, tensors)`` has
    changed its topology or its named tensors; offsets follow the edit."""
    manifest = manifest_for(model)
    tensors = dict(model.named_parameters())
    edit(manifest["topology"], tensors)
    entries, chunks, offset = [], [], 0
    for name, arr in tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(np.shape(arr)), "dtype": "f32",
                        "offset": offset, "nbytes": len(data)})
        chunks.append(data)
        offset += len(data)
    manifest["tensors"] = entries
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = tmp_path / "crafted.lrck"
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + b"".join(chunks))
    return path


def plain_model():
    return init_deepfm([11, 7], 4, [8, 8, 8], n_continuous=2, seed=1)


def projected_model():
    model = init_deepfm([9, 9], 4, [6], seed=3)
    rng = np.random.default_rng(0)
    taps = []
    for i in range(2):
        tap = ActivationTap.for_dim(f"emb.{i}", 4)
        tap.accumulator.update(rng.standard_normal((50, 4)))
        taps.append(tap)
    afm_apply_embedding(model, afm_plan_embedding(taps, 2))
    return model


def tt_model():
    model = init_deepfm([12, 8], 4, [6], seed=4)
    tt_compress_embedding(model, max_rank=2, n_cores=2)
    return model


def put(name, arr):
    def edit(topo, tensors):
        tensors[name] = arr
    return edit


def unequal_widths(topo, tensors):
    topo["fields"][1]["dim"] = 3
    tensors["emb.1.weight"] = np.zeros((3, 9), np.float32)
    tensors["proj.1.weight"] = np.zeros((4, 3), np.float32)


def non_finite(topo, tensors):
    bias = tensors["mlp.0.bias"].copy()
    bias[1] = np.inf
    tensors["mlp.0.bias"] = bias


def mixed_fields(topo, tensors):
    tt = tt_model()
    topo["fields"][1] = manifest_for(tt)["topology"]["fields"][1]
    del tensors["emb.1.weight"]
    for name, core in tt.named_parameters():
        if name.startswith("emb.1.core."):
            tensors[name] = core


def fused_without_projections(topo, tensors):
    topo["fused"] = True


def extra_tensor(topo, tensors):
    tensors["emb.9.weight"] = np.zeros((4, 3), np.float32)


def short_table(topo, tensors):
    tensors["emb.0.weight"] = np.zeros((4, 10), np.float32)


def two_outputs(topo, tensors):
    tensors["mlp.3.weight"] = np.zeros((2, 8), np.float32)
    tensors["mlp.3.bias"] = np.zeros(2, np.float32)


def sigmoid_layer(topo, tensors):
    topo["mlp"][0]["activation"] = "sigmoid"


def bad_core(topo, tensors):
    core = tensors["emb.0.core.0"]
    tensors["emb.0.core.0"] = np.zeros(core.shape[:-1] + (core.shape[-1] + 1,), np.float32)


@pytest.mark.parametrize(
    "make, edit, message",
    [
        (plain_model, short_table, "emb.0.weight has shape"),
        (projected_model, unequal_widths, "share one width"),
        (projected_model, put("proj.0.weight", np.zeros((4, 3), np.float32)), "proj.0.weight has shape"),
        (projected_model, put("proj.1.bias", np.zeros(3, np.float32)), "proj.1.bias has shape"),
        (plain_model, put("fo.1.weight", np.zeros(8, np.float32)), "fo.1.weight has shape"),
        (plain_model, put("mlp.1.weight", np.zeros((8, 7), np.float32)), "mlp.1.weight has shape"),
        (plain_model, put("mlp.0.weight", np.zeros((8, 8), np.float32)), "mlp.0.weight has shape"),
        (plain_model, two_outputs, "the last exactly 1"),
        (tt_model, bad_core, "emb.0.core.0 has shape"),
        (plain_model, non_finite, "non-finite"),
        (plain_model, mixed_fields, "mix dense tables and tensor-train"),
        (plain_model, fused_without_projections, "without projections"),
        (plain_model, extra_tensor, "does not use"),
        (plain_model, sigmoid_layer, "unknown activation 'sigmoid'"),
    ],
)
def test_load_rejects_inconsistent_checkpoints(tmp_path, make, edit, message):
    model = make()
    assert_same_params(model, load_checkpoint(craft(tmp_path, model, lambda t, x: None)))
    with pytest.raises(DataError, match=message):
        load_checkpoint(craft(tmp_path, model, edit))


FIXTURES = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["plain.lrck", "afm-fused.lrck", "tt.lrck"])
def test_save_of_load_reproduces_fixture_bytes(tmp_path, name):
    """The fixtures were written with per-field (dim, vocab) table storage,
    before tables were packed; the bytes of the format did not change."""
    model = load_checkpoint(FIXTURES / name)
    save_checkpoint(model, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()
    idx = np.zeros((2, model.n_fields), dtype=np.int64)
    trace = forward(model, FeatureBatch(idx, np.zeros((2, model.n_continuous), np.float32)))
    assert np.isfinite(trace.logits).all()
