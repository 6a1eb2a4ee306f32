"""Tests for the binary checkpoint format."""

import builtins
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lowrank_ctr import checkpoint as checkpoint_module
from lowrank_ctr.checkpoint import MAGIC, load_checkpoint, manifest_for, save_checkpoint
from lowrank_ctr.compress import (
    afm_plan_embedding,
    afm_apply_embedding,
    tt_compress_embedding,
)
from lowrank_ctr.errors import DataError, ShapeError
from lowrank_ctr.nn import DeepFMModel, FeatureBatch, forward, init_deepfm
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
    assert loaded.emb_rows.flags.writeable and loaded.fo_rows.flags.writeable
    for table in loaded.tables:
        assert table.weights.flags.writeable
        assert np.shares_memory(table.weights, loaded.emb_rows)
    for arr in loaded.first_order:
        assert arr.flags.writeable and np.shares_memory(arr, loaded.fo_rows)

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
    # read straight from the file, then copied once into packed storage
    for proj in loaded.projections:
        assert proj.weight.flags.writeable and proj.weight.base is loaded.proj_weight
        assert proj.bias.flags.writeable and proj.bias.base is loaded.proj_bias


def test_embed_dim_is_read_from_the_projections_and_survives_a_roundtrip(tmp_path):
    base = projected_model()  # tables of width 2, projected back to 4
    model = DeepFMModel(base.tables, base.first_order, base.mlp, base.n_continuous,
                        base.projections)
    assert model.embed_dim == 4 and {t.dim for t in model.tables} == {2}
    loaded, _ = roundtrip(model, tmp_path)
    assert loaded.embed_dim == 4
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


class ShortReader:
    """A checkpoint file whose reads into a buffer come back 4 bytes short."""

    def __init__(self, fh):
        self._fh = fh

    def readinto(self, buf):
        return self._fh.readinto(memoryview(buf).cast("B")[:-4])

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_a_short_read_raises_naming_the_tensor(tmp_path, monkeypatch):
    model = init_deepfm([4], 2, [3], seed=7)
    path = tmp_path / "model.lrck"
    save_checkpoint(model, path)
    monkeypatch.setattr(checkpoint_module, "open",
                        lambda p, mode: ShortReader(builtins.open(p, mode)), raising=False)
    with pytest.raises(DataError, match="tensor emb.0.weight: read 28 of its 32 bytes"):
        load_checkpoint(path)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_a_load_holds_the_model_and_not_the_payload_beside_it(tmp_path):
    """In a fresh interpreter, loading a 34 MB checkpoint raises the peak
    resident set by less than 1.5 times its payload: each tensor is read
    through one reused buffer, and no mapping of the file stays resident
    beside the model.  The peak is ``VmHWM``, this interpreter's own;
    ``ru_maxrss`` would start at the forking test process's peak."""
    model = init_deepfm([100_000] * 5, 16, [8], seed=0)
    path = tmp_path / "big.lrck"
    save_checkpoint(model, path)
    payload = sum(arr.nbytes for _, arr in model.named_parameters())
    assert payload >= 30e6
    code = (
        "import re, sys\n"
        "from lowrank_ctr.checkpoint import load_checkpoint\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return int(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read()).group(1))\n"
        "before = peak_kib()\n"
        "load_checkpoint(sys.argv[1])\n"
        "print(peak_kib() - before)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, str(path)], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rise = int(done.stdout) * 1024
    assert rise < 1.5 * payload, f"{rise / payload:.2f}x the payload"


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


@pytest.mark.parametrize("length", [2**40, 2**64 - 1])
def test_rejects_a_manifest_length_past_the_end_of_the_file(tmp_path, length):
    # read as it is, the length would ask for the whole buffer up front
    path = tmp_path / "model.lrck"
    path.write_bytes(MAGIC + struct.pack("<Q", length) + b"{}")
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
    changed its topology or its named tensors; offsets follow the edit.  An
    edit may return a function of (tensor table, payload chunks) that then
    changes the table or the payload."""
    manifest = manifest_for(model)
    tensors = dict(model.named_parameters())
    relayout = edit(manifest["topology"], tensors)
    entries, chunks, offset = [], [], 0
    for name, arr in tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(np.shape(arr)), "dtype": "f32",
                        "offset": offset, "nbytes": len(data)})
        chunks.append(data)
        offset += len(data)
    if relayout is not None:
        relayout(entries, chunks)
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


def first_order_without_fm(topo, tensors):
    topo["fm_enabled"] = False


def extra_tensor(topo, tensors):
    tensors["emb.9.weight"] = np.zeros((4, 3), np.float32)


def short_table(topo, tensors):
    tensors["emb.0.weight"] = np.zeros((4, 10), np.float32)


def two_outputs(topo, tensors):
    tensors["mlp.3.weight"] = np.zeros((2, 8), np.float32)
    tensors["mlp.3.bias"] = np.zeros(2, np.float32)


def sigmoid_layer(topo, tensors):
    topo["mlp"][0]["activation"] = "sigmoid"


def dropout_rate(rate):
    def edit(topo, tensors):
        topo["mlp"][0]["dropout_rate"] = rate
    return edit


def duplicate_entry(topo, tensors):
    def relayout(entries, chunks):  # the last tensor twice, tiling the payload
        end = entries[-1]["offset"] + entries[-1]["nbytes"]
        entries.append({**entries[-1], "offset": end})
        chunks.append(chunks[-1])
    return relayout


def overlapping_entry(topo, tensors):
    def relayout(entries, chunks):  # emb.1.weight read from emb.0.weight's bytes
        entry = next(e for e in entries if e["name"] == "emb.1.weight")
        entry["offset"] = 0
    return relayout


def trailing_bytes(topo, tensors):
    return lambda entries, chunks: chunks.append(bytes(64))


def oversized_field(topo, tensors):  # a table larger than the whole file
    topo["fields"][0]["vocab"] = 100_000


def missing_tensor(topo, tensors):
    del tensors["fo.1.weight"]


def reordered_entries(topo, tensors):
    def relayout(entries, chunks):  # the first two tensors swapped, still tiling
        entries[:2], chunks[:2] = entries[1::-1], chunks[1::-1]
        entries[0]["offset"], entries[1]["offset"] = 0, entries[0]["nbytes"]
    return relayout


def bad_core(topo, tensors):
    core = tensors["emb.0.core.0"]
    tensors["emb.0.core.0"] = np.zeros(core.shape[:-1] + (core.shape[-1] + 1,), np.float32)


def tt3_model():
    model = init_deepfm([12, 8], 4, [6], seed=4)
    tt_compress_embedding(model, max_rank=2, n_cores=3)
    return model


def set_key(key, value, field=None):
    """An edit that sets ``key`` of the topology, or of its field ``field``."""
    def edit(topo, tensors):
        (topo if field is None else topo["fields"][field])[key] = value
    return edit


def entry(name, **change):
    """An edit that changes tensor ``name``'s table entry, not its bytes."""
    def edit(topo, tensors):
        def relayout(entries, chunks):
            next(e for e in entries if e["name"] == name).update(change)
        return relayout
    return edit


def fm_without_first_order(topo, tensors):
    topo["has_first_order"] = False
    for name in [n for n in tensors if n.startswith("fo.")]:
        del tensors[name]


def layer_without_weight(topo, tensors):
    topo["mlp"].append(dict(topo["mlp"][-1]))


def table_stops_early(topo, tensors):
    return lambda entries, chunks: entries.pop()  # the bytes stay in the payload


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
        (plain_model, mixed_fields, "all dense or all tensor-train"),
        (plain_model, fused_without_projections, "without projections"),
        (plain_model, first_order_without_fm, "first-order weights in a model without the FM"),
        (plain_model, extra_tensor, "does not use"),
        (plain_model, sigmoid_layer, "unknown activation 'sigmoid'"),
        (plain_model, dropout_rate(-0.5), r"dropout rate -0.5 outside \[0, 1\)"),
        (plain_model, dropout_rate(1.5), r"dropout rate 1.5 outside \[0, 1\)"),
        (plain_model, duplicate_entry, "duplicate tensor mlp.3.bias"),
        (plain_model, overlapping_entry, "emb.1.weight: 112 bytes at offset 0, where the previous"),
        (plain_model, trailing_bytes, r"end at byte \d+ of a \d+-byte payload"),
        (plain_model, missing_tensor, "missing tensor fo.1.weight"),
        (plain_model, oversized_field, r"needs more than the \d+-byte payload"),
        (plain_model, reordered_entries, "emb.1.weight is listed where the writer puts emb.0.weight"),
        (plain_model, fm_without_first_order, "the FM term without first-order weights"),
        # a table or a core far larger than memory: nothing is allocated for it
        (plain_model, entry("mlp.0.weight", shape=[10**12, 10]),
         r"mlp.0.weight: 320 bytes at offset \d+, .* its shape needs 40000000000000"),
        (tt3_model, set_key("ranks", [1, 10**6, 10**6, 1], field=0),
         r"emb.0.core.0 has shape \(1, 2, 2, 2\), the topology implies \(1, 2, 2, 1000000\)"),
        (plain_model, set_key("kind", "widedeep"), "unknown model kind widedeep"),
        (plain_model, set_key("kind", "hashed", field=1), r"unknown field kind \['hashed'\]"),
        (plain_model, set_key("vocab", 0, field=1), "field 1: vocab 0 and dim 4 must be positive"),
        (plain_model, set_key("dim", 0, field=0), "field 0: vocab 11 and dim 0 must be positive"),
        (plain_model, set_key("dim", 3, field=0), "field 0: width 3 without projections to 4"),
        (tt_model, set_key("ranks", [2, 2, 1], field=1), "field 1: tensor-train ranks"),
        (tt_model, set_key("row_factors", [2, 2], field=0), r"do not describe a \(12, 4\) table"),
        (plain_model, layer_without_weight, "missing tensor mlp.4.weight"),
        (plain_model, set_key("mlp", []), "model has no MLP layers"),
        (plain_model, entry("fo.0.weight", dtype="f16"), "unsupported tensor dtype f16"),
        (plain_model, table_stops_early, "missing tensor mlp.3.bias"),
        (plain_model, set_key("vocab", "x", field=0), "corrupt manifest"),
    ],
)
def test_load_rejects_inconsistent_checkpoints(tmp_path, make, edit, message):
    model = make()
    assert_same_params(model, load_checkpoint(craft(tmp_path, model, lambda t, x: None)))
    with pytest.raises(DataError, match=message):
        load_checkpoint(craft(tmp_path, model, edit))


def test_load_rejects_an_unsupported_format_version(tmp_path):
    path = tmp_path / "model.lrck"
    save_checkpoint(plain_model(), path)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b'"format_version":1', b'"format_version":7', 1))
    with pytest.raises(DataError, match="unsupported format version 7"):
        load_checkpoint(path)


FIXTURES = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["plain.lrck", "afm-fused.lrck", "tt.lrck", "svd-unfused.lrck"])
def test_save_of_load_reproduces_fixture_bytes(tmp_path, name):
    """The first three fixtures were written with per-field (dim, vocab)
    table storage, before tables were packed, and ``svd-unfused.lrck`` by
    the loader that read each tensor by a name it built, before the tensor
    table was checked against ``manifest_for``; the bytes of the format did
    not change.  ``svd-unfused.lrck`` covers a model without the FM term,
    with continuous inputs, a linear SVD split and unfused projections::

        model = init_deepfm([9, 7, 5], 4, [8, 8, 8], n_continuous=2, seed=11,
                            fm_enabled=False)
        compress_mlp(model, 4, "svd", insert_relu=False)
        svd_compress_embedding(model, 2)
        save_checkpoint(model, "svd-unfused.lrck")
    """
    model = load_checkpoint(FIXTURES / name)
    save_checkpoint(model, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()
    idx = np.zeros((2, model.n_fields), dtype=np.int64)
    trace = forward(model, FeatureBatch(idx, np.zeros((2, model.n_continuous), np.float32)))
    assert np.isfinite(trace.logits).all()
