"""Tests for TSV loading, dictionaries, splitting and synthetic data."""

import hashlib

import numpy as np
import pytest

from lowrank_ctr import data
from lowrank_ctr.data import (
    _BUCKETS,
    VOCAB_LIMIT,
    ClickDataset,
    FieldDictionary,
    SynthSpec,
    _inverse_cdf,
    _popularity_cdf,
    build_dictionaries,
    load_tsv,
    split,
    synth_generate,
    transform_continuous,
    write_tsv,
)
from lowrank_ctr.errors import DataError
from lowrank_ctr.metrics import auc
from lowrank_ctr.nn import init_deepfm
from lowrank_ctr.train import TrainConfig, predict, train


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_transform_continuous():
    raw = np.array([0.0, 1.0, -5.0, np.e - 1.0])
    out = transform_continuous(raw)
    np.testing.assert_allclose(out, [0.0, np.log(2.0), 0.0, 1.0], atol=1e-12)


def test_dictionary_threshold_rule(tmp_path):
    rows = ["1\ta", "0\ta", "1\ta", "0\tb"]
    path = write_lines(tmp_path / "data.tsv", rows)
    dicts = build_dictionaries(path, 0, 1, min_count=2)
    assert dicts[0].index_of("b") == 0  # below threshold -> out of vocabulary
    assert dicts[0].index_of("a") == 1
    assert dicts[0].index_of("never-seen") == 0
    assert dicts[0].vocab == 2


def test_dictionary_first_appearance_order(tmp_path):
    rows = ["0\tz", "1\ty", "0\tz", "1\ty", "0\tx", "1\tx"]
    path = write_lines(tmp_path / "data.tsv", rows)
    dicts = build_dictionaries(path, 0, 1, min_count=2)
    assert dicts[0].mapping == {"z": 1, "y": 2, "x": 3}


def test_missing_continuous_cell_becomes_zero(tmp_path):
    rows = ["1\t2.0\tfoo", "0\t\tfoo", "1\t0.5\tfoo"]
    path = write_lines(tmp_path / "data.tsv", rows)
    ds, _ = load_tsv(path, 1, 1, min_count=1)
    assert ds.continuous[1, 0] == 0.0
    np.testing.assert_allclose(ds.continuous[0, 0], np.log(3.0), rtol=1e-6)


def test_empty_file_yields_empty_dataset(tmp_path):
    path = write_lines(tmp_path / "data.tsv", [""])
    ds, dicts = load_tsv(path, 2, 3)
    assert len(ds) == 0
    assert ds.indices.shape == (0, 3)
    assert all(d.vocab == 1 for d in dicts)
    with pytest.raises(DataError):
        split(ds, 0.1, 0)  # nothing to train on


def test_malformed_rows_report_location(tmp_path):
    path = write_lines(tmp_path / "bad.tsv", ["1\ta\tb", "0\ta"])
    with pytest.raises(DataError, match="bad.tsv:2"):
        load_tsv(path, 0, 2, min_count=1)
    path2 = write_lines(tmp_path / "label.tsv", ["7\ta"])
    with pytest.raises(DataError, match="label must be 0 or 1"):
        load_tsv(path2, 0, 1, min_count=1)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "x"])
def test_continuous_cell_that_is_not_a_finite_number_reports_location(tmp_path, cell):
    path = write_lines(tmp_path / "cont.tsv", ["1\t2.0\ta", f"0\t{cell}\ta"])
    with pytest.raises(DataError, match=f"cont.tsv:2: bad continuous value '{cell}'"):
        load_tsv(path, 1, 1, min_count=1)


def test_roundtrip_through_tsv(tmp_path):
    spec = SynthSpec(n_samples=500, vocab_sizes=[20, 30], seed=5)
    ds = synth_generate(spec)
    path = tmp_path / "out.tsv"
    write_tsv(ds, path)
    loaded, dicts = load_tsv(path, 0, 2, min_count=1)
    assert len(loaded) == len(ds)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    # dictionaries renumber by first appearance, so the roundtrip is a
    # per-field relabeling: same tokens collapse to same indices, both ways
    np.testing.assert_array_equal(loaded.indices == 0, ds.indices == 0)
    for f in range(ds.n_fields):
        pairs = {(int(a), int(b)) for a, b in zip(ds.indices[:, f], loaded.indices[:, f])}
        assert len({a for a, _ in pairs}) == len(pairs)
        assert len({b for _, b in pairs}) == len(pairs)
    # a second pass through canonical tokens is a fixed point
    path2 = tmp_path / "out2.tsv"
    write_tsv(loaded, path2)
    again, _ = load_tsv(path2, 0, 2, min_count=1)
    np.testing.assert_array_equal(again.indices, loaded.indices)


def test_roundtrip_with_continuous_block(tmp_path):
    rng = np.random.default_rng(3)
    ds = ClickDataset(
        labels=rng.integers(0, 2, 50).astype(np.uint8),
        indices=rng.integers(0, 5, size=(50, 2)),
        continuous=transform_continuous(rng.random((50, 2)) * 10).astype(np.float32),
        vocab_sizes=[5, 5],
    )
    path = tmp_path / "cont.tsv"
    write_tsv(ds, path)
    loaded, _ = load_tsv(path, 2, 2, min_count=1)
    np.testing.assert_allclose(loaded.continuous, ds.continuous, atol=1e-6)


def test_split_sizes_and_partition():
    ds = synth_generate(SynthSpec(n_samples=10, vocab_sizes=[4, 4], seed=1))
    tr, te = split(ds, 0.1, 7)
    assert len(tr) == 9 and len(te) == 1
    tr2, te2 = split(ds, 0.1, 7)
    np.testing.assert_array_equal(tr.indices, tr2.indices)
    np.testing.assert_array_equal(te.labels, te2.labels)
    combined = np.sort(
        np.concatenate([tr.indices[:, 0] * 100 + tr.labels, te.indices[:, 0] * 100 + te.labels])
    )
    original = np.sort(ds.indices[:, 0] * 100 + ds.labels)
    np.testing.assert_array_equal(combined, original)


def test_split_validates_fraction():
    ds = synth_generate(SynthSpec(n_samples=10, vocab_sizes=[4], seed=1))
    with pytest.raises(DataError):
        split(ds, 0.0, 0)
    with pytest.raises(DataError):
        split(ds, 0.01, 0)  # empty test side


def test_synth_determinism():
    spec = SynthSpec(n_samples=2000, vocab_sizes=[50, 60], seed=9)
    a = synth_generate(spec)
    b = synth_generate(spec)
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.indices.tobytes() == b.indices.tobytes()


@pytest.mark.parametrize("spec, digest", [
    (dict(n_samples=60_000, vocab_sizes=[10_000] * 10),
     "4f828ad2be89d9a62b4006e4b784010632a8e0cedade7a47f3f9cefce6e16402"),
    (dict(n_samples=40_000, vocab_sizes=[10_000] * 10),
     "bde7aee18030e5ec870bf233eed6541de9d3be8c4ee68d78b8cc369e307d5346"),
    (dict(n_samples=20_000, vocab_sizes=[1_000] * 10),
     "496976939ecb50aa1d957477cd8edae39f69f1cd1b9bd7a3abcbf4f8fe721f7c"),
    # uniform popularity: cdf values sit exactly on bucket edges
    (dict(n_samples=5_000, vocab_sizes=[2, 4, 1024], skew=0.0),
     "47e01ea7e36632871c9591c97a49f6393cf7cb11a0c4cd0604eead565717c046"),
    (dict(n_samples=5_000, vocab_sizes=[3, 200_000], skew=4.0, latent_rank=7, noise=0.0),
     "032e899b534e834b9d9c23f2effd99cc6cad4203082503f048621fbea31df317"),
], ids=["60k", "40k", "20k-vocab-1k", "uniform-on-edges", "skew-4-rank-7"])
def test_synth_bytes_are_pinned(spec, digest):
    """A seed's dataset never changes: the labels and the index values are
    pinned by their sha256 (the benchmark shapes and two edge cases).  The
    indices are stored as int32 and hashed as int64, the width the digests
    were first taken at."""
    ds = synth_generate(SynthSpec(**spec))
    assert ds.indices.dtype == np.int32
    wide = ds.indices.astype(np.int64)
    assert hashlib.sha256(ds.labels.tobytes() + wide.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("skew", [0.0, 1.1, 4.0])
@pytest.mark.parametrize("vocab", [2, 4, 1_000, 10_000, 200_000])
def test_inverse_cdf_matches_searchsorted(vocab, skew):
    cdf = _popularity_cdf(vocab, skew)
    r = np.concatenate([
        [0.0, 1.0 - 2.0**-53],
        cdf[:-1],  # the last entry is 1, outside the draws' [0, 1)
        np.nextafter(cdf, 0.0),
        np.arange(_BUCKETS) / _BUCKETS,  # every bucket's lower edge
        np.random.default_rng(vocab).random(100_000),
    ])
    assert 0.0 <= r.min() and r.max() < 1.0
    expected = np.searchsorted(cdf, r, side="right")
    got = _inverse_cdf(cdf)(r)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_subset_gathers_rows():
    ds = synth_generate(SynthSpec(n_samples=50, vocab_sizes=[7, 9, 11], seed=3))
    sel = np.array([4, 0, 49, 4, 17])
    sub = ds.subset(sel)
    assert sub.indices.tobytes() == ds.indices[sel].tobytes()
    assert sub.labels.tobytes() == ds.labels[sel].tobytes()
    assert sub.continuous.shape == (5, 0) and sub.vocab_sizes == [7, 9, 11]


def test_synth_noise_boundary():
    with pytest.raises(DataError):
        synth_generate(SynthSpec(n_samples=10, vocab_sizes=[4], noise=0.5))
    with pytest.raises(DataError):
        SynthSpec(n_samples=10, vocab_sizes=[1])


def test_synth_popularity_is_skewed():
    ds = synth_generate(SynthSpec(n_samples=20000, vocab_sizes=[100], skew=1.1, seed=2))
    counts = np.bincount(ds.indices[:, 0], minlength=100)
    assert counts[0] > counts[10] > counts[60]


def test_synth_noiseless_rank1_is_learnable():
    spec = SynthSpec(n_samples=30000, vocab_sizes=[50, 50], latent_rank=1, noise=0.0, seed=4)
    ds = synth_generate(spec)
    tr, te = split(ds, 0.2, 0)
    model = init_deepfm(tr.vocab_sizes, 8, [32, 32], seed=0)
    cfg = TrainConfig(learning_rate=1e-2, batch_size=500, epochs=8,
                      l2_ratio=0.0, weight_decay=0.0, dropout=0.0, seed=0)
    train(model, tr, cfg)
    # labels stay Bernoulli draws even at zero flip noise, so the ceiling
    # sits well below 1; a learned model should still clear 0.93 easily
    assert auc(te.labels, predict(model, te)) >= 0.93


def test_loaders_split_and_batch_store_int32_indices(tmp_path):
    ds = synth_generate(SynthSpec(n_samples=200, vocab_sizes=[5, 300], seed=1))
    path = tmp_path / "d.tsv"
    write_tsv(ds, path)
    loaded, _ = load_tsv(path, 0, 2, min_count=1)
    tr, te = split(ds, 0.25, 0)
    for part in (ds, loaded, tr, te, ds.subset(np.array([3, 1]))):
        assert part.indices.dtype == np.int32
    assert ds.batch(slice(0, 7)).indices.dtype == np.int32
    assert ds.batch(np.array([4, 2])).indices.dtype == np.int32


def test_click_dataset_converts_integer_indices_to_int32():
    idx = np.array([[0, 3], [2, 1]], dtype=np.int64)
    ds = ClickDataset(np.array([0, 1], np.uint8), idx, np.zeros((2, 0), np.float32), [3, 4])
    assert ds.indices.dtype == np.int32 and ds.indices.tolist() == idx.tolist()
    same = ClickDataset(ds.labels, ds.indices, ds.continuous, [3, 4])
    assert same.indices is ds.indices  # already int32: kept, not copied


@pytest.mark.parametrize("indices, message", [
    (np.array([[0.0, 1.0]]), "indices must be integers, got float64"),
    (np.array([[True, False]]), "indices must be integers, got bool"),
    (np.array([[0, 1 << 31]]), r"index range \[0, 2147483648\] does not fit int32"),
    (np.array([[-(1 << 31) - 1, 0]]), "does not fit int32"),
])
def test_click_dataset_rejects_indices_int32_cannot_hold(indices, message):
    with pytest.raises(DataError, match=message):
        ClickDataset(np.array([1], np.uint8), indices, np.zeros((1, 0), np.float32), [2, 2])


def test_vocabulary_too_large_for_int32_is_rejected_where_a_dataset_is_made():
    assert VOCAB_LIMIT == 1 << 31 == int(np.iinfo(np.int32).max) + 1
    with pytest.raises(DataError, match="data.synth.vocab_sizes: field 1 has 2147483648 items"):
        SynthSpec(n_samples=10, vocab_sizes=[4, 1 << 31])
    SynthSpec(n_samples=10, vocab_sizes=[4, (1 << 31) - 1])  # the largest that fits
    with pytest.raises(DataError, match="vocab_sizes: field 0 has 2147483648 items"):
        ClickDataset(np.array([1], np.uint8), np.zeros((1, 1), np.int32),
                     np.zeros((1, 0), np.float32), [1 << 31])


class HugeDictionary:
    """A field dictionary claiming 2^31 items, which maps no token."""

    vocab = 1 << 31

    def index_of(self, token):
        raise AssertionError("a row was mapped")


def test_load_tsv_rejects_a_vocabulary_too_large_for_int32_before_mapping_rows(
    tmp_path, monkeypatch
):
    path = write_lines(tmp_path / "d.tsv", ["1\ta\tb", "0\tc\td"])
    monkeypatch.setattr(
        data, "build_dictionaries", lambda *a, **k: [FieldDictionary({"a": 1}), HugeDictionary()]
    )
    with pytest.raises(DataError, match=f"{path}: field 1 has 2147483648 items"):
        load_tsv(path, 0, 2, min_count=1)
