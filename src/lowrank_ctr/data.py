"""Dataset loading, dictionaries, splits and the synthetic generator.

The on-disk format is label-first TSV: one label column (0/1), then the
continuous columns, then the categorical token columns.  Continuous values
get log(1 + max(x, 0)); empty cells mean 0, and a cell that is not a finite
number (``nan`` and ``inf`` included) is a DataError.  Categorical tokens map
through per-field dictionaries where index 0 is reserved for unseen or
rare tokens and everything at or above the frequency threshold gets a
stable nonzero index in first-appearance order.

Categorical indices are stored as int32 (``INDEX_DTYPE``) from the loaders
through ``ClickDataset.subset`` and ``batch`` to the model's gather: half
the bytes of int64, with every value the same.  ``check_vocab_sizes``
holds the bound that makes that lossless (every field's vocabulary below
2^31); both loaders call it before drawing or mapping any row, and a
``ClickDataset`` checks it again when it is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError, convert_fields
from .nn import FeatureBatch


@dataclass
class FieldDictionary:
    """Token-to-index map for one categorical field (0 = out of vocabulary)."""

    mapping: dict = field(default_factory=dict)

    @property
    def vocab(self) -> int:
        return len(self.mapping) + 1

    def index_of(self, token: str) -> int:
        return self.mapping.get(token, 0)


# every stored categorical index; a field's vocabulary must stay below this
INDEX_DTYPE = np.dtype(np.int32)
VOCAB_LIMIT = 1 << 31


def check_vocab_sizes(vocab_sizes, where: str = "vocab_sizes") -> None:
    """DataError naming ``where`` unless every vocabulary is below
    ``VOCAB_LIMIT``, so that each field's indices fit ``INDEX_DTYPE``."""
    for i, vocab in enumerate(vocab_sizes):
        if vocab >= VOCAB_LIMIT:
            raise DataError(
                f"{where}: field {i} has {vocab} items; indices are "
                f"{INDEX_DTYPE}, so a field holds fewer than {VOCAB_LIMIT}"
            )


@dataclass
class ClickDataset:
    """Labels, categorical indices and continuous values of ``n`` rows.

    ``indices`` is stored as ``INDEX_DTYPE`` (int32): an integer block of
    another dtype is converted when the dataset is made, and one whose
    values int32 cannot hold, or a vocabulary of ``VOCAB_LIMIT`` or more,
    raises DataError.  Values are not checked against ``vocab_sizes``;
    the model does that for every batch it scores."""

    labels: np.ndarray  # (n,) uint8
    indices: np.ndarray  # (n, fields) int32
    continuous: np.ndarray  # (n, n_continuous) float32
    vocab_sizes: list

    def __post_init__(self):
        check_vocab_sizes(self.vocab_sizes)
        idx = np.asarray(self.indices)
        if idx.dtype != INDEX_DTYPE:
            if idx.dtype.kind not in "iu":
                raise DataError(f"indices must be integers, got {idx.dtype}")
            info = np.iinfo(INDEX_DTYPE)
            if idx.size and (idx.min() < info.min or idx.max() > info.max):
                raise DataError(
                    f"index range [{idx.min()}, {idx.max()}] does not fit {INDEX_DTYPE}"
                )
            idx = idx.astype(INDEX_DTYPE)
        self.indices = idx

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def n_fields(self) -> int:
        return self.indices.shape[1]

    @property
    def n_continuous(self) -> int:
        return self.continuous.shape[1]

    def batch(self, sel) -> FeatureBatch:
        return FeatureBatch(self.indices[sel], self.continuous[sel])

    def subset(self, sel) -> "ClickDataset":
        """The rows at integer positions ``sel``.  ``take`` gathers the
        2-D index block about 3x faster than indexing; the 1-D labels and
        the often zero-width continuous block are faster indexed."""
        return ClickDataset(
            self.labels[sel],
            self.indices.take(sel, axis=0),
            self.continuous[sel],
            list(self.vocab_sizes),
        )


def transform_continuous(raw: np.ndarray) -> np.ndarray:
    """log(1 + max(x, 0)); the loader already turned blanks into 0."""
    return np.log1p(np.maximum(raw, 0.0))


def _parse_rows(path, n_continuous: int, n_categorical: int):
    expected = 1 + n_continuous + n_categorical
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != expected:
                raise DataError(
                    f"{path}:{lineno}: expected {expected} columns, "
                    f"got {len(parts)}"
                )
            if parts[0] not in ("0", "1"):
                raise DataError(
                    f"{path}:{lineno}: label must be 0 or 1, got {parts[0]!r}"
                )
            yield lineno, parts


def build_dictionaries(
    path, n_continuous: int, n_categorical: int, min_count: int = 10
) -> list:
    """First pass over a TSV: frequency-thresholded per-field dictionaries.

    Tokens appearing at least ``min_count`` times get indices in order of
    first appearance (a dict keeps its keys in insertion order); everything
    else folds into index 0.
    """
    counts = [dict() for _ in range(n_categorical)]
    for _, parts in _parse_rows(path, n_continuous, n_categorical):
        cats = parts[1 + n_continuous :]
        for i, token in enumerate(cats):
            if not token:
                continue
            counts[i][token] = counts[i].get(token, 0) + 1
    dictionaries = []
    for field_counts in counts:
        kept = [t for t, c in field_counts.items() if c >= min_count]
        dictionaries.append(FieldDictionary({t: j + 1 for j, t in enumerate(kept)}))
    return dictionaries


def load_tsv(path, n_continuous: int, n_categorical: int, min_count: int = 10) -> tuple:
    """Load a TSV into a ClickDataset in two passes: the first builds the
    per-field dictionaries (see :func:`build_dictionaries`), the second
    maps every token through them.  Returns (dataset, dictionaries).
    """
    dictionaries = build_dictionaries(path, n_continuous, n_categorical, min_count)
    check_vocab_sizes([d.vocab for d in dictionaries], str(path))
    labels = []
    cont_rows = []
    cat_rows = []
    for lineno, parts in _parse_rows(path, n_continuous, n_categorical):
        labels.append(int(parts[0]))
        cont = np.zeros(n_continuous, dtype=np.float64)
        for i, cell in enumerate(parts[1 : 1 + n_continuous]):
            if cell:
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):  # float() also reads nan and inf
                    raise DataError(f"{path}:{lineno}: bad continuous value {cell!r}")
                cont[i] = value
        cont_rows.append(cont)
        cats = parts[1 + n_continuous :]
        cat_rows.append(
            [dictionaries[i].index_of(tok) for i, tok in enumerate(cats)]
        )
    n = len(labels)
    raw_cont = np.asarray(cont_rows, dtype=np.float64).reshape(n, n_continuous)
    dataset = ClickDataset(
        labels=np.asarray(labels, dtype=np.uint8),
        indices=np.asarray(cat_rows, dtype=INDEX_DTYPE).reshape(n, n_categorical),
        continuous=transform_continuous(raw_cont).astype(np.float32),
        vocab_sizes=[d.vocab for d in dictionaries],
    )
    return dataset, dictionaries


def write_tsv(dataset: ClickDataset, path) -> None:
    """Inverse of ``load_tsv`` up to the continuous transform.

    Categorical index ``i`` renders as the token ``str(i)`` and index 0
    (out of vocabulary) as the empty cell, so a reload relabels each field
    in order of first appearance; continuous values are inverted through
    expm1 so a reload reproduces the same transformed values.
    """
    raw_cont = np.expm1(dataset.continuous.astype(np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        for r in range(len(dataset)):
            cells = [str(int(dataset.labels[r]))]
            for c in range(dataset.n_continuous):
                v = raw_cont[r, c]
                cells.append("" if v == 0.0 else repr(float(v)))
            for i in range(dataset.n_fields):
                idx = int(dataset.indices[r, i])
                cells.append(str(idx) if idx else "")
            fh.write("\t".join(cells) + "\n")


def check_test_fraction(test_fraction: float) -> float:
    """``test_fraction`` if ``split`` accepts it: strictly between 0 and 1."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test fraction {test_fraction} outside (0, 1)")
    return test_fraction


def split(dataset: ClickDataset, test_fraction: float, seed: int) -> tuple:
    """Deterministic shuffled train/test split."""
    check_test_fraction(test_fraction)
    n = len(dataset)
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n - n_test < 1:
        raise DataError(
            f"split of {n} rows at {test_fraction} leaves an empty side"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])


@dataclass
class SynthSpec:
    """Synthetic click dataset, converted and range-checked when made:
    skewed item popularity, labels drawn from a low-rank pairwise
    preference score plus optional label noise."""

    n_samples: int
    vocab_sizes: list
    latent_rank: int = 4
    noise: float = 0.1
    skew: float = 1.1
    seed: int = 0

    def __post_init__(self):
        convert_fields(self, "data.synth.")
        if self.n_samples < 2:
            raise DataError(f"data.synth.n_samples: {self.n_samples} is below 2")
        if not self.vocab_sizes or any(v < 2 for v in self.vocab_sizes):
            raise DataError(
                f"data.synth.vocab_sizes: need at least one vocabulary, each "
                f"of at least 2, got {self.vocab_sizes}"
            )
        check_vocab_sizes(self.vocab_sizes, "data.synth.vocab_sizes")
        if self.latent_rank < 1:
            raise DataError(f"data.synth.latent_rank: {self.latent_rank} is below 1")
        if not 0.0 <= self.noise < 0.5:
            raise DataError(f"data.synth.noise: {self.noise} outside [0, 0.5)")
        if self.skew < 0.0:
            raise DataError(f"data.synth.skew: {self.skew} is below 0")
        if self.seed < 0:
            raise DataError(f"data.synth.seed: {self.seed} is below 0")


# the inverse-CDF draw's bucket count; a power of two, so r * _BUCKETS is exact
_BUCKETS = 1 << 16


def _popularity_cdf(vocab: int, skew: float) -> np.ndarray:
    """Cumulative Zipf-like item popularity, ending at exactly 1."""
    probs = 1.0 / np.power(np.arange(1, vocab + 1, dtype=np.float64), skew)
    probs /= probs.sum()
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return cdf


def _inverse_cdf(cdf: np.ndarray):
    """A function that maps draws ``r`` in [0, 1) to the items
    ``np.searchsorted(cdf, r, side="right")``, bit for bit.

    A draw in bucket ``b``, ``b / _BUCKETS <= r < (b + 1) / _BUCKETS``, is
    at least ``lo[b]``, the count of ``cdf`` entries ``<= b / _BUCKETS``,
    and at most ``hi[b]``, the count ``< (b + 1) / _BUCKETS``.  Where the
    two agree that is the answer; only the other draws are searched, in
    sorted order, which keeps the search in cache.  An entry ``c`` is
    ``<= b / _BUCKETS`` exactly when ``ceil(c * _BUCKETS) <= b``, and
    ``< (b + 1) / _BUCKETS`` when ``floor(c * _BUCKETS) <= b``, so both
    tables are running counts.
    """
    scaled = cdf * _BUCKETS
    lo = np.cumsum(np.bincount(np.ceil(scaled).astype(np.intp), minlength=_BUCKETS))
    hi = np.cumsum(np.bincount(np.floor(scaled).astype(np.intp), minlength=_BUCKETS))

    def draw(r: np.ndarray) -> np.ndarray:
        bucket = (r * _BUCKETS).astype(np.intp)
        items = lo.take(bucket)
        unsure = np.flatnonzero(items != hi.take(bucket))
        unsure = unsure[np.argsort(r.take(unsure))]
        items[unsure] = np.searchsorted(cdf, r.take(unsure), side="right")
        return items

    return draw


def synth_generate(spec: SynthSpec) -> ClickDataset:
    """Generate a dataset whose optimal predictor is low-rank.

    Items per field follow a Zipf-like popularity curve with the given
    skew, drawn by inverse CDF (see :func:`_inverse_cdf`).  Each item
    carries a latent vector; a row's score is the pairwise interaction
    0.5 (||sum z||^2 - sum ||z||^2) of its items' vectors, standardized
    over the sample and scaled so the Bernoulli labels have large margins.
    ``noise`` flips that fraction of labels.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    d = len(spec.vocab_sizes)
    indices = np.empty((n, d), dtype=INDEX_DTYPE)
    z_sum = np.zeros((n, spec.latent_rank))
    sq_sum = np.zeros(n)
    draw_by_vocab = {}
    for i, vocab in enumerate(spec.vocab_sizes):
        if vocab not in draw_by_vocab:
            draw_by_vocab[vocab] = _inverse_cdf(_popularity_cdf(vocab, spec.skew))
        # r < 1 = cdf[-1], so every item is below vocab
        idx = draw_by_vocab[vocab](rng.random(n))
        indices[:, i] = idx
        latent = rng.normal(size=(vocab, spec.latent_rank)) / np.sqrt(
            spec.latent_rank
        )
        z_sum += np.take(latent, idx, axis=0)
        # each row's squared norm is the same reduction over the same values
        sq_sum += (latent * latent).sum(axis=1).take(idx)
    score = 0.5 * ((z_sum * z_sum).sum(axis=1) - sq_sum)
    sd = float(score.std())
    if sd > 0:
        score = (score - float(score.mean())) / sd
    p = 1.0 / (1.0 + np.exp(-6.0 * score))
    labels = (rng.random(n) < p).astype(np.uint8)
    if spec.noise > 0:
        flips = rng.random(n) < spec.noise
        labels[flips] = 1 - labels[flips]
    return ClickDataset(
        labels=labels,
        indices=indices,
        continuous=np.zeros((n, 0), dtype=np.float32),
        vocab_sizes=list(spec.vocab_sizes),
    )
