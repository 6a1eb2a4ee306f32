"""A DeepFM click-through-rate model on plain numpy with hand gradients.

The model combines three heads on shared per-field embeddings:

* a first-order term (one scalar weight per categorical item),
* a pairwise interaction term 0.5 * (||sum e_i||^2 - sum ||e_i||^2),
* an MLP over the concatenated embeddings plus any continuous inputs.

The sum of the three heads is the logit; sigmoid of it is the prediction.

Each ``EmbeddingTable.weights`` is a (dim, vocab) array, so compression can
treat a table as a matrix whose columns are items.  Inside a model the
dense tables are stored together: one row-major (sum vocab, dim) array
with per-field row offsets, of which each table's weights is the
transposed view; the first-order weights are packed the same way.  A
forward pass therefore fetches every field's embedding with one gather,
and that (n, fields, dim) block is both the pairwise-term stack and,
reshaped, the MLP input.  ``DeepFMModel.packed`` is the one place that
storage is built: a forward pass calls it, and it packs on first use and
again when a table or first-order array was rebound or copied
(``copy.deepcopy``) since the last packing, so code that makes tables only
hands the model plain arrays.  Writing into a table's weights writes into
the packed array; assigning a model's ``tables`` or ``first_order`` drops
its packing at once, so a compressor's replaced tables are freed.

Tables may be replaced by per-field projection layers (dimension-reduced
tables restored to full width by a small linear map) or by tensor-train
cores, whose lookup rebuilds a batch's rows through one batched chain of
core-slice products; a model's fields are all dense or all tensor-train.
With projections, the pairwise term is computed from the reduced
embeddings c_i alone: sum_i (P_i c_i + b_i) is one matmul over the
concatenated c, and sum_i ||P_i c_i + b_i||^2 needs only P_i^T P_i and
P_i^T b_i.  Full-width vectors are built only when the MLP reads them:
when ``fused`` is set, the first MLP layer has absorbed the projections and
consumes the reduced embeddings directly.

Weights default to float32; gradient checking can run the whole model in
float64 via ``DeepFMModel.astype``.  All forward/backward code preserves
the model dtype, except predictions and loss terms, which are float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from typing import Optional

import numpy as np

from .errors import DataError, NumericError, ShapeError
from .linalg import TTCores

ACTIVATIONS = ("relu", "none")


def sigmoid(z) -> np.ndarray:
    """Numerically stable logistic function, computed in float64:
    1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below."""
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def bce_from_logits(logits, labels) -> float:
    """Mean binary cross entropy straight from logits (float64, stable)."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


@dataclass
class FeatureBatch:
    """One batch of inputs: integer indices (n, fields) and a float block
    (n, n_continuous) of already-transformed continuous values."""

    indices: np.ndarray
    continuous: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[0]


@dataclass
class EmbeddingTable:
    weights: np.ndarray  # (dim, vocab); in a model, a view of its packed rows

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def vocab(self) -> int:
        return self.weights.shape[1]

    def lookup(self, idx: np.ndarray) -> np.ndarray:
        return self.weights[:, idx].T  # (n, dim)


@dataclass
class TTEmbeddingTable:
    """Embedding table factorized into tensor-train cores.

    ``cores`` reconstructs a padded (rows >= vocab, cols >= dim) matrix;
    every lookup rebuilds its rows through the core chain, for the whole
    batch at once (see ``_tt_chain``).  Recomputing the chain per access is
    intrinsic to the format, so a lookup costs a few small matrix products
    per row where a dense table costs a gather."""

    cores: TTCores
    vocab: int
    dim: int

    def lookup(self, idx: np.ndarray) -> np.ndarray:
        _, _, chain = _tt_chain(self.cores, idx, self.cores.cores[0].dtype)
        rows = chain[-1]  # (n, padded columns, 1)
        return rows.reshape(rows.shape[0], -1)[:, : self.dim]


def _tt_chain(tt: TTCores, idx, dtype):
    """The core chain of a batch of tensor-train rows, in ``dtype``.

    Splits every row index into one digit per core, takes the
    (r_j, m_j, r_{j+1}) slice of core j that each row's digit selects, and
    multiplies the slices left to right with batched matmuls.  Returns
    ``(digits, slices, chain)``: ``chain[j]`` (n, N_j, r_j) is the product
    of the slices before core j over its N_j column digits, starting from
    ones, so ``chain[-1]`` holds the rows themselves.  Each row's products
    are the 2-D products of ``linalg.tt_reconstruct_row``, so the rows
    equal its output bit for bit."""
    idx = np.asarray(idx)
    n_rows = prod(tt.row_factors)
    if idx.dtype.kind not in "iu":
        raise IndexError(f"row indices must be integers, got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise IndexError(
            f"row index range [{idx.min()}, {idx.max()}] outside [0, {n_rows})"
        )
    n = idx.shape[0]
    digits = []
    rest = idx.astype(np.int64)
    for f in reversed(tt.row_factors):
        digits.append(rest % f)
        rest = rest // f
    digits.reverse()
    # slices[j][b] is the (r_j, m_j, r_{j+1}) slice of core j that row b selects
    slices = [
        np.asarray(c, dtype=dtype).transpose(1, 0, 2, 3)[d]
        for c, d in zip(tt.cores, digits)
    ]
    first = slices[0]
    # the first slice as it is, not times the ones: a product would turn
    # -0.0 into 0.0 where tt_reconstruct_row keeps it
    chain = [np.ones((n, 1, 1), dtype=dtype), first.reshape(n, -1, first.shape[3])]
    for sl in slices[1:]:
        r, m, r_next = sl.shape[1:]
        nxt = np.matmul(chain[-1], sl.reshape(n, r, m * r_next))
        chain.append(nxt.reshape(n, -1, r_next))
    return digits, slices, chain


@dataclass
class ProjectionLayer:
    """Restores a reduced embedding to full width: e = weight @ e_c + bias."""

    weight: np.ndarray  # (full_dim, reduced_dim)
    bias: np.ndarray  # (full_dim,)


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "relu"
    dropout_rate: float = 0.0
    dropout_site: bool = False

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")


class _Packed:
    """Row-major storage behind a model's dense tables and first-order weights.

    ``tables`` is (sum vocab, dim) and ``first_order`` is (sum vocab,);
    field i owns rows ``offsets[i]:offsets[i] + vocab[i]`` of both.  Either
    array is None when the model has no such parameters (tensor-train
    fields, fm disabled).  Building one copies the model's current tables
    and first-order weights into new arrays and points the model at views
    of them; ``DeepFMModel.packed`` is the only caller.
    """

    def __init__(self, model):
        self.vocab = np.array([t.vocab for t in model.tables], dtype=np.int64)
        self.offsets = np.zeros_like(self.vocab)
        np.cumsum(self.vocab[:-1], out=self.offsets[1:])
        self.tables = self.first_order = None
        dense = [isinstance(t, EmbeddingTable) for t in model.tables]
        if any(dense):
            if not all(dense):
                raise ShapeError("a model's fields are all dense or all tensor-train")
            widths = sorted({t.dim for t in model.tables})
            if len(widths) != 1:
                raise ShapeError(f"dense fields must share one width, got {widths}")
            # filled field by field: a concatenation of the (vocab, dim)
            # transposes would come out column-major
            self.tables = np.empty(
                (int(self.vocab.sum()), widths[0]),
                dtype=np.result_type(*[t.weights for t in model.tables]),
            )
            for table, view in zip(model.tables, self._split(self.tables)):
                view[...] = table.weights
                table.weights = view
        if model.first_order:
            self.first_order = np.concatenate(model.first_order)
            model.first_order = self._split(self.first_order)
        self.views = self._arrays(model)

    def _split(self, packed) -> list:
        # ``.T`` turns a field's (vocab, dim) rows into its (dim, vocab) table
        return [packed[o : o + v].T for o, v in zip(self.offsets, self.vocab)]

    @staticmethod
    def _arrays(model) -> list:
        tables = [t.weights for t in model.tables if isinstance(t, EmbeddingTable)]
        return tables + list(model.first_order)

    def backs(self, model) -> bool:
        """Whether every table and first-order array of ``model`` is still
        the view this packing handed out (not rebound, not a copy)."""
        arrays = self._arrays(model)
        # a deep copy's views own their data, so their base is None, which
        # is also what tables or first_order is when the model has none
        return len(arrays) == len(self.views) and all(
            a is v
            and v.base is not None
            and (v.base is self.tables or v.base is self.first_order)
            for a, v in zip(arrays, self.views)
        )


@dataclass
class DeepFMModel:
    tables: list
    first_order: list  # per-field (vocab,) arrays; empty when fm disabled
    mlp: list
    n_continuous: int
    embed_dim: int  # field width consumed by the pairwise term
    projections: Optional[list] = None
    fm_enabled: bool = True
    fused: bool = False
    _packed: Optional[_Packed] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name, value):
        # frees the old packed arrays now; ``packed()`` builds new ones
        if name in ("tables", "first_order"):
            object.__setattr__(self, "_packed", None)
        object.__setattr__(self, name, value)

    @property
    def n_fields(self) -> int:
        return len(self.tables)

    def mlp_input_dim(self) -> int:
        if self.fused:
            emb = sum(t.dim for t in self.tables)
        else:
            emb = self.n_fields * self.embed_dim
        return emb + self.n_continuous

    def packed(self) -> _Packed:
        """The packed storage behind the tables and first-order weights.

        The one place packed storage is built: on first use, and again when
        a table or first-order array was rebound or copied since the last
        packing, so the arrays returned are always current."""
        packed = self._packed
        if packed is None or not packed.backs(self):
            packed = self._packed = _Packed(self)
        return packed

    def named_parameters(self) -> list:
        """(name, array) pairs in a fixed order; arrays are live views."""
        out = []
        for i, table in enumerate(self.tables):
            if isinstance(table, TTEmbeddingTable):
                for j, core in enumerate(table.cores.cores):
                    out.append((f"emb.{i}.core.{j}", core))
            else:
                out.append((f"emb.{i}.weight", table.weights))
        if self.projections is not None:
            for i, proj in enumerate(self.projections):
                out.append((f"proj.{i}.weight", proj.weight))
                out.append((f"proj.{i}.bias", proj.bias))
        for i, fo in enumerate(self.first_order):
            out.append((f"fo.{i}.weight", fo))
        for j, layer in enumerate(self.mlp):
            out.append((f"mlp.{j}.weight", layer.weight))
            out.append((f"mlp.{j}.bias", layer.bias))
        return out

    def astype(self, dtype) -> "DeepFMModel":
        """Deep copy with every parameter cast to ``dtype``."""

        def cast(a):
            return np.asarray(a, dtype=dtype).copy()

        tables = []
        for t in self.tables:
            if isinstance(t, TTEmbeddingTable):
                cores = TTCores(
                    tuple(cast(c) for c in t.cores.cores),
                    t.cores.row_factors,
                    t.cores.col_factors,
                    t.cores.ranks,
                )
                tables.append(TTEmbeddingTable(cores, t.vocab, t.dim))
            else:
                # copied into the new model's own packed rows below
                tables.append(EmbeddingTable(np.asarray(t.weights, dtype)))
        projections = None
        if self.projections is not None:
            projections = [
                ProjectionLayer(cast(p.weight), cast(p.bias))
                for p in self.projections
            ]
        mlp = [
            DenseLayer(
                cast(l.weight),
                cast(l.bias),
                l.activation,
                l.dropout_rate,
                l.dropout_site,
            )
            for l in self.mlp
        ]
        model = DeepFMModel(
            tables=tables,
            first_order=[np.asarray(f, dtype) for f in self.first_order],
            mlp=mlp,
            n_continuous=self.n_continuous,
            embed_dim=self.embed_dim,
            projections=projections,
            fm_enabled=self.fm_enabled,
            fused=self.fused,
        )
        model.packed()
        return model

    def clone(self) -> "DeepFMModel":
        dtype = self.mlp[0].weight.dtype if self.mlp else np.float32
        return self.astype(dtype)


@dataclass
class ForwardTrace:
    predictions: np.ndarray  # float64 in (0, 1)
    logits: np.ndarray
    first_order_term: np.ndarray
    pairwise_term: np.ndarray
    deep_term: np.ndarray
    captured: dict = field(default_factory=dict)


def init_deepfm(
    vocab_sizes,
    embed_dim: int,
    hidden_dims,
    n_continuous: int = 0,
    seed: int = 0,
    dropout_rate: float = 0.5,
    fm_enabled: bool = True,
    dtype=np.float32,
) -> DeepFMModel:
    """Build a fresh model with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))
    weights, where fan_in is the vocabulary size for tables and the input
    width for dense layers.  Draw order: embedding tables by field, then
    first-order tables by field, then MLP layers; fixed seed gives a
    bit-identical model."""
    vocab_sizes = [int(v) for v in vocab_sizes]
    if any(v < 1 for v in vocab_sizes):
        raise ShapeError("vocabulary sizes must be positive")
    hidden_dims = [int(h) for h in hidden_dims]
    rng = np.random.default_rng(seed)

    def uniform(bound, shape):
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    tables = [
        EmbeddingTable(uniform(1.0 / np.sqrt(v), (embed_dim, v)))
        for v in vocab_sizes
    ]
    first_order = []
    if fm_enabled:
        first_order = [uniform(1.0 / np.sqrt(v), (v,)) for v in vocab_sizes]
    mlp = []
    fan_in = len(vocab_sizes) * embed_dim + n_continuous
    for h in hidden_dims:
        bound = 1.0 / np.sqrt(fan_in)
        mlp.append(
            DenseLayer(
                uniform(bound, (h, fan_in)),
                uniform(bound, (h,)),
                activation="relu",
                dropout_rate=dropout_rate,
                dropout_site=True,
            )
        )
        fan_in = h
    bound = 1.0 / np.sqrt(fan_in)
    mlp.append(
        DenseLayer(
            uniform(bound, (1, fan_in)),
            uniform(bound, (1,)),
            activation="none",
            dropout_rate=0.0,
            dropout_site=False,
        )
    )
    return DeepFMModel(
        tables=tables,
        first_order=first_order,
        mlp=mlp,
        n_continuous=int(n_continuous),
        embed_dim=int(embed_dim),
        fm_enabled=fm_enabled,
    )


def _validate_batch(model: DeepFMModel, batch: FeatureBatch, vocab) -> None:
    idx = batch.indices
    if idx.ndim != 2 or idx.shape[1] != model.n_fields:
        raise ShapeError(
            f"indices must be (n, {model.n_fields}), got {idx.shape}"
        )
    cont = batch.continuous
    if cont.ndim != 2 or cont.shape[1] != model.n_continuous:
        raise ShapeError(
            f"continuous block must be (n, {model.n_continuous}), "
            f"got {cont.shape}"
        )
    if cont.shape[0] != idx.shape[0]:
        raise ShapeError("indices and continuous blocks disagree on length")
    if idx.shape[0] == 0:
        raise ShapeError("empty batch")
    bad = (idx < 0) | (idx >= vocab)
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        raise DataError(
            f"field {i}: index range [{idx[:, i].min()}, {idx[:, i].max()}] "
            f"outside vocabulary of size {vocab[i]}"
        )


def _effective_dropout(layer: DenseLayer, override) -> float:
    if override is not None and layer.dropout_site:
        return float(override)
    return float(layer.dropout_rate)


@lru_cache(maxsize=16)
def _stacked_identity(n_fields: int, k: int, dtype) -> np.ndarray:
    """The read-only (n_fields * k, k) stack of k x k identities, built once
    per shape and dtype; ``flat @`` it sums the fields' k-wide blocks."""
    eye = np.tile(np.eye(k, dtype=dtype), (n_fields, 1))
    eye.flags.writeable = False
    return eye


def _projection_terms(projections, dtype):
    """Stacked projections and the fixed parts of the reduced-space
    pairwise term.

    Returns the weights ``w`` (fields, dim, k), the biases ``b``
    (fields, dim), ``p_cat`` = [P_0 | P_1 | ...] (dim, fields * k), the
    block-diagonal ``gram`` of the P_i^T P_i (fields * k, fields * k) and
    ``pb``, the concatenated P_i^T b_i (fields * k,)."""
    w = np.array([p.weight for p in projections], dtype=dtype)
    b = np.array([p.bias for p in projections], dtype=dtype)
    n_fields, dim, k = w.shape
    wt = w.transpose(0, 2, 1)
    p_cat = w.transpose(1, 0, 2).reshape(dim, n_fields * k)
    gram = np.zeros((n_fields, k, n_fields, k), dtype=dtype)
    diag = np.arange(n_fields)
    gram[diag, :, diag, :] = np.matmul(wt, w)
    pb = np.matmul(wt, b[:, :, None]).reshape(-1)
    return w, b, p_cat, gram.reshape(n_fields * k, n_fields * k), pb


def _run_forward(
    model: DeepFMModel,
    batch: FeatureBatch,
    mode: str,
    capture,
    rng,
    dropout_override,
    keep_cache: bool,
):
    if mode not in ("infer", "train"):
        raise ShapeError(f"mode must be 'infer' or 'train', got {mode!r}")
    packed = model.packed()
    _validate_batch(model, batch, packed.vocab)
    capture = set(capture or ())
    idx = batch.indices
    n = idx.shape[0]
    dtype = model.mlp[0].weight.dtype
    captured = {}

    rows = idx + packed.offsets  # each field's item, as a row of the packed arrays
    if packed.tables is not None:
        emb = np.take(packed.tables, rows, axis=0)  # (n, fields, dim)
    else:
        emb = np.stack(
            [t.lookup(idx[:, i]) for i, t in enumerate(model.tables)], axis=1
        )
    for i in range(model.n_fields):
        if f"emb.{i}" in capture:
            captured[f"emb.{i}"] = emb[:, i]
    flat = emb.reshape(n, -1)  # the fields' embeddings side by side

    proj = None
    x = flat
    if model.projections is not None:
        proj = _projection_terms(model.projections, dtype)
        if not model.fused:
            w, b = proj[:2]
            full = np.matmul(emb.transpose(1, 0, 2), w.transpose(0, 2, 1))
            full += b[:, None, :]
            x = full.transpose(1, 0, 2).reshape(n, -1)

    fo = np.zeros(n, dtype=dtype)
    pairwise = np.zeros(n, dtype=dtype)
    s = gc = None
    if model.fm_enabled:
        if packed.first_order is not None:
            ones = np.ones(model.n_fields, dtype=packed.first_order.dtype)
            fo = np.take(packed.first_order, rows) @ ones
        if proj is None:
            # s = sum_i e_i as one matmul with stacked identities
            s = flat @ _stacked_identity(model.n_fields, emb.shape[2], flat.dtype)
            sq = np.einsum("ij,ij->i", flat, flat)
        else:
            # sum_i ||P_i c_i + b_i||^2 from the reduced c_i alone
            _, b, p_cat, gram, pb = proj
            s = flat @ p_cat.T + b.sum(axis=0)
            gc = flat @ gram
            sq = np.einsum("ij,ij->i", gc + 2 * pb, flat) + (b * b).sum()
        pairwise = 0.5 * (np.einsum("ij,ij->i", s, s) - sq)

    if model.n_continuous:
        x = np.concatenate([x, batch.continuous], axis=1, dtype=dtype)

    layer_cache = []
    cur = x
    for j, layer in enumerate(model.mlp):
        if cur.shape[1] != layer.weight.shape[1]:
            raise ShapeError(
                f"mlp.{j} expects input width {layer.weight.shape[1]}, "
                f"got {cur.shape[1]}"
            )
        z = cur @ layer.weight.T
        z += layer.bias
        if f"mlp.{j}" in capture:
            captured[f"mlp.{j}"] = z
            a = np.maximum(z, 0) if layer.activation == "relu" else z
        elif layer.activation == "relu":
            # in place: relu(z) > 0 exactly where z > 0, all backward needs
            a = np.maximum(z, 0, out=z)
        else:
            a = z
        mask = None
        rate = _effective_dropout(layer, dropout_override) if mode == "train" else 0.0
        if rate > 0.0:
            if not 0.0 <= rate < 1.0:
                raise ShapeError(f"dropout rate {rate} outside [0, 1)")
            if rng is None:
                raise ShapeError("training forward with dropout needs an rng")
            keep = 1.0 - rate
            mask = (rng.random(a.shape) >= rate).astype(dtype) / dtype.type(keep)
            out = a * mask
        else:
            out = a
        if keep_cache:
            layer_cache.append((cur, z, mask))
        cur = out

    deep = cur[:, 0]
    logits = (fo + pairwise + deep).astype(np.float64)
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits in forward pass")
    trace = ForwardTrace(
        predictions=sigmoid(logits),
        logits=logits,
        first_order_term=np.asarray(fo, dtype=np.float64),
        pairwise_term=np.asarray(pairwise, dtype=np.float64),
        deep_term=np.asarray(deep, dtype=np.float64),
        captured=captured,
    )
    cache = None
    if keep_cache:
        cache = {
            "packed": packed,
            "rows": rows,
            "emb": emb,
            "proj": proj,
            "fm_sum": s,
            "gc": gc,
            "layers": layer_cache,
        }
    return trace, cache


def forward(
    model: DeepFMModel,
    batch: FeatureBatch,
    mode: str = "infer",
    capture=(),
    rng=None,
    dropout_override=None,
) -> ForwardTrace:
    """Run the model over one batch.

    ``capture`` names tap points: ``"emb.<i>"`` collects the raw table
    output of field i, ``"mlp.<j>"`` the pre-activation output of MLP
    layer j.  Dropout fires only in train mode; ``dropout_override``
    replaces the stored rate at dropout sites for this call.
    """
    trace, _ = _run_forward(
        model, batch, mode, capture, rng, dropout_override, keep_cache=False
    )
    return trace


def l2_penalty(model: DeepFMModel) -> float:
    """Sum of squared entries over every trainable tensor, in float64."""
    total = 0.0
    for _, p in model.named_parameters():
        total += float(np.square(p, dtype=np.float64).sum())
    return total


def _scatter_rows(grad_rows: np.ndarray, idx: np.ndarray, vocab: int) -> np.ndarray:
    """Sum (n, k) rows into a (vocab, k) float64 gradient by index,
    duplicates added."""
    n, k = grad_rows.shape
    flat = idx.astype(np.int64)[:, None] * k + np.arange(k, dtype=np.int64)
    out = np.bincount(
        flat.ravel(),
        weights=grad_rows.astype(np.float64, copy=False).ravel(),
        minlength=vocab * k,
    )
    return out.reshape(vocab, k)


def _tt_lookup_grads(table: TTEmbeddingTable, idx: np.ndarray, d_rows: np.ndarray):
    """Gradients of row lookups w.r.t. every core, in float64.

    Takes the digits, slices and left partial products from ``_tt_chain``
    (its last entry, the rows themselves, goes unused), builds the right
    partial products the same way, contracts each row's padded gradient
    against both, and sums the resulting core-slice gradients into the
    slices the digits select."""
    digits, slices, lefts = _tt_chain(table.cores, idx, np.float64)
    cores = table.cores.cores
    cf = table.cores.col_factors
    n = len(idx)
    # rights[j]: (n, r_{j+1}, M_{j+1}), the chain after core j
    rights = [np.ones((n, 1, 1))]
    for sl in reversed(slices[1:]):
        r, m, r_next = sl.shape[1:]
        nxt = np.matmul(sl.reshape(n, r * m, r_next), rights[-1])
        rights.append(nxt.reshape(n, r, -1))
    rights.reverse()
    de = np.zeros((n, int(np.prod(cf))))
    de[:, : table.dim] = d_rows
    grads = []
    for j, core in enumerate(cores):
        left, right = lefts[j], rights[j]
        r, n_j, m, r_next = core.shape
        de3 = de.reshape(n, left.shape[1], m * right.shape[2])
        tmp = np.matmul(left.transpose(0, 2, 1), de3)  # (n, r_j, m_j * M)
        dslice = np.matmul(
            tmp.reshape(n, r * m, right.shape[2]), right.transpose(0, 2, 1)
        )  # (n, r_j * m_j, r_{j+1})
        acc = _scatter_rows(dslice.reshape(n, -1), digits[j], n_j)
        grads.append(
            np.ascontiguousarray(
                acc.reshape(n_j, r, m, r_next).transpose(1, 0, 2, 3)
            )
        )
    return grads


def compute_gradients(
    model: DeepFMModel,
    batch: FeatureBatch,
    labels,
    l2_ratio: float = 0.0,
    rng=None,
    dropout_override=None,
):
    """Forward + backward over one batch.

    Returns (loss, grads, trace) where loss is the mean binary cross
    entropy plus ``l2_ratio`` times the summed squared weights, and grads
    maps parameter names to arrays of matching shape.  Gradients flow
    through every head, the projections, and the embedding lookups
    (tensor-train cores included).  The dense tables' gradients are views
    of one packed array laid out like the tables themselves.
    """
    y = np.asarray(labels, dtype=np.float64)
    trace, cache = _run_forward(
        model, batch, "train", (), rng, dropout_override, keep_cache=True
    )
    n = len(batch)
    if y.shape != (n,):
        raise ShapeError(f"labels must be ({n},), got {y.shape}")
    dtype = model.mlp[0].weight.dtype

    loss = bce_from_logits(trace.logits, y)
    if l2_ratio:
        loss += l2_ratio * l2_penalty(model)

    grads = {}
    dlogit = ((trace.predictions - y) / n).astype(dtype)

    # MLP backward
    d = dlogit[:, None]
    for j in range(len(model.mlp) - 1, -1, -1):
        layer = model.mlp[j]
        x_in, z, mask = cache["layers"][j]
        if mask is not None:
            d = d * mask
        if layer.activation == "relu":
            d = d * (z > 0)
        grads[f"mlp.{j}.weight"] = d.T @ x_in
        grads[f"mlp.{j}.bias"] = d.sum(axis=0)
        d = d @ layer.weight
    dx = d  # gradient w.r.t. the MLP input block

    emb = cache["emb"]
    n_fields, k = emb.shape[1:]
    flat = emb.reshape(n, -1)
    s = cache["fm_sum"]
    dl = dlogit[:, None]
    if cache["proj"] is None:
        d_emb = dx[:, : n_fields * k].reshape(n, n_fields, k)
        if model.fm_enabled:
            d_emb = d_emb + dl[:, :, None] * (s[:, None, :] - emb)
    else:
        w, b, p_cat, gram, pb = cache["proj"]
        dim = w.shape[1]
        if model.fused:
            d_flat = dx[:, : n_fields * k]
            g_w = np.zeros_like(w)
            g_b = np.zeros_like(b)
        else:
            # the MLP read e_i = P_i c_i + b_i
            d_full = dx[:, : n_fields * dim].reshape(n, n_fields, dim)
            g_w = np.matmul(d_full.transpose(1, 2, 0), emb.transpose(1, 0, 2))
            g_b = d_full.sum(axis=0)
            d_flat = np.matmul(d_full.transpose(1, 0, 2), w)
            d_flat = d_flat.transpose(1, 0, 2).reshape(n, -1)
        if model.fm_enabled:
            # the pairwise term 0.5 * (||s||^2 - sum_i ||e_i||^2) has
            # d/dc_i = P_i^T s - P_i^T P_i c_i - P_i^T b_i
            ds = dl * s
            d_flat = d_flat + (ds @ p_cat - dl * (cache["gc"] + pb))
            # d/dP_i = s c_i^T - (P_i c_i + b_i) c_i^T, d/db_i = s - P_i c_i - b_i
            dl_emb = emb * dl[:, :, None]
            cc = np.matmul(dl_emb.transpose(1, 2, 0), emb.transpose(1, 0, 2))
            c_sum = dl_emb.sum(axis=0)  # (fields, k)
            g_w = g_w + (
                (ds.T @ flat).reshape(dim, n_fields, k).transpose(1, 0, 2)
                - np.matmul(w, cc)
                - b[:, :, None] * c_sum[:, None, :]
            )
            g_b = g_b + (
                ds.sum(axis=0)
                - (np.matmul(w, c_sum[:, :, None])[:, :, 0] + b * dlogit.sum())
            )
        for i in range(n_fields):
            grads[f"proj.{i}.weight"] = g_w[i]
            grads[f"proj.{i}.bias"] = g_b[i]
        d_emb = d_flat.reshape(n, n_fields, k)

    idx = batch.indices
    packed = cache["packed"]
    if packed.tables is not None:
        g_tables = np.empty_like(packed.tables)
        for i, (o, v) in enumerate(zip(packed.offsets, packed.vocab)):
            g_tables[o : o + v] = _scatter_rows(d_emb[:, i], idx[:, i], v)
            grads[f"emb.{i}.weight"] = g_tables[o : o + v].T
    else:
        for i, table in enumerate(model.tables):
            core_grads = _tt_lookup_grads(table, idx[:, i], d_emb[:, i])
            for j, g in enumerate(core_grads):
                grads[f"emb.{i}.core.{j}"] = g.astype(dtype)

    if packed.first_order is not None:
        g_fo = np.bincount(
            cache["rows"].ravel(),
            weights=np.repeat(dlogit.astype(np.float64), n_fields),
            minlength=packed.first_order.shape[0],
        ).astype(dtype)
        for i, (o, v) in enumerate(zip(packed.offsets, packed.vocab)):
            grads[f"fo.{i}.weight"] = g_fo[o : o + v]

    if l2_ratio:
        for name, p in model.named_parameters():
            grads[name] += (2.0 * l2_ratio) * p

    return loss, grads, trace


def param_count(model: DeepFMModel) -> dict:
    """Exact parameter tally per component."""
    emb = 0
    for t in model.tables:
        if isinstance(t, TTEmbeddingTable):
            emb += t.cores.param_count()
        else:
            emb += t.weights.size
    proj = 0
    if model.projections is not None:
        proj = sum(p.weight.size + p.bias.size for p in model.projections)
    fo = sum(f.size for f in model.first_order)
    mlp = sum(l.weight.size + l.bias.size for l in model.mlp)
    return {
        "embeddings": int(emb),
        "projections": int(proj),
        "first_order": int(fo),
        "mlp": int(mlp),
        "total": int(emb + proj + fo + mlp),
    }
