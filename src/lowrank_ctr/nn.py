"""A DeepFM click-through-rate model on plain numpy with hand gradients.

The model combines three heads on shared per-field embeddings:

* a first-order term (one scalar weight per categorical item),
* a pairwise interaction term 0.5 * (||sum e_i||^2 - sum ||e_i||^2),
* an MLP over the concatenated embeddings plus any continuous inputs.

The sum of the three heads is the logit; sigmoid of it is the prediction.

Embedding tables are stored (dim, vocab) so compression can treat them as
matrices whose columns are items.  Tables may be replaced by per-field
projection layers (dimension-reduced tables restored to full width by a
small linear map) or by tensor-train cores whose lookup reconstructs one
row at a time.  When ``fused`` is set, the first MLP layer has absorbed
the projections and consumes the reduced embeddings directly while the
pairwise term still reads the projected full-width vectors.

Weights default to float32; gradient checking can run the whole model in
float64 via ``DeepFMModel.astype``.  All forward/backward code preserves
the model dtype, except predictions and loss terms, which are float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError, NumericError, ShapeError
from .linalg import TTCores, tt_reconstruct_row

ACTIVATIONS = ("relu", "none", "sigmoid")


def sigmoid(z) -> np.ndarray:
    """Numerically stable logistic function, computed in float64."""
    return _logistic(np.asarray(z, dtype=np.float64))


def _logistic(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function in the dtype of ``z``."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
    weights: np.ndarray  # (dim, vocab)

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
    every lookup rebuilds its row through the core chain.  Recomputing the
    chain per access is intrinsic to the format and is what makes this the
    slow lookup path."""

    cores: TTCores
    vocab: int
    dim: int

    def lookup(self, idx: np.ndarray) -> np.ndarray:
        rows = [tt_reconstruct_row(self.cores, int(v))[: self.dim] for v in idx]
        return np.stack(rows)


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

    @property
    def n_fields(self) -> int:
        return len(self.tables)

    def mlp_input_dim(self) -> int:
        if self.fused:
            emb = sum(t.dim for t in self.tables)
        else:
            emb = self.n_fields * self.embed_dim
        return emb + self.n_continuous

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
                tables.append(EmbeddingTable(cast(t.weights)))
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
        return DeepFMModel(
            tables=tables,
            first_order=[cast(f) for f in self.first_order],
            mlp=mlp,
            n_continuous=self.n_continuous,
            embed_dim=self.embed_dim,
            projections=projections,
            fm_enabled=self.fm_enabled,
            fused=self.fused,
        )

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


def _validate_batch(model: DeepFMModel, batch: FeatureBatch) -> None:
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
    for i, table in enumerate(model.tables):
        col = idx[:, i]
        lo = int(col.min())
        hi = int(col.max())
        if lo < 0 or hi >= table.vocab:
            raise DataError(
                f"field {i}: index range [{lo}, {hi}] outside vocabulary "
                f"of size {table.vocab}"
            )


def _effective_dropout(layer: DenseLayer, override) -> float:
    if override is not None and layer.dropout_site:
        return float(override)
    return float(layer.dropout_rate)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0)
    if kind == "none":
        return z
    return _logistic(z)


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
    _validate_batch(model, batch)
    capture = set(capture or ())
    idx = batch.indices
    n = idx.shape[0]
    dtype = model.mlp[0].weight.dtype
    captured = {}

    e_raw = []
    for i, table in enumerate(model.tables):
        ei = np.ascontiguousarray(table.lookup(idx[:, i]))
        e_raw.append(ei)
        if f"emb.{i}" in capture:
            captured[f"emb.{i}"] = ei

    if model.projections is not None:
        e_full = [
            er @ proj.weight.T + proj.bias
            for er, proj in zip(e_raw, model.projections)
        ]
    else:
        e_full = e_raw

    if model.fm_enabled:
        stack = np.stack(e_full, axis=1)  # (n, fields, embed_dim)
        s = stack.sum(axis=1)
        pairwise = 0.5 * ((s * s).sum(axis=1) - (stack * stack).sum(axis=(1, 2)))
        fo = np.zeros(n, dtype=dtype)
        for i, table in enumerate(model.first_order):
            fo = fo + table[idx[:, i]]
    else:
        s = None
        pairwise = np.zeros(n, dtype=dtype)
        fo = np.zeros(n, dtype=dtype)

    blocks = e_raw if model.fused else e_full
    width = sum(b.shape[1] for b in blocks) + model.n_continuous
    x = np.empty((n, width), dtype=dtype)
    offset = 0
    for b in blocks:
        x[:, offset : offset + b.shape[1]] = b
        offset += b.shape[1]
    if model.n_continuous:
        x[:, offset:] = batch.continuous

    layer_cache = []
    cur = x
    for j, layer in enumerate(model.mlp):
        if cur.shape[1] != layer.weight.shape[1]:
            raise ShapeError(
                f"mlp.{j} expects input width {layer.weight.shape[1]}, "
                f"got {cur.shape[1]}"
            )
        z = cur @ layer.weight.T + layer.bias
        if f"mlp.{j}" in capture:
            captured[f"mlp.{j}"] = z
        a = _activate(z, layer.activation)
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
            "e_raw": e_raw,
            "e_full": e_full,
            "fm_sum": s,
            "x": x,
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
        p64 = p.astype(np.float64, copy=False)
        total += float((p64 * p64).sum())
    return total


def _scatter_rows(grad_rows: np.ndarray, idx: np.ndarray, vocab: int) -> np.ndarray:
    """Sum (n, k) rows into a (k, vocab) gradient by index, duplicates added."""
    n, k = grad_rows.shape
    flat = idx.astype(np.int64)[:, None] * k + np.arange(k, dtype=np.int64)
    out = np.bincount(
        flat.ravel(),
        weights=grad_rows.astype(np.float64, copy=False).ravel(),
        minlength=vocab * k,
    )
    return out.reshape(vocab, k).T


def _tt_lookup_grads(table: TTEmbeddingTable, idx: np.ndarray, d_rows: np.ndarray):
    """Gradients of row lookups w.r.t. every core, accumulated densely.

    Works one sample at a time: builds left partial products, right partial
    products, then contracts the padded row gradient against both."""
    cores = table.cores.cores
    rf = table.cores.row_factors
    cf = table.cores.col_factors
    k = len(cores)
    grads = [np.zeros_like(c, dtype=np.float64) for c in cores]
    pad_cols = 1
    for f in cf:
        pad_cols *= f
    for row_i in range(idx.shape[0]):
        digits = []
        rest = int(idx[row_i])
        for f in reversed(rf):
            digits.append(rest % f)
            rest //= f
        digits.reverse()
        slices = [core[:, dig, :, :] for core, dig in zip(cores, digits)]
        lefts = [np.ones((1, 1))]
        for sl in slices[:-1]:
            nxt = np.tensordot(lefts[-1], sl, axes=([1], [0]))
            lefts.append(nxt.reshape(-1, sl.shape[-1]))
        rights = [np.ones((1, 1))]
        for sl in reversed(slices[1:]):
            nxt = np.tensordot(sl, rights[-1], axes=([2], [0]))
            rights.append(nxt.reshape(sl.shape[0], -1))
        rights.reverse()
        de = np.zeros(pad_cols)
        de[: table.dim] = d_rows[row_i]
        for j in range(k):
            left = lefts[j]  # (N_j, r_j)
            right = rights[j]  # (r_{j+1}, M_{j+1})
            de3 = de.reshape(left.shape[0], cf[j], right.shape[1])
            tmp = np.einsum("xr,xab->rab", left, de3)
            dslice = np.einsum("rab,sb->ras", tmp, right)
            grads[j][:, digits[j], :, :] += dslice
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
    (tensor-train cores included).
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
        elif layer.activation == "sigmoid":
            a = _activate(z, "sigmoid")
            d = d * a * (1 - a)
        grads[f"mlp.{j}.weight"] = d.T @ x_in
        grads[f"mlp.{j}.bias"] = d.sum(axis=0)
        d = d @ layer.weight
    dx = d  # gradient w.r.t. the MLP input block

    # split the MLP input gradient into per-field blocks
    blocks = cache["e_raw"] if model.fused else cache["e_full"]
    offsets = np.cumsum([0] + [b.shape[1] for b in blocks])
    d_blocks = [dx[:, offsets[i] : offsets[i + 1]] for i in range(len(blocks))]

    idx = batch.indices
    s = cache["fm_sum"]
    for i, table in enumerate(model.tables):
        if model.fm_enabled:
            d_fm = dlogit[:, None] * (s - cache["e_full"][i])
        else:
            d_fm = None
        if model.projections is not None:
            proj = model.projections[i]
            if model.fused:
                d_full = d_fm if d_fm is not None else None
                d_raw = d_blocks[i].copy()
            else:
                d_full = d_blocks[i] + d_fm if d_fm is not None else d_blocks[i]
                d_raw = None
            if d_full is not None:
                grads[f"proj.{i}.weight"] = d_full.T @ cache["e_raw"][i]
                grads[f"proj.{i}.bias"] = d_full.sum(axis=0)
                back = d_full @ proj.weight
                d_raw = back if d_raw is None else d_raw + back
            else:
                grads[f"proj.{i}.weight"] = np.zeros_like(proj.weight)
                grads[f"proj.{i}.bias"] = np.zeros_like(proj.bias)
                if d_raw is None:
                    d_raw = np.zeros_like(cache["e_raw"][i])
        else:
            d_raw = d_blocks[i] + d_fm if d_fm is not None else d_blocks[i]
        if isinstance(table, TTEmbeddingTable):
            core_grads = _tt_lookup_grads(table, idx[:, i], d_raw)
            for j, g in enumerate(core_grads):
                grads[f"emb.{i}.core.{j}"] = g.astype(dtype)
        else:
            grads[f"emb.{i}.weight"] = _scatter_rows(
                d_raw, idx[:, i], table.vocab
            ).astype(dtype)

    for i, fo in enumerate(model.first_order):
        grads[f"fo.{i}.weight"] = np.bincount(
            idx[:, i].astype(np.int64),
            weights=dlogit.astype(np.float64),
            minlength=fo.shape[0],
        ).astype(dtype)

    if l2_ratio:
        for name, p in model.named_parameters():
            grads[name] = grads[name] + (2.0 * l2_ratio) * p

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
