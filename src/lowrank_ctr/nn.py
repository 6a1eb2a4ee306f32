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
transposed view; the first-order weights are packed the same way, and so
are the projections (one (fields, dim, k) weight and one (fields, dim)
bias, of which each ``ProjectionLayer`` holds field i's views).  A forward
pass therefore fetches every field's embedding with one gather, and that
(n, fields, dim) block is both the pairwise-term stack and, reshaped, the
MLP input.  Those packed arrays are the model's only storage for these
parameters.  They are built when ``tables``, ``first_order`` or
``projections`` is assigned, in the constructor or as a whole list (as the
compressors do): the given arrays are copied in and the old storage is
freed at once.  Reading one of the three gives a tuple of per-field views,
and ``EmbeddingTable`` and ``ProjectionLayer`` are frozen, so writing into
a table's weights writes into the packed array, and rebinding a field or
its array raises.  ``clone`` (and ``copy.deepcopy``, ``copy.copy``) copies
every array once.

Tables may be replaced by per-field projection layers (dimension-reduced
tables restored to full width by a small linear map) or by tensor-train
cores, whose lookup rebuilds a batch's rows through one batched chain of
core-slice products; a model's fields are all dense or all tensor-train,
all of one width.  With projections, the pairwise term is computed from
the reduced embeddings c_i alone: sum_i (P_i c_i + b_i) is one matmul over
the concatenated c, and sum_i ||P_i c_i + b_i||^2 needs only P_i^T P_i and
P_i^T b_i.  Full-width vectors are built only when the MLP reads them:
when ``fused`` is set, the first MLP layer has absorbed the projections and
consumes the reduced embeddings directly.

What a forward pass needs of the parameters alone is derived once, not
per call: the first-order ``ones`` vector when the weights are assigned,
and the projection terms (``p_cat`` = [P_0 | P_1 | ...], the
block-diagonal P_i^T P_i, the P_i^T b_i, sum_i b_i and sum_i ||b_i||^2) on
the first call that needs them.  Those terms are derived again when the
projection arrays no longer hold the bytes they were derived from, which
an in-place write (``Adam.step``, assigning into a weight) causes;
assigning new projections drops them at once.  A pass with nothing to
capture formats no tap names, and the float64 predictions and per-head
terms of a ``ForwardTrace`` are computed only when read, so serving that
reads the logits pays for neither.  Every tapped output is handed to a
``take`` callback as it is computed: ``capture`` stops at the last tap
(calibration reads it), and ``forward(capture=...)`` keeps a copy of each.
A pass holds little more than it is about to read: the first-order and
pairwise terms are computed right after the gather, so the MLP is the
last reader of the packed rows and the gathered block, and outside train
mode the walk drops those, and each layer's input, as soon as the product
that reads them returns.  Train mode keeps what backward reads.

After the gather the pairwise term shares no work with the MLP, so an
inference pass of ``LANE_MIN_ROWS`` rows or more runs on two lanes: one
persistent worker thread computes the term while the calling thread runs
the MLP, and the walk joins it before the logits are summed.  It does so
only where a CPU would otherwise sit idle: the process may use two or more
CPUs and BLAS is confined to one thread (the first of
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS`` set
to a positive count, the one OpenBLAS obeys, says 1); ``runtime()``
reports the conditions.  Train mode, ``capture`` and batches below the
threshold run on one lane.  The bits cannot change: each lane runs the
operations of a one-lane pass on the same operands, and only their
schedule differs.  The worker runs in a copy of the caller's context, so
``np.errstate`` holds there; hands an error back to the caller as it was
raised; writes into arrays the caller allocated, so its thread keeps no
batch-sized heap of its own; and lets the gathered block go after its
last read of it.  The first-order term stays with the caller, so that the
packed rows are not held beside the first layer's output.  A forked child
starts its own worker.

Weights default to float32; gradient checking builds the whole model in
float64 with ``init_deepfm(dtype=...)``.  All forward/backward code
preserves the model dtype, except predictions and loss terms, which are
float64.
"""

from __future__ import annotations

import contextvars
import copy
import os
import queue
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
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
    (n, n_continuous) of already-transformed continuous values.  The
    indices may have any integer dtype (not bool); a ``ClickDataset``
    hands out int32, and every dtype gives the same bits out."""

    indices: np.ndarray
    continuous: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
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
    # in intp, which unravel_index needs, from any integer dtype in range
    digits = np.unravel_index(idx.astype(np.intp, copy=False), tt.row_factors)
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


@dataclass(frozen=True)
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
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ShapeError(f"dropout rate {self.dropout_rate} outside [0, 1)")


class DeepFMModel:
    """Dense tables live in ``emb_rows`` (sum vocab, dim) and first-order
    weights in ``fo_rows`` (sum vocab,); field i owns rows
    ``offsets[i]:offsets[i] + vocab[i]`` of both.  Projections live in
    ``proj_weight`` (fields, dim, k) and ``proj_bias`` (fields, dim), field
    i's at index i.  An array is None when the model has no such
    parameters (tensor-train fields, which are the tuple ``tt_tables``, fm
    disabled, no projections)."""

    def __init__(
        self, tables, first_order, mlp: list, n_continuous: int,
        projections=None, fused: bool = False,
    ):
        self.mlp = mlp
        self.n_continuous = n_continuous
        self.fused = fused
        self.tables = tables
        self.first_order = first_order  # per-field (vocab,) arrays, or none
        self.projections = projections

    def _split(self, rows) -> tuple:
        # ``.T`` turns a field's (vocab, dim) rows into its (dim, vocab) table
        return tuple(rows[o : o + v].T for o, v in zip(self.offsets, self.vocab))

    @property
    def tables(self) -> tuple:
        if self.emb_rows is None:
            return self.tt_tables
        return tuple(map(EmbeddingTable, self._split(self.emb_rows)))

    @tables.setter
    def tables(self, tables):
        tables = tuple(tables)
        dense = [isinstance(t, EmbeddingTable) for t in tables]
        if any(dense) and not all(dense):
            raise ShapeError("a model's fields are all dense or all tensor-train")
        widths = sorted({t.dim for t in tables})
        if len(widths) > 1:
            raise ShapeError(f"fields must share one width, got {widths}")
        self._table_dim = widths[0] if widths else 0
        self.vocab = np.array([t.vocab for t in tables], dtype=np.int64)
        self.offsets = np.zeros_like(self.vocab)
        np.cumsum(self.vocab[:-1], out=self.offsets[1:])
        self._index_tops = {}
        self.emb_rows, self.tt_tables = None, tables
        if any(dense):
            # filled field by field: a concatenation of the (vocab, dim)
            # transposes would come out column-major
            self.emb_rows = np.empty(
                (int(self.vocab.sum()), widths[0]),
                dtype=np.result_type(*[t.weights for t in tables]),
            )
            for table, view in zip(tables, self._split(self.emb_rows)):
                view[...] = table.weights
            self.tt_tables = ()

    @property
    def embed_dim(self) -> int:
        """The field width the pairwise term reads: the projections' output
        width, else the tables' width."""
        return self._table_dim if self.proj_weight is None else self.proj_weight.shape[1]

    @property
    def fm_enabled(self) -> bool:
        """The FM terms are on exactly when the model has first-order weights."""
        return self.fo_rows is not None

    @property
    def first_order(self) -> tuple:
        return () if self.fo_rows is None else self._split(self.fo_rows)

    @first_order.setter
    def first_order(self, first_order):
        first_order = list(first_order)
        self.fo_rows = self.ones = None
        if first_order:
            self.fo_rows = np.concatenate(first_order)
            # sums a row's first-order weights over the fields as one product
            self.ones = np.ones(len(first_order), dtype=self.fo_rows.dtype)

    @property
    def projections(self) -> Optional[tuple]:
        if self.proj_weight is None:
            return None
        return tuple(map(ProjectionLayer, self.proj_weight, self.proj_bias))

    @projections.setter
    def projections(self, projections):
        weight = bias = None
        if projections is not None:
            projections = tuple(projections)
            shapes = {(p.weight.shape, p.bias.shape) for p in projections}
            if len(projections) != self.n_fields or len(shapes) != 1:
                raise ShapeError(
                    f"a model needs one projection per field, all of one shape; "
                    f"got {len(projections)} of shapes {sorted(shapes)}"
                )
            weight = np.array([p.weight for p in projections])
            bias = np.array([p.bias for p in projections])
        self.proj_weight, self.proj_bias = weight, bias
        self._terms = self._terms_source = None

    def projection_terms(self, dtype) -> tuple:
        """``_projection_terms`` of the projections in ``dtype``, derived
        again only when the projections no longer hold the bytes they were
        derived from (after an in-place write) or are assigned anew."""
        source = (dtype, self.proj_weight.tobytes(), self.proj_bias.tobytes())
        if source != self._terms_source:
            self._terms = _projection_terms(self.proj_weight, self.proj_bias, dtype)
            self._terms_source = source
        return self._terms

    def index_tops(self, dtype) -> tuple:
        """For index arrays of the integer ``dtype``: the unsigned dtype of
        its width, and each field's largest valid index in that dtype
        (``vocab - 1``, capped at ``dtype``'s largest value).  A batch's
        indices are then all valid exactly when their unsigned view is at
        most these tops, since a negative index reads as at least 2^(bits-1)
        there.  Derived once per dtype and tables."""
        tops = self._index_tops.get(dtype)
        if tops is None:
            unsigned = f"u{dtype.itemsize}"
            cap = min(np.iinfo(dtype).max, np.iinfo(self.vocab.dtype).max)
            top = np.minimum(self.vocab - 1, cap).astype(unsigned)
            # the view keeps the batch's byte order; ``top`` is native
            tops = (np.dtype(unsigned).newbyteorder(dtype.byteorder), top)
            self._index_tops[dtype] = tops
        return tops

    @property
    def n_fields(self) -> int:
        return len(self.vocab)

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

    def packed_parameters(self) -> list:
        """(name, array) pairs of the arrays the model stores, which training
        updates: ``emb_rows`` or each tensor-train core (named as in
        ``named_parameters``), then ``proj_weight``, ``proj_bias`` and
        ``fo_rows`` when the model has them, then each MLP weight and bias."""
        if self.emb_rows is not None:
            out = [("emb_rows", self.emb_rows)]
        else:
            out = [(f"emb.{i}.core.{j}", core) for i, table in enumerate(self.tt_tables)
                   for j, core in enumerate(table.cores.cores)]
        for name in ("proj_weight", "proj_bias", "fo_rows"):
            if getattr(self, name) is not None:
                out.append((name, getattr(self, name)))
        for j, layer in enumerate(self.mlp):
            out.append((f"mlp.{j}.weight", layer.weight))
            out.append((f"mlp.{j}.bias", layer.bias))
        return out

    def clone(self) -> "DeepFMModel":
        """A deep copy: every array copied once, no memory shared."""
        return copy.deepcopy(self)

    __copy__ = clone


class ForwardTrace:
    """What one forward pass computed: the float64 ``logits``, a copy of
    each tapped output in ``captured`` by tap id, and, computed on first
    read, the float64 ``predictions`` (sigmoid of the logits, in (0, 1))
    and the three terms ``first_order_term``, ``pairwise_term`` and
    ``deep_term`` that the logits sum, from the model-dtype parts the pass
    kept.  A caller that reads only the logits pays for none of them."""

    def __init__(self, logits, first_order, pairwise, deep, captured: dict):
        self.logits = logits
        self._parts = (first_order, pairwise, deep)
        self.captured = captured

    @cached_property
    def predictions(self) -> np.ndarray:
        return sigmoid(self.logits)

    @cached_property
    def first_order_term(self) -> np.ndarray:
        return np.asarray(self._parts[0], dtype=np.float64)

    @cached_property
    def pairwise_term(self) -> np.ndarray:
        return np.asarray(self._parts[1], dtype=np.float64)

    @cached_property
    def deep_term(self) -> np.ndarray:
        return np.asarray(self._parts[2], dtype=np.float64)


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
    for j, h in enumerate(hidden_dims + [1]):
        hidden = j < len(hidden_dims)  # the last pass makes the head
        bound = 1.0 / np.sqrt(fan_in)
        mlp.append(DenseLayer(
            uniform(bound, (h, fan_in)), uniform(bound, (h,)),
            activation="relu" if hidden else "none",
            dropout_rate=dropout_rate if hidden else 0.0, dropout_site=hidden,
        ))
        fan_in = h
    return DeepFMModel(tables, first_order, mlp, int(n_continuous))


def _validate_batch(model: DeepFMModel, batch: FeatureBatch) -> None:
    """Rejects a batch the model cannot score: indices that are not an
    integer array or not (n, fields), continuous values that are not
    (n, n_continuous), no rows, or an index outside its field.  The range
    check reads the indices in their own dtype and makes no wider copy."""
    idx = batch.indices
    if idx.dtype.kind not in "iu":  # bool is kind "b"
        raise DataError(f"indices must be an integer array, got dtype {idx.dtype}")
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
    unsigned, tops = model.index_tops(idx.dtype)
    bad = idx.view(unsigned) > tops  # one comparison, in the batch's own width
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        raise DataError(
            f"field {i}: index range [{idx[:, i].min()}, {idx[:, i].max()}] "
            f"outside vocabulary of size {model.vocab[i]}"
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


def _projection_terms(weight, bias, dtype) -> tuple:
    """The fixed parts of the reduced-space pairwise term, from the packed
    projection ``weight`` (fields, dim, k) and ``bias`` (fields, dim).

    Returns the weights ``w`` and biases ``b`` in ``dtype`` (the packed
    arrays themselves when they already are), ``p_cat`` = [P_0 | P_1 | ...]
    (dim, fields * k), the block-diagonal ``gram`` of the P_i^T P_i
    (fields * k, fields * k), ``pb``, the concatenated P_i^T b_i
    (fields * k,), ``b_sum`` = sum_i b_i (dim,), ``b_sq`` = sum_i
    ||b_i||^2 and ``2 * pb``."""
    w = weight.astype(dtype, copy=False)
    b = bias.astype(dtype, copy=False)
    n_fields, dim, k = w.shape
    wt = w.transpose(0, 2, 1)
    p_cat = w.transpose(1, 0, 2).reshape(dim, n_fields * k)
    gram = np.zeros((n_fields, k, n_fields, k), dtype=dtype)
    diag = np.arange(n_fields)
    gram[diag, :, diag, :] = np.matmul(wt, w)
    pb = np.matmul(wt, b[:, :, None]).reshape(-1)
    gram = gram.reshape(n_fields * k, n_fields * k)
    return w, b, p_cat, gram, pb, b.sum(axis=0), (b * b).sum(), 2 * pb


def _pairwise_outputs(emb, proj, dtype) -> tuple:
    """Empty arrays for ``_pairwise_term`` to write the term of a gathered
    block ``emb`` into, in the dtypes its operations produce:
    ``(pairwise, s, gc, sq, gcb)``, with ``gc`` and ``gcb`` None without
    projections.  ``gcb`` is ``gc`` itself, so only an inference pass,
    which reads no ``gc`` afterwards, may use them."""
    n, n_fields, k = emb.shape
    if proj is None:
        return np.empty(n, emb.dtype), np.empty((n, k), emb.dtype), None, np.empty(n, emb.dtype), None
    ft = np.result_type(emb, dtype)
    gc = np.empty((n, n_fields * k), ft)
    return np.empty(n, ft), np.empty((n, proj[2].shape[0]), ft), gc, np.empty(n, ft), gc


def _pairwise_term(held, proj, out=(None,) * 5) -> tuple:
    """The pairwise term of the gathered (n, fields, dim) block that the
    one-item list ``held`` holds, with the ``s`` and ``gc`` (the reduced
    path's ``flat @ gram``, else None) that backward reads: ``(pairwise,
    s, gc)``.  The term takes the block out of ``held`` and lets it go
    after its last read, so a lane's worker holds it no longer than that.
    Each operation writes into its array of ``out`` (``_pairwise_outputs``),
    or into a new one where that is None, so the bits are the same either
    way; a lane's worker gets ``out``, so that it allocates no array of
    batch size, and a one-lane pass does not, since at a few rows an
    operation that writes over an input costs more than one that
    allocates."""
    pairwise, s, gc, sq, gcb = out
    emb = held.pop()
    flat = emb.reshape(emb.shape[0], -1)
    if proj is None:
        # s = sum_i e_i as one matmul with stacked identities
        s = np.matmul(flat, _stacked_identity(emb.shape[1], emb.shape[2], flat.dtype), s)
        sq = np.einsum("ij,ij->i", flat, flat, out=sq)
    else:
        # sum_i ||P_i c_i + b_i||^2 from the reduced c_i alone
        _, _, p_cat, gram, _, b_sum, b_sq, pb2 = proj
        s = np.add(np.matmul(flat, p_cat.T, s), b_sum, s)
        gc = np.matmul(flat, gram, gc)
        sq = np.add(np.einsum("ij,ij->i", np.add(gc, pb2, gcb), flat, out=sq), b_sq, sq)
    del flat, emb
    ss_sq = np.subtract(np.einsum("ij,ij->i", s, s, out=pairwise), sq, pairwise)
    return np.multiply(0.5, ss_sq, pairwise), s, gc


# A two-lane pass hands the pairwise term to a worker thread, which costs
# about 0.1 ms, so it gains only on larger batches.  Lane over serial
# time, medians of interleaved passes on the `serve` benchmark's base and
# afm models at one BLAS thread on 2 CPUs, three runs: base 1.03-1.04x at
# 384 rows, 0.94-0.95x at 512, 0.91-0.93x at 640 and 0.91-0.95x at 768;
# afm 1.06-1.29x, 1.01-1.09x, 0.96-1.01x and 0.91-0.98x.
LANE_MIN_ROWS = 768
# the variables OpenBLAS takes its thread count from, in the order it reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class _Job:
    """One call handed to the lane.  The worker drops the call, and with
    it the operands, before it wakes the caller; ``join`` waits for the
    call and raises what it raised."""

    __slots__ = ("call", "error", "done")

    def __init__(self, call):
        self.call, self.error, self.done = call, None, threading.Lock()
        self.done.acquire()

    def run(self) -> None:
        try:
            self.call()
        except BaseException as exc:  # re-raised by join
            self.error = exc
        self.call = None
        self.done.release()

    def join(self) -> None:
        self.done.acquire()
        if self.error is not None:
            raise self.error


def _serve_lane(jobs) -> None:
    while True:
        jobs.get().run()


def _new_lane() -> None:
    """Forget the lane's worker; the next two-lane pass starts one.  A
    forked child runs this, as it has no copy of its parent's thread."""
    global _jobs, _worker, _worker_lock
    _jobs, _worker, _worker_lock = queue.SimpleQueue(), None, threading.Lock()


_new_lane()
os.register_at_fork(after_in_child=_new_lane)


def _to_lane(call) -> _Job:
    """Hand ``call`` to the lane's one worker thread, started on first use."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = threading.Thread(
                target=_serve_lane, args=(_jobs,), name="lowrank_ctr.fm", daemon=True
            )
            _worker.start()
    job = _Job(call)
    _jobs.put(job)
    return job


def _blas_threads() -> tuple:
    """``(name, count)`` of the first of ``_BLAS_THREAD_VARS`` set to a
    positive count, the one OpenBLAS obeys, or ``(None, None)``."""
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return var, int(value)
    return None, None


def _two_lanes() -> bool:
    """Whether the host leaves a CPU idle for a second lane: the process
    may use two or more CPUs and BLAS is confined to one thread (with
    more, BLAS already spreads a product over the CPUs)."""
    return _blas_threads()[1] == 1 and len(os.sched_getaffinity(0)) >= 2


def runtime() -> dict:
    """How this process computes a pass: the numpy version, the BLAS
    thread setting that ``_two_lanes`` reads (``"NAME=count"``, or None
    when no variable sets it), the CPUs the process may use and whether an
    inference pass of ``LANE_MIN_ROWS`` rows or more runs on two lanes."""
    var, count = _blas_threads()
    return {"numpy": np.__version__, "blas_threads": var and f"{var}={count}",
            "cpus": len(os.sched_getaffinity(0)), "two_lanes": _two_lanes()}


def _run_layers(
    model, batch, capture, depth, take, mode="infer", rng=None, dropout_override=None,
    lane=False,
):
    """The walk of a pass over a validated batch: the packed row gather,
    the first-order and pairwise terms when the walk runs the head (depth
    ``len(model.mlp)``), then the MLP input and MLP layers 0 .. depth - 1.
    With ``lane`` set, the pairwise term is computed on the lane's worker
    thread while this thread runs the MLP, and the walk joins it before
    returning, also when a layer raises; an error of the term's comes out
    as it was raised.

    The outputs tapped in ``capture`` go to ``take(ids, block)`` as the
    pass computes them (see ``capture``); a block may be overwritten once
    ``take`` returns, as every relu runs in place.  The walk holds only
    what is still to be read: outside train mode the packed rows and the
    gathered block go once the terms and the first layer's product have
    read them, and each layer's input once its product returns, so past
    the first layer a pass holds two layer outputs at most.  In train mode
    the returned cache keeps what backward reads: ``rows``, ``emb``,
    ``proj`` (the first five projection terms, or None), ``fm_sum`` and
    ``gc`` (see ``_pairwise_term``) and each layer's ``(input, pre-activation,
    dropout mask)`` in ``layers``.

    Returns ``(cur, terms, cache)``: the output of layer depth - 1, the
    ``(first_order, pairwise)`` terms when the walk runs the head (else
    None) and the cache (None outside train mode).  At depth 0 no MLP
    input is built, and a walk that stops before the head ends at its last
    layer's pre-activation; ``cur`` is then meaningless."""
    idx = batch.indices
    n = idx.shape[0]
    dtype = model.mlp[0].weight.dtype
    train = mode == "train"

    # each field's item as a row of the packed arrays, in intp for any index dtype
    rows = np.add(idx, model.offsets, dtype=np.intp)
    if model.emb_rows is not None:
        emb = np.take(model.emb_rows, rows, axis=0)  # (n, fields, dim)
    else:
        emb = np.stack(
            [t.lookup(idx[:, i]) for i, t in enumerate(model.tt_tables)], axis=1
        )
    if capture:
        ids = [f"emb.{i}" if f"emb.{i}" in capture else None for i in range(model.n_fields)]
        if any(ids):
            take(ids, emb)
    if depth == 0:
        return None, None, None

    proj = None if model.proj_weight is None else model.projection_terms(dtype)
    terms = cache = pending = None
    if depth == len(model.mlp):
        if model.fm_enabled:
            fo = np.take(model.fo_rows, rows) @ model.ones
            if lane:
                out = _pairwise_outputs(emb, proj, dtype)
                # in a copy of this thread's context, so np.errstate holds there too
                pending = _to_lane(
                    partial(contextvars.copy_context().run, _pairwise_term, [emb], proj, out)
                )
                pairwise, s, gc = out[:3]
                del out
            else:
                pairwise, s, gc = _pairwise_term([emb], proj)
        else:
            fo, pairwise, s, gc = np.zeros(n, dtype=dtype), np.zeros(n, dtype=dtype), None, None
        terms = fo, pairwise
        if train:
            cache = {"rows": rows, "emb": emb, "proj": None if proj is None else proj[:5],
                     "fm_sum": s, "gc": gc, "layers": []}
        del s, gc
    x = emb.reshape(n, -1)  # the fields' embeddings side by side
    if proj is not None and not model.fused:
        w, b = proj[:2]
        full = np.matmul(emb.transpose(1, 0, 2), w.transpose(0, 2, 1))
        full += b[:, None, :]
        x = full.transpose(1, 0, 2).reshape(n, -1)
        del full
    if model.n_continuous:
        x = np.concatenate([x, batch.continuous], axis=1, dtype=dtype)
    cur = x
    del rows, emb, x  # the cache keeps them in train mode; ``cur`` holds the MLP input

    try:
        for j, layer in enumerate(model.mlp[:depth]):
            if cur.shape[1] != layer.weight.shape[1]:
                raise ShapeError(
                    f"mlp.{j} expects input width {layer.weight.shape[1]}, "
                    f"got {cur.shape[1]}"
                )
            z = cur @ layer.weight.T
            x_in, cur = (cur if train else None), z  # outside train mode, read no more
            z += layer.bias
            if capture and f"mlp.{j}" in capture:  # formats no name when capturing none
                take([f"mlp.{j}"], z[:, None, :])
            if j + 1 == depth < len(model.mlp):
                break
            # in place: relu(z) > 0 exactly where z > 0, all backward needs
            if layer.activation == "relu":
                np.maximum(z, 0, out=z)
            mask = None
            rate = _effective_dropout(layer, dropout_override) if train else 0.0
            if rate > 0.0:
                if rng is None:
                    raise ShapeError("training forward with dropout needs an rng")
                inv = dtype.type(1) / dtype.type(1.0 - rate)
                mask = (rng.random(z.shape) >= rate) * inv
                cur = z * mask
            if train:
                cache["layers"].append((x_in, z, mask))
    finally:
        if pending is not None:
            pending.join()  # raises what the pairwise term raised
    return cur, terms, cache


def _run_forward(
    model: DeepFMModel,
    batch: FeatureBatch,
    mode: str,
    capture,
    rng,
    dropout_override,
):
    if mode not in ("infer", "train"):
        raise ShapeError(f"mode must be 'infer' or 'train', got {mode!r}")
    # a layer's own rate is checked where the layer is made
    if dropout_override is not None and not 0.0 <= dropout_override < 1.0:
        raise ShapeError(f"dropout rate {dropout_override} outside [0, 1)")
    _validate_batch(model, batch)
    captured = {}
    take = None
    if capture:
        capture = set(capture)

        def take(ids, block):
            # copied: the pass may overwrite a block once take returns
            captured.update((tid, block[:, i].copy()) for i, tid in enumerate(ids) if tid)

    lane = mode == "infer" and batch.indices.shape[0] >= LANE_MIN_ROWS and _two_lanes()
    cur, (fo, pairwise), cache = _run_layers(
        model, batch, capture, len(model.mlp), take, mode, rng, dropout_override, lane
    )
    deep = cur[:, 0]
    logits = (fo + pairwise + deep).astype(np.float64)
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits in forward pass")
    return ForwardTrace(logits, fo, pairwise, deep, captured), cache


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
    layer j; each capture is a copy, taken as the pass computes it.
    Dropout fires only in train mode; ``dropout_override`` replaces the
    stored rate at dropout sites for this call.
    """
    return _run_forward(model, batch, mode, capture, rng, dropout_override)[0]


def capture(model: DeepFMModel, batch: FeatureBatch, tap_ids, take) -> None:
    """Hand the outputs at ``tap_ids`` (named as for ``forward``) of one
    inference pass to ``take(ids, block)`` as the pass computes them, and
    run the pass only as far as its last tap: with only ``emb.*`` taps no
    dense layer runs, and the first-order and pairwise terms run only when
    the head layer is tapped.

    When any ``emb.*`` tap is listed, ``take`` first gets the gathered
    (n, fields, dim) block, with ``ids`` naming each field's tap or None;
    then each tapped layer's pre-activation output as an (n, 1, width)
    block with ``ids`` ``[tap id]``.  Column i of a block is what
    ``forward`` captures at ``ids[i]``, bit for bit.  A block is the pass's
    own array and may be overwritten once ``take`` returns."""
    _validate_batch(model, batch)
    tap_ids = set(tap_ids)
    depth = 1 + max(
        (j for j in range(len(model.mlp)) if f"mlp.{j}" in tap_ids), default=-1
    )
    _run_layers(model, batch, tap_ids, depth, take)


def l2_penalty(model: DeepFMModel) -> float:
    """Sum of squared entries over every trainable tensor: one BLAS dot
    per array, in the array's dtype, and the dots summed as a Python
    float.  Training only logs it, as part of the loss; no gradient reads
    it (``compute_gradients`` adds ``2 * l2_ratio * p`` itself).  The
    per-field views keep each float32 dot short: on the synth model one
    dot over the packed table lands 37x further from the float64 sum
    (5.7e-7 against 1.6e-8 relative)."""
    total = 0.0
    for _, p in model.named_parameters():
        flat = p.ravel(order="K")  # a view, also of a table's transposed rows
        total += float(np.dot(flat, flat))
    return total


def loss_bce_l2(
    logits, labels, model: DeepFMModel | None = None, l2_ratio: float = 0.0
) -> float:
    """The training loss: mean BCE from logits plus ``l2_ratio`` times the
    model's summed squared weights (``l2_penalty``, one dot per array),
    when both are given.  The value is logged only; no gradient reads it."""
    loss = bce_from_logits(logits, labels)
    if l2_ratio and model is not None:
        loss += l2_ratio * l2_penalty(model)
    return loss


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


@dataclass(frozen=True, eq=False)
class TableGradient:
    """The gradient of a packed (rows, width) table, kept compact: the L2
    coefficient ``coef`` (2λ), the ``items`` a batch touched, ascending, and
    their summed row gradients ``sums`` (one row per item, in the table's
    dtype).  Its dense value is ``params * coef + 0.0`` with each touched
    row's sum added, read from ``params`` when it is built, so it is valid
    only until the parameters change.  ``block`` builds any flat stretch of
    it; reading it as an array (``np.asarray``, indexing) builds it
    whole."""

    params: np.ndarray
    coef: float
    items: np.ndarray
    sums: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.params.shape

    @property
    def dtype(self) -> np.dtype:
        return self.params.dtype

    def pad(self) -> int:
        """How many elements beyond a block's length ``block`` needs."""
        return 2 * (self.shape[1] - 1)

    def block(self, start: int, stop: int, buf: np.ndarray) -> np.ndarray:
        """Elements ``start:stop`` of the flattened dense gradient, built in
        ``buf`` (``stop - start + pad()`` elements) by the operations of a
        whole-table build in the same order: the rows the stretch overlaps
        are built whole and the stretch is cut out of them, so a row may
        straddle either end."""
        w = self.shape[1]
        first, end = start // w, -(-stop // w)
        rows = buf[: (end - first) * w].reshape(-1, w)
        np.multiply(self.params[first:end], self.coef, out=rows)
        rows += 0.0  # 0 + (2λ)p turns -0.0 into 0.0
        lo, hi = np.searchsorted(self.items, (first, end))
        rows[self.items[lo:hi] - first] += self.sums[lo:hi]
        return buf[start - first * w : stop - first * w]

    def __array__(self, dtype=None, copy=None):
        size = self.params.size
        dense = self.block(0, size, np.empty(size, self.dtype)).reshape(self.shape)
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __getitem__(self, key):
        return np.asarray(self)[key]

    def tobytes(self) -> bytes:
        return np.asarray(self).tobytes()


def _touched_rows(rows: np.ndarray, n_rows: int):
    """The distinct entries of ``rows`` (ints in [0, n_rows)) in ascending
    order, and each entry's index among them: ``np.unique`` with
    ``return_inverse``, by a mask instead of a sort."""
    touched = np.zeros(n_rows, dtype=bool)
    touched[rows] = True
    items = np.flatnonzero(touched)
    place = np.empty(n_rows, dtype=np.int64)
    place[items] = np.arange(len(items))
    return items, place[rows]


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
    maps each name of ``packed_parameters`` to the gradient of that array.
    Gradients flow through every head, the projections, and the embedding
    lookups (tensor-train cores included).  Each is an array of its
    parameter's shape and dtype, except the dense table's, a compact
    ``TableGradient``: the L2 coefficient, the rows the batch touched, in
    ascending order, and their sums (per field, one float64 ``bincount``
    cast to the table's dtype).  Its dense value reads the table, so it is
    valid only until the parameters change; ``Adam.step`` builds each block
    of it just before updating that block.  The backward pass frees each
    layer's forward cache as soon as it has used it.
    """
    y = np.asarray(labels, dtype=np.float64)
    trace, cache = _run_forward(model, batch, "train", (), rng, dropout_override)
    n = len(batch)
    if y.shape != (n,):
        raise ShapeError(f"labels must be ({n},), got {y.shape}")
    dtype = model.mlp[0].weight.dtype

    loss = loss_bce_l2(trace.logits, y, model, l2_ratio)

    grads = {}
    dlogit = ((trace.predictions - y) / n).astype(dtype)

    # MLP backward, freeing each layer's forward cache once it is used
    layers = cache.pop("layers")
    dx = dlogit[:, None]  # ends as the gradient w.r.t. the MLP input block
    for j in range(len(model.mlp) - 1, -1, -1):
        layer = model.mlp[j]
        x_in, z, mask = layers.pop()
        d = dx if mask is None else dx * mask
        if layer.activation == "relu":
            d = d * (z > 0)
        del z, mask
        grads[f"mlp.{j}.weight"] = d.T @ x_in
        grads[f"mlp.{j}.bias"] = d.sum(axis=0)
        del x_in
        dx = d @ layer.weight
        del d

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
        grads["proj_weight"], grads["proj_bias"] = g_w, g_b
        d_emb = d_flat.reshape(n, n_fields, k)
    del dx

    for i, table in enumerate(model.tt_tables):
        core_grads = _tt_lookup_grads(table, batch.indices[:, i], d_emb[:, i])
        for j, g in enumerate(core_grads):
            grads[f"emb.{i}.core.{j}"] = g.astype(dtype)

    if model.fo_rows is not None:
        grads["fo_rows"] = np.bincount(
            cache["rows"].ravel(),
            weights=np.repeat(dlogit.astype(np.float64), n_fields),
            minlength=model.fo_rows.shape[0],
        ).astype(dtype)

    if l2_ratio:  # to every gradient so far; the table's keeps it as ``coef``
        params = dict(model.packed_parameters())
        for name, g in grads.items():
            g += (2.0 * l2_ratio) * params[name]

    if model.emb_rows is not None:
        n_rows = len(model.emb_rows)
        items, slots = _touched_rows(cache["rows"], n_rows)
        starts = np.searchsorted(items, [*model.offsets, n_rows])
        sums = np.empty((len(items), k), dtype=model.emb_rows.dtype)
        for i in range(n_fields):
            lo, hi = starts[i], starts[i + 1]
            sums[lo:hi] = _scatter_rows(d_emb[:, i], slots[:, i] - lo, hi - lo)
        grads["emb_rows"] = TableGradient(model.emb_rows, float(2.0 * l2_ratio), items, sums)

    return loss, grads, trace


def param_count(model: DeepFMModel) -> dict:
    """Exact parameter tally per component, by ``named_parameters`` name."""
    kinds = {
        "emb": "embeddings", "proj": "projections", "fo": "first_order", "mlp": "mlp"
    }
    counts = dict.fromkeys(kinds.values(), 0)
    for name, p in model.named_parameters():
        counts[kinds[name.partition(".")[0]]] += p.size
    counts["total"] = sum(counts.values())
    return counts
