"""Low-rank compression operators for DeepFM models.

Three families, all producing the same target structure per component:

* output-PCA ("activation mimicking"): eigendecompose the covariance of a
  layer's calibration outputs, keep the top-k eigenvectors U_k, and split
  the layer so it reproduces U_k U_k^T (y - mean) + mean.
* plain SVD of the weights, in the identical shapes, so the two
  initializations are swappable; ``svd_split_fc`` also returns the
  weights' singular values.
* tensor-train factorization of embedding tables (rows = items), whose
  lookup rebuilds a batch's rows through one batched chain of core-slice
  products.

A dense layer splits into two stacked layers.  An embedding table is a
bias-free linear map of a one-hot item, so it is split by the same two
functions: layer A's weight becomes the reduced table and layer B becomes
the per-field projection back to full width.

Dense layers two and three of the MLP are the compressible ones: the first
layer reads the raw feature concatenation and the output head is a single
unit, so neither is split.  Projections of compressed embeddings can be
fused into the first dense layer, which then consumes reduced embeddings
directly; the pairwise-interaction path keeps using the projections.

Plans are computed in float64; applying a plan casts back to the model
dtype (float32).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, RankError, ShapeError
from .linalg import (
    TTCores,
    plan_tt_factors,
    svd_factors,
    svd_thin,
    sym_eigen,
    tt_decompose_matrix,
)
from .nn import (
    DeepFMModel,
    DenseLayer,
    EmbeddingTable,
    ProjectionLayer,
    TTEmbeddingTable,
)
from .stats import ActivationTap

# Most negative covariance eigenvalue we accept as rounding noise; anything
# below this is a real numerical problem in the calibration statistics.
_EIGEN_FLOOR = -1e-9

MLP_COMPRESSIBLE = (1, 2)  # hidden layers two and three, by mlp index


@dataclass(frozen=True)
class FcCompressionPlan:
    """Top-k output basis of one dense layer."""

    basis: np.ndarray  # (out_dim, k) eigenvector columns
    mean: np.ndarray  # (out_dim,) calibration mean
    eigenvalues: np.ndarray  # full spectrum, for reporting


@dataclass(frozen=True)
class EmbCompressionPlan:
    """Per-field top-k bases for embedding outputs, uniform rank."""

    bases: tuple  # per field (dim, k)
    means: tuple  # per field (dim,)
    eigenvalues: tuple  # per field full spectrum


def _clamped_eigen(cov: np.ndarray):
    eig = sym_eigen(cov)
    values = eig.eigenvalues
    if values.size and float(values.min()) < _EIGEN_FLOOR:
        raise NumericError(
            f"covariance has eigenvalue {values.min():.3e} below {_EIGEN_FLOOR:.0e}; "
            "calibration statistics are numerically unsound"
        )
    return np.maximum(values, 0.0), eig.eigenvectors


def _report_entry(k: int, before: int, after: int, spectrum: np.ndarray) -> dict:
    """Report entry of one split component; ``retained_fraction`` is the
    share of the spectrum's total mass held by its top k entries."""
    total = float(spectrum.sum())
    return {
        "rank": int(k),
        "params_before": int(before),
        "params_after": int(after),
        "retained_fraction": float(spectrum[:k].sum() / total) if total > 0 else 1.0,
    }


def afm_plan_fc(tap: ActivationTap, k: int) -> FcCompressionPlan:
    """Plan an output-PCA split of one dense layer from calibration taps."""
    acc = tap.accumulator
    if acc.n < acc.dim:
        raise RankError(
            f"tap {tap.layer_id}: {acc.n} samples for dimension {acc.dim}; "
            "need at least one sample per dimension"
        )
    k = int(k)
    if not 1 <= k <= acc.dim:
        raise RankError(f"rank {k} outside [1, {acc.dim}]")
    mean, cov = acc.covariance()
    values, vectors = _clamped_eigen(cov)
    return FcCompressionPlan(
        basis=vectors[:, :k],
        mean=mean,
        eigenvalues=values,
    )


def afm_split_fc(layer: DenseLayer, plan: FcCompressionPlan, insert_relu: bool = True):
    """Split one dense layer into the two-layer output-PCA form.

    Layer A maps inputs to the k-dimensional coefficient space with zero
    bias; layer B maps back with bias mean + U U^T (b - mean).  With
    ``insert_relu`` layer A gets a relu of its own (cheap extra
    nonlinearity; exactness at full rank requires it off).  Layer B keeps
    the original activation and dropout settings.
    """
    u = plan.basis
    m, n = layer.weight.shape
    if u.shape[0] != m:
        raise ShapeError(
            f"plan dimension {u.shape[0]} does not match layer output {m}"
        )
    w64 = layer.weight.astype(np.float64)
    b64 = layer.bias.astype(np.float64)
    bias_b = plan.mean + u @ (u.T @ (b64 - plan.mean))
    return _split_layers(layer, u.T @ w64, u, bias_b, insert_relu)


def _split_layers(layer: DenseLayer, inner, outer, bias_b, insert_relu: bool):
    """Layer A holds ``inner`` with zero bias, and a relu of its own when
    ``insert_relu``; layer B holds ``outer`` and ``bias_b`` with the original
    activation and dropout.  Weights are cast to the layer's dtype, row-major
    as a checkpoint reload stores them."""
    dtype = layer.weight.dtype
    layer_a = DenseLayer(inner.astype(dtype), np.zeros(inner.shape[0], dtype=dtype),
                         "relu" if insert_relu else "none")
    layer_b = replace(layer, weight=outer.astype(dtype, order="C"), bias=bias_b.astype(dtype))
    return layer_a, layer_b


def svd_split_fc(layer: DenseLayer, k: int, insert_relu: bool = True):
    """Split one dense layer using an SVD of its weights.

    Same target shapes as the output-PCA split: layer A holds
    sqrt(S_k) V_k^T with zero bias, layer B holds U_k sqrt(S_k) with the
    original bias.  Returns (layer A, layer B, the weights' singular
    values); a rank outside [1, min(out, in)] raises RankError.
    """
    res = svd_thin(layer.weight.astype(np.float64))
    m1, m2 = svd_factors(res, k)
    layer_a, layer_b = _split_layers(layer, m2, m1, layer.bias, insert_relu)
    return layer_a, layer_b, res.singular_values


def compress_mlp(
    model: DeepFMModel,
    k: int,
    method: str = "afm",
    taps: dict | None = None,
    insert_relu: bool = True,
) -> dict:
    """Split hidden layers two and three of the MLP, in place.

    ``method`` is "afm" (needs ``taps`` mapping "mlp.<j>" to calibration
    taps) or "svd".  Returns a report fragment with per-layer spectra and
    parameter deltas.
    """
    if len(model.mlp) != 4:
        raise ShapeError(
            "MLP compression expects three hidden layers plus the output "
            f"head, got {len(model.mlp)} layers"
        )
    detail = {}
    new_mlp = []
    for j, layer in enumerate(model.mlp):
        if j not in MLP_COMPRESSIBLE:
            new_mlp.append(layer)
            continue
        before = layer.weight.size + layer.bias.size
        if method == "afm":
            if taps is None or f"mlp.{j}" not in taps:
                raise RankError(f"afm compression needs a tap for mlp.{j}")
            plan = afm_plan_fc(taps[f"mlp.{j}"], k)
            la, lb = afm_split_fc(layer, plan, insert_relu)
            spectrum = plan.eigenvalues
        elif method == "svd":
            la, lb, sigma = svd_split_fc(layer, k, insert_relu)
            spectrum = sigma**2
        else:
            raise RankError(f"unknown mlp compression method {method!r}")
        after = la.weight.size + la.bias.size + lb.weight.size + lb.bias.size
        detail[f"mlp.{j}"] = _report_entry(k, before, after, spectrum)
        new_mlp.extend([la, lb])
    model.mlp = new_mlp
    return detail


def afm_plan_embedding(taps, k: int) -> EmbCompressionPlan:
    """Plan per-field output-PCA reductions from embedding taps.

    ``taps`` is the per-field list of calibration taps in field order; a
    single uniform rank applies across fields.  Each field is planned as
    :func:`afm_plan_fc` plans a dense layer.
    """
    plans = [afm_plan_fc(tap, k) for tap in taps]
    return EmbCompressionPlan(
        tuple(p.basis for p in plans),
        tuple(p.mean for p in plans),
        tuple(p.eigenvalues for p in plans),
    )


def check_plain_tables(model: DeepFMModel) -> None:
    """Raise ShapeError unless every table of ``model`` is plain and dense."""
    if model.projections is not None or model.fused:
        raise ShapeError("embedding tables are already compressed")
    for i, table in enumerate(model.tables):
        if isinstance(table, TTEmbeddingTable):
            raise ShapeError(f"field {i} already holds tensor-train cores")


def _table_layer(table: EmbeddingTable) -> DenseLayer:
    """The table as the bias-free linear map of a one-hot item; the weight
    is the table's own array, not a copy."""
    return DenseLayer(table.weights, np.zeros(table.dim, table.weights.dtype), "none")


def _install_projections(model: DeepFMModel, parts: list) -> dict:
    """Swap each table for layer A's weight as its reduced table and layer
    B as its projection back to full width, in place.  ``parts`` holds per
    field the triple (layer A, layer B, spectrum) of the table's split;
    the counts leave out the zero biases of the table and of layer A."""
    detail = {}
    for i, (table, (la, lb, spectrum)) in enumerate(zip(model.tables, parts)):
        after = la.weight.size + lb.weight.size + lb.bias.size
        detail[f"emb.{i}"] = _report_entry(
            la.weight.shape[0], table.weights.size, after, spectrum
        )
    model.tables = [EmbeddingTable(la.weight) for la, _, _ in parts]
    model.projections = [ProjectionLayer(lb.weight, lb.bias) for _, lb, _ in parts]
    return detail


def afm_apply_embedding(model: DeepFMModel, plan: EmbCompressionPlan) -> dict:
    """Reduce every embedding table to k rows and add projections, in place.

    Each table is split by :func:`afm_split_fc` as a bias-free layer:
    table i becomes U_k^T D (k x vocab); the projection weight is U_k and
    its bias (I - U_k U_k^T) mean keeps the reconstruction centered on the
    calibration distribution.
    """
    if len(plan.bases) != model.n_fields:
        raise ShapeError(
            f"plan covers {len(plan.bases)} fields, model has {model.n_fields}"
        )
    check_plain_tables(model)
    parts = []
    for table, u, mean, values in zip(
        model.tables, plan.bases, plan.means, plan.eigenvalues
    ):
        field_plan = FcCompressionPlan(u, mean, values)
        la, lb = afm_split_fc(_table_layer(table), field_plan, insert_relu=False)
        parts.append((la, lb, values))
    return _install_projections(model, parts)


def svd_compress_embedding(model: DeepFMModel, k: int) -> dict:
    """Reduce embedding tables via SVD of the weights, in place.

    Each table is split by :func:`svd_split_fc` as a bias-free layer, so
    the shapes match the output-PCA variant; the projection bias is zero
    because plain SVD carries no mean information.
    """
    check_plain_tables(model)
    parts = []
    for table in model.tables:
        la, lb, sigma = svd_split_fc(_table_layer(table), k, insert_relu=False)
        parts.append((la, lb, sigma**2))
    return _install_projections(model, parts)


def tt_compress_embedding(model: DeepFMModel, max_rank: int, n_cores: int = 3) -> dict:
    """Replace embedding tables with tensor-train cores, in place.

    Each table is transposed to (vocab, dim) so rows are items, padded up
    to the factor products that :func:`plan_tt_factors` picks for its
    vocabulary and width over ``n_cores`` cores, and decomposed with bond
    ranks capped at ``max_rank``.  The cores keep the table's dtype.
    Lookups after this rebuild each batch's rows through the core chain.
    """
    check_plain_tables(model)
    detail = {}
    new_tables = []
    for i, table in enumerate(model.tables):
        rf = plan_tt_factors(table.vocab, n_cores)
        cf = plan_tt_factors(table.dim, n_cores)
        dtype = table.weights.dtype
        cores = tt_decompose_matrix(
            table.weights.astype(np.float64).T, rf, cf, max_rank=max_rank
        )
        cast = TTCores(tuple(c.astype(dtype) for c in cores.cores))
        new_tables.append(TTEmbeddingTable(cast, table.vocab, table.dim))
        detail[f"emb.{i}"] = {
            "max_rank": int(max_rank),
            "ranks": list(cores.ranks),
            "row_factors": list(cores.row_factors),
            "col_factors": list(cores.col_factors),
            "params_before": int(table.weights.size),
            "params_after": int(cast.param_count()),
        }
    model.tables = new_tables
    return detail


def fuse_projection_into_first_fc(model: DeepFMModel) -> None:
    """Absorb the per-field projections into the first dense layer.

    Block i of the first layer's weight is right-multiplied by projection
    weight i, and the projection biases fold into the layer bias through
    their blocks.  After fusing, the MLP consumes reduced embeddings
    directly; the projections stay on the model for the pairwise term.
    """
    if model.projections is None:
        raise ShapeError("model has no projections to fuse")
    if model.fused:
        raise ShapeError("projections are already fused")
    first = model.mlp[0]
    t = model.embed_dim
    d = model.n_fields
    expect = d * t + model.n_continuous
    if first.weight.shape[1] != expect:
        raise ShapeError(
            f"first layer width {first.weight.shape[1]} != expected {expect}"
        )
    dtype = first.weight.dtype
    w64 = first.weight.astype(np.float64)
    b64 = first.bias.astype(np.float64)
    blocks = []
    for i, proj in enumerate(model.projections):
        wb = w64[:, i * t : (i + 1) * t]
        blocks.append(wb @ proj.weight.astype(np.float64))
        b64 = b64 + wb @ proj.bias.astype(np.float64)
    if model.n_continuous:
        blocks.append(w64[:, d * t :])
    new_w = np.concatenate(blocks, axis=1)
    model.mlp[0] = replace(first, weight=new_w.astype(dtype), bias=b64.astype(dtype))
    model.fused = True


def compression_report(
    method: str, detail: dict, params_before: dict, params_after: dict
) -> dict:
    """Assemble the JSON-ready report for one compression step."""
    return {
        "method": method,
        "components": detail,
        "params_before": params_before,
        "params_after": params_after,
        "compression_ratio": (
            params_before["total"] / params_after["total"]
            if params_after["total"]
            else float("inf")
        ),
    }


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
