"""Low-rank compression operators for DeepFM models.

Three families, all producing the same target structure per component:

* output-PCA ("activation mimicking"): eigendecompose the covariance of a
  layer's calibration outputs, keep the top-k eigenvectors U_k, and split
  the layer so it reproduces U_k U_k^T (y - mean) + mean.  Applied to a
  dense layer this gives two stacked layers; applied to an embedding table
  it gives a reduced table plus a per-field projection back to full width.
* plain SVD of the weights, arranged into the identical two-layer /
  table-plus-projection shapes, so the two initializations are swappable.
* tensor-train factorization of embedding tables (rows = items), whose
  lookup rebuilds a batch's rows through one batched chain of core-slice
  products.

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
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, RankError, ShapeError
from .linalg import (
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

    layer_id: str
    basis: np.ndarray  # (out_dim, k) eigenvector columns
    mean: np.ndarray  # (out_dim,) calibration mean
    eigenvalues: np.ndarray  # full spectrum, for reporting

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class EmbCompressionPlan:
    """Per-field top-k bases for embedding outputs, uniform rank."""

    bases: tuple  # per field (dim, k)
    means: tuple  # per field (dim,)
    eigenvalues: tuple  # per field full spectrum

    @property
    def rank(self) -> int:
        return self.bases[0].shape[1]


def _clamped_eigen(cov: np.ndarray):
    eig = sym_eigen(cov)
    values = eig.eigenvalues
    if values.size and float(values.min()) < _EIGEN_FLOOR:
        raise NumericError(
            f"covariance has eigenvalue {values.min():.3e} below {_EIGEN_FLOOR:.0e}; "
            "calibration statistics are numerically unsound"
        )
    return np.maximum(values, 0.0), eig.eigenvectors


def _check_rank(k: int, dim: int) -> int:
    k = int(k)
    if not 1 <= k <= dim:
        raise RankError(f"rank {k} outside [1, {dim}]")
    return k


def _retained_fraction(spectrum: np.ndarray, k: int) -> float:
    """Share of the spectrum's total mass held by its top k entries."""
    total = float(spectrum.sum())
    return float(spectrum[:k].sum() / total) if total > 0 else 1.0


def afm_plan_fc(tap: ActivationTap, k: int) -> FcCompressionPlan:
    """Plan an output-PCA split of one dense layer from calibration taps."""
    acc = tap.accumulator
    if acc.n < acc.dim:
        raise RankError(
            f"tap {tap.layer_id}: {acc.n} samples for dimension {acc.dim}; "
            "need at least one sample per dimension"
        )
    k = _check_rank(k, acc.dim)
    mean, cov = acc.covariance()
    values, vectors = _clamped_eigen(cov)
    return FcCompressionPlan(
        layer_id=tap.layer_id,
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
    activation and dropout.  Weights are cast to the layer's dtype."""
    dtype = layer.weight.dtype
    layer_a = DenseLayer(
        inner.astype(dtype),
        np.zeros(inner.shape[0], dtype=dtype),
        activation="relu" if insert_relu else "none",
        dropout_rate=0.0,
        dropout_site=False,
    )
    layer_b = DenseLayer(
        outer.astype(dtype),
        bias_b.astype(dtype),
        activation=layer.activation,
        dropout_rate=layer.dropout_rate,
        dropout_site=layer.dropout_site,
    )
    return layer_a, layer_b


def svd_split_fc(layer: DenseLayer, k: int, insert_relu: bool = True):
    """Split one dense layer using an SVD of its weights.

    Same target shapes as the output-PCA split: layer A holds
    sqrt(S_k) V_k^T with zero bias, layer B holds U_k sqrt(S_k) with the
    original bias.
    """
    return _svd_split_fc(layer, k, insert_relu)[:2]


def _svd_split_fc(layer: DenseLayer, k: int, insert_relu: bool):
    """:func:`svd_split_fc`, also returning the weights' singular values."""
    k = _check_rank(k, min(layer.weight.shape))
    res = svd_thin(layer.weight.astype(np.float64))
    m1, m2 = svd_factors(res, k)
    layer_a, layer_b = _split_layers(layer, m2, m1, layer.bias, insert_relu)
    return layer_a, layer_b, res.singular_values


def _compressible_mlp_indices(model: DeepFMModel) -> tuple:
    if len(model.mlp) != 4:
        raise ShapeError(
            "MLP compression expects three hidden layers plus the output "
            f"head, got {len(model.mlp)} layers"
        )
    return MLP_COMPRESSIBLE


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
    indices = _compressible_mlp_indices(model)
    detail = {}
    new_mlp = []
    for j, layer in enumerate(model.mlp):
        if j not in indices:
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
            la, lb, sigma = _svd_split_fc(layer, k, insert_relu)
            spectrum = sigma**2
        else:
            raise RankError(f"unknown mlp compression method {method!r}")
        after = la.weight.size + la.bias.size + lb.weight.size + lb.bias.size
        detail[f"mlp.{j}"] = {
            "rank": int(k),
            "params_before": int(before),
            "params_after": int(after),
            "retained_fraction": _retained_fraction(spectrum, k),
        }
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


def _check_plain_tables(model: DeepFMModel) -> None:
    if model.projections is not None or model.fused:
        raise ShapeError("embedding tables are already compressed")
    for i, table in enumerate(model.tables):
        if isinstance(table, TTEmbeddingTable):
            raise ShapeError(f"field {i} already holds tensor-train cores")


def _install_projections(model: DeepFMModel, parts: list) -> dict:
    """Swap each table for its reduced weights plus a projection back to
    full width, in place.  ``parts`` holds per field the float64 tuple
    (reduced table, projection weight, projection bias, spectrum)."""
    detail = {}
    new_tables = []
    projections = []
    for i, (table, (reduced, weight, bias, spectrum)) in enumerate(
        zip(model.tables, parts)
    ):
        dtype = table.weights.dtype
        new_tables.append(EmbeddingTable(reduced.astype(dtype)))
        projections.append(ProjectionLayer(weight.astype(dtype), bias.astype(dtype)))
        k = weight.shape[1]
        detail[f"emb.{i}"] = {
            "rank": int(k),
            "params_before": int(table.weights.size),
            "params_after": int(reduced.size + weight.size + bias.size),
            "retained_fraction": _retained_fraction(spectrum, k),
        }
    model.tables = new_tables
    model.projections = projections
    return detail


def afm_apply_embedding(model: DeepFMModel, plan: EmbCompressionPlan) -> dict:
    """Reduce every embedding table to k rows and add projections, in place.

    Table i becomes U_k^T D (k x vocab); the projection weight is U_k and
    its bias (I - U_k U_k^T) mean keeps the reconstruction centered on the
    calibration distribution.
    """
    if len(plan.bases) != model.n_fields:
        raise ShapeError(
            f"plan covers {len(plan.bases)} fields, model has {model.n_fields}"
        )
    _check_plain_tables(model)
    parts = []
    for i, (table, u, mean) in enumerate(zip(model.tables, plan.bases, plan.means)):
        if u.shape[0] != table.dim:
            raise ShapeError(
                f"field {i}: plan dimension {u.shape[0]} vs table dim {table.dim}"
            )
        reduced = u.T @ table.weights.astype(np.float64)
        parts.append((reduced, u, mean - u @ (u.T @ mean), plan.eigenvalues[i]))
    return _install_projections(model, parts)


def svd_compress_embedding(model: DeepFMModel, k: int) -> dict:
    """Reduce embedding tables via SVD of the weights, in place.

    Identical target shapes to the output-PCA variant; the projection bias
    is zero because plain SVD carries no mean information.
    """
    _check_plain_tables(model)
    parts = []
    for table in model.tables:
        k_i = _check_rank(k, min(table.dim, table.vocab))
        res = svd_thin(table.weights.astype(np.float64))
        m1, m2 = svd_factors(res, k_i)
        parts.append((m2, m1, np.zeros(table.dim), res.singular_values**2))
    return _install_projections(model, parts)


def tt_compress_embedding(
    model: DeepFMModel,
    max_rank: int,
    factor_plans: list | None = None,
    n_cores: int = 3,
) -> dict:
    """Replace embedding tables with tensor-train cores, in place.

    Each table is transposed to (vocab, dim) so rows are items, padded up
    to the factor products, and decomposed.  ``factor_plans`` optionally
    gives (row_factors, col_factors) per field; otherwise near-balanced
    factorizations are derived.  Lookups after this rebuild each batch's
    rows through the core chain.
    """
    _check_plain_tables(model)
    detail = {}
    new_tables = []
    for i, table in enumerate(model.tables):
        if factor_plans is not None:
            rf, cf = factor_plans[i]
        else:
            rf = plan_tt_factors(table.vocab, n_cores)
            cf = plan_tt_factors(table.dim, n_cores)
        dtype = table.weights.dtype
        cores = tt_decompose_matrix(
            table.weights.astype(np.float64).T, rf, cf, max_rank=max_rank
        )
        cast = type(cores)(
            tuple(c.astype(dtype) for c in cores.cores),
            cores.row_factors,
            cores.col_factors,
            cores.ranks,
        )
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
    model.mlp[0] = DenseLayer(
        new_w.astype(dtype),
        b64.astype(dtype),
        activation=first.activation,
        dropout_rate=first.dropout_rate,
        dropout_site=first.dropout_site,
    )
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
