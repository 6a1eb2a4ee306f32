"""Independent float64 reference for the benchmark's correctness checks.

Nothing here imports ``lowrank_ctr``.  The checkpoint reader follows the
documented ``.lrck`` layout (magic, little-endian u64 manifest length, JSON
manifest, float32 payload); the forward pass spells the DeepFM out term by
term: first-order weights, the pairwise term as dot products over field
pairs i < j, and the MLP.  Tensor-train rows are rebuilt with one einsum
chain over the whole batch.

Besides the logits, ``forward`` returns a per-row bound on the error of a
float32 evaluation of the same model.  It is the classical first-order
bound for sums of products, K * u * A, where u = 2**-24 is float32's unit
roundoff, K the longest chain of additions a logit goes through, and A the
same computation carried out on absolute values (so no cancellation can
hide rounding).  ReLU is monotone and 1-Lipschitz, so absolute values pass
through it unchanged.  A factor of two covers second-order terms and the
rounding of the inputs themselves.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"LRCK1\n"
U32 = 2.0**-24


@dataclass
class RefModel:
    topology: dict
    tensors: dict  # name -> float32 array, exactly as stored


def read_checkpoint(path) -> RefModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: bad magic")
    (length,) = struct.unpack_from("<Q", blob, len(MAGIC))
    start = len(MAGIC) + 8
    manifest = json.loads(blob[start : start + length].decode("utf-8"))
    payload = memoryview(blob)[start + length :]
    tensors = {}
    for entry in manifest["tensors"]:
        if entry["dtype"] != "f32":
            raise ValueError(f"{path}: unexpected dtype {entry['dtype']}")
        lo = entry["offset"]
        flat = np.frombuffer(payload[lo : lo + entry["nbytes"]], dtype="<f4")
        tensors[entry["name"]] = flat.reshape(entry["shape"]).copy()
    return RefModel(manifest["topology"], tensors)


def tt_rows(cores, row_factors, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of the matrix a tensor-train encodes, for a whole batch.

    Core j has shape (r_j, n_j, m_j, r_{j+1}); the row index splits into
    digits over ``row_factors`` (first digit most significant) and the
    column index into digits over the m_j in the same order.
    """
    digits = []
    rest = np.asarray(idx, dtype=np.int64)
    for f in reversed(row_factors):
        digits.append(rest % f)
        rest = rest // f
    digits.reverse()
    acc = cores[0][0][digits[0]]  # (batch, m_0, r_1)
    for core, dig in zip(cores[1:], digits[1:]):
        piece = core.transpose(1, 0, 2, 3)[dig]  # (batch, r, m, r')
        acc = np.einsum("bxr,brmy->bxmy", acc, piece)
        acc = acc.reshape(acc.shape[0], -1, acc.shape[-1])
    return acc[:, :, 0]


def _fields(model: RefModel, indices: np.ndarray, absolute: bool):
    """Per-field raw embedding rows (float64), optionally on |weights|."""
    topo, t = model.topology, model.tensors
    out = []
    for i, spec in enumerate(topo["fields"]):
        col = indices[:, i]
        if spec["kind"] == "tt":
            n_cores = len(spec["ranks"]) - 1
            cores = [t[f"emb.{i}.core.{j}"].astype(np.float64) for j in range(n_cores)]
            if absolute:
                cores = [np.abs(c) for c in cores]
            rows = tt_rows(cores, spec["row_factors"], col)[:, : spec["dim"]]
        else:
            table = t[f"emb.{i}.weight"].astype(np.float64)  # (dim, vocab)
            rows = (np.abs(table) if absolute else table)[:, col].T
        out.append(rows)
    return out


def _chain_length(model: RefModel) -> int:
    """Longest run of float32 additions that feeds one logit."""
    topo, t = model.topology, model.tensors
    emb = 0
    for spec in topo["fields"]:
        if spec["kind"] == "tt":
            emb = max(emb, sum(spec["ranks"]))
    proj = 0
    if topo["has_projections"]:
        proj = max(t[f"proj.{i}.weight"].shape[1] for i in range(len(topo["fields"]))) + 1
    n_fields = len(topo["fields"])
    pairwise = n_fields * topo["embed_dim"] + n_fields
    deep = sum(t[f"mlp.{j}.weight"].shape[1] + 1 for j in range(len(topo["mlp"])))
    return emb + proj + max(pairwise, deep) + 3


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return 0.5 * (1.0 + np.tanh(0.5 * z))
    return z


def _logits(model: RefModel, indices: np.ndarray, continuous: np.ndarray, absolute: bool):
    topo, t = model.topology, model.tensors
    n_fields = len(topo["fields"])
    mag = np.abs if absolute else (lambda a: a)
    raw = _fields(model, indices, absolute)
    if topo["has_projections"]:
        full = [
            r @ mag(t[f"proj.{i}.weight"].astype(np.float64)).T
            + mag(t[f"proj.{i}.bias"].astype(np.float64))
            for i, r in enumerate(raw)
        ]
    else:
        full = raw

    n = indices.shape[0]
    first = np.zeros(n)
    pairwise = np.zeros(n)
    if topo["fm_enabled"]:
        if topo["has_first_order"]:
            for i in range(n_fields):
                first += mag(t[f"fo.{i}.weight"].astype(np.float64))[indices[:, i]]
        if absolute:
            # a float32 evaluation may form 0.5 (||sum e||^2 - sum ||e||^2);
            # both halves are rounded before they cancel
            total = sum(full)
            pairwise = 0.5 * (np.einsum("nd,nd->n", total, total)
                              + sum(np.einsum("nd,nd->n", e, e) for e in full))
        else:
            for i in range(n_fields):
                for j in range(i + 1, n_fields):
                    pairwise += np.einsum("nd,nd->n", full[i], full[j])

    blocks = raw if topo["fused"] else full
    x = np.concatenate(blocks + [mag(continuous.astype(np.float64))], axis=1)
    for j, spec in enumerate(topo["mlp"]):
        w = mag(t[f"mlp.{j}.weight"].astype(np.float64))
        b = mag(t[f"mlp.{j}.bias"].astype(np.float64))
        z = x @ w.T + b
        x = z if absolute else _activate(z, spec["activation"])
    return first + pairwise + x[:, 0]


def forward(model: RefModel, indices, continuous=None):
    """Float64 logits and a per-row bound on a float32 evaluation's error."""
    indices = np.asarray(indices, dtype=np.int64)
    if continuous is None:
        continuous = np.zeros((indices.shape[0], 0))
    logits = _logits(model, indices, continuous, absolute=False)
    scale = _logits(model, indices, continuous, absolute=True)
    bound = 2.0 * _chain_length(model) * U32 * scale
    return logits, bound


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=np.float64)))


def rank_sum_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC; tied scores share their average rank."""
    y = np.asarray(labels).astype(bool)
    s = np.asarray(scores, dtype=np.float64)
    uniq, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg_rank = upper - (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_tolerance(labels: np.ndarray, logits: np.ndarray, bound: np.ndarray) -> float:
    """Largest AUC change that per-row logit errors within ``bound`` allow.

    Only a (positive, negative) pair whose logits lie within the sum of
    their bounds can change order; each such pair moves the AUC by at most
    1 / (n_pos * n_neg).
    """
    y = np.asarray(labels).astype(bool)
    reach = 2.0 * float(bound.max())
    neg = np.sort(logits[~y])
    pos = logits[y]
    near = np.searchsorted(neg, pos + reach, side="right") - np.searchsorted(
        neg, pos - reach, side="left"
    )
    return float(near.sum()) / (pos.size * neg.size)


def logloss(labels: np.ndarray, probs: np.ndarray) -> float:
    """Mean cross entropy with probabilities clamped to [1e-7, 1 - 1e-7]."""
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-7, 1.0 - 1e-7)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def auc_null_sd(n_pos: int, n_neg: int) -> float:
    """Standard deviation of the AUC of scores unrelated to the labels."""
    return float(np.sqrt((n_pos + n_neg + 1) / (12.0 * n_pos * n_neg)))
