"""Training, calibration, fine-tuning and the compression pipeline.

The optimizer is Adam with decoupled weight decay: with bias-corrected
moments m_hat and v_hat,

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)

where the decay term reads the pre-update parameter.  The training loss is
mean binary cross entropy from logits plus ``l2_ratio`` times the summed
squared weights; the decay and the loss penalty are configured
independently and both active by default.

A pipeline is a stage list: ``train_baseline``, ``calibrate``,
``compress``, ``finetune``, ``eval``.  ``validate_pipeline`` holds its
protocol, which ``config.load_config`` checks before any data is built:
``train_baseline`` comes first, every compress stage has exactly one
finetune directly after it, and a compress stage whose ``METHODS`` entry
reads calibration statistics has a calibrate stage directly before it
(eval stages are transparent to the last two rules).  Each stage reaches
its handler filled by ``config.fill_stage``: every setting present and
converted, a training stage's as one ``TrainConfig`` under ``"train"``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import compress as comp
from .checkpoint import save_checkpoint
from .data import ClickDataset, SynthSpec, load_tsv, split, synth_generate
from .errors import ConfigError, DataError, RankError
from .metrics import MetricReport, auc, evaluate_scores, logloss
from .nn import (
    DeepFMModel,
    bce_from_logits,
    compute_gradients,
    forward,
    init_deepfm,
    l2_penalty,
    param_count,
)
from .stats import ActivationTap


class Adam:
    """Adam with decoupled weight decay; state lives per parameter name.

    Each step updates every parameter in place through two scratch
    buffers shared by all parameters, so a step allocates nothing once the
    buffers have grown to the largest parameter."""

    def __init__(
        self,
        learning_rate: float,
        weight_decay: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.state = {}
        self._scratch = {}  # dtype -> two flat buffers

    def _buffers(self, params) -> dict:
        for dtype in {p.dtype for _, p in params}:
            size = max(p.size for _, p in params if p.dtype == dtype)
            held = self._scratch.get(dtype)
            if held is None or held[0].size < size:
                self._scratch[dtype] = (np.empty(size, dtype), np.empty(size, dtype))
        return self._scratch

    def step(self, named_params, grads: dict) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        params = list(named_params)
        scratch = self._buffers(params)
        for name, p in params:
            g = grads[name]
            if name not in self.state:
                self.state[name] = (np.zeros_like(p), np.zeros_like(p))
            m, v = self.state[name]
            a, u = (_laid_out_like(buf, p) for buf in scratch[p.dtype])
            # the same operations, in the same order, as
            #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            #   p -= lr ((m / c1) / (sqrt(v / c2) + eps) + wd p)
            np.multiply(g, 1.0 - self.beta1, out=a)
            m *= self.beta1
            m += a
            np.multiply(g, g, out=a)
            a *= 1.0 - self.beta2
            v *= self.beta2
            v += a
            np.divide(m, c1, out=u)
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            u /= a
            if self.weight_decay:
                np.multiply(p, self.weight_decay, out=a)
                u += a
            u *= self.lr
            p -= u


def _laid_out_like(buf: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The first ``p.size`` entries of ``buf`` as an array with ``p``'s shape
    and memory order (column-major for the transposed table views)."""
    head = buf[: p.size]
    if p.flags.f_contiguous and not p.flags.c_contiguous:
        return head.reshape(p.shape[::-1]).T
    return head.reshape(p.shape)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 1000
    epochs: int = 1
    l2_ratio: float = 1e-5
    weight_decay: float = 1e-3
    dropout: float | None = None  # override at dropout sites; None keeps stored
    seed: int = 0

    def __post_init__(self):
        """Convert each setting to its type and check the ranges; a value
        of the wrong kind raises TypeError or ValueError."""
        self.learning_rate = float(self.learning_rate)
        self.batch_size = int(self.batch_size)
        self.epochs = int(self.epochs)
        self.l2_ratio = float(self.l2_ratio)
        self.weight_decay = float(self.weight_decay)
        if self.dropout is not None:
            self.dropout = float(self.dropout)
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")


def loss_bce_l2(logits, labels, model: DeepFMModel | None = None, l2_ratio: float = 0.0) -> float:
    """Mean BCE from logits plus the optional squared-weight penalty."""
    loss = bce_from_logits(logits, labels)
    if l2_ratio and model is not None:
        loss += l2_ratio * l2_penalty(model)
    return loss


def predict(model: DeepFMModel, dataset: ClickDataset, batch_size: int = 10000) -> np.ndarray:
    """Clean inference scores over a dataset (no dropout, float64)."""
    n = len(dataset)
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, batch_size):
        sel = slice(start, min(start + batch_size, n))
        trace = forward(model, dataset.batch(sel), mode="infer")
        out[sel] = trace.predictions
    return out


def evaluate_model(
    model: DeepFMModel, dataset: ClickDataset, batch_size: int = 10000
) -> MetricReport:
    return evaluate_scores(dataset.labels, predict(model, dataset, batch_size))


def _append_metrics(path, row: dict) -> None:
    if path is None:
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def train(
    model: DeepFMModel,
    dataset: ClickDataset,
    cfg: TrainConfig,
    test_dataset: ClickDataset | None = None,
    metrics_path=None,
    stage: str = "train",
) -> list:
    """Train in place; returns one metrics row per epoch.

    Train AUC/LogLoss come from the predictions the training passes
    produced (dropout active, parameters evolving), which costs nothing
    extra; test metrics are clean inference passes.
    """
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(cfg.learning_rate, cfg.weight_decay)
    n = len(dataset)
    rows = []
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        preds = np.empty(n, dtype=np.float64)
        running_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            batch = dataset.batch(sel)
            labels = dataset.labels[sel]
            loss, grads, trace = compute_gradients(
                model,
                batch,
                labels,
                l2_ratio=cfg.l2_ratio,
                rng=rng,
                dropout_override=cfg.dropout,
            )
            opt.step(model.named_parameters(), grads)
            del grads  # freed before the next step allocates its own
            preds[start : start + cfg.batch_size] = trace.predictions
            running_loss += loss * len(sel)
        row = {
            "stage": stage,
            "epoch": epoch,
            "train_loss": running_loss / n,
            "train_auc": auc(dataset.labels[order], preds),
            "train_logloss": logloss(dataset.labels[order], preds),
            "wall_seconds": time.perf_counter() - started,
        }
        if test_dataset is not None:
            report = evaluate_model(model, test_dataset)
            row["test_auc"] = report.auc
            row["test_logloss"] = report.logloss
        rows.append(row)
        _append_metrics(metrics_path, row)
    return rows


def finetune(
    model: DeepFMModel,
    dataset: ClickDataset,
    cfg: TrainConfig,
    test_dataset: ClickDataset | None = None,
    metrics_path=None,
) -> list:
    """Exactly one epoch over the data at the fine-tune settings."""
    return train(
        model,
        dataset,
        replace(cfg, epochs=1),
        test_dataset=test_dataset,
        metrics_path=metrics_path,
        stage="finetune",
    )


def tap_dims(model: DeepFMModel, tap_ids) -> dict:
    dims = {}
    for tid in tap_ids:
        kind, _, num = tid.partition(".")
        try:
            idx = int(num)
        except ValueError as exc:
            raise ConfigError(f"bad tap id {tid!r}") from exc
        if kind == "emb" and 0 <= idx < model.n_fields:
            dims[tid] = model.tables[idx].dim
        elif kind == "mlp" and 0 <= idx < len(model.mlp):
            dims[tid] = model.mlp[idx].weight.shape[0]
        else:
            raise ConfigError(f"tap {tid!r} does not exist on this model")
    return dims


def calibrate(
    model: DeepFMModel,
    dataset: ClickDataset,
    tap_ids,
    batch_size: int = 10000,
) -> dict:
    """One inference pass accumulating moments at the requested taps.

    Dropout never fires (inference mode), so the statistics describe the
    deterministic network.
    """
    taps = {
        tid: ActivationTap.for_dim(tid, dim)
        for tid, dim in tap_dims(model, tap_ids).items()
    }
    n = len(dataset)
    ids = list(taps)
    for start in range(0, n, batch_size):
        sel = slice(start, min(start + batch_size, n))
        trace = forward(model, dataset.batch(sel), mode="infer", capture=ids)
        for tid in ids:
            taps[tid].accumulator.update(trace.captured[tid])
    return taps


# ---------------------------------------------------------------------------
# pipeline

# the keys each stage accepts, by stage name
STAGE_KEYS = {
    "train_baseline": {"stage", "learning_rate", "batch_size", "epochs", "l2_ratio", "weight_decay", "dropout"},
    "calibrate": {"stage", "taps", "batch_size"},
    "compress": {"stage", "method", "rank"},  # and its method's option
    "finetune": {"stage", "learning_rate", "batch_size", "epochs", "l2_ratio", "weight_decay", "dropout"},
    "eval": {"stage"},
}


@dataclass(frozen=True)
class Method:
    """What the rest of the package knows about one compression method."""

    target: str  # "mlp" or "emb": what it compresses, and its calibrate taps
    rank_key: str  # the profile key of its default rank
    calibrated: bool  # reads calibration taps: needs a calibrate stage first
    limit: Callable[[list, int], float]  # its highest rank, from (hidden_dims, embed_dim)
    option: str  # the one compress-stage key besides the rank that applies to it


# afm-mlp keeps k of the outputs of hidden layers two and three, svd-mlp is
# also bounded by their inputs; a tt-emb rank only caps the core ranks
METHODS = {
    "afm-mlp": Method("mlp", "mlp_rank", True, lambda h, e: min(h[1:]), "insert_relu"),
    "svd-mlp": Method("mlp", "mlp_rank", False, lambda h, e: min(h), "insert_relu"),
    "afm-emb": Method("emb", "emb_rank", True, lambda h, e: e, "fuse"),
    "svd-emb": Method("emb", "emb_rank", False, lambda h, e: e, "fuse"),
    "tt-emb": Method("emb", "tt_rank", False, lambda h, e: float("inf"), "tt_cores"),
}


def validate_pipeline(stages: list) -> None:
    """Enforce stage ordering: train_baseline first, then
    [calibrate ->] compress -> one finetune, with the calibrate required
    for the methods that read its taps."""
    if not stages:
        raise ConfigError("pipeline has no stages")
    for s in stages:
        if s["stage"] not in STAGE_KEYS:
            raise ConfigError(f"unknown stage {s['stage']!r}")
    if stages[0]["stage"] != "train_baseline":
        raise ConfigError(
            f"stage 0: the first stage must be train_baseline, got "
            f"{stages[0]['stage']!r}"
        )
    core = [(i, s) for i, s in enumerate(stages) if s["stage"] != "eval"]
    for pos, (i, s) in enumerate(core):
        if s["stage"] != "compress":
            continue
        calibrated = pos > 0 and core[pos - 1][1]["stage"] == "calibrate"
        method = METHODS.get(s.get("method"))
        if method is not None and method.calibrated and not calibrated:
            raise ConfigError(
                f"stage {i}: {s['method']} compress must directly follow a "
                f"calibrate stage"
            )
        after = [t["stage"] for _, t in core[pos + 1 : pos + 3]]
        if after[:1] != ["finetune"] or after[1:] == ["finetune"]:
            raise ConfigError(
                f"stage {i}: compress must be followed by exactly one finetune"
            )


def select_taps(model: DeepFMModel, selector) -> list:
    """The tap ids a calibrate stage's ``taps`` selector names: ``"mlp"``
    (the compressible hidden layers), ``"emb"`` (every embedding field),
    ``"auto"`` (both) or an explicit list of ``emb.<i>``/``mlp.<j>`` ids."""
    if not isinstance(selector, str):
        return list(selector)
    mlp = [f"mlp.{j}" for j in comp.MLP_COMPRESSIBLE]
    emb = [f"emb.{i}" for i in range(model.n_fields)]
    return {"mlp": mlp, "emb": emb, "auto": mlp + emb}[selector]


def _run_compress(model, stage, taps) -> dict:
    """Compress ``model`` in place as a filled compress stage says; returns
    the compression report."""
    method = stage["method"]
    rank = stage["rank"]
    before = param_count(model)
    if method == "afm-mlp":
        detail = comp.compress_mlp(model, rank, "afm", taps, stage["insert_relu"])
    elif method == "svd-mlp":
        detail = comp.compress_mlp(model, rank, "svd", None, stage["insert_relu"])
    elif method == "afm-emb":
        emb_taps = []
        for tid in select_taps(model, "emb"):
            if tid not in taps:
                raise RankError(f"afm compression needs a tap for {tid}")
            emb_taps.append(taps[tid])
        plan = comp.afm_plan_embedding(emb_taps, rank)
        detail = comp.afm_apply_embedding(model, plan)
    elif method == "svd-emb":
        detail = comp.svd_compress_embedding(model, rank)
    else:
        detail = comp.tt_compress_embedding(model, rank, n_cores=stage["tt_cores"])
    if METHODS[method].option == "fuse" and stage["fuse"]:
        comp.fuse_projection_into_first_fc(model)
        detail["fused_first_fc"] = True
    return comp.compression_report(method, detail, before, param_count(model))


def prepare_data(resolved):
    """Materialize the configured dataset and its train/test split."""
    data_cfg = resolved.data
    if "synth" in data_cfg:
        dataset = synth_generate(SynthSpec(**data_cfg["synth"]))
    else:
        dataset, _ = load_tsv(
            data_cfg["path"],
            resolved.model["n_continuous"],
            resolved.model["n_categorical"],
            min_count=data_cfg["min_count"],
        )
    return split(dataset, data_cfg["test_fraction"], data_cfg["split_seed"])


@dataclass
class _Run:
    """What the stage handlers of one pipeline run share."""

    resolved: object
    out: Path
    metrics_path: Path
    train_ds: ClickDataset
    test_ds: ClickDataset
    manifest: dict
    model: DeepFMModel | None = None
    taps: dict | None = None

    def checkpoint(self, tag: str) -> None:
        rel = f"checkpoints/{tag}.lrck"
        save_checkpoint(self.model, self.out / rel)
        self.manifest["artifacts"].append(rel)

    def eval_row(self, tag: str) -> None:
        report = evaluate_model(self.model, self.test_ds)
        _append_metrics(
            self.metrics_path,
            {"stage": tag, "test_auc": report.auc, "test_logloss": report.logloss},
        )


def _tag(i: int, stage: dict) -> str:
    return f"stage{i:02d}-{stage.get('method', stage['stage'])}"


def _stage_train_baseline(run: _Run, i: int, stage: dict) -> None:
    model_cfg = run.resolved.model
    run.model = init_deepfm(
        run.train_ds.vocab_sizes,
        model_cfg["embed_dim"],
        model_cfg["hidden_dims"],
        n_continuous=run.train_ds.n_continuous,
        seed=run.resolved.seed,
        dropout_rate=model_cfg["dropout_rate"],
        fm_enabled=model_cfg["fm_enabled"],
    )
    train(
        run.model,
        run.train_ds,
        stage["train"],
        test_dataset=run.test_ds,
        metrics_path=run.metrics_path,
        stage=_tag(i, stage),
    )
    run.checkpoint(_tag(i, stage))


def _stage_calibrate(run: _Run, i: int, stage: dict) -> None:
    taps = calibrate(
        run.model,
        run.train_ds,
        select_taps(run.model, stage["taps"]),
        batch_size=stage["batch_size"],
    )
    run.taps = taps if run.taps is None else {**run.taps, **taps}


def _stage_compress(run: _Run, i: int, stage: dict) -> None:
    report = _run_compress(run.model, stage, run.taps)
    tag = _tag(i, stage)
    rel = f"reports/{tag}.json"
    comp.write_report(report, run.out / rel)
    run.manifest["artifacts"].append(rel)
    run.checkpoint(tag)
    run.eval_row(f"{tag}:pre-finetune")
    run.taps = None  # topology changed; old statistics are stale


def _stage_finetune(run: _Run, i: int, stage: dict) -> None:
    finetune(
        run.model,
        run.train_ds,
        stage["train"],
        test_dataset=run.test_ds,
        metrics_path=run.metrics_path,
    )
    run.checkpoint(_tag(i, stage))


def _stage_eval(run: _Run, i: int, stage: dict) -> None:
    run.eval_row(_tag(i, stage))


STAGE_HANDLERS = {
    "train_baseline": _stage_train_baseline,
    "calibrate": _stage_calibrate,
    "compress": _stage_compress,
    "finetune": _stage_finetune,
    "eval": _stage_eval,
}


def run_pipeline(resolved, out_dir) -> dict:
    """Execute a resolved configuration; returns the run manifest.

    Artifacts: ``checkpoints/stageNN-<name>.lrck``, per-compression
    ``reports/stageNN-<method>.json``, ``metrics.jsonl`` and
    ``manifest.json``.  A failure marks its stage in the manifest, which
    is written either way, and re-raises.
    """
    out = Path(out_dir)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.jsonl"
    metrics_path.write_text("")

    manifest = {
        "config_hash": resolved.config_hash,
        "seed": resolved.seed,
        "profile": resolved.profile,
        "artifacts": ["metrics.jsonl"],
        "stages": [],
    }
    run = _Run(resolved, out, metrics_path, *prepare_data(resolved), manifest)
    try:
        for i, stage in enumerate(resolved.stages):
            STAGE_HANDLERS[stage["stage"]](run, i, stage)
            manifest["stages"].append(
                {"index": i, "stage": stage["stage"], "status": "completed"}
            )
    except Exception as exc:
        manifest["stages"].append(
            {"index": i, "stage": stage["stage"], "status": "failed", "error": str(exc)}
        )
        raise
    finally:
        manifest["artifacts"].append("manifest.json")
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
    return manifest


def config_hash(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
