"""Training, calibration, fine-tuning and the compression pipeline.

The optimizer is Adam with decoupled weight decay: with bias-corrected
moments m_hat and v_hat,

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)

where the decay term reads the pre-update parameter.  The training loss is
mean binary cross entropy from logits plus ``l2_ratio`` times the summed
squared weights; the decay and the loss penalty are configured
independently and both active by default.

A pipeline is a stage list: ``train_baseline``, ``calibrate``,
``compress``, ``finetune``, ``eval``.  Validation enforces the protocol
that every compress stage has a calibrate stage directly before it and
exactly one finetune directly after (eval stages are transparent).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import compress as comp
from .checkpoint import save_checkpoint
from .data import ClickDataset, SynthSpec, load_tsv, split, synth_generate
from .errors import ConfigError, DataError, RankError
from .metrics import MetricReport, auc, logloss
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
    """Adam with decoupled weight decay; state lives per parameter name."""

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

    def step(self, named_params, grads: dict) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in named_params:
            g = grads[name]
            if name not in self.state:
                self.state[name] = (np.zeros_like(p), np.zeros_like(p))
            m, v = self.state[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p
            p -= self.lr * update


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 1000
    epochs: int = 1
    l2_ratio: float = 1e-5
    weight_decay: float = 1e-3
    dropout: float | None = None  # override at dropout sites; None keeps stored
    seed: int = 0
    shuffle: bool = True


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
    scores = predict(model, dataset, batch_size)
    return MetricReport(
        auc=auc(dataset.labels, scores),
        logloss=logloss(dataset.labels, scores),
        n_samples=len(dataset),
    )


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
    if cfg.epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {cfg.epochs}")
    if cfg.batch_size < 1:
        raise ConfigError(f"batch size must be positive, got {cfg.batch_size}")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(cfg.learning_rate, cfg.weight_decay)
    n = len(dataset)
    rows = []
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
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
    "compress": {"stage", "method", "rank", "insert_relu", "fuse", "tt_cores"},
    "finetune": {"stage", "learning_rate", "batch_size", "epochs", "l2_ratio", "weight_decay", "dropout"},
    "eval": {"stage"},
}
STAGE_NAMES = tuple(STAGE_KEYS)
MLP_METHODS = ("afm-mlp", "svd-mlp")
EMB_METHODS = ("afm-emb", "svd-emb", "tt-emb")


def validate_pipeline(stages: list) -> None:
    """Enforce stage ordering: calibrate -> compress -> one finetune."""
    if not stages:
        raise ConfigError("pipeline has no stages")
    for s in stages:
        if s["stage"] not in STAGE_NAMES:
            raise ConfigError(f"unknown stage {s['stage']!r}")
    core = [(i, s) for i, s in enumerate(stages) if s["stage"] != "eval"]
    for pos, (i, s) in enumerate(core):
        if s["stage"] != "compress":
            continue
        if pos == 0 or core[pos - 1][1]["stage"] != "calibrate":
            raise ConfigError(
                f"stage {i}: compress must directly follow a calibrate stage"
            )
        if pos + 1 >= len(core) or core[pos + 1][1]["stage"] != "finetune":
            raise ConfigError(
                f"stage {i}: compress must be followed by exactly one finetune"
            )
        if pos + 2 < len(core) and core[pos + 2][1]["stage"] == "finetune":
            raise ConfigError(
                f"stage {i}: compress must be followed by exactly one finetune"
            )


def compress_rank(stage: dict, profile: dict) -> int:
    """The rank a compress stage runs at: its own, else the profile's."""
    method = stage["method"]
    if method in MLP_METHODS:
        key = "mlp_rank"
    else:
        key = "tt_rank" if method == "tt-emb" else "emb_rank"
    return int(stage.get("rank", profile[key]))


def _train_cfg(stage: dict, defaults: dict, seed: int) -> TrainConfig:
    merged = dict(defaults)
    merged.update({k: v for k, v in stage.items() if k != "stage"})
    return TrainConfig(
        learning_rate=float(merged.get("learning_rate", 1e-4)),
        batch_size=int(merged.get("batch_size", 1000)),
        epochs=int(merged.get("epochs", 1)),
        l2_ratio=float(merged.get("l2_ratio", 1e-5)),
        weight_decay=float(merged.get("weight_decay", 1e-3)),
        dropout=merged.get("dropout"),
        seed=seed,
        shuffle=True,
    )


def _emb_tap_ids(model: DeepFMModel) -> list:
    return [f"emb.{i}" for i in range(model.n_fields)]


def _mlp_tap_ids(model: DeepFMModel) -> list:
    return [f"mlp.{j}" for j in comp.MLP_COMPRESSIBLE]


def _run_compress(model, stage, taps, profile):
    method = stage["method"]
    if method not in MLP_METHODS + EMB_METHODS:
        raise ConfigError(f"unknown compression method {method!r}")
    rank = compress_rank(stage, profile)
    if method in MLP_METHODS:
        insert_relu = bool(stage.get("insert_relu", True))
        if method == "afm-mlp":
            detail = comp.compress_mlp(model, rank, "afm", taps, insert_relu)
        else:
            detail = comp.compress_mlp(model, rank, "svd", None, insert_relu)
        return method, detail
    if method == "tt-emb":
        detail = comp.tt_compress_embedding(
            model, rank, n_cores=int(stage.get("tt_cores", 3))
        )
        return method, detail
    if method == "afm-emb":
        if taps is None:
            raise RankError("afm-emb needs calibration taps")
        plan = comp.afm_plan_embedding(
            [taps[tid] for tid in _emb_tap_ids(model)], rank
        )
        detail = comp.afm_apply_embedding(model, plan)
    else:
        detail = comp.svd_compress_embedding(model, rank)
    if bool(stage.get("fuse", True)):
        comp.fuse_projection_into_first_fc(model)
        detail["fused_first_fc"] = True
    return method, detail


def prepare_data(resolved):
    """Materialize the configured dataset and its train/test split."""
    data_cfg = resolved.data
    if "synth" in data_cfg:
        spec = SynthSpec(**data_cfg["synth"])
        dataset = synth_generate(spec)
    else:
        n_cont = int(resolved.model["n_continuous"])
        n_cat = int(resolved.model["n_categorical"])
        dataset, _ = load_tsv(
            data_cfg["path"],
            n_cont,
            n_cat,
            min_count=int(data_cfg.get("min_count", 10)),
        )
    split_seed = data_cfg.get("split_seed")
    if split_seed is None:
        split_seed = resolved.seed
    return split(
        dataset, float(data_cfg.get("test_fraction", 0.1)), int(split_seed)
    )


def run_pipeline(resolved, out_dir) -> dict:
    """Execute a resolved configuration; returns the run manifest.

    Artifacts: ``checkpoints/stageNN-<name>.lrck``, per-compression
    ``reports/stageNN-<method>.json``, ``metrics.jsonl`` and
    ``manifest.json``.  Failures mark the stage in the manifest and
    re-raise after writing it.
    """
    out = Path(out_dir)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.jsonl"
    metrics_path.write_text("")

    stages = resolved.stages
    validate_pipeline(stages)
    train_ds, test_ds = prepare_data(resolved)

    manifest = {
        "config_hash": resolved.config_hash,
        "seed": resolved.seed,
        "profile": resolved.profile,
        "artifacts": ["metrics.jsonl"],
        "stages": [],
    }

    model: DeepFMModel | None = None
    taps = None
    train_defaults = resolved.train_defaults

    def checkpoint(tag: str) -> None:
        rel = f"checkpoints/{tag}.lrck"
        save_checkpoint(model, out / rel)
        manifest["artifacts"].append(rel)

    def eval_row(tag: str) -> None:
        report = evaluate_model(model, test_ds)
        _append_metrics(
            metrics_path,
            {
                "stage": tag,
                "test_auc": report.auc,
                "test_logloss": report.logloss,
            },
        )

    try:
        for i, stage in enumerate(stages):
            name = stage["stage"]
            tag = f"stage{i:02d}-{stage.get('method', name)}"
            if name == "train_baseline":
                model = init_deepfm(
                    train_ds.vocab_sizes,
                    int(resolved.model["embed_dim"]),
                    resolved.model["hidden_dims"],
                    n_continuous=train_ds.n_continuous,
                    seed=resolved.seed,
                    dropout_rate=float(resolved.model.get("dropout_rate", 0.5)),
                    fm_enabled=bool(resolved.model.get("fm_enabled", True)),
                )
                cfg = _train_cfg(stage, train_defaults, resolved.seed + i)
                train(
                    model,
                    train_ds,
                    cfg,
                    test_dataset=test_ds,
                    metrics_path=metrics_path,
                    stage=tag,
                )
                checkpoint(tag)
            elif name == "calibrate":
                if model is None:
                    raise ConfigError("calibrate before any model exists")
                selector = stage.get("taps", "auto")
                if selector == "mlp":
                    ids = _mlp_tap_ids(model)
                elif selector == "emb":
                    ids = _emb_tap_ids(model)
                elif selector in ("auto", "all"):
                    ids = _mlp_tap_ids(model) + _emb_tap_ids(model)
                else:
                    ids = list(selector)
                new_taps = calibrate(
                    model,
                    train_ds,
                    ids,
                    batch_size=int(stage.get("batch_size", 10000)),
                )
                taps = new_taps if taps is None else {**taps, **new_taps}
            elif name == "compress":
                if model is None:
                    raise ConfigError("compress before any model exists")
                before = param_count(model)
                method, detail = _run_compress(
                    model, stage, taps, resolved.profile_defaults
                )
                after = param_count(model)
                report = comp.compression_report(method, detail, before, after)
                rel = f"reports/stage{i:02d}-{method}.json"
                comp.write_report(report, out / rel)
                manifest["artifacts"].append(rel)
                checkpoint(f"stage{i:02d}-{method}")
                eval_row(f"stage{i:02d}-{method}:pre-finetune")
                taps = None  # topology changed; old statistics are stale
            elif name == "finetune":
                if model is None:
                    raise ConfigError("finetune before any model exists")
                cfg = _train_cfg(stage, train_defaults, resolved.seed + i)
                finetune(
                    model,
                    train_ds,
                    cfg,
                    test_dataset=test_ds,
                    metrics_path=metrics_path,
                )
                checkpoint(tag)
            elif name == "eval":
                if model is None:
                    raise ConfigError("eval before any model exists")
                eval_row(tag)
            manifest["stages"].append({"index": i, "stage": name, "status": "completed"})
    except Exception as exc:
        manifest["stages"].append(
            {
                "index": len(manifest["stages"]),
                "stage": stages[len(manifest["stages"])]["stage"]
                if len(manifest["stages"]) < len(stages)
                else "unknown",
                "status": "failed",
                "error": str(exc),
            }
        )
        manifest["artifacts"].append("manifest.json")
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        raise
    manifest["artifacts"].append("manifest.json")
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest


def config_hash(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
