"""Training, calibration, fine-tuning and the compression pipeline.

The optimizer is Adam with decoupled weight decay: with bias-corrected
moments m_hat and v_hat,

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)

where the decay term reads the pre-update parameter.  The training loss is
mean binary cross entropy from logits plus ``l2_ratio`` times the summed
squared weights; the decay and the loss penalty are configured
independently and both active by default.  The penalty's value (one BLAS
dot per parameter array, in the array's dtype, summed as a Python float)
only enters the logged ``train_loss``: the gradient adds
``2 * l2_ratio * p`` to each parameter's gradient directly.

A training step holds no whole-table temporary.  The dense table's
gradient arrives compact (``nn.TableGradient``: the L2 coefficient, the
touched rows and their sums), and ``Adam.step`` builds each block of it
just before updating that block, by the operations of a whole-table build
in the same order, so the update reads the bytes the dense gradient would
hold.  Adam runs its formula one ``out=`` operation at a time through two
buffers per dtype that it keeps from step to step.

A pipeline is a stage list that ``config.load_config`` has checked and
filled; ``STAGE_HANDLERS`` holds the handler of each stage kind, and each
stage's manifest entry records its wall time, peak RSS and minor faults.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import compress as comp
from .checkpoint import save_checkpoint
from .data import ClickDataset, SynthSpec, load_tsv, split, synth_generate
from .errors import ConfigError, DataError, ShapeError, convert_fields
from .metrics import MetricReport, auc, evaluate_scores, logloss
from .nn import (
    DeepFMModel, TableGradient, capture, compute_gradients, forward, init_deepfm, param_count,
)
from .stats import ActivationTap, fold


class Adam:
    """Adam with decoupled weight decay, over C-contiguous parameters.

    A step walks each parameter's elements in blocks of ``BLOCK`` and
    updates each block in place by the formula of the module docstring,
    one operation at a time; the moments live per (name, block start).  A
    ``TableGradient`` has each block's gradient built just before that
    block is updated.  The operations write into two buffers per dtype,
    kept from step to step: ``a`` (a block plus a table gradient's pad)
    holds a built gradient and then the update, ``b`` every other
    intermediate.  A parameter that is not C-contiguous raises ShapeError
    before any update, since its flat view would be a copy."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    # x, m, v and the two buffers of a float32 block then take 1.25 MB and
    # fit a 2 MB per-core L2; on such a Xeon a synth-model step took 7.44 ms
    # against 7.92 ms at 1 << 17, whose 2.5 MB does not fit
    BLOCK = 1 << 16

    def __init__(self, learning_rate: float, weight_decay: float = 0.0):
        self.lr = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.state = {}
        self._buffers = {}

    def _buffers_for(self, dtype, pad: int) -> tuple:
        bufs = self._buffers.get(dtype)
        if bufs is None or len(bufs[0]) < self.BLOCK + pad:
            bufs = np.empty(self.BLOCK + pad, dtype), np.empty(self.BLOCK, dtype)
            self._buffers[dtype] = bufs
        return bufs

    def step(self, named_params, grads: dict) -> None:
        params = list(named_params)
        for name, p in params:
            if not p.flags.c_contiguous:
                raise ShapeError(f"{name} is not C-contiguous: its update would go into a copy")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in params:
            flat, grad = p.reshape(-1), grads[name]
            built = isinstance(grad, TableGradient)
            g_flat = None if built else grad.reshape(-1)
            buf_a, buf_b = self._buffers_for(p.dtype, grad.pad() if built else 0)
            for start in range(0, flat.size, self.BLOCK):
                stop = min(start + self.BLOCK, flat.size)
                x, a, b = flat[start:stop], buf_a[: stop - start], buf_b[: stop - start]
                g = grad.block(start, stop, buf_a) if built else g_flat[start:stop]
                if (name, start) not in self.state:
                    self.state[name, start] = (np.zeros_like(x), np.zeros_like(x))
                m, v = self.state[name, start]
                m *= self.beta1
                m += np.multiply(g, 1.0 - self.beta1, out=b)
                v *= self.beta2
                np.multiply(g, g, out=b)
                b *= 1.0 - self.beta2
                v += b
                # the update (m / c1) / (sqrt(v / c2) + eps) goes into a: g is spent
                np.sqrt(np.divide(v, c2, out=b), out=b)
                b += self.eps
                np.divide(m, c1, out=a)
                a /= b
                if self.weight_decay:
                    a += np.multiply(x, self.weight_decay, out=b)
                a *= self.lr
                x -= a


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
        """Convert each setting by its type, then check the ranges (ConfigError)."""
        convert_fields(self)
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.dropout is not None and not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        for key in ("learning_rate", "l2_ratio", "weight_decay"):
            value = getattr(self, key)
            if value < 0.0:
                raise ConfigError(f"{key} must be >= 0, got {value}")


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
            opt.step(model.packed_parameters(), grads)
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


def tap_dims(model: DeepFMModel, tap_ids) -> dict:
    """Each tap id's width, among the names a forward pass can capture."""
    widths = {f"emb.{i}": t.dim for i, t in enumerate(model.tables)}
    widths.update({f"mlp.{j}": lay.weight.shape[0] for j, lay in enumerate(model.mlp)})
    for tid in tap_ids:
        if tid not in widths:
            raise ConfigError(f"tap {tid!r} does not exist on this model")
    return {tid: widths[tid] for tid in tap_ids}


def calibrate(
    model: DeepFMModel,
    dataset: ClickDataset,
    tap_ids,
    batch_size: int = 10000,
) -> dict:
    """One inference pass accumulating moments at the requested taps.

    Dropout never fires (inference mode), so the statistics describe the
    deterministic network.  The pass stops at the last tap, and each tapped
    output is folded as the pass computes it (``capture``): the embedding
    taps as one block, every tap through one float64 buffer per call
    (``stats.fold``).  The accumulators equal, byte for byte, those of a
    full ``forward`` per batch and one ``update`` per tap.
    """
    dims = tap_dims(model, tap_ids)
    taps = {tid: ActivationTap.for_dim(tid, dim) for tid, dim in dims.items()}
    n = len(dataset)
    scratch = np.empty(min(n, batch_size) * max(dims.values(), default=0))

    def take(ids, block):
        fold([taps[tid].accumulator if tid else None for tid in ids], block, scratch)

    for start in range(0, n, batch_size):
        capture(model, dataset.batch(slice(start, min(start + batch_size, n))), taps, take)
    return taps


# ---------------------------------------------------------------------------
# pipeline

@dataclass(frozen=True)
class Method:
    """What the rest of the package knows about one compression method."""

    target: str  # "mlp" or "emb": what it compresses, and its calibrate taps
    rank_key: str  # the profile key of its default rank
    calibrated: bool  # reads calibration taps: needs a calibrate stage first
    limit: Callable[[list, int], float]  # its highest rank, from (hidden_dims, embed_dim)
    option: str | None  # the one compress-stage flag besides the rank, true by default
    split: Callable  # compresses in place: (model, rank, taps, option value) -> report detail

    def check_rank(self, rank: int, hidden: list, embed_dim: int, where: str) -> None:
        """Raise ConfigError unless a model of these widths has the layers
        the method splits and ``rank`` is within its limit."""
        if self.target == "mlp" and len(hidden) != 3:
            raise ConfigError(f"{where}: MLP compression needs three hidden layers, "
                              f"got hidden_dims {hidden}")
        limit = self.limit(hidden, embed_dim)
        if not 1 <= rank <= limit:
            raise ConfigError(
                f"{where}: rank {rank} outside [1, {limit}] for hidden_dims "
                f"{hidden} and embed_dim {embed_dim}"
            )

    def compress(self, model: DeepFMModel, stage: dict, taps) -> dict:
        """Compress ``model`` in place as a filled compress stage says;
        returns the compression report."""
        before = param_count(model)
        flag = stage.get(self.option)  # None for a method without an option
        detail = self.split(model, stage["rank"], taps, flag)
        if self.option == "fuse" and flag:
            comp.fuse_projection_into_first_fc(model)
            detail["fused_first_fc"] = True
        return comp.compression_report(stage["method"], detail, before, param_count(model))


# afm-mlp keeps k of the outputs of hidden layers two and three, svd-mlp is
# also bounded by their inputs; a tt-emb rank only caps the core ranks.  Each
# split reads its compressor from ``comp`` when it runs, so wrappers apply.
METHODS = {
    "afm-mlp": Method("mlp", "mlp_rank", True, lambda h, e: min(h[1:]), "insert_relu",
                      lambda m, k, taps, relu: comp.compress_mlp(m, k, "afm", taps, relu)),
    "svd-mlp": Method("mlp", "mlp_rank", False, lambda h, e: min(h), "insert_relu",
                      lambda m, k, taps, relu: comp.compress_mlp(m, k, "svd", None, relu)),
    "afm-emb": Method("emb", "emb_rank", True, lambda h, e: e, "fuse",
                      lambda m, k, taps, _: comp.afm_apply_embedding(m, comp.afm_plan_embedding(
                          [taps[t] for t in select_taps(m, "emb")], k))),
    "svd-emb": Method("emb", "emb_rank", False, lambda h, e: e, "fuse",
                      lambda m, k, taps, _: comp.svd_compress_embedding(m, k)),
    "tt-emb": Method("emb", "tt_rank", False, lambda h, e: float("inf"), None,
                     lambda m, k, taps, _: comp.tt_compress_embedding(m, k)),
}


def select_taps(model: DeepFMModel, target: str) -> list:
    """The tap ids a compression of ``target`` reads: ``"mlp"`` the
    compressible hidden layers, ``"emb"`` every embedding field."""
    if target == "mlp":
        return [f"mlp.{j}" for j in comp.MLP_COMPRESSIBLE]
    return [f"emb.{i}" for i in range(model.n_fields)]


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
    run.taps = calibrate(
        run.model,
        run.train_ds,
        select_taps(run.model, stage["target"]),
        batch_size=stage["batch_size"],
    )


def _stage_compress(run: _Run, i: int, stage: dict) -> None:
    report = METHODS[stage["method"]].compress(run.model, stage, run.taps)
    tag = _tag(i, stage)
    rel = f"reports/{tag}.json"
    comp.write_report(report, run.out / rel)
    run.manifest["artifacts"].append(rel)
    run.checkpoint(tag)
    run.eval_row(f"{tag}:pre-finetune")
    run.taps = None  # topology changed; old statistics are stale


def _stage_finetune(run: _Run, i: int, stage: dict) -> None:
    train(
        run.model,
        run.train_ds,
        stage["train"],
        test_dataset=run.test_ds,
        metrics_path=run.metrics_path,
        stage="finetune",
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


@contextmanager
def _span(entry: dict):
    """Record into a manifest stage ``entry`` what the stage cost, also when
    it raises: wall ``seconds``, ``peak_rss_mb`` (the process's resident
    high-water mark after the stage) and the ``minor_faults`` taken during
    it, from ``resource.getrusage`` of this process."""
    before, started = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    try:
        yield
    finally:
        after = resource.getrusage(resource.RUSAGE_SELF)
        entry["seconds"] = time.perf_counter() - started
        entry["peak_rss_mb"] = after.ru_maxrss / 1024.0  # kilobytes on Linux
        entry["minor_faults"] = after.ru_minflt - before.ru_minflt


def run_pipeline(resolved, out_dir) -> dict:
    """Execute a resolved configuration; returns the run manifest.

    Artifacts: ``checkpoints/stageNN-<name>.lrck``, per-compression
    ``reports/stageNN-<method>.json``, ``metrics.jsonl`` and
    ``manifest.json``.  Each stage's manifest entry carries its status and
    its span (``_span``).  A failure marks its stage in the manifest, which
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
            entry = {"index": i, "stage": stage["stage"], "status": "failed"}
            manifest["stages"].append(entry)
            with _span(entry):
                STAGE_HANDLERS[stage["stage"]](run, i, stage)
            entry["status"] = "completed"
    except Exception as exc:
        entry["error"] = str(exc)
        raise
    finally:
        manifest["artifacts"].append("manifest.json")
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
    return manifest

