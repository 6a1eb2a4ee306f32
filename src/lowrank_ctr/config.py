"""Run configuration: JSON schema, named profiles, stage list generation.

A run config is a JSON object with the keys

    profile     name of a hyperparameter profile ("synth" by default)
    seed        master seed for split, init and shuffling
    output_dir  where artifacts land (the CLI can override)
    data        {"synth": {...}} or {"path": ..., "test_fraction": ...}
    model       embed_dim / hidden_dims / dropout_rate / fm_enabled ...
    pipeline    {"order": "mlp-emb"|"emb-mlp", "mlp": method|null,
                 "emb": method|null} to generate the standard stage list
    stages      explicit stage list (mutually exclusive with "pipeline")

Unknown keys anywhere are rejected so typos fail loudly instead of
silently training with defaults.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .train import (
    CALIBRATED_METHODS,
    EMB_METHODS,
    MLP_METHODS,
    STAGE_KEYS,
    compress_rank,
    config_hash,
    validate_pipeline,
)

PROFILES = {
    # industry-scale ads logs: 13 continuous + 26 categorical columns
    "criteo": {
        "n_continuous": 13,
        "n_categorical": 26,
        "embed_dim": 16,
        "hidden_dims": [400, 400, 400],
        "dropout_rate": 0.5,
        "min_count": 10,
        "test_fraction": 0.1,
        "learning_rate": 1e-4,
        "batch_size": 1000,
        "l2_ratio": 1e-5,
        "weight_decay": 1e-3,
        "mlp_rank": 64,
        "emb_rank": 2,
        "tt_rank": 16,
        "finetune": {"learning_rate": 1e-3},
        "finetune_mlp": {"batch_size": 20000},
        "finetune_emb": {"batch_size": 10000, "dropout": 0.0},
    },
    # mobile ads logs: 22 categorical columns, no continuous block
    "avazu": {
        "n_continuous": 0,
        "n_categorical": 22,
        "embed_dim": 50,
        "hidden_dims": [2000, 2000, 2000],
        "dropout_rate": 0.5,
        "min_count": 10,
        "test_fraction": 0.2,
        "learning_rate": 1e-4,
        "batch_size": 500,
        "l2_ratio": 1e-5,
        "weight_decay": 1e-3,
        "mlp_rank": 320,
        "emb_rank": 8,
        "tt_rank": 16,
        "finetune": {"learning_rate": 1e-3},
        "finetune_mlp": {"batch_size": 10000},
        "finetune_emb": {"batch_size": 5000, "dropout": 0.0},
    },
    # wide private-style feed: many categorical fields, small embeddings
    "feed80": {
        "n_continuous": 0,
        "n_categorical": 80,
        "embed_dim": 16,
        "hidden_dims": [400, 400, 400],
        "dropout_rate": 0.5,
        "min_count": 10,
        "test_fraction": 0.1,
        "learning_rate": 1e-4,
        "batch_size": 2000,
        "l2_ratio": 1e-5,
        "weight_decay": 1e-3,
        "mlp_rank": 64,
        "emb_rank": 4,
        "tt_rank": 16,
        "finetune": {"learning_rate": 1e-3},
        "finetune_mlp": {"batch_size": 20000},
        "finetune_emb": {"batch_size": 3000, "dropout": 0.3, "l2_ratio": 1e-2},
    },
    # synthetic desk-scale benchmark, runs end to end in minutes on a CPU
    "synth": {
        "n_continuous": 0,
        "n_categorical": 10,
        "embed_dim": 16,
        "hidden_dims": [64, 64, 64],
        "dropout_rate": 0.5,
        "min_count": 1,
        "test_fraction": 0.1,
        "learning_rate": 1e-3,
        "batch_size": 1000,
        "l2_ratio": 1e-5,
        "weight_decay": 1e-3,
        "mlp_rank": 16,
        "emb_rank": 4,
        "tt_rank": 8,
        "finetune": {"learning_rate": 1e-3},
        "finetune_mlp": {"batch_size": 2000},
        "finetune_emb": {"batch_size": 2000, "dropout": 0.0},
    },
}

SYNTH_DATA_DEFAULTS = {
    "n_samples": 1_000_000,
    "vocab_sizes": [10000] * 10,
    "latent_rank": 4,
    "noise": 0.1,
    "skew": 1.1,
    "seed": 0,
}

_TOP_KEYS = {"profile", "seed", "output_dir", "data", "model", "pipeline", "stages"}
_DATA_KEYS = {"synth", "path", "test_fraction", "split_seed", "min_count"}
_SYNTH_KEYS = {"n_samples", "vocab_sizes", "latent_rank", "noise", "skew", "seed"}
_MODEL_KEYS = {
    "n_continuous",
    "n_categorical",
    "embed_dim",
    "hidden_dims",
    "dropout_rate",
    "fm_enabled",
}
_PIPELINE_KEYS = {"order", "mlp", "emb", "mlp_rank", "emb_rank", "insert_relu", "fuse"}


@dataclass
class ResolvedConfig:
    profile: str
    seed: int
    output_dir: str
    data: dict
    model: dict
    stages: list
    train_defaults: dict
    profile_defaults: dict
    config_hash: str
    raw: dict = field(repr=False, default_factory=dict)


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(extra)}")


def standard_stages(profile: dict, pipeline: dict) -> list:
    """Build the [calibrate/]compress/finetune chain for one or two targets;
    only the methods that read calibration taps get a calibrate stage."""
    _reject_unknown(pipeline, _PIPELINE_KEYS, "pipeline")
    order = pipeline.get("order", "mlp-emb")
    if order not in ("mlp-emb", "emb-mlp"):
        raise ConfigError(f"pipeline order must be 'mlp-emb' or 'emb-mlp', got {order!r}")
    mlp_method = pipeline.get("mlp", "afm-mlp")
    emb_method = pipeline.get("emb", "afm-emb")
    if mlp_method is not None and mlp_method not in MLP_METHODS:
        raise ConfigError(f"unknown mlp method {mlp_method!r}")
    if emb_method is not None and emb_method not in EMB_METHODS:
        raise ConfigError(f"unknown emb method {emb_method!r}")

    stages = [{"stage": "train_baseline"}]
    ft = profile.get("finetune", {})

    def block(target: str) -> list:
        if target == "mlp":
            if mlp_method is None:
                return []
            comp = {
                "stage": "compress",
                "method": mlp_method,
                "rank": int(pipeline.get("mlp_rank", profile["mlp_rank"])),
            }
            if "insert_relu" in pipeline:
                comp["insert_relu"] = bool(pipeline["insert_relu"])
            fine = {**ft, **profile.get("finetune_mlp", {})}
            taps = "mlp"
        else:
            if emb_method is None:
                return []
            comp = {
                "stage": "compress",
                "method": emb_method,
                "rank": int(
                    pipeline.get(
                        "emb_rank",
                        profile["tt_rank" if emb_method == "tt-emb" else "emb_rank"],
                    )
                ),
            }
            if "fuse" in pipeline and emb_method != "tt-emb":
                comp["fuse"] = bool(pipeline["fuse"])
            fine = {**ft, **profile.get("finetune_emb", {})}
            taps = "emb"
        chain = [comp, {"stage": "finetune", **fine}]
        if comp["method"] in CALIBRATED_METHODS:
            chain.insert(0, {"stage": "calibrate", "taps": taps})
        return chain

    first, second = ("mlp", "emb") if order == "mlp-emb" else ("emb", "mlp")
    stages.extend(block(first))
    stages.extend(block(second))
    stages.append({"stage": "eval"})
    return stages


def _check_stages(stages: list, model: dict, profile: dict) -> None:
    """Validate the stage chain, each stage's keys, each calibrate stage's
    taps, each finetune stage's epochs and each compress stage's method and
    rank against the configured widths, so that a config the runner would
    reject fails before any training."""
    validate_pipeline(stages)
    hidden = [int(h) for h in model["hidden_dims"]]
    for i, s in enumerate(stages):
        where = f"stage {i} ({s['stage']})"
        _reject_unknown(s, STAGE_KEYS[s["stage"]], where)
        if s["stage"] == "calibrate" and not _valid_taps(s.get("taps", "auto")):
            raise ConfigError(
                f"{where}: taps must be 'mlp', 'emb', 'auto' or a list of "
                f"'emb.<i>'/'mlp.<j>' ids, got {s['taps']!r}"
            )
        if s["stage"] == "finetune" and s.get("epochs", 1) != 1:
            raise ConfigError(
                f"{where}: a finetune stage runs exactly one epoch, got "
                f"epochs {s['epochs']!r}"
            )
        if s["stage"] != "compress":
            continue
        method = s.get("method")
        if method not in MLP_METHODS + EMB_METHODS:
            raise ConfigError(f"stage {i}: unknown method {method!r}")
        if method in MLP_METHODS:
            if len(hidden) != 3:
                raise ConfigError(
                    f"{where}: MLP compression needs model.hidden_dims of "
                    f"length 3, got {hidden}"
                )
            # afm-mlp keeps k of each layer's outputs; svd-mlp is also
            # bounded by each layer's input width
            limit = min(hidden[1:]) if method == "afm-mlp" else min(hidden)
        elif method == "tt-emb":
            continue
        else:
            limit = int(model["embed_dim"])
        rank = compress_rank(s, profile)
        if not 1 <= rank <= limit:
            raise ConfigError(
                f"{where}: rank {rank} outside [1, {limit}] for the configured "
                "model widths"
            )


def _valid_taps(taps) -> bool:
    """A calibrate stage's ``taps``: a selector name or a list of tap ids."""
    if isinstance(taps, list):
        return all(isinstance(t, str) and re.fullmatch(r"(emb|mlp)\.\d+", t) for t in taps)
    return taps in ("mlp", "emb", "auto")


def load_config(source, overrides: dict | None = None) -> ResolvedConfig:
    """Parse and validate a config from a dict, a path or a JSON string."""
    if isinstance(source, dict):
        raw = source
    else:
        text = Path(source).read_text(encoding="utf-8") if Path(str(source)).exists() else str(source)
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value

    _reject_unknown(raw, _TOP_KEYS, "config")
    profile_name = raw.get("profile", "synth")
    if profile_name not in PROFILES:
        raise ConfigError(
            f"unknown profile {profile_name!r}; choose from {sorted(PROFILES)}"
        )
    profile = PROFILES[profile_name]
    seed = int(raw.get("seed", 0))

    data = dict(raw.get("data", {}))
    _reject_unknown(data, _DATA_KEYS, "data")
    if "synth" in data and "path" in data:
        raise ConfigError("data: give either 'synth' or 'path', not both")
    if "synth" not in data and "path" not in data:
        if profile_name == "synth":
            data["synth"] = {}
        else:
            raise ConfigError("data: a 'path' is required for this profile")
    if "synth" in data:
        synth = dict(data["synth"] or {})
        _reject_unknown(synth, _SYNTH_KEYS, "data.synth")
        merged = dict(SYNTH_DATA_DEFAULTS)
        merged.update(synth)
        data["synth"] = merged
    data.setdefault("test_fraction", profile["test_fraction"])
    data.setdefault("min_count", profile["min_count"])

    model = dict(raw.get("model", {}))
    _reject_unknown(model, _MODEL_KEYS, "model")
    for key in ("n_continuous", "n_categorical", "embed_dim", "hidden_dims", "dropout_rate"):
        model.setdefault(key, profile[key])
    model.setdefault("fm_enabled", True)
    if len(model["hidden_dims"]) < 1:
        raise ConfigError("model.hidden_dims must not be empty")

    if "stages" in raw and "pipeline" in raw:
        raise ConfigError("give either 'stages' or 'pipeline', not both")
    if "stages" in raw:
        for i, s in enumerate(raw["stages"]):
            if not isinstance(s, dict) or "stage" not in s:
                raise ConfigError(f"stage {i} must be an object with a 'stage' key")
        stages = [dict(s) for s in raw["stages"]]
    else:
        stages = standard_stages(profile, dict(raw.get("pipeline", {})))
    _check_stages(stages, model, profile)

    train_defaults = {
        "learning_rate": profile["learning_rate"],
        "batch_size": profile["batch_size"],
        "l2_ratio": profile["l2_ratio"],
        "weight_decay": profile["weight_decay"],
    }
    return ResolvedConfig(
        profile=profile_name,
        seed=seed,
        output_dir=str(raw.get("output_dir", "runs/latest")),
        data=data,
        model=model,
        stages=stages,
        train_defaults=train_defaults,
        profile_defaults=profile,
        config_hash=config_hash(raw),
        raw=raw,
    )
