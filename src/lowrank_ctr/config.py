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
from dataclasses import asdict, dataclass
from pathlib import Path

from .data import SynthSpec
from .errors import ConfigError
from .train import METHODS, STAGE_KEYS, TrainConfig, config_hash, validate_pipeline

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
# the defaults of each method's compress-stage option (see train.METHODS)
_OPTION_DEFAULTS = {"insert_relu": True, "fuse": True, "tt_cores": 3}


@dataclass
class ResolvedConfig:
    profile: str
    seed: int
    output_dir: str
    data: dict
    model: dict
    stages: list  # filled stages, see fill_stage
    profile_defaults: dict
    config_hash: str


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(extra)}")


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def standard_stages(profile: dict, pipeline: dict) -> list:
    """Build the [calibrate/]compress/finetune chain for one or two targets;
    only the methods that read calibration taps get a calibrate stage."""
    _reject_unknown(pipeline, _PIPELINE_KEYS, "pipeline")
    order = pipeline.get("order", "mlp-emb")
    if order not in ("mlp-emb", "emb-mlp"):
        raise ConfigError(f"pipeline order must be 'mlp-emb' or 'emb-mlp', got {order!r}")
    chosen = {"mlp": pipeline.get("mlp", "afm-mlp"), "emb": pipeline.get("emb", "afm-emb")}
    for target, name in chosen.items():
        if name is not None and (name not in METHODS or METHODS[name].target != target):
            raise ConfigError(f"unknown {target} method {name!r}")

    stages = [{"stage": "train_baseline"}]
    for target in order.split("-"):
        name = chosen[target]
        if name is None:
            continue
        method = METHODS[name]
        if method.calibrated:
            stages.append({"stage": "calibrate", "taps": target})
        rank = pipeline.get(f"{target}_rank", profile[method.rank_key])
        compress = {"stage": "compress", "method": name, "rank": rank}
        if method.option in pipeline:
            compress[method.option] = pipeline[method.option]
        fine = {**profile.get("finetune", {}), **profile.get(f"finetune_{target}", {})}
        stages += [compress, {"stage": "finetune", **fine}]
    stages.append({"stage": "eval"})
    return stages


def fill_stage(stage: dict, profile: dict, seed: int, where: str) -> dict:
    """``stage`` with every setting its handler reads, defaulted from the
    profile and converted: a training stage's settings become one
    ``TrainConfig`` under ``"train"``, seeded with ``seed``.  A key the
    stage does not accept, or a value of the wrong kind, raises
    ConfigError naming ``where``."""
    name = stage["stage"]
    if name == "compress":
        method = METHODS.get(stage.get("method"))
        if method is None:
            raise ConfigError(f"{where}: unknown method {stage.get('method')!r}")
        _reject_unknown(stage, STAGE_KEYS[name] | {method.option}, where)
        default = _OPTION_DEFAULTS[method.option]
        option = stage.get(method.option, default)
        return {
            **stage,
            "rank": int(stage.get("rank", profile[method.rank_key])),
            method.option: (
                _flag(option, f"{where}: {method.option}")
                if isinstance(default, bool)
                else int(option)
            ),
        }
    _reject_unknown(stage, STAGE_KEYS[name], where)
    if name == "calibrate":
        taps = stage.get("taps", "auto")
        if not _valid_taps(taps):
            raise ConfigError(
                f"{where}: taps must be 'mlp', 'emb', 'auto' or a list of "
                f"'emb.<i>'/'mlp.<j>' ids, got {taps!r}"
            )
        batch_size = int(stage.get("batch_size", 10000))
        if batch_size < 1:
            raise ConfigError(f"{where}: batch size must be positive, got {batch_size}")
        return {"stage": name, "taps": taps, "batch_size": batch_size}
    if name == "eval":
        return {"stage": name}
    if name == "finetune" and stage.get("epochs", 1) != 1:
        raise ConfigError(
            f"{where}: a finetune stage runs exactly one epoch, got "
            f"epochs {stage['epochs']!r}"
        )
    train_keys = ("learning_rate", "batch_size", "l2_ratio", "weight_decay")
    settings = {**{key: profile[key] for key in train_keys}, **stage}
    del settings["stage"]
    return {"stage": name, "train": TrainConfig(**settings, seed=seed)}


def _fill_stages(stages: list, model: dict, profile: dict, seed: int) -> list:
    """Check the stage chain and each compress stage's rank against the
    configured widths, and fill every stage, so that a config the runner
    would reject fails before any training."""
    validate_pipeline(stages)
    hidden = model["hidden_dims"]
    filled = []
    for i, s in enumerate(stages):
        where = f"stage {i} ({s['stage']})"
        s = fill_stage(s, profile, seed + i, where)
        filled.append(s)
        if s["stage"] != "compress":
            continue
        method = METHODS[s["method"]]
        if method.target == "mlp" and len(hidden) != 3:
            raise ConfigError(
                f"{where}: MLP compression needs model.hidden_dims of "
                f"length 3, got {hidden}"
            )
        limit = method.limit(hidden, model["embed_dim"])
        if not 1 <= s["rank"] <= limit:
            raise ConfigError(
                f"{where}: rank {s['rank']} outside [1, {limit}] for the configured "
                "model widths"
            )
    return filled


def _valid_taps(taps) -> bool:
    """A calibrate stage's ``taps``: a selector name or a list of tap ids."""
    if isinstance(taps, list):
        return all(isinstance(t, str) and re.fullmatch(r"(emb|mlp)\.\d+", t) for t in taps)
    return taps in ("mlp", "emb", "auto")


def _read_config(source) -> dict:
    """A config's JSON object, from a dict, a path or a JSON string."""
    if isinstance(source, dict):
        return dict(source)
    text = str(source)
    try:
        is_path = Path(text).exists()
    except OSError:  # e.g. a JSON string too long to be a file name
        is_path = False
    if is_path:
        text = Path(text).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def load_config(source, overrides: dict | None = None) -> ResolvedConfig:
    """Parse and validate a config from a dict, a path or a JSON string;
    any malformed value raises ConfigError here, before data is built."""
    raw = _read_config(source)
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    try:
        return _resolve(raw)
    except ConfigError:
        raise
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value ({exc!r})") from exc


def _resolve(raw: dict) -> ResolvedConfig:
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
        synth = {**SYNTH_DATA_DEFAULTS, **(data["synth"] or {})}
        _reject_unknown(synth, _SYNTH_KEYS, "data.synth")
        spec = SynthSpec(
            n_samples=int(synth["n_samples"]),
            vocab_sizes=[int(v) for v in synth["vocab_sizes"]],
            latent_rank=int(synth["latent_rank"]),
            noise=float(synth["noise"]),
            skew=float(synth["skew"]),
            seed=int(synth["seed"]),
        )
        spec.validate()  # load_config reports its DataError as a config error
        data["synth"] = asdict(spec)
    data["test_fraction"] = float(data.get("test_fraction", profile["test_fraction"]))
    data["min_count"] = int(data.get("min_count", profile["min_count"]))
    data["split_seed"] = int(data.get("split_seed", seed))

    model = dict(raw.get("model", {}))
    _reject_unknown(model, _MODEL_KEYS, "model")
    for key in ("n_continuous", "n_categorical", "embed_dim"):
        model[key] = int(model.get(key, profile[key]))
    model["dropout_rate"] = float(model.get("dropout_rate", profile["dropout_rate"]))
    model["fm_enabled"] = _flag(model.get("fm_enabled", True), "model.fm_enabled")
    model.setdefault("hidden_dims", profile["hidden_dims"])
    hidden = model["hidden_dims"]
    if not hidden or not all(isinstance(h, int) and h > 0 for h in hidden):
        raise ConfigError(f"model.hidden_dims must list positive widths, got {hidden!r}")

    if "stages" in raw and "pipeline" in raw:
        raise ConfigError("give either 'stages' or 'pipeline', not both")
    if "stages" in raw:
        for i, s in enumerate(raw["stages"]):
            if not isinstance(s, dict) or "stage" not in s:
                raise ConfigError(f"stage {i} must be an object with a 'stage' key")
        stages = raw["stages"]
    else:
        stages = standard_stages(profile, dict(raw.get("pipeline", {})))

    return ResolvedConfig(
        profile=profile_name,
        seed=seed,
        output_dir=str(raw.get("output_dir", "runs/latest")),
        data=data,
        model=model,
        stages=_fill_stages(stages, model, profile, seed),
        profile_defaults=profile,
        config_hash=config_hash(raw),
    )

