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

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from .data import SynthSpec, check_test_fraction
from .errors import ConfigError, DataError, as_flag, as_number, convert_fields
from .train import METHODS, TrainConfig

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

# the synth profile's data size; the other settings default as in SynthSpec
SYNTH_DATA_DEFAULTS = {
    "n_samples": 1_000_000,
    "vocab_sizes": [10000] * 10,
    **{f.name: f.default for f in fields(SynthSpec) if f.default is not MISSING},
}

_TOP_KEYS = {"profile", "seed", "output_dir", "data", "model", "pipeline", "stages"}
_DATA_KEYS = {"synth", "path", "test_fraction", "split_seed", "min_count"}
_SYNTH_KEYS = {f.name for f in fields(SynthSpec)}
_PIPELINE_KEYS = {"order", "mlp", "emb", "mlp_rank", "emb_rank", "insert_relu", "fuse"}

# the keys each stage accepts, by stage name; a training stage takes every
# TrainConfig setting but the seed, which the run derives
_TRAIN_KEYS = {"stage"} | {f.name for f in fields(TrainConfig)} - {"seed"}
STAGE_KEYS = {
    "train_baseline": _TRAIN_KEYS,
    "calibrate": {"stage", "batch_size"},
    "compress": {"stage", "method", "rank"},  # and its method's option
    "finetune": _TRAIN_KEYS,
    "eval": {"stage"},
}


@dataclass
class ModelSpec:
    """A config's model settings, converted and range-checked when made;
    ``ResolvedConfig.model`` holds them as a dict."""

    n_continuous: int
    n_categorical: int
    embed_dim: int
    hidden_dims: list
    dropout_rate: float
    fm_enabled: bool = True

    def __post_init__(self):
        convert_fields(self, "model.")
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ConfigError(f"model.hidden_dims must list positive widths, "
                              f"got {self.hidden_dims!r}")
        if self.n_continuous < 0:
            raise ConfigError(f"model.n_continuous must be >= 0, got {self.n_continuous}")
        if self.n_categorical < 1:
            raise ConfigError(f"model.n_categorical must be >= 1, got {self.n_categorical}")
        if self.embed_dim < 1:
            raise ConfigError(f"model.embed_dim must be >= 1, got {self.embed_dim}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"model.dropout_rate {self.dropout_rate} outside [0, 1)")


_MODEL_KEYS = {f.name for f in fields(ModelSpec)}


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
            stages.append({"stage": "calibrate"})
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
        option = method.option
        _reject_unknown(stage, STAGE_KEYS[name] | ({option} if option else set()), where)
        rank = stage.get("rank", profile[method.rank_key])
        filled = {**stage, "rank": as_number(rank, int, f"{where}: rank")}
        if option:  # a flag that defaults to true
            filled[option] = as_flag(stage.get(option, True), f"{where}: {option}")
        return filled
    _reject_unknown(stage, STAGE_KEYS[name], where)
    if name == "calibrate":
        batch_size = as_number(stage.get("batch_size", 10000), int, f"{where}: batch_size")
        if batch_size < 1:
            raise ConfigError(f"{where}: batch size must be positive, got {batch_size}")
        return {"stage": name, "batch_size": batch_size}
    if name == "eval":
        return {"stage": name}
    train_keys = ("learning_rate", "batch_size", "l2_ratio", "weight_decay")
    settings = {**{key: profile[key] for key in train_keys}, **stage}
    del settings["stage"]
    try:
        train = TrainConfig(**settings, seed=seed)
    except ConfigError as exc:  # its rules do not know the stage
        raise ConfigError(f"{where}: {exc}") from exc
    if name == "finetune" and train.epochs != 1:
        raise ConfigError(
            f"{where}: a finetune stage runs exactly one epoch, got "
            f"epochs {stage['epochs']!r}"
        )
    return {"stage": name, "train": train}


def _fill_stages(stages: list, model: dict, profile: dict, seed: int) -> list:
    """Fill every stage and check the chain in one walk, so that a config
    the runner would reject fails before any data is built.  The first
    stage, and no other, is ``train_baseline``.  A calibrate stage has a
    compress stage directly after it, whose ``target`` it gets.  A compress
    stage has exactly one finetune directly after it, a calibrate stage
    directly before it if its method reads calibration taps, a rank the
    configured widths allow, and a target no earlier stage compressed.
    Eval stages are transparent to the order rules."""
    if not stages:
        raise ConfigError("pipeline has no stages")
    hidden = model["hidden_dims"]
    filled = []
    core = []  # (index, filled stage) of each non-eval stage so far
    compressed = {}  # target -> index of the stage that compressed it
    for i, s in enumerate(stages):
        name = s["stage"]
        if name not in STAGE_KEYS:
            raise ConfigError(f"unknown stage {name!r}")
        if i == 0 and name != "train_baseline":
            raise ConfigError(
                f"stage 0: the first stage must be train_baseline, got {name!r}"
            )
        if i > 0 and name == "train_baseline":
            raise ConfigError(f"stage {i}: only the first stage may be train_baseline")
        where = f"stage {i} ({name})"
        s = fill_stage(s, profile, seed + i, where)
        filled.append(s)
        if name == "eval":
            continue
        if core:
            _check_next(core, name)
        core.append((i, s))
        if name != "compress":
            continue
        method = METHODS[s["method"]]
        before = core[-2][1]  # stage 0 is train_baseline, so one exists
        if before["stage"] == "calibrate":
            before["target"] = method.target
        elif method.calibrated:
            raise ConfigError(
                f"stage {i}: {s['method']} compress must directly follow a "
                f"calibrate stage"
            )
        if method.target in compressed:
            raise ConfigError(
                f"{where}: the {method.target} layers are already compressed "
                f"by stage {compressed[method.target]}"
            )
        compressed[method.target] = i
        method.check_rank(s["rank"], hidden, model["embed_dim"], where)
    _check_next(core, None)
    return filled


def _check_next(core: list, name: str | None) -> None:
    """Raise unless a non-eval stage called ``name`` (None: the end of the
    chain) may come after the non-eval stages ``core``, given as (index,
    stage) pairs that start with the baseline."""
    j, last = core[-1]
    if last["stage"] == "calibrate" and name != "compress":
        raise ConfigError(
            f"stage {j}: calibrate must be directly followed by a compress stage"
        )
    if last["stage"] == name == "finetune" and core[-2][1]["stage"] == "compress":
        j = core[-2][0]  # a second finetune after that compress stage
    elif last["stage"] != "compress" or name == "finetune":
        return
    raise ConfigError(f"stage {j}: compress must be followed by exactly one finetune")


def read_config(source) -> dict:
    """A config's JSON object, from a dict, a path or a JSON string."""
    if isinstance(source, dict):
        return dict(source)
    text = str(source)
    try:
        is_file = Path(text).is_file()
    except OSError:  # e.g. a JSON string too long to be a file name
        is_file = False
    if is_file:
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
    raw = read_config(source)
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
    seed = as_number(raw.get("seed", 0), int, "seed")

    data = dict(raw.get("data", {}))
    _reject_unknown(data, _DATA_KEYS, "data")
    if "synth" in data and "path" in data:
        raise ConfigError("data: give either 'synth' or 'path', not both")
    if "synth" not in data and "path" not in data:
        if profile_name == "synth":
            data["synth"] = {}
        else:
            raise ConfigError("data: a 'path' is required for this profile")
    if "path" in data and not isinstance(data["path"], str):
        raise ConfigError(f"data.path must be a string, got {data['path']!r}")
    if "synth" in data:
        synth = {**SYNTH_DATA_DEFAULTS, **(data["synth"] or {})}
        _reject_unknown(synth, _SYNTH_KEYS, "data.synth")
        try:
            data["synth"] = asdict(SynthSpec(**synth))
        except DataError as exc:  # a range check, which names its key
            raise ConfigError(str(exc)) from exc
    data["test_fraction"] = check_test_fraction(
        as_number(data.get("test_fraction", profile["test_fraction"]), float, "data.test_fraction")
    )
    min_count = data.get("min_count", profile["min_count"])
    data["min_count"] = as_number(min_count, int, "data.min_count")
    data["split_seed"] = as_number(data.get("split_seed", seed), int, "data.split_seed")
    for key, value in (("seed", seed), ("data.split_seed", data["split_seed"])):
        if value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value}")

    model = dict(raw.get("model", {}))
    _reject_unknown(model, _MODEL_KEYS, "model")
    defaults = {key: profile[key] for key in _MODEL_KEYS if key in profile}
    model = asdict(ModelSpec(**{**defaults, **model}))

    output_dir = raw.get("output_dir", "runs/latest")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")

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
        output_dir=output_dir,
        data=data,
        model=model,
        stages=_fill_stages(stages, model, profile, seed),
        profile_defaults=profile,
        # where artifacts land is not part of what a run computes
        config_hash=config_hash({k: v for k, v in raw.items() if k != "output_dir"}),
    )


def config_hash(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
