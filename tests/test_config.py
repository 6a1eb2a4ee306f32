"""Tests for config parsing, profiles and standard stage generation."""

import json
import re
from dataclasses import fields

import pytest

from lowrank_ctr.config import (
    PROFILES,
    STAGE_KEYS,
    SYNTH_DATA_DEFAULTS,
    ModelSpec,
    load_config,
    standard_stages,
)
from lowrank_ctr.data import SynthSpec
from lowrank_ctr.errors import ConfigError
from lowrank_ctr.train import STAGE_HANDLERS, TrainConfig


def names(stages):
    return [s["stage"] for s in stages]


def test_empty_config_resolves_to_synth_defaults():
    rc = load_config({})
    assert rc.profile == "synth"
    assert rc.seed == 0
    assert rc.data["synth"] == SYNTH_DATA_DEFAULTS
    assert rc.data["test_fraction"] == PROFILES["synth"]["test_fraction"]
    assert rc.model["embed_dim"] == 16
    assert rc.model["hidden_dims"] == [64, 64, 64]
    assert rc.model["fm_enabled"] is True
    assert names(rc.stages) == [
        "train_baseline",
        "calibrate", "compress", "finetune",
        "calibrate", "compress", "finetune",
        "eval",
    ]


def test_partial_synth_block_merges_defaults():
    rc = load_config({"data": {"synth": {"n_samples": 500}}})
    assert rc.data["synth"]["n_samples"] == 500
    assert rc.data["synth"]["vocab_sizes"] == SYNTH_DATA_DEFAULTS["vocab_sizes"]
    assert rc.data["synth"]["noise"] == SYNTH_DATA_DEFAULTS["noise"]


def test_unknown_keys_rejected_at_every_level():
    for bad in (
        {"trainer": {}},
        {"data": {"sources": "x"}},
        {"data": {"synth": {"n_rows": 10}}},
        {"model": {"width": 4}},
        {"pipeline": {"mode": "fast"}},
        {"stages": [{"stage": "train_baseline", "momentum": 0.9}]},
    ):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(bad)


def test_unknown_profile_and_bad_sources():
    with pytest.raises(ConfigError, match="unknown profile"):
        load_config({"profile": "criteo-small"})
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config("{nope")
    with pytest.raises(ConfigError, match="root must be"):
        load_config("[1, 2]")


def test_stages_and_pipeline_are_exclusive():
    with pytest.raises(ConfigError, match="either 'stages' or 'pipeline'"):
        load_config(
            {"stages": [{"stage": "train_baseline"}], "pipeline": {"mlp": None}}
        )


def test_data_requires_path_for_log_profiles():
    with pytest.raises(ConfigError, match="path"):
        load_config({"profile": "criteo"})
    with pytest.raises(ConfigError, match="not both"):
        load_config({"data": {"synth": {}, "path": "x.tsv"}})


@pytest.mark.parametrize("path", [7, 0, True, None, ["a"]],
                         ids=["int", "zero", "true", "null", "list"])
def test_data_path_must_be_a_string(path):
    message = f"data.path must be a string, got {re.escape(repr(path))}"
    with pytest.raises(ConfigError, match=message):
        load_config({"profile": "criteo", "data": {"path": path}})


@pytest.mark.parametrize("output_dir", [None, 7, True, ["a"]],
                         ids=["null", "int", "true", "list"])
def test_output_dir_must_be_a_string(output_dir):
    message = f"output_dir must be a string, got {re.escape(repr(output_dir))}"
    with pytest.raises(ConfigError, match=message):
        load_config({"output_dir": output_dir})


def test_stage_list_validation():
    with pytest.raises(ConfigError, match="unknown stage"):
        load_config({"stages": [{"stage": "warmup"}]})
    with pytest.raises(ConfigError, match="'stage' key"):
        load_config({"stages": [{"epochs": 1}]})
    with pytest.raises(ConfigError, match="unknown method"):
        load_config({"stages": [
            {"stage": "train_baseline"},
            {"stage": "calibrate"},
            {"stage": "compress", "method": "pruning"},
            {"stage": "finetune"},
        ]})
    with pytest.raises(ConfigError, match="calibrate"):
        load_config({"stages": [
            {"stage": "train_baseline"},
            {"stage": "compress", "method": "afm-mlp"},
            {"stage": "finetune"},
        ]})


GOOD_CHAINS = [
    ["train_baseline", "eval"],
    ["train_baseline", "calibrate", "compress", "finetune", "eval"],
    ["train_baseline", "calibrate", "eval", "compress", "eval", "finetune"],
    ["train_baseline", "calibrate", "compress", "finetune",
     "calibrate", "compress:afm-emb", "finetune", "eval"],
    # only the afm methods read calibration taps
    ["train_baseline", "compress:svd-mlp", "finetune",
     "compress:tt-emb", "finetune", "eval"],
    ["train_baseline", "compress:svd-emb", "finetune"],
    ["train_baseline", "calibrate", "compress:svd-mlp", "finetune"],
]

BAD_CHAINS = [
    [],
    ["train_baseline", "compress", "finetune"],            # no calibrate
    ["train_baseline", "compress:afm-emb", "finetune"],    # no calibrate
    ["train_baseline", "calibrate", "compress"],            # no finetune
    ["train_baseline", "calibrate", "compress", "eval"],    # eval is not a finetune
    ["train_baseline", "calibrate", "compress", "finetune", "finetune"],
    ["train_baseline", "calibrate", "finetune", "compress", "finetune"],
    ["train_baseline", "compress:svd-mlp"],                 # no finetune
    ["train_baseline", "compress:tt-emb", "finetune", "finetune"],
    ["train_baseline", "warmup"],                           # unknown stage
    ["eval", "train_baseline"],                             # no model to evaluate
    ["calibrate", "compress", "finetune"],                  # no model to calibrate
    ["train_baseline", "calibrate", "calibrate", "compress", "finetune"],
    ["train_baseline", "calibrate", "compress", "finetune", "calibrate"],
    ["train_baseline", "calibrate", "eval"],                # calibrate feeds no compress
    # a target is compressed at most once
    ["train_baseline", "compress:svd-mlp", "finetune", "calibrate", "compress", "finetune"],
    ["train_baseline", "compress:svd-emb", "finetune", "compress:svd-emb", "finetune"],
    ["train_baseline", "compress:svd-emb", "finetune", "compress:tt-emb", "finetune"],
    # a second baseline would discard every stage before it
    ["train_baseline", "compress:svd-mlp", "finetune", "train_baseline", "eval"],
]


def stage_chain(chain):
    """Stage dicts from names; ``compress:<method>`` picks the method,
    a bare ``compress`` is afm-mlp."""
    stages = []
    for name in chain:
        stage, _, method = name.partition(":")
        if stage == "compress":
            stages.append({"stage": stage, "method": method or "afm-mlp"})
        else:
            stages.append({"stage": stage})
    return stages


def test_load_config_accepts_legal_chains():
    for chain in GOOD_CHAINS:
        load_config({"stages": stage_chain(chain)})


def test_load_config_rejects_broken_chains():
    for chain in BAD_CHAINS:
        with pytest.raises(ConfigError):
            load_config({"stages": stage_chain(chain)})


def test_every_stage_kind_has_keys_and_a_handler():
    assert set(STAGE_KEYS) == set(STAGE_HANDLERS)


def test_standard_stages_mlp_then_emb():
    stages = standard_stages(PROFILES["synth"], {})
    assert names(stages) == [
        "train_baseline",
        "calibrate", "compress", "finetune",
        "calibrate", "compress", "finetune",
        "eval",
    ]
    assert stages[1] == stages[4] == {"stage": "calibrate"}
    assert stages[2] == {"stage": "compress", "method": "afm-mlp", "rank": 16}
    assert stages[3]["batch_size"] == 2000  # finetune_mlp overlay
    assert stages[5] == {"stage": "compress", "method": "afm-emb", "rank": 4}
    assert stages[6]["dropout"] == 0.0  # finetune_emb overlay
    assert stages[3]["learning_rate"] == stages[6]["learning_rate"] == 1e-3


def test_standard_stages_emb_first_and_single_target():
    stages = standard_stages(PROFILES["synth"], {"order": "emb-mlp"})
    assert stages[2]["method"] == "afm-emb"
    assert stages[5]["method"] == "afm-mlp"

    only_mlp = standard_stages(PROFILES["synth"], {"emb": None})
    assert names(only_mlp) == [
        "train_baseline", "calibrate", "compress", "finetune", "eval"
    ]
    assert only_mlp[2]["method"] == "afm-mlp"

    # svd and tt compress stages read no calibration taps, so get no calibrate
    only_emb = standard_stages(PROFILES["synth"], {"mlp": None, "emb": "svd-emb"})
    assert names(only_emb) == ["train_baseline", "compress", "finetune", "eval"]
    assert only_emb[1]["method"] == "svd-emb"

    svd_then_tt = standard_stages(PROFILES["synth"], {"mlp": "svd-mlp", "emb": "tt-emb"})
    assert names(svd_then_tt) == [
        "train_baseline", "compress", "finetune", "compress", "finetune", "eval"
    ]
    assert [svd_then_tt[i]["method"] for i in (1, 3)] == ["svd-mlp", "tt-emb"]


def test_standard_stages_rank_and_flag_overrides():
    stages = standard_stages(
        PROFILES["criteo"],
        {"mlp_rank": 100, "emb_rank": 3, "insert_relu": False, "fuse": False},
    )
    assert stages[2]["rank"] == 100
    assert stages[2]["insert_relu"] is False
    assert stages[5]["rank"] == 3
    assert stages[5]["fuse"] is False

    tt = standard_stages(PROFILES["criteo"], {"emb": "tt-emb", "fuse": False})
    assert tt[4]["method"] == "tt-emb"  # no calibrate stage before it
    assert tt[4]["rank"] == PROFILES["criteo"]["tt_rank"]
    assert "fuse" not in tt[4]  # projections never exist on the TT path

    with pytest.raises(ConfigError, match="order"):
        standard_stages(PROFILES["synth"], {"order": "both"})
    with pytest.raises(ConfigError, match="mlp method"):
        standard_stages(PROFILES["synth"], {"mlp": "afm-emb"})


def test_overrides_and_hash():
    base = {"data": {"synth": {"n_samples": 100}}}
    rc1 = load_config(dict(base))
    rc2 = load_config(dict(base), {"seed": 7, "profile": None})
    assert rc1.seed == 0 and rc2.seed == 7
    assert rc1.config_hash != rc2.config_hash
    rc3 = load_config(dict(base))
    assert rc1.config_hash == rc3.config_hash
    # where the artifacts land does not change what the run computes
    rc4 = load_config(dict(base), {"output_dir": "runs/a"})
    rc5 = load_config({**base, "output_dir": "runs/b"})
    assert rc4.output_dir == "runs/a" and rc5.output_dir == "runs/b"
    assert rc1.config_hash == rc4.config_hash == rc5.config_hash


def test_config_from_file_and_string(tmp_path):
    raw = {"seed": 3, "data": {"synth": {"n_samples": 50}}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    from_file = load_config(path)
    from_string = load_config(json.dumps(raw))
    assert from_file.seed == from_string.seed == 3
    assert from_file.config_hash == from_string.config_hash


def test_config_naming_a_directory_fails_as_json(tmp_path):
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(tmp_path))


def test_config_from_a_json_string_longer_than_a_file_name():
    raw = {"seed": 4, "data": {"synth": {"n_samples": 50, "vocab_sizes": [7] * 100}}}
    text = json.dumps(raw)
    assert len(text) > 255
    assert load_config(text).config_hash == load_config(raw).config_hash


def test_model_validation():
    with pytest.raises(ConfigError, match="hidden_dims"):
        load_config({"model": {"hidden_dims": []}})
    rc = load_config({"model": {"embed_dim": 4, "fm_enabled": False}})
    assert rc.model["embed_dim"] == 4
    assert rc.model["fm_enabled"] is False
    assert rc.model["n_categorical"] == 10  # profile default fills the rest


def compress_chain(method, rank):
    return [
        {"stage": "train_baseline"},
        {"stage": "calibrate"},
        {"stage": "compress", "method": method, "rank": rank},
        {"stage": "finetune"},
    ]


def test_mlp_compression_needs_three_hidden_layers():
    bad = {"profile": "synth", "model": {"hidden_dims": [32, 32]}}
    with pytest.raises(ConfigError, match="hidden_dims"):
        load_config(bad)
    with pytest.raises(ConfigError, match="hidden_dims"):
        load_config({**bad, "stages": compress_chain("svd-mlp", 4)})
    rc = load_config({**bad, "pipeline": {"mlp": None}})
    assert [s["method"] for s in rc.stages if s["stage"] == "compress"] == ["afm-emb"]


@pytest.mark.parametrize("method, limit", [
    ("afm-mlp", 8),  # outputs of hidden layers two and three
    ("svd-mlp", 7),  # ... and the input of layer two
    ("afm-emb", 6),  # embed_dim
    ("svd-emb", 6),
])
def test_compress_rank_above_configured_widths_rejected(method, limit):
    model = {"embed_dim": 6, "hidden_dims": [7, 10, 8]}
    load_config({"model": model, "stages": compress_chain(method, limit)})
    message = rf"rank {limit + 1} outside \[1, {limit}\]"
    with pytest.raises(ConfigError, match=message):
        load_config({"model": model, "stages": compress_chain(method, limit + 1)})
    target, other = ("mlp", "emb") if method.endswith("mlp") else ("emb", "mlp")
    pipeline = {target: method, other: None, f"{target}_rank": limit + 1}
    with pytest.raises(ConfigError, match=message):
        load_config({"model": model, "pipeline": pipeline})


def test_compress_rank_defaults_are_checked_and_tt_is_a_cap():
    # no rank given: the profile's mlp_rank 16 is checked against width 8
    with pytest.raises(ConfigError, match="rank 16 outside"):
        load_config({"model": {"hidden_dims": [8, 8, 8]}})
    load_config({"model": {"embed_dim": 6},
                 "pipeline": {"mlp": None, "emb": "tt-emb", "emb_rank": 50}})


def test_tt_rank_must_be_positive():
    for rank in (0, -1):
        with pytest.raises(ConfigError, match=rf"rank {rank} outside \[1, inf\]"):
            load_config({"pipeline": {"mlp": None, "emb": "tt-emb", "emb_rank": rank}})


def test_calibrate_stage_collects_the_target_of_the_compress_it_feeds():
    for method, target in (("afm-mlp", "mlp"), ("afm-emb", "emb"), ("svd-mlp", "mlp")):
        filled = load_config({"stages": compress_chain(method, 4)}).stages
        assert filled[1] == {"stage": "calibrate", "batch_size": 10000, "target": target}
        # eval stages between the two do not count
        stages = compress_chain(method, 4)
        stages.insert(2, {"stage": "eval"})
        assert load_config({"stages": stages}).stages[1]["target"] == target
    assert [s["target"] for s in load_config({}).stages if s["stage"] == "calibrate"] == [
        "mlp", "emb"
    ]

    given = compress_chain("afm-emb", 4)
    given[1]["taps"] = "emb"
    with pytest.raises(ConfigError, match="unknown key.*taps"):
        load_config({"stages": given})
    twice = compress_chain("afm-mlp", 4)
    twice.insert(1, {"stage": "calibrate"})
    trailing = compress_chain("afm-mlp", 4) + [{"stage": "calibrate"}, {"stage": "eval"}]
    for stages in (twice, trailing):
        with pytest.raises(ConfigError, match="calibrate must be directly followed by a compress"):
            load_config({"stages": stages})


def test_finetune_stage_runs_exactly_one_epoch():
    stages = compress_chain("svd-mlp", 4)
    stages[3]["epochs"] = 1
    load_config({"stages": stages})
    for epochs in (0, 2, 5):
        stages[3]["epochs"] = epochs
        with pytest.raises(ConfigError, match="exactly one epoch"):
            load_config({"stages": stages})


def test_first_stage_must_train_the_baseline():
    for first in ("eval", "calibrate"):
        with pytest.raises(ConfigError, match="first stage must be train_baseline"):
            load_config({"stages": [{"stage": first}] + compress_chain("afm-mlp", 4)})


def compress_chain_with(method, option, value):
    return [
        {"stage": "train_baseline"},
        {"stage": "compress", "method": method, option: value},
        {"stage": "finetune"},
    ]


@pytest.mark.parametrize("config, message", [
    ({"pipeline": {"mlp_rank": 2.7}}, r"\(compress\): rank must be an integer, got 2.7"),
    ({"seed": 3.5}, "seed must be an integer, got 3.5"),
    ({"stages": [{"stage": "train_baseline"}, {"stage": "calibrate", "batch_size": 2.5},
                 {"stage": "compress", "method": "afm-mlp"}, {"stage": "finetune"}]},
     r"\(calibrate\): batch_size must be an integer, got 2.5"),
    ({"data": {"synth": {"vocab_sizes": [10.5, 20, 20]}}},
     "data.synth.vocab_sizes must be an integer, got 10.5"),
    ({"stages": compress_chain_with("tt-emb", "rank", True)},
     r"\(compress\): rank must be an integer, got True"),
    ({"model": {"hidden_dims": [True, 64, 64]}}, "model.hidden_dims must be an integer, got True"),
    ({"stages": [{"stage": "train_baseline", "learning_rate": True}]},
     "learning_rate must be a number, got True"),
    ({"seed": "5"}, "seed must be an integer, got '5'"),
    ({"model": {"embed_dim": "16"}}, "model.embed_dim must be an integer, got '16'"),
    ({"stages": [{"stage": "train_baseline", "batch_size": "100"}]},
     r"\(train_baseline\): batch_size must be an integer, got '100'"),
    ({"data": {"synth": {"noise": "0.1"}}}, "data.synth.noise must be a number, got '0.1'"),
], ids=["rank", "seed", "calibrate-batch-size", "vocab-sizes", "rank-bool", "hidden-dims",
        "learning-rate", "seed-str", "embed-dim-str", "batch-size-str", "noise-str"])
def test_numeric_settings_reject_booleans_and_fractions(config, message):
    with pytest.raises(ConfigError, match=message):
        load_config(config)


def train_stage(**settings):
    return {"stages": [{"stage": "train_baseline", **settings}]}


@pytest.mark.parametrize("config, message", [
    (train_stage(learning_rate=float("nan")), "learning_rate must be finite, got nan"),
    (train_stage(l2_ratio=float("-inf")), "l2_ratio must be finite, got -inf"),
    (train_stage(weight_decay=float("inf")), "weight_decay must be finite, got inf"),
    ({"data": {"synth": {"skew": float("inf")}}}, "data.synth.skew must be finite, got inf"),
    ({"data": {"synth": {"noise": float("nan")}}}, "data.synth.noise must be finite, got nan"),
    ({"data": {"test_fraction": float("nan")}}, "data.test_fraction must be finite, got nan"),
    ({"model": {"dropout_rate": float("nan")}}, "model.dropout_rate must be finite, got nan"),
    ({"seed": float("inf")}, "seed must be an integer, got inf"),
    ('{"stages": [{"stage": "train_baseline", "learning_rate": NaN}]}',
     "learning_rate must be finite, got nan"),
    ('{"data": {"synth": {"skew": Infinity}}}', "data.synth.skew must be finite, got inf"),
    # JSON integers too large for a float
    ('{"seed": 1%s}' % ("0" * 400), "seed is too large, got 10{400}"),
    ('{"data": {"synth": {"n_samples": 1%s}}}' % ("0" * 400),
     "data.synth.n_samples is too large, got 10{400}"),
], ids=["learning-rate-nan", "l2-ratio-minus-inf", "weight-decay-inf", "skew-inf", "noise-nan",
        "test-fraction-nan", "dropout-rate-nan", "seed-inf", "json-nan", "json-infinity",
        "seed-huge", "n-samples-huge"])
def test_numeric_settings_reject_nan_and_infinity(config, message):
    with pytest.raises(ConfigError, match=message):
        load_config(config)


@pytest.mark.parametrize("key", ["learning_rate", "l2_ratio", "weight_decay"])
def test_training_rates_must_not_be_negative(key):
    with pytest.raises(ConfigError, match=rf"\(train_baseline\): {key} must be >= 0, got -0.001"):
        load_config(train_stage(**{key: -1e-3}))
    with pytest.raises(ConfigError, match=f"{key} must be finite, got nan"):
        TrainConfig(**{key: float("nan")})  # built directly, as library callers do
    assert getattr(load_config(train_stage(**{key: 0})).stages[0]["train"], key) == 0.0


def test_numeric_settings_take_whole_floats_and_ints_for_floats():
    rc = load_config({
        "seed": 3.0,
        "model": {"hidden_dims": [8.0, 8, 8]},
        "stages": [{"stage": "train_baseline", "learning_rate": 1, "batch_size": 500.0},
                   *compress_chain_with("tt-emb", "rank", 2.0)[1:]],
    })
    assert rc.seed == 3 and rc.model["hidden_dims"] == [8, 8, 8]
    train = rc.stages[0]["train"]
    assert train.learning_rate == 1.0 and train.batch_size == 500
    assert type(rc.stages[1]["rank"]) is int and rc.stages[1]["rank"] == 2


@pytest.mark.parametrize("build, message", [
    (lambda: TrainConfig(batch_size=2.7), "^batch_size must be an integer, got 2.7$"),
    (lambda: TrainConfig(batch_size=True), "^batch_size must be an integer, got True$"),
    (lambda: TrainConfig(learning_rate="0.1"), "^learning_rate must be a number, got '0.1'$"),
    (lambda: SynthSpec(n_samples=2.5, vocab_sizes=[3, 3]),
     "^data.synth.n_samples must be an integer, got 2.5$"),
    (lambda: SynthSpec(n_samples=10, vocab_sizes=[3.5, 3]),
     "^data.synth.vocab_sizes must be an integer, got 3.5$"),
    (lambda: TrainConfig(seed=-1), "^seed must be >= 0, got -1$"),
], ids=["batch-size-fraction", "batch-size-bool", "learning-rate-str", "n-samples-fraction",
        "vocab-sizes-fraction", "seed-negative"])
def test_records_built_in_python_follow_the_config_rules(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


@pytest.mark.parametrize("synth, message", [
    ({"noise": 0.7}, r"data.synth.noise: 0.7 outside \[0, 0.5\)"),
    ({"noise": -0.1}, r"data.synth.noise: -0.1 outside \[0, 0.5\)"),
    ({"n_samples": 1}, "data.synth.n_samples: 1 is below 2"),
    ({"vocab_sizes": [1, 5]}, r"data.synth.vocab_sizes: .* got \[1, 5\]"),
    ({"vocab_sizes": []}, r"data.synth.vocab_sizes: .* got \[\]"),
    ({"latent_rank": 0}, "data.synth.latent_rank: 0 is below 1"),
    ({"skew": -0.5}, "data.synth.skew: -0.5 is below 0"),
], ids=["noise", "noise-negative", "n-samples", "vocab-sizes", "vocab-sizes-empty",
        "latent-rank", "skew"])
def test_synth_value_out_of_range_names_its_key(synth, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_config({"data": {"synth": synth}})


@pytest.mark.parametrize("config, message", [
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"data": {"split_seed": -5}}, "data.split_seed must be >= 0, got -5"),
    ({"data": {"synth": {"seed": -3}}}, "data.synth.seed: -3 is below 0"),
], ids=["seed", "split-seed", "synth-seed"])
def test_negative_seeds_are_rejected_naming_their_key(config, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_config(config)


RECORDS = {  # each record with values that pass its checks
    ModelSpec: {"n_continuous": 0, "n_categorical": 2, "embed_dim": 4,
                "hidden_dims": [4, 4, 4], "dropout_rate": 0.0},
    TrainConfig: {},
    SynthSpec: {"n_samples": 10, "vocab_sizes": [3, 3]},
}


@pytest.mark.parametrize("record, key", [
    (record, f.name) for record in RECORDS for f in fields(record) if f.type != "bool"
], ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_records_reject_a_boolean_in_every_numeric_field(record, key):
    value = [True, 3] if key in ("hidden_dims", "vocab_sizes") else True
    with pytest.raises(ConfigError, match=rf"{key} must be (an integer|a number), got True"):
        record(**{**RECORDS[record], key: value})


def test_profiles_are_self_consistent():
    for name, prof in PROFILES.items():
        for key in ("n_continuous", "n_categorical", "embed_dim", "hidden_dims",
                    "mlp_rank", "emb_rank", "tt_rank", "finetune",
                    "finetune_mlp", "finetune_emb"):
            assert key in prof, f"profile {name} lacks {key}"
        assert len(prof["hidden_dims"]) == 3
        assert prof["mlp_rank"] <= min(prof["hidden_dims"])
        assert prof["emb_rank"] <= prof["embed_dim"]
