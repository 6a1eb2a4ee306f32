"""Tests for config parsing, profiles and standard stage generation."""

import json

import pytest

from lowrank_ctr.config import (
    PROFILES,
    SYNTH_DATA_DEFAULTS,
    load_config,
    standard_stages,
)
from lowrank_ctr.errors import ConfigError


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


def test_standard_stages_mlp_then_emb():
    stages = standard_stages(PROFILES["synth"], {})
    assert names(stages) == [
        "train_baseline",
        "calibrate", "compress", "finetune",
        "calibrate", "compress", "finetune",
        "eval",
    ]
    assert stages[1]["taps"] == "mlp"
    assert stages[2] == {"stage": "compress", "method": "afm-mlp", "rank": 16}
    assert stages[3]["batch_size"] == 2000  # finetune_mlp overlay
    assert stages[4]["taps"] == "emb"
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


def test_config_from_file_and_string(tmp_path):
    raw = {"seed": 3, "data": {"synth": {"n_samples": 50}}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    from_file = load_config(path)
    from_string = load_config(json.dumps(raw))
    assert from_file.seed == from_string.seed == 3
    assert from_file.config_hash == from_string.config_hash


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


def test_calibrate_taps_selector_checked():
    def chain(taps):
        return [
            {"stage": "train_baseline"},
            {"stage": "calibrate", "taps": taps},
            {"stage": "compress", "method": "afm-mlp"},
            {"stage": "finetune"},
        ]

    for taps in ("mlp", "emb", "auto", ["mlp.1", "mlp.2", "emb.0"], []):
        load_config({"stages": chain(taps)})
    for taps in ("embs", "all", "mlp.1", ["emb"], ["emb.x"], ["conv.0"], [1], None):
        with pytest.raises(ConfigError, match="taps"):
            load_config({"stages": chain(taps)})


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


def test_profiles_are_self_consistent():
    for name, prof in PROFILES.items():
        for key in ("n_continuous", "n_categorical", "embed_dim", "hidden_dims",
                    "mlp_rank", "emb_rank", "tt_rank", "finetune",
                    "finetune_mlp", "finetune_emb"):
            assert key in prof, f"profile {name} lacks {key}"
        assert len(prof["hidden_dims"]) == 3
        assert prof["mlp_rank"] <= min(prof["hidden_dims"])
        assert prof["emb_rank"] <= prof["embed_dim"]
