"""End-to-end tests of the command line interface via main(argv)."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from lowrank_ctr.checkpoint import MAGIC, load_checkpoint
from lowrank_ctr.cli import main
from lowrank_ctr.train import METHODS
from test_data import HugeDictionary


BASE_CONFIG = {
    "profile": "synth",
    "seed": 0,
    "data": {
        "synth": {
            "n_samples": 3000,
            "vocab_sizes": [20, 20, 20, 20],
            "latent_rank": 2,
            "noise": 0.05,
            "seed": 3,
        },
        "test_fraction": 0.2,
    },
    "model": {"embed_dim": 8, "hidden_dims": [16, 16, 16], "dropout_rate": 0.0},
}
SYNTH = BASE_CONFIG["data"]["synth"]
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A config file plus a trained baseline checkpoint, built once."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(BASE_CONFIG))
    out = root / "baseline"
    rc = main(["train", "--config", str(cfg), "--out", str(out),
               "--epochs", "2", "--learning-rate", "1e-2", "--batch-size", "100"])
    assert rc == 0
    ckpt = out / "checkpoints" / "stage00-train_baseline.lrck"
    assert ckpt.exists()
    return {"root": root, "config": cfg, "checkpoint": ckpt}


def test_train_writes_manifest_and_metrics(workdir):
    out = workdir["checkpoint"].parent.parent
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["profile"] == "synth"
    assert [s["status"] for s in manifest["stages"]] == ["completed", "completed"]
    lines = (out / "metrics.jsonl").read_text().splitlines()
    rows = [json.loads(l) for l in lines]
    assert any("test_auc" in r for r in rows)


def test_eval_reports_metrics(workdir, capsys, tmp_path):
    report = tmp_path / "eval.json"
    rc = main([
        "eval",
        "--config", str(workdir["config"]),
        "--model-in", str(workdir["checkpoint"]),
        "--report", str(report),
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["split"] == "test"
    assert 0.5 < payload["auc"] <= 1.0
    assert payload["n_samples"] == 600
    assert json.loads(report.read_text()) == payload


def test_compress_mlp_then_finetune(workdir, capsys, tmp_path):
    small = tmp_path / "small.lrck"
    rc = main([
        "compress",
        "--config", str(workdir["config"]),
        "--model-in", str(workdir["checkpoint"]),
        "--model-out", str(small),
        "--method", "afm-mlp",
        "--rank", "4",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "afm-mlp"
    assert set(report["components"]) == {"mlp.1", "mlp.2"}
    assert report["params_after"]["mlp"] < report["params_before"]["mlp"]
    model = load_checkpoint(small)
    assert model.mlp[1].weight.shape[0] == 4  # bottleneck layer

    tuned = tmp_path / "tuned.lrck"
    rc = main([
        "finetune",
        "--config", str(workdir["config"]),
        "--model-in", str(small),
        "--model-out", str(tuned),
        "--learning-rate", "1e-3",
    ])
    assert rc == 0
    row = json.loads(capsys.readouterr().out)
    assert row["stage"] == "finetune"
    assert tuned.exists()


def test_compress_embeddings_shrinks_tables(workdir, capsys, tmp_path):
    out = tmp_path / "emb.lrck"
    rc = main([
        "compress",
        "--config", str(workdir["config"]),
        "--model-in", str(workdir["checkpoint"]),
        "--model-out", str(out),
        "--method", "afm-emb",
        "--rank", "2",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params_after"]["embeddings"] < report["params_before"]["embeddings"]
    assert report["components"]["fused_first_fc"] is True
    model = load_checkpoint(out)
    assert all(t.weights.shape[0] == 2 for t in model.tables)
    assert model.mlp[0].weight.shape[1] == 2 * 4  # fused first layer reads rank-2


@pytest.mark.parametrize("method, flags", [(m, []) for m in METHODS] + [
    ("afm-emb", ["--no-fuse"]),
    ("svd-mlp", ["--no-insert-relu"]),
])
def test_compress_runs_every_method(workdir, capsys, tmp_path, method, flags):
    out = tmp_path / "small.lrck"
    rc = main([
        "compress",
        "--config", str(workdir["config"]),
        "--model-in", str(workdir["checkpoint"]),
        "--model-out", str(out),
        "--method", method,
        *flags,
    ])  # at the profile's default rank for the method
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["method"] == method
    model = load_checkpoint(out)
    option = METHODS[method].option
    assert model.fused is (option == "fuse" and "--no-fuse" not in flags)
    if option == "insert_relu":
        relu = "--no-insert-relu" not in flags
        assert model.mlp[1].activation == ("relu" if relu else "none")


def test_pipeline_tt_stage_splits_each_table_over_three_cores(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "stages": [
        {"stage": "train_baseline", "epochs": 0},
        {"stage": "compress", "method": "tt-emb", "rank": 2},
        {"stage": "finetune"},
    ]}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "reports" / "stage01-tt-emb.json").read_text())
    assert report["method"] == "tt-emb"
    model = load_checkpoint(out / "checkpoints" / "stage02-finetune.lrck")
    assert all(len(t.cores.cores) == 3 for t in model.tables)


def test_bench_reports_throughput(workdir, capsys):
    rc = main([
        "bench",
        "--config", str(workdir["config"]),
        "--model-in", str(workdir["checkpoint"]),
        "--batch-size", "100",
        "--batches", "20",
        "--warmup", "2",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["samples_per_second"] > 0
    assert report["batches_timed"] == 20
    assert report["batch_size"] == 100


def test_synth_command_writes_tsv(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "synth", "data": {"synth": {
        "n_samples": 100, "vocab_sizes": [5, 5], "seed": 1}}}))
    out = tmp_path / "rows.tsv"
    rc = main(["synth", "--config", str(cfg), "--out", str(out),
               "--n-samples", "80"])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 80


@pytest.mark.parametrize("value", ["1", "0", "-3"])
def test_synth_rejects_too_few_samples_before_generating(tmp_path, capsys, value):
    out = tmp_path / "rows.tsv"
    assert main(["synth", "--out", str(out), "--n-samples", value]) == 2
    assert capsys.readouterr().err == f"error: data.synth.n_samples: {value} is below 2\n"
    assert not out.exists()


def test_synth_n_samples_does_not_turn_a_data_path_into_synthetic_data(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "criteo", "data": {"path": "rows.tsv"}}))
    out = tmp_path / "rows.tsv"
    assert main(["synth", "--config", str(cfg), "--out", str(out), "--n-samples", "50"]) == 2
    assert "needs a data.synth block" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_command_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        **BASE_CONFIG,
        "data": {**BASE_CONFIG["data"],
                 "synth": {**BASE_CONFIG["data"]["synth"], "n_samples": 1500}},
        "pipeline": {"mlp": "svd-mlp", "emb": None, "mlp_rank": 8},
    }))
    out = tmp_path / "run"
    rc = main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(s["status"] == "completed" for s in manifest["stages"])
    # svd-mlp reads no calibration taps, so no calibrate stage precedes it
    assert (out / "reports" / "stage01-svd-mlp.json").exists()
    assert capsys.readouterr().out == ""  # status lines go to stderr


def test_exit_codes(tmp_path, capsys):
    # missing config file -> data error
    assert main(["train", "--config", str(tmp_path / "absent.json")]) == 3
    # config typo -> usage error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"trainer": {}}))
    assert main(["train", "--config", str(bad)]) == 2
    # missing checkpoint -> data error
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps(BASE_CONFIG))
    assert main(["eval", "--config", str(cfg),
                 "--model-in", str(tmp_path / "absent.lrck")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["compress", "finetune", "eval", "bench"])
def test_config_is_checked_before_the_checkpoint_is_read(tmp_path, capsys, monkeypatch, command):
    loads = []
    monkeypatch.setattr("lowrank_ctr.cli.load_checkpoint", loads.append)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**BASE_CONFIG, "trainer": {}}))
    argv = [command, "--config", str(bad), "--model-in", str(tmp_path / "absent.lrck")]
    if command in ("compress", "finetune"):
        argv += ["--model-out", str(tmp_path / "never.lrck")]
    if command == "compress":
        argv += ["--method", "svd-mlp"]
    assert main(argv) == 2
    assert "trainer" in capsys.readouterr().err
    assert loads == []


def test_config_name_too_long_for_a_file_is_not_found(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", "c" * 300, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "config file not found" in err and "Traceback" not in err
    assert not out.exists()


def test_pipeline_reads_a_criteo_shaped_tsv(tmp_path, capsys):
    rng = np.random.default_rng(4)
    n = 4000
    labels = rng.integers(0, 2, size=(n, 1)).astype(str)
    cont = rng.integers(0, 50, size=(n, 13)).astype(str)
    cont[rng.random(cont.shape) < 0.2] = ""  # a blank count reads as 0
    cats = np.char.add([f"f{i}-" for i in range(26)], rng.integers(0, 20, size=(n, 26)).astype(str))
    cats[rng.random(cats.shape) < 0.05] = ""  # a blank token is index 0
    data = tmp_path / "clicks.tsv"
    data.write_text("".join("\t".join(row) + "\n" for row in np.hstack([labels, cont, cats])))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "criteo", "data": {"path": str(data)}}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(s["status"] == "completed" for s in manifest["stages"])
    model = load_checkpoint(out / "checkpoints" / "stage06-finetune.lrck")
    assert (model.n_fields, model.n_continuous, model.fused) == (26, 13, True)


def test_pipeline_rejects_bad_mlp_config_before_training(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        **BASE_CONFIG, "model": {**BASE_CONFIG["model"], "hidden_dims": [16, 16]},
    }))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    assert "hidden_dims" in capsys.readouterr().err
    assert not list(out.rglob("*.lrck"))


def test_pipeline_rejects_afm_compress_without_calibrate(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "stages": [
        {"stage": "train_baseline"},
        {"stage": "compress", "method": "afm-emb", "rank": 4},
        {"stage": "finetune"},
    ]}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    assert "calibrate" in capsys.readouterr().err
    assert not list(out.rglob("*.lrck"))


def calibrated(taps, method):
    """A chain whose calibrate stage gives ``taps``, which no stage accepts."""
    return [{"stage": "train_baseline"}, {"stage": "calibrate", "taps": taps},
            {"stage": "compress", "method": method, "rank": 4}, {"stage": "finetune"}]


def compressed_twice(first, second):
    """A chain that compresses one target with ``first``, then again with ``second``."""
    again = [{"stage": "calibrate"}] if METHODS[second].calibrated else []
    return [{"stage": "train_baseline"},
            {"stage": "compress", "method": first, "rank": 4}, {"stage": "finetune"},
            *again, {"stage": "compress", "method": second, "rank": 4}, {"stage": "finetune"}]


@pytest.mark.parametrize("stages", [
    calibrated("embs", "afm-emb"),
    [{"stage": "train_baseline"}, {"stage": "compress", "method": "svd-mlp", "rank": 4},
     {"stage": "finetune", "epochs": 5}],
    [{"stage": "eval"}, {"stage": "train_baseline"}],
    [{"stage": "calibrate"}, {"stage": "compress", "method": "afm-mlp", "rank": 4},
     {"stage": "finetune"}],
    calibrated("mlp", "afm-emb"),
    calibrated(["emb.0"], "afm-mlp"),
    calibrated(["mlp.9"], "afm-mlp"),
    [{"stage": "train_baseline"}, {"stage": "compress", "method": "svd-mlp", "rank": 4},
     {"stage": "finetune"}, {"stage": "calibrate"}],
    compressed_twice("svd-mlp", "afm-mlp"),
    compressed_twice("svd-emb", "svd-emb"),
    compressed_twice("svd-emb", "tt-emb"),
    [{"stage": "train_baseline"}, {"stage": "compress", "method": "svd-mlp", "rank": 4},
     {"stage": "finetune"}, {"stage": "train_baseline"}, {"stage": "eval"}],
], ids=["taps-typo", "finetune-epochs", "eval-first", "calibrate-first", "mlp-taps-afm-emb",
        "emb-taps-afm-mlp", "absent-tap", "trailing-calibrate", "svd-mlp-then-afm-mlp",
        "svd-emb-twice", "svd-emb-then-tt-emb", "second-baseline"])
def test_pipeline_rejects_bad_stages_before_training(tmp_path, capsys, stages):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "stages": stages}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()  # nothing ran: no data build, no checkpoint


@pytest.mark.parametrize("bad", [
    {"seed": "abc"},
    {"model": {"hidden_dims": 5}},
    {"model": {"hidden_dims": [0, 4, 4]}, "pipeline": {"mlp": None}},
    {"stages": [{"stage": "train_baseline", "epochs": "x"}]},
    {"stages": 5},
    {"pipeline": 5},
    {"data": 5},
    {"model": 5},
    {"stages": [{"stage": ["x"]}]},
    {"data": {**BASE_CONFIG["data"], "synth": {**SYNTH, "noise": "x"}}},
    {"model": {**BASE_CONFIG["model"], "embed_dim": "x"}, "pipeline": {"mlp": None, "emb": None}},
    {"data": {**BASE_CONFIG["data"], "test_fraction": "x"}},
    {"data": {**BASE_CONFIG["data"], "split_seed": "x"}},
    {"model": {**BASE_CONFIG["model"], "dropout_rate": "x"}},
    {"stages": [{"stage": "train_baseline"}, {"stage": "calibrate", "batch_size": "x"},
                {"stage": "compress", "method": "afm-mlp", "rank": 4}, {"stage": "finetune"}]},
    {"stages": [{"stage": "train_baseline"}, {"stage": "calibrate", "batch_size": 0},
                {"stage": "compress", "method": "afm-mlp", "rank": 4}, {"stage": "finetune"}]},
    {"stages": [{"stage": "train_baseline"},
                {"stage": "compress", "method": "tt-emb", "rank": 2, "tt_cores": "x"},
                {"stage": "finetune"}]},
    {"data": {**BASE_CONFIG["data"], "synth": {**SYNTH, "noise": 0.7}}},
    {"stages": [{"stage": "train_baseline", "batch_size": 0}]},
    {"stages": [{"stage": "train_baseline", "epochs": -1}]},
    {"model": {**BASE_CONFIG["model"], "fm_enabled": "no"}},
    {"pipeline": {"insert_relu": "no"}},
    {"stages": [{"stage": "train_baseline"},
                {"stage": "compress", "method": "svd-mlp", "rank": 4, "fuse": False, "tt_cores": 2},
                {"stage": "finetune"}]},
    {"model": {**BASE_CONFIG["model"], "embed_dim": 0}, "pipeline": {"mlp": None, "emb": None}},
    {"model": {**BASE_CONFIG["model"], "n_continuous": -1}},
    {"model": {**BASE_CONFIG["model"], "n_categorical": 0}},
    {"model": {**BASE_CONFIG["model"], "dropout_rate": 1.5}},
    {"model": {**BASE_CONFIG["model"], "dropout_rate": -0.1}},
    {"data": {**BASE_CONFIG["data"], "test_fraction": 1.5}},
    {"data": {**BASE_CONFIG["data"], "test_fraction": 0.0}},
    {"stages": [{"stage": "train_baseline"},
                {"stage": "compress", "method": "tt-emb", "rank": 2, "tt_cores": 0},
                {"stage": "finetune"}]},
    {"stages": [{"stage": "train_baseline", "dropout": 1.5}]},
    {"stages": [{"stage": "train_baseline", "learning_rate": float("nan")}]},
    {"seed": 10**400},
    {"seed": -1},
    {"data": {**BASE_CONFIG["data"], "split_seed": -5}},
    {"data": {**BASE_CONFIG["data"], "synth": {**SYNTH, "seed": -3}}},
], ids=["seed", "hidden-int", "hidden-zero", "epochs", "stages", "pipeline",
        "data", "model", "stage-name", "synth-noise-str", "embed-dim-str",
        "test-fraction-str", "split-seed-str", "dropout-rate-str", "calibrate-batch-str",
        "calibrate-batch-zero", "tt-cores-str", "synth-noise-range", "batch-size-zero",
        "epochs-negative", "fm-enabled-str", "insert-relu-str", "options-off-method",
        "embed-dim-zero", "n-continuous-negative", "n-categorical-zero", "dropout-rate-range",
        "dropout-rate-negative", "test-fraction-range", "test-fraction-zero", "tt-cores-zero",
        "stage-dropout-range", "learning-rate-nan", "seed-huge", "seed-negative",
        "split-seed-negative", "synth-seed-negative"])
def test_pipeline_rejects_malformed_values_at_load(tmp_path, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, **bad}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()  # nothing ran, not even the data build


def test_pipeline_rejects_a_negative_seed_flag_at_load(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BASE_CONFIG))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_eval_of_a_checkpoint_larger_than_memory_exits_3(workdir, capsys, tmp_path):
    # the tensor table claims a first layer of 10**12 outputs; the loader
    # rejects it without asking for the memory
    blob = workdir["checkpoint"].read_bytes()
    head = len(MAGIC) + 8
    (length,) = struct.unpack("<Q", blob[len(MAGIC) : head])
    manifest = json.loads(blob[head : head + length])
    next(t for t in manifest["tensors"] if t["name"] == "mlp.0.weight")["shape"][0] = 10**12
    text = json.dumps(manifest).encode("utf-8")
    huge = tmp_path / "huge.lrck"
    huge.write_bytes(MAGIC + struct.pack("<Q", len(text)) + text + blob[head + length :])
    rc = main(["eval", "--config", str(workdir["config"]), "--model-in", str(huge)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "mlp.0.weight" in err and "Traceback" not in err


def test_eval_of_a_manifest_longer_than_the_file_exits_3(workdir, capsys, tmp_path):
    short = tmp_path / "short.lrck"
    short.write_bytes(MAGIC + struct.pack("<Q", 2**40) + b"{}")
    rc = main(["eval", "--config", str(workdir["config"]), "--model-in", str(short)])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {short}: truncated manifest\n"


def test_pipeline_rejects_a_data_path_that_is_not_a_string(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "criteo", "data": {"path": 7}}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: data.path must be a string, got 7\n"
    assert not out.exists()


def test_pipeline_rejects_an_output_dir_that_is_not_a_string(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "output_dir": None}))
    monkeypatch.chdir(tmp_path)
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: output_dir must be a string, got None\n"
    assert list(tmp_path.iterdir()) == [cfg]  # no directory made


def test_train_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "root must be a JSON object" in capsys.readouterr().err


def test_finetune_at_zero_learning_rate_keeps_the_model(workdir, tmp_path, capsys):
    tuned = tmp_path / "tuned.lrck"
    rc = main([
        "finetune",
        "--config", str(workdir["config"]),
        "--model-in", str(workdir["checkpoint"]),
        "--model-out", str(tuned),
        "--learning-rate", "0",
    ])
    assert rc == 0
    capsys.readouterr()
    assert tuned.read_bytes() == workdir["checkpoint"].read_bytes()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_compress_rejects_calib_batch_size_below_one(workdir, capsys, tmp_path, value):
    out = tmp_path / "never.lrck"
    rc = main([
        "compress",
        "--config", str(workdir["config"]),
        "--model-in", str(workdir["checkpoint"]),
        "--model-out", str(out),
        "--method", "afm-mlp",
        "--rank", "4",
        "--calib-batch-size", value,
    ])
    assert rc == 2
    assert "--calib-batch-size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--batch-size", "0"),
    ("--batch-size", "-5"),
    ("--batches", "5"),
    ("--warmup", "-1"),
])
def test_bench_rejects_out_of_range_flags_before_loading(tmp_path, capsys, flag, value):
    # the checkpoint does not exist: loading it first would exit 3
    rc = main(["bench", "--model-in", str(tmp_path / "absent.lrck"), flag, value])
    assert rc == 2
    assert flag in capsys.readouterr().err


def test_bench_rejects_oversized_batches(workdir, capsys):
    rc = main([
        "bench",
        "--config", str(workdir["config"]),
        "--model-in", str(workdir["checkpoint"]),
        "--batch-size", "100000",
    ])
    assert rc == 3
    assert "smaller than one batch" in capsys.readouterr().err


@pytest.mark.parametrize("method, rank", [
    ("afm-mlp", "0"),
    ("afm-mlp", "17"),  # the checkpoint's hidden layers are 16 wide
    ("svd-mlp", "17"),
    ("afm-emb", "9"),  # and its tables 8 wide
    ("tt-emb", "0"),
])
def test_compress_rejects_out_of_range_rank_before_data(
    workdir, capsys, tmp_path, monkeypatch, method, rank
):
    def no_data(resolved):
        raise AssertionError("prepare_data ran")

    monkeypatch.setattr("lowrank_ctr.cli.prepare_data", no_data)
    out = tmp_path / "never.lrck"
    rc = main([
        "compress",
        "--config", str(workdir["config"]),
        "--model-in", str(workdir["checkpoint"]),
        "--model-out", str(out),
        "--method", method,
        "--rank", rank,
    ])
    assert rc == 2
    assert f"--rank ({workdir['checkpoint']}): rank {rank} outside" in capsys.readouterr().err
    assert not out.exists()


def test_afm_emb_compress_rejects_compressed_tables_before_data(
    workdir, capsys, tmp_path, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("data was built or calibrated")

    monkeypatch.setattr("lowrank_ctr.cli.prepare_data", never)
    monkeypatch.setattr("lowrank_ctr.cli.calibrate", never)
    out = tmp_path / "never.lrck"
    rc = main([
        "compress",
        "--config", str(workdir["config"]),
        "--model-in", str(DATA / "svd-unfused.lrck"),  # it holds projections
        "--model-out", str(out),
        "--method", "afm-emb",
        "--rank", "2",
    ])
    assert rc == 3
    assert capsys.readouterr().err == "error: embedding tables are already compressed\n"
    assert not out.exists()


def test_train_rejects_a_non_finite_continuous_cell_at_load(tmp_path, capsys):
    rows = [f"{i % 2}\t{i}\ta{i % 3}\tb{i % 4}" for i in range(40)]
    rows[17] = "1\tnan\ta0\tb0"
    data = tmp_path / "clicks.tsv"
    data.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"path": str(data)},
        "model": {"n_continuous": 1, "n_categorical": 2, "embed_dim": 4, "hidden_dims": [8, 8, 8]},
    }))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {data}:18: bad continuous value 'nan'\n"
    assert not list(out.rglob("*.lrck"))


@pytest.mark.parametrize("command", ["bench", "eval", "compress"])
def test_model_in_naming_a_directory_exits_3(workdir, capsys, tmp_path, command):
    argv = [command, "--config", str(workdir["config"]), "--model-in", str(tmp_path)]
    if command == "compress":
        argv += ["--model-out", str(tmp_path / "never.lrck"), "--method", "svd-mlp"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"error: Is a directory: {tmp_path}\n"
    assert not (tmp_path / "never.lrck").exists()


def test_synth_rejects_a_directory_out_before_generating(tmp_path, capsys, monkeypatch):
    def no_rows(spec):
        raise AssertionError("synth_generate ran")

    monkeypatch.setattr("lowrank_ctr.cli.synth_generate", no_rows)
    assert main(["synth", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: --out is a directory: {tmp_path}\n"


def test_vocabulary_too_large_for_int32_exits_before_any_data(tmp_path, capsys, monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("data was generated")

    monkeypatch.setattr("lowrank_ctr.data.synth_generate", no_rows)
    monkeypatch.setattr("lowrank_ctr.train.synth_generate", no_rows)
    cfg = tmp_path / "cfg.json"
    synth = {**SYNTH, "vocab_sizes": [20, 1 << 31, 20, 20]}
    cfg.write_text(json.dumps({**BASE_CONFIG, "data": {**BASE_CONFIG["data"], "synth": synth}}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: data.synth.vocab_sizes: field 1 has 2147483648 items; indices "
                   "are int32, so a field holds fewer than 2147483648\n")
    assert not out.exists()


def test_tsv_vocabulary_too_large_for_int32_exits_3(tmp_path, capsys, monkeypatch):
    rows = [f"{i % 2}\ta{i % 3}\tb{i % 4}" for i in range(40)]
    data = tmp_path / "clicks.tsv"
    data.write_text("\n".join(rows) + "\n")
    monkeypatch.setattr("lowrank_ctr.data.build_dictionaries", lambda *a, **k: [HugeDictionary()] * 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"path": str(data)},
        "model": {"n_continuous": 0, "n_categorical": 2, "embed_dim": 4, "hidden_dims": [8, 8, 8]},
    }))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {data}: field 0 has 2147483648 items")
    assert not list(out.rglob("*.lrck"))
