"""End-to-end tests of the command line interface via main(argv)."""

import json

import pytest

from lowrank_ctr.checkpoint import load_checkpoint
from lowrank_ctr.cli import main
from lowrank_ctr.train import METHODS


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


def test_pipeline_tt_stage_with_its_own_core_count(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "stages": [
        {"stage": "train_baseline", "epochs": 0},
        {"stage": "compress", "method": "tt-emb", "rank": 2, "tt_cores": 2},
        {"stage": "finetune"},
    ]}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "reports" / "stage01-tt-emb.json").read_text())
    assert report["method"] == "tt-emb"
    model = load_checkpoint(out / "checkpoints" / "stage02-finetune.lrck")
    assert all(len(t.cores.cores) == 2 for t in model.tables)


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


def test_pipeline_afm_emb_without_embedding_taps_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "stages": [
        {"stage": "train_baseline", "epochs": 0},
        {"stage": "calibrate", "taps": "mlp"},
        {"stage": "compress", "method": "afm-emb", "rank": 4},
        {"stage": "finetune"},
    ]}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "needs a tap for emb.0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stages", [
    [{"stage": "train_baseline"}, {"stage": "calibrate", "taps": "embs"}],
    [{"stage": "train_baseline"}, {"stage": "compress", "method": "svd-mlp", "rank": 4},
     {"stage": "finetune", "epochs": 5}],
    [{"stage": "eval"}, {"stage": "train_baseline"}],
    [{"stage": "calibrate"}, {"stage": "compress", "method": "afm-mlp", "rank": 4},
     {"stage": "finetune"}],
], ids=["taps-typo", "finetune-epochs", "eval-first", "calibrate-first"])
def test_pipeline_rejects_bad_stages_before_training(tmp_path, capsys, stages):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "stages": stages}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(out.rglob("*.lrck"))


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
], ids=["seed", "hidden-int", "hidden-zero", "epochs", "stages", "pipeline",
        "data", "model", "stage-name", "synth-noise-str", "embed-dim-str",
        "test-fraction-str", "split-seed-str", "dropout-rate-str", "calibrate-batch-str",
        "calibrate-batch-zero", "tt-cores-str", "synth-noise-range", "batch-size-zero",
        "epochs-negative", "fm-enabled-str", "insert-relu-str", "options-off-method"])
def test_pipeline_rejects_malformed_values_at_load(tmp_path, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, **bad}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()  # nothing ran, not even the data build


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


def test_bench_rejects_oversized_batches(workdir, capsys):
    rc = main([
        "bench",
        "--config", str(workdir["config"]),
        "--model-in", str(workdir["checkpoint"]),
        "--batch-size", "100000",
    ])
    assert rc == 3
    assert "smaller than one batch" in capsys.readouterr().err
