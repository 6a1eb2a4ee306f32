"""Command line interface.

Subcommands:

    pipeline   run a full train / calibrate / compress / finetune config
    train      train a baseline model and save a checkpoint
    compress   compress a checkpointed model (afm-mlp, svd-mlp, afm-emb,
               svd-emb, tt-emb)
    finetune   one fine-tuning epoch on a checkpointed model
    eval       AUC / LogLoss of a checkpoint on the configured test split
    bench      inference throughput of a checkpoint
    synth      generate a synthetic click log as TSV

Exit codes: 0 success, 2 usage or configuration error, 3 data error
(missing or malformed files), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import _read_config, fill_stage, load_config
from .data import SynthSpec, synth_generate, write_tsv
from .errors import ConfigError, DataError, NumericError, RankError, ShapeError
from .metrics import bench_throughput
from .nn import forward
from .train import (
    METHODS,
    _run_compress,
    calibrate,
    evaluate_model,
    finetune,
    prepare_data,
    run_pipeline,
    select_taps,
)


def _config_from(args, stages=None):
    raw = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise DataError(f"config file not found: {path}")
        raw = _read_config(path)
    if stages is not None:
        raw.pop("pipeline", None)
        raw["stages"] = stages
    overrides = {
        "seed": getattr(args, "seed", None),
        "profile": getattr(args, "profile", None),
        "output_dir": getattr(args, "out", None),
    }
    return load_config(raw, overrides)


def _given(args, *names) -> dict:
    """The named options that were given on the command line."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _emit(payload: dict, report_path=None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if report_path:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(text + "\n")


def cmd_pipeline(args) -> int:
    rc = _config_from(args)
    manifest = run_pipeline(rc, rc.output_dir)
    print(f"pipeline complete: {len(manifest['stages'])} stages, "
          f"artifacts in {rc.output_dir}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    stage = {"stage": "train_baseline",
             **_given(args, "epochs", "learning_rate", "batch_size")}
    rc = _config_from(args, stages=[stage, {"stage": "eval"}])
    run_pipeline(rc, rc.output_dir)
    print(f"baseline trained; artifacts in {rc.output_dir}", file=sys.stderr)
    return 0


def cmd_compress(args) -> int:
    model = load_checkpoint(args.model_in)
    rc = _config_from(args)
    method = METHODS[args.method]
    stage = {"stage": "compress", "method": args.method, **_given(args, "rank")}
    if getattr(args, f"no_{method.option}", False):
        stage[method.option] = False  # --no-insert-relu or --no-fuse
    stage = fill_stage(stage, rc.profile_defaults, rc.seed, "compress")
    taps = None
    if method.calibrated:
        train_ds, _ = prepare_data(rc)
        ids = select_taps(model, method.target)
        taps = calibrate(model, train_ds, ids, batch_size=args.calib_batch_size)
    report = _run_compress(model, stage, taps)
    save_checkpoint(model, args.model_out)
    _emit(report, args.report)
    return 0


def cmd_finetune(args) -> int:
    model = load_checkpoint(args.model_in)
    rc = _config_from(args)
    stage = {"stage": "finetune", **rc.profile_defaults.get("finetune", {}),
             **_given(args, "learning_rate", "batch_size", "dropout")}
    cfg = fill_stage(stage, rc.profile_defaults, rc.seed, "finetune")["train"]
    train_ds, test_ds = prepare_data(rc)
    rows = finetune(model, train_ds, cfg, test_dataset=test_ds)
    save_checkpoint(model, args.model_out)
    _emit(rows[-1], args.report)
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.model_in)
    rc = _config_from(args)
    train_ds, test_ds = prepare_data(rc)
    ds = train_ds if args.split == "train" else test_ds
    report = evaluate_model(model, ds)
    _emit({"split": args.split, **report.to_dict()}, args.report)
    return 0


def cmd_bench(args) -> int:
    model = load_checkpoint(args.model_in)
    rc = _config_from(args)
    _, test_ds = prepare_data(rc)
    size = args.batch_size
    need = args.warmup + args.batches
    batches = []
    start = 0
    n = len(test_ds)
    if n < size:
        raise DataError(f"test split has {n} rows, smaller than one batch of {size}")
    while len(batches) < need:
        if start + size > n:
            start = 0
        batches.append(test_ds.batch(slice(start, start + size)))
        start += size
    report = bench_throughput(
        lambda b: forward(model, b, mode="infer"),
        batches,
        warmup=args.warmup,
        batch_size=size,
    )
    _emit(report, args.report)
    return 0


def cmd_synth(args) -> int:
    rc = _config_from(args)
    if "synth" not in rc.data:
        raise ConfigError("synth command needs a data.synth block (or the synth profile)")
    params = dict(rc.data["synth"])
    if args.n_samples is not None:
        params["n_samples"] = args.n_samples
    spec = SynthSpec(**params)
    ds = synth_generate(spec)
    write_tsv(ds, args.out)
    print(f"wrote {len(ds)} rows, {ds.n_fields} categorical fields -> {args.out}",
          file=sys.stderr)
    return 0


def _add_config_args(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--profile", help="hyperparameter profile name")
    p.add_argument("--seed", type=int, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowrank-ctr",
        description="Low-rank compression workbench for click-through-rate models.",
    )
    parser.add_argument("--version", action="version", version=f"lowrank-ctr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="run a full compression pipeline")
    _add_config_args(p)
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("train", help="train a baseline model")
    _add_config_args(p)
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress", help="compress a checkpointed model")
    _add_config_args(p)
    p.add_argument("--model-in", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument(
        "--method",
        required=True,
        choices=list(METHODS),
    )
    p.add_argument("--rank", type=int)
    p.add_argument("--no-insert-relu", action="store_true",
                   help="keep the inserted bottleneck layer linear")
    p.add_argument("--no-fuse", action="store_true",
                   help="keep embedding projections instead of fusing them")
    p.add_argument("--calib-batch-size", type=int, default=10000)
    p.add_argument("--report", help="write the compression report here")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("finetune", help="fine-tune a compressed model for one epoch")
    _add_config_args(p)
    p.add_argument("--model-in", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--report")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_config_args(p)
    p.add_argument("--model-in", required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="measure inference throughput")
    _add_config_args(p)
    p.add_argument("--model-in", required=True)
    p.add_argument("--batch-size", type=int, default=1000)
    p.add_argument("--batches", type=int, default=20)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--report")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="generate synthetic click data")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="TSV file to write")
    p.add_argument("--n-samples", type=int)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, RankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 3
    except (DataError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
