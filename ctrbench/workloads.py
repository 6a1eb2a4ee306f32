"""The benchmark's workloads: ``pipeline``, ``serve`` and ``compress``.

Each workload drives ``lowrank_ctr`` only through its public functions and
has four phases:

* ``fixture``: untimed, once per run.  Builds the models a workload starts
  from (serve and compress train a baseline and save it).
* ``setup``: what a user does before the first request (resolve the config,
  materialise the data, load checkpoints, build request batches).  The run
  repeats it and reports the median as ``setup_s``.
* ``round``: a fixed list of operations, the same in every round.  Each
  operation that raises counts as failed.
* ``outputs``: after the timed rounds, collects what the checks inspect.

Sizes live in dataclasses so that the self-test can run the same code on
smaller inputs.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lowrank_ctr import checkpoint, compress, config, nn, train

from reference import read_checkpoint


class Workload:
    """Shared bookkeeping: operation counts and per-round records."""

    def __init__(self, sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.records = []  # one dict of timings per round

    def op(self, fn, *args, **kwargs):
        """Run one operation; returns (result, seconds), result None on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start

    def fixture(self) -> None:
        pass

    def _config(self, **overrides) -> dict:
        raw = {"profile": "synth", "seed": self.seed}
        raw.update(overrides)
        return raw


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class PipelineSizes:
    n_samples: int = 60_000


class Pipeline(Workload):
    """Whole runs of the synth profile's standard chain."""

    def setup(self) -> None:
        raw = self._config(
            data={"synth": {"n_samples": self.sizes.n_samples, "seed": self.seed}}
        )
        self.resolved = config.load_config(raw)
        # the same split the pipeline makes; the checks score its test side
        self.train_ds, self.test_ds = train.prepare_data(self.resolved)

    def round(self) -> None:
        out = self.workdir / "pipeline"
        if out.exists():
            shutil.rmtree(out)
        manifest, seconds = self.op(train.run_pipeline, self.resolved, out)
        record = {"pipeline_s": seconds}
        if manifest is not None:
            rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
            n_train = len(self.train_ds)
            base = [r for r in rows if r["stage"].endswith("train_baseline") and "epoch" in r]
            tune = [r for r in rows if r["stage"] == "finetune"]
            record["train_rows_per_s"] = n_train * len(base) / sum(r["wall_seconds"] for r in base)
            record["finetune_rows_per_s"] = n_train * len(tune) / sum(r["wall_seconds"] for r in tune)
            ckpts = [a for a in manifest["artifacts"] if a.endswith(".lrck")]
            record["final_checkpoint_bytes"] = (out / ckpts[-1]).stat().st_size
            self.last = {"out": out, "manifest": manifest, "rows": rows, "ckpts": ckpts}
        self.records.append(record)

    def model_bytes(self) -> int:
        return self.records[-1]["final_checkpoint_bytes"]

    def outputs(self) -> dict:
        out = self.last["out"]
        profile = self.resolved.profile_defaults
        return {
            "manifest": json.loads((out / "manifest.json").read_text()),
            "n_stages": len(self.resolved.stages),
            "metrics_rows": self.last["rows"],
            "baseline": read_checkpoint(out / self.last["ckpts"][0]),
            "final": read_checkpoint(out / self.last["ckpts"][-1]),
            # the program's own scores for the final checkpoint, as its eval computes them
            "program_scores": train.predict(
                checkpoint.load_checkpoint(out / self.last["ckpts"][-1]), self.test_ds
            ),
            "test_indices": self.test_ds.indices,
            "test_labels": self.test_ds.labels,
            "embed_dim": int(self.resolved.model["embed_dim"]),
            "emb_rank": int(profile["emb_rank"]),
        }


# ---------------------------------------------------------------------------
# serve


@dataclass
class ServeSizes:
    n_samples: int = 40_000
    vocab: int = 10_000  # per field, ten fields as in the synth profile
    # (model, batch size) -> calls per round; chosen so that each cell takes
    # a similar share of the round at the first recorded measurement
    cells: dict = field(
        default_factory=lambda: {
            ("base", 1): 1500,
            ("afm", 1): 800,
            ("base", 1000): 100,
            ("afm", 1000): 100,
            ("tt", 1000): 1,
            ("base", 10000): 10,
            ("afm", 10000): 10,
        }
    )


def train_baseline(resolved, train_ds, seed: int):
    """One epoch of the profile's baseline training on a fresh model."""
    profile = resolved.profile_defaults
    model = nn.init_deepfm(
        train_ds.vocab_sizes,
        int(resolved.model["embed_dim"]),
        resolved.model["hidden_dims"],
        seed=seed,
        dropout_rate=float(resolved.model["dropout_rate"]),
    )
    cfg = train.TrainConfig(
        learning_rate=profile["learning_rate"],
        batch_size=profile["batch_size"],
        epochs=1,
        l2_ratio=profile["l2_ratio"],
        weight_decay=profile["weight_decay"],
        seed=seed,
    )
    train.train(model, train_ds, cfg)
    return model


def tap_ids(model, kind: str) -> list:
    if kind == "mlp":
        return [f"mlp.{j}" for j in compress.MLP_COMPRESSIBLE]
    return [f"emb.{i}" for i in range(model.n_fields)]


class Serve(Workload):
    """Inference through ``nn.forward`` on base, AFM and TT models."""

    MODELS = ("base", "afm", "tt")

    def _resolved(self):
        raw = self._config(
            data={
                "synth": {
                    "n_samples": self.sizes.n_samples,
                    "vocab_sizes": [self.sizes.vocab] * 10,
                    "seed": self.seed,
                },
                "test_fraction": 0.5,
            }
        )
        return config.load_config(raw)

    def fixture(self) -> None:
        resolved = self._resolved()
        profile = resolved.profile_defaults
        train_ds, _ = train.prepare_data(resolved)
        base = train_baseline(resolved, train_ds, self.seed)
        taps = train.calibrate(base, train_ds, tap_ids(base, "mlp") + tap_ids(base, "emb"))
        afm = base.clone()
        compress.compress_mlp(afm, profile["mlp_rank"], "afm", taps)
        plan = compress.afm_plan_embedding([taps[t] for t in tap_ids(base, "emb")], profile["emb_rank"])
        compress.afm_apply_embedding(afm, plan)
        compress.fuse_projection_into_first_fc(afm)
        tt = base.clone()
        compress.tt_compress_embedding(tt, profile["tt_rank"])
        self.paths = {}
        for kind, model in zip(self.MODELS, (base, afm, tt)):
            self.paths[kind] = self.workdir / f"serve-{kind}.lrck"
            checkpoint.save_checkpoint(model, self.paths[kind])

    def setup(self) -> None:
        _, pool = train.prepare_data(self._resolved())
        self.pool = pool
        self.models = {k: checkpoint.load_checkpoint(p) for k, p in self.paths.items()}
        rng = np.random.default_rng(self.seed + 1)
        cells = self.sizes.cells
        big = max(b for _, b in cells)
        rows = {
            cell: [rng.choice(len(pool), cell[1], replace=False) for _ in range(calls)]
            for cell, calls in cells.items()
            if cell[1] > 1
        }
        # batch-1 requests score the first rows of the model's first large
        # batch, so each of those rows is seen at both batch sizes
        for (kind, size), calls in cells.items():
            if size == 1:
                first = rows[(kind, big)][0]
                rows[(kind, 1)] = [first[i : i + 1] for i in range(calls)]
        self.requests = {cell: rows[cell] for cell in cells}
        self.batches = {
            cell: [pool.batch(r) for r in rows] for cell, rows in self.requests.items()
        }

    def round(self) -> None:
        record = {}
        logits = {}
        for cell, batches in self.batches.items():
            model = self.models[cell[0]]
            times = []
            outs = []
            for batch in batches:
                trace, seconds = self.op(nn.forward, model, batch)
                times.append(seconds)
                outs.append(None if trace is None else trace.logits)
            kind, size = cell
            if size == 1:
                record[f"infer_b1_ms.{kind}"] = 1e3 * statistics.median(times)
            else:
                record[f"infer_b{size // 1000}k_rows_per_s.{kind}"] = size / statistics.median(times)
            logits[cell] = outs
        self.last_logits = logits
        self.records.append(record)

    def model_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.paths.values())

    def outputs(self) -> dict:
        big = max(b for _, b in self.sizes.cells)
        checked = {}
        for (kind, size), rows in self.requests.items():
            # every batch-1 call, and the first call of each larger cell
            take = range(len(rows)) if size == 1 else range(1)
            checked[(kind, size)] = [
                (self.pool.indices[rows[i]], self.last_logits[(kind, size)][i]) for i in take
            ]
        return {
            "models": {k: read_checkpoint(p) for k, p in self.paths.items()},
            "calls": checked,
            "big": big,
        }


# ---------------------------------------------------------------------------
# compress


@dataclass
class CompressSizes:
    n_samples: int = 20_000
    vocab: int = 1000
    fields: int = 10
    hidden: int = 96


class Compress(Workload):
    """Calibrate, plan and apply every method, then save and reload."""

    METHODS = ("afm-mlp", "afm-emb", "svd-mlp", "svd-emb", "tt-emb")
    # The model is the same on every seed; the calibration data come from
    # the seed.  The Jacobi kernel's sweep count depends on the matrix, so a
    # model per seed would add seed-to-seed differences in work to the noise.
    MODEL_SEED = 0

    def _resolved(self, seed: int):
        s = self.sizes
        raw = {
            "profile": "synth",
            "seed": seed,
            "data": {"synth": {"n_samples": s.n_samples, "vocab_sizes": [s.vocab] * s.fields, "seed": seed}},
            "model": {"hidden_dims": [s.hidden] * 3},
        }
        return config.load_config(raw)

    def fixture(self) -> None:
        resolved = self._resolved(self.MODEL_SEED)
        train_ds, _ = train.prepare_data(resolved)
        self.base_path = self.workdir / "compress-base.lrck"
        model = train_baseline(resolved, train_ds, self.MODEL_SEED)
        checkpoint.save_checkpoint(model, self.base_path)

    def setup(self) -> None:
        self.resolved = self._resolved(self.seed)
        self.calib_ds, _ = train.prepare_data(self.resolved)
        self.base = checkpoint.load_checkpoint(self.base_path)

    def round(self) -> None:
        profile = self.resolved.profile_defaults
        base = self.base
        ids = tap_ids(base, "mlp") + tap_ids(base, "emb")
        taps, t_cal = self.op(train.calibrate, base, self.calib_ds, ids)
        models = {m: base.clone() for m in self.METHODS}
        seconds = {}
        plan = None
        if taps is not None:
            _, seconds["afm-mlp"] = self.op(
                compress.compress_mlp, models["afm-mlp"], profile["mlp_rank"], "afm", taps
            )

            def afm_emb(model):
                p = compress.afm_plan_embedding([taps[t] for t in tap_ids(base, "emb")], profile["emb_rank"])
                compress.afm_apply_embedding(model, p)
                compress.fuse_projection_into_first_fc(model)
                return p

            plan, seconds["afm-emb"] = self.op(afm_emb, models["afm-emb"])
        _, seconds["svd-mlp"] = self.op(
            compress.compress_mlp, models["svd-mlp"], profile["mlp_rank"], "svd"
        )
        _, seconds["svd-emb"] = self.op(
            compress.svd_compress_embedding, models["svd-emb"], profile["emb_rank"]
        )
        _, seconds["tt-emb"] = self.op(
            compress.tt_compress_embedding, models["tt-emb"], profile["tt_rank"]
        )
        reloaded = {}
        save_s = load_s = 0.0
        for method, model in models.items():
            path = self.workdir / f"compress-{method}.lrck"
            _, s = self.op(checkpoint.save_checkpoint, model, path)
            save_s += s
            reloaded[method], s = self.op(checkpoint.load_checkpoint, path)
            load_s += s
        self.records.append(
            {
                "afm_compress_s": t_cal + seconds.get("afm-mlp", 0.0) + seconds.get("afm-emb", 0.0),
                "svd_compress_s": seconds["svd-mlp"] + seconds["svd-emb"],
                "tt_compress_s": seconds["tt-emb"],
                "save_s": save_s,
                "load_s": load_s,
            }
        )
        self.last = {"taps": taps, "plan": plan, "models": models, "reloaded": reloaded}

    def model_bytes(self) -> int:
        return sum((self.workdir / f"compress-{m}.lrck").stat().st_size for m in self.METHODS)

    def outputs(self) -> dict:
        """Program outputs the checks inspect, gathered after the timed rounds."""
        profile = self.resolved.profile_defaults
        base = self.base
        last = self.last
        k_mlp = profile["mlp_rank"]
        ids = tap_ids(base, "mlp") + tap_ids(base, "emb")
        captured = {t: [] for t in ids}
        n = len(self.calib_ds)
        for start in range(0, n, 10000):  # the slicing train.calibrate uses
            trace = nn.forward(base, self.calib_ds.batch(slice(start, min(start + 10000, n))), capture=ids)
            for t in ids:
                captured[t].append(np.asarray(trace.captured[t], dtype=np.float64))
        activations = {t: np.concatenate(v) for t, v in captured.items()}

        plans = {}
        afm_mlp = last["models"]["afm-mlp"]
        for pos, j in enumerate(compress.MLP_COMPRESSIBLE):
            plan = compress.afm_plan_fc(last["taps"][f"mlp.{j}"], k_mlp)
            # after the split, layer j's second half sits at j + pos + 1
            applied = afm_mlp.mlp[j + pos + 1].weight
            plans[f"mlp.{j}"] = {
                "eigenvalues": plan.eigenvalues, "basis": plan.basis, "mean": plan.mean,
                "applied_basis": applied, "k": k_mlp,
            }
        emb_plan = last["plan"]
        for i in range(base.n_fields):
            plans[f"emb.{i}"] = {
                "eigenvalues": emb_plan.eigenvalues[i], "basis": emb_plan.bases[i],
                "mean": emb_plan.means[i],
                "applied_basis": last["models"]["afm-emb"].projections[i].weight,
                "k": profile["emb_rank"],
            }

        svd_mlp = last["models"]["svd-mlp"]
        svd_emb = last["models"]["svd-emb"]
        factors = {}
        for pos, j in enumerate(compress.MLP_COMPRESSIBLE):
            a = svd_mlp.mlp[j + pos].weight
            b = svd_mlp.mlp[j + pos + 1].weight
            factors[f"mlp.{j}"] = (base.mlp[j].weight, b, a, k_mlp)
        for i in range(base.n_fields):
            factors[f"emb.{i}"] = (
                base.tables[i].weights, svd_emb.projections[i].weight,
                svd_emb.tables[i].weights, profile["emb_rank"],
            )

        tt = [
            {"cores": list(t.cores.cores), "ranks": list(t.cores.ranks),
             "row_factors": list(t.cores.row_factors), "col_factors": list(t.cores.col_factors)}
            for t in last["models"]["tt-emb"].tables
        ]

        probe = self.calib_ds.batch(slice(0, min(2000, n)))
        reload = {}
        for method, model in last["models"].items():
            again = last["reloaded"][method]
            reload[method] = {
                "before": [(name, p) for name, p in model.named_parameters()],
                "after": [(name, p) for name, p in again.named_parameters()],
                "parsed": read_checkpoint(self.workdir / f"compress-{method}.lrck").tensors,
                "logits_before": nn.forward(model, probe).logits,
                "logits_after": nn.forward(again, probe).logits,
            }

        s = self.sizes
        return {
            "activations": activations,
            "plans": plans,
            "factors": factors,
            "tt": tt,
            "tt_cap": profile["tt_rank"],
            "params": {m: nn.param_count(model)["total"] for m, model in last["models"].items()},
            "shape": {
                "fields": s.fields, "vocab": s.vocab, "hidden": s.hidden,
                "embed_dim": int(self.resolved.model["embed_dim"]),
                "mlp_rank": k_mlp, "emb_rank": profile["emb_rank"],
            },
            "reload": reload,
        }


WORKLOADS = {"pipeline": (Pipeline, PipelineSizes), "serve": (Serve, ServeSizes), "compress": (Compress, CompressSizes)}
