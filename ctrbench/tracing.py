"""Per-layer tracing of ``lowrank_ctr`` from outside the package.

A ``Tracer`` replaces each traced public function or method with a wrapper
that records a span (self time = its duration minus the time of the spans
it caused) and a few counts, and puts the originals back when it is
uninstalled, so untraced rounds run the package exactly as shipped.  A
function is wrapped under every name the package looks it up by: ``train``
imports ``forward`` by name, ``compress`` imports the ``linalg`` kernels,
and so on, so every module attribute that holds the original is swapped.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

PACKAGE = "lowrank_ctr"


def _rows(i):
    return lambda args, kwargs, result: {"rows": len(args[i])}


def _adam_elements(args, kwargs, result):
    return {"elements": sum(int(p.size) for _, p in args[1])}


def _update_rows(args, kwargs, result):
    return {"rows": int(np.shape(args[1])[0])}


def _eigen_n(args, kwargs, result):
    return {"max_n": int(np.shape(args[0])[0])}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (layer name, module, attribute path, counts taken from a call)
TARGETS = [
    ("data.synth_generate", "data", "synth_generate", None),
    ("data.split", "data", "split", None),
    ("data.ClickDataset.batch", "data", "ClickDataset.batch", None),
    ("nn.forward", "nn", "forward", _rows(1)),
    ("nn.EmbeddingTable.lookup", "nn", "EmbeddingTable.lookup", None),
    ("nn.TTEmbeddingTable.lookup", "nn", "TTEmbeddingTable.lookup", None),
    ("nn.compute_gradients", "nn", "compute_gradients", _rows(1)),
    ("nn.l2_penalty", "nn", "l2_penalty", None),
    ("nn.DeepFMModel.clone", "nn", "DeepFMModel.clone", None),
    ("train.Adam.step", "train", "Adam.step", _adam_elements),
    ("train.train", "train", "train", None),
    ("train.evaluate_model", "train", "evaluate_model", None),
    ("train.prepare_data", "train", "prepare_data", None),
    ("train.calibrate", "train", "calibrate", _rows(1)),
    ("train.run_pipeline", "train", "run_pipeline", None),
    ("stats.MomentAccumulator.update", "stats", "MomentAccumulator.update", _update_rows),
    ("stats.MomentAccumulator.covariance", "stats", "MomentAccumulator.covariance", None),
    ("linalg.sym_eigen", "linalg", "sym_eigen", _eigen_n),
    ("linalg.svd_thin", "linalg", "svd_thin", None),
    ("linalg.tt_decompose_matrix", "linalg", "tt_decompose_matrix", None),
    ("linalg.tt_reconstruct_row", "linalg", "tt_reconstruct_row", None),
    ("compress.afm_plan_fc", "compress", "afm_plan_fc", None),
    ("compress.afm_split_fc", "compress", "afm_split_fc", None),
    ("compress.svd_split_fc", "compress", "svd_split_fc", None),
    ("compress.compress_mlp", "compress", "compress_mlp", None),
    ("compress.afm_plan_embedding", "compress", "afm_plan_embedding", None),
    ("compress.afm_apply_embedding", "compress", "afm_apply_embedding", None),
    ("compress.fuse_projection_into_first_fc", "compress", "fuse_projection_into_first_fc", None),
    ("compress.svd_compress_embedding", "compress", "svd_compress_embedding", None),
    ("compress.tt_compress_embedding", "compress", "tt_compress_embedding", None),
    ("checkpoint.save_checkpoint", "checkpoint", "save_checkpoint", _saved_bytes),
    ("checkpoint.load_checkpoint", "checkpoint", "load_checkpoint", None),
    ("metrics.auc", "metrics", "auc", None),
    ("metrics.logloss", "metrics", "logloss", None),
]

# (metric, unit): what a traced run reports, per round of its workload
PER_LAYER = [(f"{name}.s", "s") for name, _, _, _ in TARGETS] + [
    ("nn.forward.calls", "count"),
    ("nn.forward.rows", "rows"),
    ("nn.compute_gradients.rows", "rows"),
    ("nn.l2_penalty.calls", "count"),
    ("train.Adam.step.elements", "count"),
    ("train.calibrate.rows", "rows"),
    ("stats.MomentAccumulator.update.rows", "rows"),
    ("linalg.sym_eigen.calls", "count"),
    ("linalg.sym_eigen.max_n", "count"),
    ("linalg.tt_reconstruct_row.calls", "count"),
    ("checkpoint.save_checkpoint.bytes", "bytes"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.stack = []
        self.self_s = {}
        self.counts = {}
        self.saved = []  # (owner, attribute, original)

    def _sites(self, original):
        """Every (module, name) in the package that holds ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        yield mod, attr

    def _wrap(self, name, fn, count):
        stack = self.stack
        self_s = self.self_s
        counts = self.counts
        calls_key = f"{name}.calls"

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += spent
                self_s[name] = self_s.get(name, 0.0) + spent - child[0]
                counts[calls_key] = counts.get(calls_key, 0) + 1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    full = f"{name}.{key}"
                    if key.startswith("max_"):
                        counts[full] = max(counts.get(full, 0), value)
                    else:
                        counts[full] = counts.get(full, 0) + value
            return result

        return traced

    def install(self) -> None:
        for name, module, path, count in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = vars(owner)[attr]
                sites = [(owner, attr)]
            else:
                original = getattr(mod, attr)
                sites = list(self._sites(original))
            wrapper = self._wrap(name, original, count)
            for owner, attr_name in sites:
                self.saved.append((owner, attr_name, original))
                setattr(owner, attr_name, wrapper)

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def per_round(self, rounds: int) -> dict:
        """Every per-layer metric except the overhead, divided by ``rounds``."""
        out = {}
        for metric, unit in PER_LAYER:
            if metric == "trace.overhead_s":
                continue
            if metric.endswith(".s"):
                value = self.self_s.get(metric[:-2], 0.0) / rounds
            elif metric.endswith(".max_n"):
                value = self.counts.get(metric, 0)
            else:
                value = self.counts.get(metric, 0) / rounds
            out[metric] = {"value": value, "unit": unit}
        return out
