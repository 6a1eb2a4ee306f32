"""Self-test of the benchmark's correctness checks.

    python3 ctrbench/selftest.py

Runs one small round of each workload and requires every check to pass on
the program's real outputs.  Then it perturbs one inspected output at a
time and requires the matching check to report a failure.  Exits 0 when
both hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import sys

import run  # first: it fixes the BLAS thread count before numpy loads

run._import_program()

import numpy as np  # noqa: E402
from checks import CHECKS  # noqa: E402
from workloads import WORKLOADS, CompressSizes, PipelineSizes, ServeSizes  # noqa: E402

SMALL = {
    "pipeline": PipelineSizes(),
    "serve": ServeSizes(
        n_samples=6000,
        vocab=1000,
        cells={("base", 1): 20, ("afm", 1): 20, ("base", 1000): 2, ("afm", 1000): 2,
               ("tt", 1000): 1, ("base", 2000): 1, ("afm", 2000): 1},
    ),
    "compress": CompressSizes(n_samples=4000, vocab=300, fields=4, hidden=32),
}


def _next_up(a):
    """Copy of ``a`` with its first element moved up by one ulp."""
    b = np.array(a, copy=True)
    first = (0,) * b.ndim
    b[first] = np.nextafter(b[first], b.dtype.type(np.inf))
    return b


def _shift_call(cell, row, by):
    def perturb(out):
        idx, logits = out["calls"][cell][0]
        logits = np.array(logits, copy=True)
        logits[row] += by
        out["calls"][cell][0] = (idx, logits)
    return perturb


def _scale_serve_core(out):
    out["models"]["tt"].tensors["emb.0.core.1"] *= 2.0


def _tilt(out):
    plan = out["plans"]["mlp.1"]
    u = np.array(plan["basis"], copy=True)
    rest = np.linalg.svd(np.eye(u.shape[0]) - u @ u.T)[0][:, 0]  # outside the span
    c, s = np.cos(0.01), np.sin(0.01)
    u[:, 0] = c * u[:, 0] + s * rest
    plan["basis"] = u


def _set(path, fn):
    def perturb(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])
    return perturb


def _scale_factor(out):
    w, b, a, k = out["factors"]["mlp.1"]
    out["factors"]["mlp.1"] = (w, b * 1.001, a, k)


def _scale_tt_core(out):
    out["tt"][0]["cores"][0] = out["tt"][0]["cores"][0] * 1.01


def _reloaded_tensor(out):
    after = out["reload"]["afm-emb"]["after"]
    name, arr = after[0]
    after[0] = (name, _next_up(arr))


def _failed_stage(out):
    out["manifest"]["stages"][-1]["status"] = "failed"


def _shift_auc(out):
    row = [r for r in out["metrics_rows"] if r["stage"].endswith("-eval")][-1]
    row["test_auc"] += 1e-6


def _shift_score(out):
    out["program_scores"] = np.array(out["program_scores"], copy=True)
    out["program_scores"][0] += 1e-3


def _wide_baseline(out):
    t = out["baseline"].tensors
    t["emb.0.weight"] = t["emb.0.weight"][: t["emb.0.weight"].shape[0] // 2]


def _flat_model(out):
    for name, arr in out["final"].tensors.items():
        if name.startswith(("emb.", "fo.", "mlp.")):
            arr[...] = 0.0


# (workload, what is changed, check that must fail, perturbation)
PERTURBATIONS = [
    ("serve", "a shifted large-batch logit", "serve.reference_forward", _shift_call(("afm", 1000), 0, 1e-2)),
    ("serve", "a large-batch row that disagrees with batch 1", "serve.batch1_vs_large",
     _shift_call(("base", 2000), 3, 1e-2)),
    ("serve", "a scaled TT core", "serve.reference_forward", _scale_serve_core),
    ("compress", "a tilted basis", "compress.pca_tail", _tilt),
    ("compress", "a shifted eigenvalue", "compress.eigenvalues",
     _set(("plans", "emb.0", "eigenvalues"), lambda v: v * (1 + 1e-6))),
    ("compress", "an applied layer off by one ulp", "compress.applied_basis",
     _set(("plans", "mlp.2", "applied_basis"), _next_up)),
    ("compress", "a scaled SVD factor", "compress.eckart_young", _scale_factor),
    ("compress", "a scaled core", "compress.tt_left_orthonormal", _scale_tt_core),
    ("compress", "a rank above the cap", "compress.tt_ranks", _set(("tt_cap",), lambda c: c - 1)),
    ("compress", "a parameter count off by one", "compress.param_counts",
     _set(("params", "svd-emb"), lambda n: n + 1)),
    ("compress", "a changed reloaded tensor", "compress.reload_bit_identical", _reloaded_tensor),
    ("compress", "a changed reloaded prediction", "compress.reload_bit_identical",
     _set(("reload", "tt-emb", "logits_after"), _next_up)),
    ("pipeline", "a failed stage", "pipeline.stages_completed", _failed_stage),
    ("pipeline", "a shifted AUC", "pipeline.metrics_recomputed", _shift_auc),
    ("pipeline", "a shifted score", "pipeline.reference_forward", _shift_score),
    ("pipeline", "a baseline table of another width", "pipeline.embedding_shrink", _wide_baseline),
    ("pipeline", "a model that ignores its inputs", "pipeline.above_chance", _flat_model),
]


def main() -> int:
    ok = True
    outputs = {}
    workdir = run.HERE / "results" / "selftest"
    try:
        for name, sizes in SMALL.items():
            cls, _ = WORKLOADS[name]
            wl = cls(sizes, 0, workdir)
            wl.fixture()
            wl.setup()
            wl.round()
            outputs[name] = wl.outputs()
            for check, passed, detail in CHECKS[name](outputs[name]):
                ok &= passed and wl.failed == 0
                print(f"{'pass' if passed else 'FAIL'}  {check}: {detail}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, what, check, perturb in PERTURBATIONS:
        out = copy.deepcopy(outputs[name])
        perturb(out)
        verdicts = {c: passed for c, passed, _ in CHECKS[name](out)}
        caught = verdicts[check] is False
        ok &= caught
        print(f"{'caught' if caught else 'MISSED'}  {what}: {check} "
              f"{'fails' if caught else 'still passes'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
