"""Correctness checks on each workload's outputs.

They use plain float64 numpy and ``reference.py``; none calls into
``lowrank_ctr``.  Each check returns (name, ok, detail).  No check compares
against a stored copy of earlier output: the program's bytes depend on the
BLAS thread count, so every expectation is recomputed or is a property the
method must have.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from reference import U32


def _result(name, ok, detail):
    return (name, bool(ok), detail)


# ---------------------------------------------------------------------------
# serve


def check_serve(out: dict) -> list:
    results = []
    worst = 0.0
    ok = True
    for (kind, size), calls in out["calls"].items():
        model = out["models"][kind]
        for indices, logits in calls:
            if logits is None:  # a failed call; counted as failed, not checked
                continue
            want, bound = ref.forward(model, indices.reshape(-1, indices.shape[-1]))
            excess = np.abs(np.asarray(logits) - want) / bound
            worst = max(worst, float(excess.max()))
            ok &= bool((excess <= 1.0).all())
    results.append(_result("serve.reference_forward", ok, f"max |error| / float32 bound = {worst:.3g}"))

    big = out["big"]
    worst = 0.0
    ok = True
    for kind, model in out["models"].items():
        if (kind, 1) not in out["calls"] or (kind, big) not in out["calls"]:
            continue
        big_idx, big_logits = out["calls"][(kind, big)][0]
        singles = out["calls"][(kind, 1)]
        idx1 = np.concatenate([i.reshape(1, -1) for i, _ in singles])
        log1 = np.concatenate([np.asarray(l).reshape(-1) for _, l in singles])
        m = len(singles)
        ok &= bool(np.array_equal(idx1, big_idx[:m]))
        _, bound = ref.forward(model, idx1)
        excess = np.abs(log1 - np.asarray(big_logits)[:m]) / (2.0 * bound)
        worst = max(worst, float(excess.max()))
        ok &= bool((excess <= 1.0).all())
    results.append(_result("serve.batch1_vs_large", ok, f"max |b1 - b{big}| / (2 bound) = {worst:.3g}"))
    return results


# ---------------------------------------------------------------------------
# compress


def _covariance(y: np.ndarray):
    mean = y.mean(axis=0)
    centred = y - mean
    return mean, centred.T @ centred / y.shape[0]


def check_eigen(out: dict) -> list:
    """Plan spectra against eigvalsh of a covariance recomputed here, the
    PCA tail identity, and that the applied layer holds the planned basis."""
    worst_eig = worst_tail = 0.0
    eig_ok = tail_ok = applied_ok = True
    for tap, plan in out["plans"].items():
        y = out["activations"][tap]
        mean, cov = _covariance(y)
        scale = float(np.abs(cov).sum())
        want = np.sort(np.linalg.eigvalsh(cov))[::-1]
        got = np.asarray(plan["eigenvalues"], dtype=np.float64)
        # float64 moments plus a Jacobi sweep stopping at 1e-12 of the norm
        tol = 1e-9 * scale + 1e-300
        err = float(np.abs(got - want).max())
        worst_eig = max(worst_eig, err / tol)
        eig_ok &= err <= tol
        eig_ok &= bool(np.allclose(plan["mean"], mean, rtol=1e-10, atol=1e-10 * float(np.abs(y).max())))

        u = np.asarray(plan["basis"], dtype=np.float64)
        k = plan["k"]
        resid = (y - plan["mean"]) - ((y - plan["mean"]) @ u) @ u.T
        msr = float((resid * resid).sum(axis=1).mean())
        tail = float(want[k:].sum())
        err = abs(msr - tail)
        worst_tail = max(worst_tail, err / tol)
        tail_ok &= u.shape[1] == k and err <= tol

        applied_ok &= bool(np.array_equal(plan["applied_basis"], u.astype(np.float32)))
    return [
        _result("compress.eigenvalues", eig_ok, f"max |err| / tol = {worst_eig:.3g}"),
        _result("compress.pca_tail", tail_ok, f"max |residual - tail| / tol = {worst_tail:.3g}"),
        _result("compress.applied_basis", applied_ok, "applied layers hold the planned bases"),
    ]


def check_eckart_young(out: dict) -> list:
    """||W - B A||_F equals the norm of the dropped singular values."""
    worst = 0.0
    ok = True
    for name, (w, b, a, k) in out["factors"].items():
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        a = np.asarray(a, dtype=np.float64)
        sigma = np.linalg.svd(w, compute_uv=False)
        want = float(np.sqrt((sigma[k:] ** 2).sum()))
        got = float(np.linalg.norm(w - b @ a))
        # the factors were rounded to float32, and so was the original
        tol = 4.0 * U32 * (np.linalg.norm(b) * np.linalg.norm(a) + np.linalg.norm(w))
        worst = max(worst, abs(got - want) / tol)
        ok &= b.shape[1] == k and a.shape[0] == k and abs(got - want) <= tol
    return [_result("compress.eckart_young", ok, f"max |err| / tol = {worst:.3g}")]


def tt_closed_ranks(row_factors, col_factors, cap: int) -> list:
    """Bond ranks of a TT-SVD of generic (full-rank) data under a cap."""
    dims = [n * m for n, m in zip(row_factors, col_factors)]
    ranks = [1]
    for j in range(1, len(dims)):
        ranks.append(min(cap, int(np.prod(dims[:j])), int(np.prod(dims[j:]))))
    return ranks + [1]


def check_tt(out: dict) -> list:
    worst = 0.0
    ortho_ok = rank_ok = True
    for table in out["tt"]:
        ranks = table["ranks"]
        rank_ok &= max(ranks) <= out["tt_cap"]
        rank_ok &= ranks == tt_closed_ranks(table["row_factors"], table["col_factors"], out["tt_cap"])
        for core in table["cores"][:-1]:
            g = np.asarray(core, dtype=np.float64).reshape(-1, core.shape[-1])
            err = float(np.abs(g.T @ g - np.eye(g.shape[1])).max())
            tol = 4.0 * g.shape[0] * U32
            worst = max(worst, err / tol)
            ortho_ok &= err <= tol
    return [
        _result("compress.tt_left_orthonormal", ortho_ok, f"max |G^T G - I| / tol = {worst:.3g}"),
        _result("compress.tt_ranks", rank_ok, f"bond ranks within cap {out['tt_cap']}"),
    ]


def closed_form_params(shape: dict, tt_sizes: list) -> dict:
    f, v, h, d = shape["fields"], shape["vocab"], shape["hidden"], shape["embed_dim"]
    k, e = shape["mlp_rank"], shape["emb_rank"]
    first = h * (f * d) + h
    inner = h * h + h
    head = h + 1
    emb = f * d * v
    fo = f * v
    split = (k * h + k) + (h * k + h)
    reduced = f * e * v + f * (d * e + d)
    tt = sum(tt_sizes)
    return {
        "afm-mlp": emb + fo + first + 2 * split + head,
        "svd-mlp": emb + fo + first + 2 * split + head,
        "afm-emb": reduced + fo + (h * f * e + h) + 2 * inner + head,
        "svd-emb": reduced + fo + first + 2 * inner + head,
        "tt-emb": tt + fo + first + 2 * inner + head,
    }


def check_params(out: dict) -> list:
    tt_sizes = []
    for table in out["tt"]:
        r = tt_closed_ranks(table["row_factors"], table["col_factors"], out["tt_cap"])
        tt_sizes.append(sum(
            r[j] * n * m * r[j + 1]
            for j, (n, m) in enumerate(zip(table["row_factors"], table["col_factors"]))
        ))
    want = closed_form_params(out["shape"], tt_sizes)
    bad = {m: (out["params"][m], want[m]) for m in want if out["params"][m] != want[m]}
    return [_result("compress.param_counts", not bad, f"mismatches (got, want): {bad}")]


def check_reload(out: dict) -> list:
    ok = True
    bad = []
    for method, r in out["reload"].items():
        names = [n for n, _ in r["before"]]
        same = names == [n for n, _ in r["after"]] and set(names) == set(r["parsed"])
        for (name, a), (_, b) in zip(r["before"], r["after"]):
            same &= a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            same &= a.tobytes() == np.ascontiguousarray(r["parsed"].get(name, np.zeros(0))).tobytes()
        same &= np.asarray(r["logits_before"]).tobytes() == np.asarray(r["logits_after"]).tobytes()
        if not same:
            bad.append(method)
        ok &= same
    return [_result("compress.reload_bit_identical", ok, f"differing: {bad}")]


def check_compress(out: dict) -> list:
    return check_eigen(out) + check_eckart_young(out) + check_tt(out) + check_params(out) + check_reload(out)


# ---------------------------------------------------------------------------
# pipeline


def check_pipeline(out: dict) -> list:
    results = []
    stages = out["manifest"]["stages"]
    ok = len(stages) == out["n_stages"] and all(s["status"] == "completed" for s in stages)
    results.append(_result("pipeline.stages_completed", ok, f"{len(stages)} of {out['n_stages']}"))

    final = [r for r in out["metrics_rows"] if r["stage"].endswith("-eval")][-1]
    logits, bound = ref.forward(out["final"], out["test_indices"])
    labels = out["test_labels"]
    scores = np.asarray(out["program_scores"])
    # sigmoid is 1/4-Lipschitz, so a logit within bound gives a score within bound / 4
    score_err = float((np.abs(scores - ref.sigmoid(logits)) / (0.25 * bound)).max())
    results.append(_result(
        "pipeline.reference_forward", score_err <= 1.0,
        f"max |score error| / float32 bound = {score_err:.3g}",
    ))
    # the logged metrics against the program's scores, recomputed here ...
    exact = max(abs(final["test_auc"] - ref.rank_sum_auc(labels, scores)),
                abs(final["test_logloss"] - ref.logloss(labels, scores)))
    # ... and against the reference model's scores
    want_auc = ref.rank_sum_auc(labels, logits)
    want_ll = ref.logloss(labels, ref.sigmoid(logits))
    auc_tol = ref.auc_tolerance(labels, logits, bound) + 1e-12
    ll_tol = 0.25 * float(bound.mean()) + 1e-12
    auc_err = abs(final["test_auc"] - want_auc)
    ll_err = abs(final["test_logloss"] - want_ll)
    results.append(_result(
        "pipeline.metrics_recomputed",
        exact <= 1e-12 and auc_err <= auc_tol and ll_err <= ll_tol,
        f"vs program scores {exact:.2g}; auc {final['test_auc']:.7f} vs reference "
        f"{want_auc:.7f} (tol {auc_tol:.2g}); logloss {final['test_logloss']:.7f} vs "
        f"{want_ll:.7f} (tol {ll_tol:.2g})",
    ))

    base_t, final_t = out["baseline"].tensors, out["final"].tensors
    ratios = []
    for name, table in base_t.items():
        if name.startswith("emb.") and name.endswith(".weight"):
            ratios.append(table.size / final_t[name].size)
    want = out["embed_dim"] / out["emb_rank"]
    results.append(_result(
        "pipeline.embedding_shrink",
        bool(ratios) and all(r == want for r in ratios),
        f"table size ratios {sorted(set(ratios))}, rank implies {want}",
    ))

    n_pos = int(np.sum(labels))
    z = (want_auc - 0.5) / ref.auc_null_sd(n_pos, labels.size - n_pos)
    results.append(_result("pipeline.above_chance", z > 3.0, f"auc {want_auc:.4f}, z = {z:.1f}"))
    return results


CHECKS = {"pipeline": check_pipeline, "serve": check_serve, "compress": check_compress}
