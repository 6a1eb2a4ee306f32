"""Tests for the two-lane forward pass: the pairwise term on a worker thread
while the calling thread runs the MLP (``nn._run_layers``)."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from queue import Empty

import numpy as np
import pytest

from lowrank_ctr import nn
from lowrank_ctr.compress import (
    afm_apply_embedding,
    afm_plan_embedding,
    compress_mlp,
    fuse_projection_into_first_fc,
    tt_compress_embedding,
)
from lowrank_ctr.data import ClickDataset, SynthSpec, synth_generate
from lowrank_ctr.errors import NumericError
from lowrank_ctr.nn import FeatureBatch, capture, compute_gradients, forward, init_deepfm
from lowrank_ctr.train import calibrate, select_taps

VOCAB = [40, 40, 40, 30, 30, 20]
WORKER = "lowrank_ctr.fm"
SIZES = [nn.LANE_MIN_ROWS - 1, nn.LANE_MIN_ROWS, 1000, 2049, 10_000]
KINDS = ["base", "afm-mlp", "afm-emb", "afm-emb-fused", "tt", "no-fm"]


def build(kind: str):
    """A small float32 model of each kind the pipeline makes."""
    model = init_deepfm(VOCAB, 8, [16, 16, 16], n_continuous=2, seed=3, fm_enabled=kind != "no-fm")
    if kind.startswith("afm"):
        synth = synth_generate(SynthSpec(n_samples=2000, vocab_sizes=VOCAB, seed=4))
        data = ClickDataset(synth.labels, synth.indices, batch_of(2000, seed=4).continuous, VOCAB)
        target = "mlp" if kind == "afm-mlp" else "emb"
        taps = calibrate(model, data, select_taps(model, target))
        if target == "mlp":
            compress_mlp(model, 4, "afm", taps)
        else:
            afm_apply_embedding(model, afm_plan_embedding([taps[t] for t in select_taps(model, "emb")], 3))
            if kind == "afm-emb-fused":
                fuse_projection_into_first_fc(model)
    if kind == "tt":
        tt_compress_embedding(model, 4)
    return model


def batch_of(n: int, seed: int = 0) -> FeatureBatch:
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, VOCAB, size=(n, len(VOCAB))).astype(np.int32)
    return FeatureBatch(idx, rng.standard_normal((n, 2)).astype(np.float32))


def taps_of(model) -> list:
    return [f"emb.{i}" for i in range(model.n_fields)] + [f"mlp.{j}" for j in range(len(model.mlp))]


def pass_bytes(model, batch) -> list:
    """Every output a pass hands back, as bytes: logits, the three per-head
    terms, and each capture of a capturing pass."""
    trace = forward(model, batch)
    out = [a.tobytes() for a in (trace.logits, trace.first_order_term,
                                 trace.pairwise_term, trace.deep_term)]
    captured = forward(model, batch, capture=taps_of(model))
    out.append(captured.logits.tobytes())
    out += [tid.encode() + captured.captured[tid].tobytes() for tid in sorted(captured.captured)]
    return out


def lanes_forced(on: bool):
    """The lane decision, forced; ``nn._two_lanes`` otherwise reads the host."""
    return (lambda: True) if on else (lambda: False)


def digest_both_ways() -> str:
    """One sha256 over every model kind and size, after checking that the
    lane on and off give the same bytes; run in a subprocess at 1 BLAS
    thread by ``test_lanes_agree_at_one_blas_thread``."""
    h = hashlib.sha256()
    host = nn._two_lanes
    try:
        for kind in KINDS:
            model = build(kind)
            for n in SIZES:
                batch = batch_of(n)
                got = {}
                for on in (True, False):
                    nn._two_lanes = lanes_forced(on)
                    got[on] = pass_bytes(model, batch)
                assert got[True] == got[False], (kind, n)
                for b in got[True]:
                    h.update(b)
    finally:
        nn._two_lanes = host
    return h.hexdigest()


@pytest.fixture(scope="module")
def models():
    return {kind: build(kind) for kind in KINDS}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_lane_on_and_off_give_the_same_bytes(models, kind, n, monkeypatch):
    model, batch = models[kind], batch_of(n, seed=n)
    monkeypatch.setattr(nn, "_two_lanes", lanes_forced(True))
    on = pass_bytes(model, batch)
    monkeypatch.setattr(nn, "_two_lanes", lanes_forced(False))
    assert pass_bytes(model, batch) == on


def run_python(code: str, **env) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    full = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        full.pop(var, None)
    full.update(env)
    done = subprocess.run([sys.executable, "-c", code], env=full, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_lanes_agree_at_one_blas_thread():
    """The same comparison in a process whose BLAS runs one thread, the
    setting where the lane turns on by itself; its digest matches this
    process's, so 1 and the default BLAS threads give the same bytes."""
    code = "import test_two_lanes as t; print(t.digest_both_ways())"
    one = run_python(code, OPENBLAS_NUM_THREADS="1")
    assert one == digest_both_ways()


def test_batches_below_the_threshold_and_training_never_reach_the_worker(models, monkeypatch):
    handed = []
    monkeypatch.setattr(nn, "_two_lanes", lanes_forced(True))
    real = nn._to_lane
    monkeypatch.setattr(nn, "_to_lane", lambda call: handed.append(call) or real(call))
    model = models["base"]
    for n in (1, nn.LANE_MIN_ROWS - 1):
        forward(model, batch_of(n))
    assert handed == []
    big = batch_of(nn.LANE_MIN_ROWS)
    compute_gradients(model, big, np.zeros(len(big)), rng=np.random.default_rng(0))
    capture(model, big, [f"mlp.{len(model.mlp) - 1}"], lambda ids, block: None)
    forward(models["no-fm"], big)
    assert handed == []
    forward(model, big)
    assert len(handed) == 1


def overflowing_model():
    """Two fields whose embeddings sum past float32's range, so the
    pairwise term overflows, while the MLP reads them through zero
    weights and stays finite."""
    model = init_deepfm([3, 3], 16, [8], seed=0)
    model.emb_rows[...] = 2e38
    model.mlp[0].weight[...] = 0.0
    return model


@pytest.mark.parametrize("on", [True, False])
def test_errstate_holds_on_the_lane(on, monkeypatch):
    monkeypatch.setattr(nn, "_two_lanes", lanes_forced(on))
    model = overflowing_model()
    batch = FeatureBatch(np.zeros((nn.LANE_MIN_ROWS, 2), dtype=np.int32),
                         np.zeros((nn.LANE_MIN_ROWS, 0), dtype=np.float32))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        forward(model, batch)
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        forward(model, batch)  # unraised, the overflow ends in non-finite logits


def test_an_error_of_the_pairwise_term_comes_out_unchanged(models, monkeypatch):
    monkeypatch.setattr(nn, "_two_lanes", lanes_forced(True))
    model, batch = models["afm-emb"], batch_of(1000)
    want = forward(model, batch).logits.tobytes()
    error = KeyError("pairwise")

    def broken(*args):
        raise error

    monkeypatch.setattr(nn, "_pairwise_term", broken)
    with pytest.raises(KeyError) as caught:
        forward(model, batch)
    assert caught.value is error
    monkeypatch.undo()
    monkeypatch.setattr(nn, "_two_lanes", lanes_forced(True))
    assert forward(model, batch).logits.tobytes() == want


def workers() -> list:
    return [t for t in threading.enumerate() if t.name == WORKER]


def test_repeated_passes_keep_one_worker(models, monkeypatch):
    monkeypatch.setattr(nn, "_two_lanes", lanes_forced(True))
    for kind in ("base", "afm-emb-fused", "tt"):
        for _ in range(3):
            forward(models[kind], batch_of(1000))
    assert len(workers()) == 1


def score_in_child(queue, model, batch):
    queue.put(forward(model, batch).logits.tobytes())


def test_a_forked_child_starts_its_own_worker(models, monkeypatch):
    monkeypatch.setattr(nn, "_two_lanes", lanes_forced(True))
    model, batch = models["base"], batch_of(2049)
    want = forward(model, batch).logits.tobytes()  # the parent's worker now exists
    assert workers()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=score_in_child, args=(queue, model, batch))
    with warnings.catch_warnings():
        # Python 3.12+ warns about forking a process that runs threads
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    try:
        got = queue.get(timeout=60)  # drained before the join, as the child wrote it
    except Empty:
        child.kill()
        pytest.fail("the forked child hung on the parent's worker")
    child.join(timeout=60)
    assert not child.is_alive() and child.exitcode == 0
    assert got == want


WORKER_CHECK = """
import os, threading
from lowrank_ctr import nn
{patch}
import test_two_lanes as t
model = t.build("base")
for _ in range(3):
    nn.forward(model, t.batch_of(10_000))
print(nn.runtime()["two_lanes"], sum(th.name == t.WORKER for th in threading.enumerate()))
"""


@pytest.mark.parametrize("env, patch", [
    ({}, ""),  # BLAS at its default thread count
    ({"OPENBLAS_NUM_THREADS": "2"}, ""),
    ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, ""),  # OpenBLAS reads its own first
    ({"OPENBLAS_NUM_THREADS": "1"}, "os.sched_getaffinity = lambda pid: {0}"),  # one CPU
])
def test_no_worker_starts_unless_a_cpu_sits_idle(env, patch):
    assert run_python(WORKER_CHECK.format(patch=patch), **env) == "False 0"


def test_the_worker_starts_with_one_blas_thread_on_two_cpus():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs")
    assert run_python(WORKER_CHECK.format(patch=""), GOTO_NUM_THREADS="1") == "True 1"


@pytest.mark.parametrize("env, want", [
    ({}, (None, None)),
    ({"OMP_NUM_THREADS": "1"}, ("OMP_NUM_THREADS", 1)),
    ({"OMP_NUM_THREADS": "1", "GOTO_NUM_THREADS": "3"}, ("GOTO_NUM_THREADS", 3)),
    ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, ("OPENBLAS_NUM_THREADS", 2)),
    ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "0"}, ("OMP_NUM_THREADS", 1)),
    ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": ""}, ("OMP_NUM_THREADS", 1)),
])
def test_blas_setting_is_read_in_openblas_order(env, want, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert nn._blas_threads() == want
    record = nn.runtime()
    assert record["numpy"] == np.__version__
    assert record["blas_threads"] == (want[0] and f"{want[0]}={want[1]}")
    assert record["cpus"] == len(os.sched_getaffinity(0))
    assert record["two_lanes"] == (want[1] == 1 and record["cpus"] >= 2)
