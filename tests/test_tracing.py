"""The benchmark's per-layer tracer (``ctrbench/tracing.py``) still finds
every function it wraps in the package, and puts each one back.

A renamed or deleted traced function would otherwise show only as an
``AttributeError`` in a traced benchmark run.  The tracer is read from
its file, never edited."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "ctrbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("ctrbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings() -> dict:
    """(owner, attribute) -> value for every attribute of the package's
    modules and of the classes they define."""
    bindings = {}
    for name, mod in list(sys.modules.items()):
        if name != "lowrank_ctr" and not name.startswith("lowrank_ctr."):
            continue
        for attr, value in list(vars(mod).items()):
            bindings[name, attr] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, inner in vars(value).items():
                    bindings[f"{name}.{attr}", member] = inner
    return bindings


def test_tracer_wraps_every_target_and_restores_the_package():
    tracing = load_tracing()
    for _, module, _, _ in tracing.TARGETS:
        importlib.import_module(f"lowrank_ctr.{module}")
    before = package_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = package_bindings()
        for name, module, path, _ in tracing.TARGETS:
            owner, _, attr = path.rpartition(".")
            key = (".".join(filter(None, ["lowrank_ctr", module, owner])), attr)
            assert during[key] is not before[key], f"{name} is not wrapped"
        sys.modules["lowrank_ctr.linalg"].sym_eigen(np.eye(2))
        assert tracer.counts["linalg.sym_eigen.calls"] == 1
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    restored = [key for key, value in before.items() if after[key] is not value]
    assert not restored, f"not restored: {restored}"


def test_traced_split_functions_are_reached():
    """Compressing a dense layer or an embedding table goes through the
    traced split functions, so their spans and counts are not empty."""
    tracing = load_tracing()
    for _, module, _, _ in tracing.TARGETS:
        importlib.import_module(f"lowrank_ctr.{module}")
    comp = sys.modules["lowrank_ctr.compress"]
    nn = sys.modules["lowrank_ctr.nn"]
    stats = sys.modules["lowrank_ctr.stats"]
    vocab = [7, 7, 7]
    rng = np.random.default_rng(0)
    taps = []
    for i in range(len(vocab)):
        tap = stats.ActivationTap.for_dim(f"emb.{i}", 4)
        tap.accumulator.update(rng.standard_normal((50, 4)))
        taps.append(tap)
    with tracing.Tracer() as tracer:
        comp.compress_mlp(nn.init_deepfm(vocab, 4, [8, 8, 8], seed=1), 3, "svd")
        assert tracer.counts["compress.svd_split_fc.calls"] == 2
        comp.svd_compress_embedding(nn.init_deepfm(vocab, 4, [8, 8, 8], seed=2), 2)
        assert tracer.counts["compress.svd_split_fc.calls"] == 2 + len(vocab)
        plan = comp.afm_plan_embedding(taps, 2)
        comp.afm_apply_embedding(nn.init_deepfm(vocab, 4, [8, 8, 8], seed=3), plan)
        assert tracer.counts["compress.afm_split_fc.calls"] == len(vocab)


def test_adam_counter_covers_every_parameter_once():
    """The benchmark's ``train.Adam.step.elements`` counts what training hands
    to ``Adam.step``; each step must hand over every parameter element of
    the model exactly once, whatever its embedding storage."""
    tracing = load_tracing()
    for _, module, _, _ in tracing.TARGETS:
        importlib.import_module(f"lowrank_ctr.{module}")
    comp = sys.modules["lowrank_ctr.compress"]
    data = sys.modules["lowrank_ctr.data"]
    nn = sys.modules["lowrank_ctr.nn"]
    train = sys.modules["lowrank_ctr.train"]
    ds = data.synth_generate(data.SynthSpec(n_samples=500, vocab_sizes=[11, 7, 13], seed=1))
    for compress in (None, comp.svd_compress_embedding, comp.tt_compress_embedding):
        model = nn.init_deepfm(ds.vocab_sizes, 4, [8, 8, 8], seed=2)
        if compress is not None:
            compress(model, 2)
        with tracing.Tracer() as tracer:
            train.train(model, ds, train.TrainConfig(batch_size=100, epochs=1))
        steps = tracer.counts["train.Adam.step.calls"]
        assert steps == 5
        total = nn.param_count(model)["total"]
        assert tracer.counts["train.Adam.step.elements"] == steps * total
