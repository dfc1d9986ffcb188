"""The benchmark's traced run patches library functions by attribute name.

A rename in the library would otherwise surface only when `perfbench/run.py
--trace 1` runs; here every name the tracer looks up is checked in well
under a second, and a tiny traced training run of each head family shows
that the patched names are the ones `train()` really calls, so no per-layer
metric reads 0. Nothing is written under perfbench/.
"""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

from convres import training
from convres.encoder import EncoderConfig
from convres.model import ModelSpec
from toymodels import make_separable_corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_tracer_installs_and_restores_on_the_current_library():
    bench_trace = _import("bench_trace")
    bench_workloads = _import("bench_workloads")
    assert set(bench_workloads.WORKLOADS) == {"synth-bench", "paper-notes", "crbm-exact"}
    t0 = time.perf_counter()
    tracer = bench_trace.Tracer("lookup-check")
    targets = tracer._targets()
    originals = [getattr(owner, attr) for owner, attr, _ in targets]
    with tracer.installed():
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr, _), fn in zip(targets, originals))
    assert all(getattr(owner, attr) is fn for (owner, attr, _), fn in zip(targets, originals))
    assert time.perf_counter() - t0 < 1.0


_TRAIN_SPANS = ("heads.forward", "heads.backward", "encoder.forward_train", "encoder.backward",
                "numeric.adam", "text.tokenize", "text.prepare")


@pytest.mark.parametrize("model_type, n_layers, extra", [
    ("logistic", 1, ()),
    ("residual", 2, ()),
    ("crbm", 1, ("crbm.cd", "crbm.marginals")),
])
def test_traced_training_runs_through_every_span(model_type, n_layers, extra):
    bench_trace = _import("bench_trace")
    spec = ModelSpec(
        model_type=model_type,
        encoder=EncoderConfig(windows=(2, 3), filters_per_window=4, embedding_dim=8),
        max_len=8,
        n_layers=n_layers,
    )
    tracer = bench_trace.Tracer("call-path-check")
    with tracer.installed():
        training.train(make_separable_corpus(20), spec, training.TrainConfig(max_epochs=1))
    called = {name for name, *_ in tracer.spans}
    missing = [name for name in _TRAIN_SPANS + extra if name not in called]
    assert not missing, f"{model_type}: no span for {missing}"
    metrics = tracer.layer_metrics()
    assert all(metrics[f"{name}_s"] > 0.0 for name in _TRAIN_SPANS + extra)
