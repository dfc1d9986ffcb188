"""The benchmark's traced run patches library functions by attribute name.

A rename in the library would otherwise surface only when `perfbench/run.py
--trace 1` runs; here every name the tracer looks up is checked in well
under a second, without writing anything under perfbench/.
"""

import importlib.util
import sys
import time
from pathlib import Path

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
