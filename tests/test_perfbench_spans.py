"""The benchmark's traced run, reduced: every span a workload expects must fire.

`perfbench/spans.py` wraps library functions by name and computes work counts
from their arguments, so renaming a traced function or changing its signature
breaks the benchmark's traced run. This runs each workload's reduced op under
the same tracer and checks the same spans and output contract.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


spans, workloads = _load("spans"), _load("workloads")


@pytest.mark.parametrize("name", ["sweep", "nn1", "margin"])
def test_reduced_op_fires_every_expected_span(tmp_path, name):
    wl = workloads.make(name, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = wl.op(0, 0, small=True)
    finally:
        tracer.uninstall()
    tracer.require(wl.expected_spans)
    wl.check(out)


def test_traced_nn1_counters_repeat(tmp_path):
    # the per-layer evidence for the nn1 certificate: work counters are a pure
    # function of the op, so two traced runs of one op count the same work
    wl = workloads.make("nn1", tmp_path)
    keys = ("losses.probe_rows", "neighbors.NnClassifier.predict_batch.rows",
            "neighbors.rho_all.pairs")
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            wl.check(wl.op(0, 0, small=True))
        finally:
            tracer.uninstall()
        runs.append({key: tracer.counts[key] for key in keys})
    assert runs[0] == runs[1] and all(runs[0].values()), runs


def test_traced_margin_counts_nearest_set_rows_once(tmp_path):
    # the nearest-set predictor is a 1-NN subclass with its own `predict_batch`
    # name: its rows count under the nearest-set span only, not also as 1-NN
    wl = workloads.make("margin", tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wl.check(wl.op(0, 0, small=True))
    finally:
        tracer.uninstall()
    assert tracer.calls["margin.NearestSetClassifier.predict_batch"] > 0
    assert tracer.calls["neighbors.NnClassifier.predict_batch"] == 0
    assert tracer.counts["neighbors.NnClassifier.predict_batch.rows"] == 0
