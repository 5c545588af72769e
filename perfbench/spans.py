"""Spans around the library's public functions, recorded from outside it.

`Tracer.install` replaces each traced function or method with a wrapper that
records a span (wall time, parent, self time = duration minus child spans) and
work counts computed from the call's arguments. Every module that imported the
function by name gets the wrapper too. Helpers called inside inner loops
(`mlp.grad`, `core.sq_dists_to`, `RandomStream` draws, `sample_ball_uniform`,
`LabeledDataset.subset`, scalar `predict`) are deliberately not wrapped: their
time falls into the caller's self time and tracing overhead stays small.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from importlib import import_module

from adaptrobust import cli, datagen, losses, margin, mlp, neighbors

# The package re-exports a function named `augment` over the submodule.
augment = import_module("adaptrobust.augment")


class TraceError(Exception):
    """A traced function is missing or an expected span never fired."""


# (owner, attribute, span name, counts). counts(tracer, bound arguments) adds
# work counts and may return extra span names that also get the self time.
def _targets():
    def train(t, a):
        spec, n = a["spec"], a["data"].n
        t.count("mlp.train.epochs", spec.epochs)
        t.count("mlp.train.sgd_steps", spec.epochs * math.ceil(n / spec.batch_size))

    def mlp_predict(t, a):
        t.count("mlp.MlpClassifier.predict_batch.rows", len(a["X"]))

    def nn_predict(t, a):
        t.count("neighbors.NnClassifier.predict_batch.rows", len(a["X"]))
        t.count("neighbors.NnClassifier.predict_batch.pairs", len(a["X"]) * a["self"].train.n)

    def rho_all(t, a):
        t.count("neighbors.rho_all.pairs", a["S"].n ** 2)

    def draws(t, a):
        t.count("augment.augment.draws", a["S"].n * a["spec"].m)

    def probe_rows(data_key, radii_key=None):
        def count(t, a):
            k = len(a[radii_key]) if radii_key else 1
            t.count("losses.probe_rows", a[data_key].n * a["probes"] * k)
        return count

    def ns_predict(t, a):
        h, rows = a["self"], len(a["X"])
        t.count("margin.NearestSetClassifier.predict_batch.rows", rows)
        t.count("margin.NearestSetClassifier.predict_batch.pairs",
                rows * (h.support0.shape[0] + h.support1.shape[0]))
        # Inside margin_profile, probe calls carry N * probes rows; every other
        # call (the 30 bisection steps and two N-row label checks) is counted
        # as bisection.
        parent = t.parent()
        if parent and parent[0] == "margin.margin_profile":
            pa = parent[1]
            if rows != pa["N"] * pa["probes"]:
                t.count("margin.bisection.rows", rows)
                return ("margin.bisection",)

    def generate(t, a):
        t.count("datagen.generate.points", a["spec"].n)

    return [
        (cli, "run_sweep", "cli.run_sweep", None),
        (cli.main.commands["margin"], "callback", "cli.margin", None),
        (datagen, "generate", "datagen.generate", generate),
        (datagen.ShapeGeometry, "class_support", "datagen.class_support", None),
        (neighbors, "rho_all", "neighbors.rho_all", rho_all),
        (neighbors, "rho", "neighbors.rho", None),
        (neighbors.NnClassifier, "predict_batch", "neighbors.NnClassifier.predict_batch",
         nn_predict),
        (augment, "augment", "augment.augment", draws),
        (losses, "binary_loss", "losses.binary_loss", None),
        (losses, "robust_loss_fixed_grid", "losses.robust_loss_fixed_grid",
         probe_rows("D", "radii")),
        (losses, "adaptive_robust_testtime", "losses.adaptive_robust_testtime",
         probe_rows("test")),
        (losses, "adaptive_robust_empirical", "losses.adaptive_robust_empirical",
         probe_rows("S")),
        (margin, "margin_profile", "margin.margin_profile", None),
        (margin.NearestSetClassifier, "predict_batch",
         "margin.NearestSetClassifier.predict_batch", ns_predict),
        (margin.NearestSetClassifier, "opposite_witness", "margin.opposite_witness", None),
        (mlp, "train", "mlp.train", train),
        (mlp.MlpClassifier, "predict_batch", "mlp.MlpClassifier.predict_batch", mlp_predict),
    ]


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # [name, args, start, child seconds]
        self._undo = []

    def count(self, name: str, k: int) -> None:
        self.counts[name] += int(k)

    def parent(self):
        return self._stack[-1][:2] if self._stack else None

    def _wrap(self, name, fn, counts):
        sig = inspect.signature(fn, follow_wrapped=False)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            also = counts(self, bound.arguments) if counts else None
            names = (name,) + tuple(also or ())
            frame = [name, bound.arguments, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[2]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][3] += dur
                for n in names:
                    self.self_s[n] += dur - frame[3]
                    self.calls[n] += 1

        return traced

    def _wrap_sampler(self, factory):
        """manifold_sampler only builds a closure; the span covers its draws."""
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self._wrap("datagen.manifold_sampler", factory(*args, **kwargs), None)
        return traced_factory

    def install(self) -> None:
        replaced = {}
        for owner, attr, name, counts in _targets():
            if not hasattr(owner, attr):
                raise TraceError(f"cannot trace {name}: {owner!r} has no attribute {attr!r}")
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, counts)
            self._set(owner, attr, wrapped)
            replaced[id(orig)] = (orig, wrapped)
        orig = datagen.manifold_sampler
        self._set(datagen, "manifold_sampler", self._wrap_sampler(orig))
        replaced[id(orig)] = (orig, datagen.manifold_sampler)
        # Re-point names other modules imported with `from .x import y`.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name + ".").startswith("adaptrobust."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def require(self, spans) -> None:
        missing = [s for s in spans if self.calls[s] == 0]
        if missing:
            raise TraceError(f"expected spans never fired: {', '.join(missing)}")
