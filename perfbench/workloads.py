"""The three benchmark workloads, each a closed loop of ops from one client.

An op is one unit of work whose inputs are a pure function of (seed, k); its
output is checked outside the timed region. `small=True` gives a reduced op on
the same code path, run during set-up so lazy caches fill before timing.
"""
from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Callable

import numpy as np

from adaptrobust import cli, datagen, losses, neighbors
from adaptrobust.core import RandomStream

# The package re-exports a function named `augment` over the submodule.
augment = import_module("adaptrobust.augment")

SHAPES = ("sines", "sfigure", "nnn", "circles", "boxes")

# The acceptance fixture's per-cell config (tests/test_acceptance.py).
SWEEP = dict(n=1000, m=4, c=2.0 / 3.0, fixed_radii=[0.1, 0.5, 1.0, 2.0], n_seeds=1,
             epochs=600, lr=0.3, batch=64, probes=100)
NN1_N = 2000
# `margin` at its default --n (20000) takes about 2 h; the sample count is the
# only reduced setting, grid, probes and epsilon stay at their defaults.
MARGIN_N = 8
CIRCLES_STEP = ["0.0", "0.0", "0.0", "0.0", "1.0", "1.0"]  # default grid 0.01 .. 0.5


class CheckFailed(Exception):
    """An op returned an output that breaks the workload's contract."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _op_seed(seed: int, k: int) -> int:
    return RandomStream(seed, (k,)).derive_seed()


# --- sweep ------------------------------------------------------------------


def sweep_op(seed: int, k: int, small: bool = False):
    cfg = dict(SWEEP, n=400, epochs=10) if small else SWEEP
    shape = SHAPES[(seed + k) % len(SHAPES)]
    return cli.run_sweep([shape], base_seed=_op_seed(seed, k), **cfg)


def sweep_check(result) -> None:
    _require(len(result.cells) == 6, f"expected 6 cells, got {len(result.cells)}")
    for cell in result.cells:
        b = cell.binary.value
        grid = [rep.value for rep in cell.fixed_grid]
        where = f"{cell.shape}/{cell.variant}"
        _require(all(v >= b for v in grid), f"{where}: fixed-grid loss below binary")
        _require(all(v2 >= v1 for v1, v2 in zip(grid, grid[1:])), f"{where}: grid not monotone")
        _require(cell.adaptive.value >= b, f"{where}: adaptive loss below binary")


# --- nn1 --------------------------------------------------------------------


def nn1_op(seed: int, k: int, small: bool = False):
    s = RandomStream(_op_seed(seed, k))
    ds = datagen.generate(datagen.ShapeSpec(
        shape="sfigure", n=1000 if small else NN1_N, seed=s.child(0).derive_seed()))
    train, test = datagen.split(ds, datagen.SplitSpec(0.8, seed=s.child(1).derive_seed()))
    rhos = neighbors.rho_all(train)
    aug, _ = augment.augment(train, augment.ExpansionSpec(
        c=0.5, m=4, include_originals=True, seed=s.child(2).derive_seed()))
    h_aug = neighbors.NnClassifier(aug)
    binary = losses.binary_loss(h_aug, test)
    testtime = losses.adaptive_robust_testtime(
        h_aug, test, ref=train, factor=0.5, probes=10, stream=s.child(3))
    empirical = losses.adaptive_robust_empirical(
        neighbors.NnClassifier(train), train, c=0.5, probes=10, stream=s.child(4))
    return dict(train_n=train.n, rhos=rhos, aug_n=aug.n, binary=binary.value,
                testtime=testtime.value, empirical=empirical.value)


def nn1_check(out) -> None:
    _require(out["aug_n"] == 5 * out["train_n"], "augmented set is not originals + 4 per ball")
    _require(bool(np.all(out["rhos"] > 0.0)), "rho_all returned a non-positive radius")
    _require(out["testtime"] >= out["binary"], "test-time adaptive loss below binary")
    # README semantics: 1-NN is exactly robust on its own 0.5-adaptive balls.
    _require(out["empirical"] == 0.0,
             f"0.5-adaptive empirical loss of 1-NN on its sample is {out['empirical']!r}, not 0")


# --- margin -----------------------------------------------------------------


@dataclass
class MarginOp:
    """One in-process `adaptrobust margin --shape circles` call."""

    out_root: Path

    def __call__(self, seed: int, k: int, small: bool = False):
        name = f"margin-{k}"
        n = 2 if small else MARGIN_N
        op_seed = _op_seed(seed, k) % (1 << 31)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(["margin", "--shape", "circles", "--n", str(n),
                           "--seed", str(op_seed), "--out", str(self.out_root), "--name", name],
                          prog_name="adaptrobust", standalone_mode=False)
        run = self.out_root / name / "reports"
        out = dict(csv=(run / "margin.csv").read_text(encoding="utf-8"),
                   summary=(run / "margin_summary.txt").read_text(encoding="utf-8"),
                   n=n, seed=op_seed)
        shutil.rmtree(self.out_root / name)
        return out


def margin_check(out) -> None:
    rows = out["csv"].splitlines()
    _require(rows[0] == "r,phi_hat", "margin.csv header changed")
    phi = [ln.split(",")[1] for ln in rows[1:]]
    _require(phi == CIRCLES_STEP, f"circles profile {phi} is not the exact step {CIRCLES_STEP}")
    _require("r_star=0.1\n" in out["summary"], "r_star is not 0.1")
    # Why the step is exact: every point the circles sampler draws (radius 1 or
    # 2 around the origin, 0.25 / 0.5 in unit coordinates) is 0.125 from the
    # midpoint circle, so the margin rate jumps from 0 to 1 between r=0.1 and 0.2.
    X = datagen.manifold_sampler("circles")(RandomStream(out["seed"]), 1000)
    gap = np.abs(np.hypot(X[:, 0] - 0.5, X[:, 1] - 0.5) - 0.375)
    _require(bool(np.all(np.abs(gap - 0.125) < 1e-12)), "a circles point is off its circle")


# --- table ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    op: Callable
    check: Callable
    trace_ops: int          # fixed op count of a traced run, so counters repeat
    expected_spans: tuple   # spans a traced run must see fire


def make(name: str, scratch: Path) -> Workload:
    if name == "sweep":
        return Workload(sweep_op, sweep_check, 1, (
            "cli.run_sweep", "datagen.generate", "augment.augment", "neighbors.rho_all",
            "neighbors.rho", "mlp.train", "mlp.MlpClassifier.predict_batch",
            "losses.binary_loss", "losses.robust_loss_fixed_grid",
            "losses.adaptive_robust_testtime"))
    if name == "nn1":
        return Workload(nn1_op, nn1_check, 3, (
            "datagen.generate", "neighbors.rho_all", "neighbors.rho", "augment.augment",
            "neighbors.NnClassifier.predict_batch", "losses.binary_loss",
            "losses.adaptive_robust_testtime", "losses.adaptive_robust_empirical"))
    if name == "margin":
        return Workload(MarginOp(scratch), margin_check, 3, (
            "cli.margin", "datagen.class_support", "datagen.manifold_sampler",
            "margin.margin_profile", "margin.NearestSetClassifier.predict_batch",
            "margin.bisection", "margin.opposite_witness"))
    raise KeyError(name)

