"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts inline. The training sweep behind criteria 9 and 10 is the
session fixture `sweep_result` of conftest.py (5 shapes x 6 augmentations x
3 seeds).
"""
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from adaptrobust.augment import ExpansionSpec, augment, expand, sample_ball_uniform
from adaptrobust.cli import main as cli_main
from adaptrobust.core import LabeledDataset, RandomStream
from adaptrobust.datagen import ShapeSpec, SplitSpec, generate, split
from adaptrobust.losses import (
    adaptive_robust_empirical,
    binary_loss,
    disagreement_mass,
)
from adaptrobust.margin import margin_profile, nn_sample_bound
from adaptrobust.mlp import bce_loss, grad, init
from adaptrobust.neighbors import NnClassifier
from adaptrobust.scenarios import (
    ConstantClassifier,
    HalfspaceClassifier,
    disagreement_exact,
    enumerate_family,
    exact_best,
    exact_binary_loss,
    exact_robust_loss,
    scenario_four_point,
    scenario_two_point,
    scenario_two_rectangles,
)

SWEEP_SHAPES = ("sines", "sfigure", "nnn", "circles", "boxes")  # the sweep fixture's shapes


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_two_point_exactness():
    t0 = time.perf_counter()
    D = scenario_two_point(0.5)
    fam = enumerate_family(D)
    h_bin, v_bin = exact_best(fam, D, "binary")
    rob_of_bin = exact_robust_loss(h_bin, D, 1.0)
    h_rob, v_rob = exact_best(fam, D, "robust", r=1.0)
    dis = disagreement_exact(h_bin, h_rob, D)
    ok = (v_bin == 0.0 and rob_of_bin == 1.0 and v_rob == 0.5
          and isinstance(h_rob, ConstantClassifier) and dis == 0.5)
    verdict(1, ok, f"binary-opt loss {v_bin}, its robust loss {rob_of_bin}, "
                   f"robust-opt {v_rob}, disagreement {dis} "
                   f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_02_two_rectangles_disagreement():
    t0 = time.perf_counter()
    sc = scenario_two_rectangles(0.2)
    est = disagreement_mass(sc.bayes, sc.robust_bayes, sc.sampler, 100_000, RandomStream(202))
    ok = abs(est - 0.5) <= 0.01
    verdict(2, ok, f"disagreement {est:.4f} vs 0.5 +- 0.01 ({time.perf_counter() - t0:.2f}s)")


def test_criterion_03_four_point_open_ball_exactness():
    t0 = time.perf_counter()
    D = scenario_four_point()
    h = HalfspaceClassifier(axis=1, threshold=1.0, above_label=1)
    b = exact_binary_loss(h, D)
    r = exact_robust_loss(h, D, 0.1)
    _, best = exact_best(enumerate_family(D), D, "robust", r=0.1)
    ok = b == 0.0 and r == 0.0 and best == 0.0
    verdict(3, ok, f"threshold binary {b}, robust(0.1) {r}, family best {best} "
                   f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_04_half_expansion_nonoverlap():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = -math.inf
    for trial in range(1000):
        d = (1, 2, 5, 10)[trial % 4]
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        S = LabeledDataset(rng.random((n, d)), labels)
        radii = expand(S, 0.5)
        diff = S.points[:, None, :] - S.points[None, :, :]
        dists = np.sqrt(np.sum(diff**2, axis=2))
        opposite = S.labels[:, None] != S.labels[None, :]
        excess = radii[:, None] + radii[None, :] - dists
        worst = max(worst, float(excess[opposite].max()))
    ok = worst <= 1e-9
    verdict(4, ok, f"max(radius_i + radius_j - distance) over opposite pairs = {worst:.3e} "
                   f"<= 1e-9 ({time.perf_counter() - t0:.1f}s)")


def test_criterion_05_adaptive_loss_of_1nn_is_zero():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    nonzero = 0
    for trial in range(500):
        d = (1, 2, 5, 10)[trial % 4]
        n = int(rng.integers(5, 51))
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        S = LabeledDataset(rng.random((n, d)), labels)
        rep = adaptive_robust_empirical(NnClassifier(S), S, c=0.5, probes=100,
                                        stream=RandomStream(int(rng.integers(1 << 62))))
        if rep.value != 0.0:
            nonzero += 1
    ok = nonzero == 0
    verdict(5, ok, f"{500 - nonzero}/500 datasets with exactly zero loss "
                   f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_06_consistency_trend_on_circles():
    t0 = time.perf_counter()
    per_size = {}
    max_big = -1.0
    for n in (100, 300, 1000):
        vals = []
        for seed in range(5):
            ds = generate(ShapeSpec("circles", n, seed=600 + seed))
            train, test = split(ds, SplitSpec(0.8, seed=660 + seed))
            aug, _ = augment(train, ExpansionSpec(c=0.5, m=4, seed=690 + seed))
            vals.append(binary_loss(NnClassifier(aug), test).value)
        per_size[n] = float(np.mean(vals))
        if n == 1000:
            max_big = max(vals)
    monotone = per_size[100] >= per_size[300] >= per_size[1000]
    ok = max_big <= 0.02 and monotone
    verdict(6, ok, f"n=1000 worst-seed loss {max_big:.4f} <= 0.02; "
                   f"means {per_size} nonincreasing ({time.perf_counter() - t0:.1f}s)")


def test_criterion_07_uniform_ball_sampler():
    t0 = time.perf_counter()
    stream = RandomStream(707)
    draws = np.array([sample_ball_uniform(np.zeros(2), 1.0, stream) for _ in range(100_000)])
    norms = np.sqrt(np.sum(draws**2, axis=1))
    mean_r = float(np.mean(norms))
    frac_half = float(np.mean(norms < 0.5))

    rng = np.random.default_rng(770)  # rejection oracle: uniform-in-square, keep the ball
    kept = []
    while len(kept) < 100_000:
        cand = rng.random((40_000, 2)) * 2.0 - 1.0
        r = np.sqrt(np.sum(cand**2, axis=1))
        kept.extend(r[r < 1.0].tolist())
    oracle = np.array(kept[:100_000])
    ok = (abs(mean_r - 2.0 / 3.0) <= 0.01
          and abs(frac_half - 0.25) <= 0.005
          and abs(mean_r - float(np.mean(oracle))) <= 0.01
          and abs(frac_half - float(np.mean(oracle < 0.5))) <= 0.01)
    verdict(7, ok, f"mean radius {mean_r:.4f} (want 2/3), P(r < 1/2) {frac_half:.4f} "
                   f"(want 0.25), oracle mean {np.mean(oracle):.4f} "
                   f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_08_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for trial in range(20):
        model = init(int(rng.integers(1, 4)), seed=int(rng.integers(1 << 31)))
        n = int(rng.integers(4, 12))
        batch = LabeledDataset(rng.random((n, model.dim)), rng.integers(0, 2, n))
        g = grad(model, batch)
        vec = model.flatten()
        fd = np.empty_like(vec)
        for i in range(vec.size):
            up, down = vec.copy(), vec.copy()
            up[i] += 1e-5
            down[i] -= 1e-5
            fd[i] = (bce_loss(model.from_flat(up), batch)
                     - bce_loss(model.from_flat(down), batch)) / 2e-5
        rel = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-8)
        worst = max(worst, float(rel.max()))
    ok = worst < 1e-4
    verdict(8, ok, f"worst relative error {worst:.2e} < 1e-4 over 20 pairs "
                   f"({time.perf_counter() - t0:.1f}s)")


def _rank(table, shape, variants, metric):
    mine = table[(shape, "adaptive")][metric]
    return 1 + sum(1 for v in variants if table[(shape, v)][metric] < mine)


@pytest.mark.slow
def test_criterion_09_adaptive_augmentation_rank(sweep_result):
    ranks_bin = {s: _rank(sweep_result.table, s, sweep_result.variants, "binary")
                 for s in SWEEP_SHAPES}
    ranks_adp = {s: _rank(sweep_result.table, s, sweep_result.variants, "adaptive")
                 for s in SWEEP_SHAPES}
    good_bin = sum(1 for r in ranks_bin.values() if r <= 2)
    good_adp = sum(1 for r in ranks_adp.values() if r <= 2)
    ok = good_bin >= 4 and good_adp >= 4
    verdict(9, ok, f"binary ranks {ranks_bin} ({good_bin}/5 at <=2); "
                   f"adaptive-loss ranks {ranks_adp} ({good_adp}/5 at <=2)")


@pytest.mark.slow
def test_criterion_10_estimator_dominance_and_monotonicity(sweep_result):
    violations = []
    for cell in sweep_result.cells:
        b = cell.binary.value
        grid = [rep.value for rep in cell.fixed_grid]
        if any(v < b for v in grid):
            violations.append((cell.shape, cell.variant, cell.seed_index, "fixed<binary"))
        if any(v2 < v1 for v1, v2 in zip(grid, grid[1:])):
            violations.append((cell.shape, cell.variant, cell.seed_index, "grid not monotone"))
        if cell.adaptive.value < b:
            violations.append((cell.shape, cell.variant, cell.seed_index, "adaptive<binary"))
    ok = not violations
    verdict(10, ok, f"{len(sweep_result.cells)} models checked, violations: {violations or 'none'}")


def test_criterion_11_margin_profiles():
    t0 = time.perf_counter()

    class Threshold1D:
        def __init__(self, t):
            self.t = t

        def predict(self, x):
            return int(x[0] >= self.t)

        def predict_batch(self, X):
            return (np.asarray(X)[:, 0] >= self.t).astype(np.int64)

    t = 0.5
    prof = margin_profile(lambda s, n: s.uniform((n, 1)), Threshold1D(t),
                          [0.05, 0.1, 0.2, 0.4], N=100_000, probes=20,
                          stream=RandomStream(1111),
                          witness_fn=lambda x: np.array([2 * t - x[0]]))
    thr_err = max(abs(v - (min(t + r, 1.0) - max(t - r, 0.0)))
                  for r, v in zip(prof.radii, prof.values))

    sc = scenario_two_rectangles(0.2)
    prof2 = margin_profile(sc.sampler, sc.bayes, [0.1, 0.2], N=100_000, probes=0,
                           stream=RandomStream(1112),
                           witness_fn=lambda x: np.array([x[0], -x[1]]))
    slab_err = max(abs(v - sc.margin_slab_mass(r))
                   for r, v in zip(prof2.radii, prof2.values))
    ok = thr_err <= 0.02 and slab_err <= 0.01
    verdict(11, ok, f"1-D threshold max error {thr_err:.4f} <= 0.02; "
                    f"two-rectangle slab max error {slab_err:.4f} <= 0.01 "
                    f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_12_sample_bound_formula():
    got1 = nn_sample_bound(1, 1.0, 1.0, 1.0)
    want1 = 3.0 / math.e
    got2 = nn_sample_bound(2, 0.1, 0.1, 0.1)
    want2 = (3.0**2 * 2.0**1.0) / (math.e * 0.1**2 * 0.1 * 0.1)
    ok = (abs(got1 - want1) <= 1e-6 * abs(want1)
          and abs(got2 - want2) <= 1e-6 * abs(want2))
    verdict(12, ok, f"d=1: {got1:.10g} vs 3/e = {want1:.10g}; "
                    f"d=2: {got2:.10g} vs {want2:.10g} (6 significant digits)")


def test_criterion_13_sweep_reproducibility(tmp_path):
    t0 = time.perf_counter()
    runner = CliRunner()
    args = ["sweep", "--shapes", "circles,boxes", "--n", "80", "--m", "2",
            "--seeds", "1", "--epochs", "5", "--fixed-radii", "0.1,0.5",
            "--probes", "10", "--ambient", "100", "--base-seed", "3"]
    outputs = []
    for run_name in ("one", "two"):
        root = tmp_path / run_name
        res = runner.invoke(cli_main, args + ["--out", str(root), "--name", "sw"],
                            catch_exceptions=False)
        assert res.exit_code == 0, res.output
        run = root / "sw"
        files = sorted(p.relative_to(run) for p in run.rglob("*") if p.is_file())
        outputs.append({str(f): (run / f).read_bytes() for f in files})
    same_names = outputs[0].keys() == outputs[1].keys()
    diffs = [f for f in outputs[0] if outputs[0][f] != outputs[1].get(f)]
    n_svg = sum(1 for f in outputs[0] if f.endswith(".svg"))
    n_csv = sum(1 for f in outputs[0] if f.endswith(".csv"))
    ok = same_names and not diffs
    verdict(13, ok, f"{len(outputs[0])} files ({n_csv} CSV, {n_svg} SVG) byte-identical "
                    f"across two runs; diffs: {diffs or 'none'} "
                    f"({time.perf_counter() - t0:.1f}s)")
