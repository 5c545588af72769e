import numpy as np
import pytest

from adaptrobust.core import LabeledDataset, RandomStream
from adaptrobust.losses import disagreement_mass, robust_loss_fixed_grid
from adaptrobust.neighbors import NnClassifier
from adaptrobust.scenarios import (
    ConstantClassifier,
    FiniteDistribution,
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


def margin_mass(h, D, r):
    """Exact mass of the atoms strictly within r of h's boundary."""
    return float(sum(m for x, m in zip(D.points, D.mass) if h.in_margin(x, r)))


# --- constructions -----------------------------------------------------------------

def test_two_point_construction():
    D = scenario_two_point(0.5)
    assert D.points.tolist() == [[0.0], [0.5]]
    assert D.mass.tolist() == [0.5, 0.5]
    assert set(D.mu.tolist()) == {0.0, 1.0}  # deterministic labels
    assert D.mass.sum() == 1.0


def test_four_point_construction():
    D = scenario_four_point()
    assert D.points.shape == (4, 2)
    assert np.all(D.mass == 0.25)
    assert D.mu.tolist() == [0.0, 1.0, 0.0, 1.0]  # deterministic labels


def test_distribution_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        FiniteDistribution(np.array([[0.0]]), np.array([0.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        FiniteDistribution(np.array([[0.0]]), np.array([1.5]), np.array([1.0]))


# --- exact losses -----------------------------------------------------------------------

def test_exact_binary_trivials():
    D = scenario_two_point(0.5)
    correct = HalfspaceClassifier(0, 0.25, 1)
    assert exact_binary_loss(correct, D) == 0.0
    assert exact_binary_loss(ConstantClassifier(0), D) == 0.5
    noise = FiniteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]),
                               np.array([0.5, 0.5]))
    assert exact_binary_loss(ConstantClassifier(1), noise) == 0.5
    assert exact_binary_loss(correct, noise) == 0.5


def test_exact_robust_two_point_values():
    D = scenario_two_point(0.5)
    correct = HalfspaceClassifier(0, 0.25, 1)
    assert exact_robust_loss(correct, D, 1.0) == 1.0
    assert exact_robust_loss(ConstantClassifier(0), D, 1.0) == 0.5


def test_exact_robust_requires_analytic_margin():
    D = scenario_two_point(0.5)
    with pytest.raises(ValueError, match="analytic"):
        exact_robust_loss(NnClassifier(LabeledDataset(D.points, [0, 1])), D, 0.1)


def test_robust_dominates_binary_over_full_enumeration():
    for D in (scenario_two_point(0.5), scenario_four_point(), scenario_two_point(2.0)):
        for h in enumerate_family(D):
            for r in (0.01, 0.1, 0.3, 1.0, 3.0):
                assert exact_robust_loss(h, D, r) >= exact_binary_loss(h, D)


def test_probe_estimator_agrees_with_exact_on_random_family_members():
    rng = np.random.default_rng(0)
    pts = rng.random((8, 2)) * 2.0
    mu = rng.integers(0, 2, 8).astype(float)
    D = FiniteDistribution(pts, mu, np.full(8, 1 / 8))
    S = LabeledDataset(pts, mu.astype(int))
    fam = enumerate_family(D)
    members = [fam[i] for i in rng.integers(0, len(fam), 50)]
    for k, h in enumerate(members):
        r = float(rng.choice([0.05, 0.2, 0.5]))
        exact = exact_robust_loss(h, D, r)
        est = robust_loss_fixed_grid(h, S, [r], probes=500, stream=RandomStream(k))[0].value
        assert est <= exact + 1e-12
        assert exact - est <= 0.02


# --- separation results ---------------------------------------------------------------------

def test_two_point_separation_numbers():
    D = scenario_two_point(0.5)
    fam = enumerate_family(D)
    h_bin, v_bin = exact_best(fam, D, "binary")
    assert v_bin == 0.0 and isinstance(h_bin, HalfspaceClassifier)
    assert exact_robust_loss(h_bin, D, 1.0) == 1.0
    h_rob, v_rob = exact_best(fam, D, "robust", r=1.0)
    assert v_rob == 0.5 and isinstance(h_rob, ConstantClassifier)
    assert disagreement_exact(h_bin, h_rob, D) == 0.5


def test_four_point_threshold_is_robust_optimal_at_tenth():
    D = scenario_four_point()
    h = HalfspaceClassifier(1, 1.0, 1)
    assert exact_binary_loss(h, D) == 0.0
    assert exact_robust_loss(h, D, 0.1) == 0.0  # open balls: distance exactly 0.1
    _, best = exact_best(enumerate_family(D), D, "robust", r=0.1)
    assert best == 0.0
    assert exact_robust_loss(h, D, 0.10001) == 0.75  # strictly larger radius bites


def test_separable_line_small_radius_keeps_threshold():
    D = scenario_two_point(0.4)
    fam = enumerate_family(D)
    h, v = exact_best(fam, D, "robust", r=0.4 / 4)
    assert isinstance(h, HalfspaceClassifier) and v == 0.0


def test_separable_line_large_radius_forces_constant():
    gap = 0.4
    D = scenario_two_point(gap)
    fam = enumerate_family(D)
    h_rob, v_rob = exact_best(fam, D, "robust", r=gap * 1.5)
    assert isinstance(h_rob, ConstantClassifier) and v_rob == 0.5
    h_bin, _ = exact_best(fam, D, "binary")
    assert disagreement_exact(h_bin, h_rob, D) == 0.5


def test_separable_line_margin_mass_vanishes_below_half_gap():
    D = scenario_two_point(0.4)
    h_bin, _ = exact_best(enumerate_family(D), D, "binary")
    assert margin_mass(h_bin, D, 0.1) == 0.0   # strongly separable
    assert margin_mass(h_bin, D, 0.3) == 1.0


def test_two_rectangles_support_and_losses():
    sc = scenario_two_rectangles(0.2)
    stream = RandomStream(1)
    X = sc.sampler(stream, 50_000)
    inside_r1 = (X[:, 0] >= -2) & (X[:, 0] <= -1)
    inside_r2 = (X[:, 0] >= 1) & (X[:, 0] <= 2)
    assert np.all(inside_r1 | inside_r2)
    assert np.all((X[:, 1] >= -1) & (X[:, 1] <= 1))

    est = disagreement_mass(sc.bayes, sc.robust_bayes, sc.sampler, 100_000, RandomStream(2))
    assert abs(est - 0.5) < 0.01

    mus = np.where(X[:, 1] >= 0.0, 0.6, 0.4)
    pred = sc.bayes.predict_batch(X)
    emp = float(np.mean(np.where(pred == 0, mus, 1.0 - mus)))
    assert abs(emp - sc.bayes_binary_loss()) < 0.01
    assert sc.bayes_binary_loss() == (1.0 - 0.2) / 2.0


def test_two_rectangles_mu_is_batched():
    sc = scenario_two_rectangles(0.2)
    up, down = 0.5 + 0.2 / 2.0, 0.5 - 0.2 / 2.0
    # x2 == 0 (either sign of zero) belongs to the upper half
    X = np.array([[-1.5, 0.5], [1.5, -0.5], [1.2, 0.0], [-1.1, -0.0], [2.0, -1e-300]])
    mus = sc.mu(X)
    assert mus.shape == (5,)
    assert mus.tolist() == [up, down, up, up, down]
    assert sc.mu(np.empty((0, 2))).shape == (0,)


# --- optimality-gap properties ----------------------------------------------------------------

def binary_optimal_set(fam, D):
    best = min(exact_binary_loss(h, D) for h in fam)
    return [h for h in fam if exact_binary_loss(h, D) == best], best


@pytest.mark.parametrize("D,r", [
    (scenario_two_point(1.0), 0.25),   # zero-mass margin at small r
    (scenario_four_point(), 0.1),      # boundary exactly at distance r (open)
    (scenario_two_point(0.5), 1.0),    # all optima have margin mass
    (scenario_four_point(), 0.3),
])
def test_identical_iff_margin_direction(D, r):
    fam = enumerate_family(D)
    optima, best_bin = binary_optimal_set(fam, D)
    _, best_rob = exact_best(fam, D, "robust", r=r)
    if any(margin_mass(h, D, r) == 0.0 for h in optima):
        assert best_rob == best_bin
    else:
        assert best_rob > best_bin


@pytest.mark.parametrize("D", [scenario_two_point(0.5), scenario_four_point(),
                               scenario_two_point(2.0)])
def test_choose_r_by_margin_rate_bounds_both_losses(D):
    fam = enumerate_family(D)
    optima, best_bin = binary_optimal_set(fam, D)
    h_bin = optima[0]
    for r in (0.05, 0.1, 0.25, 0.6, 1.2):
        eps = margin_mass(h_bin, D, r)
        h_rob, best_rob = exact_best(fam, D, "robust", r=r)
        assert exact_robust_loss(h_bin, D, r) <= best_rob + eps
        assert exact_binary_loss(h_rob, D) <= best_bin + eps


def test_exact_best_tie_goes_to_first_member():
    D = scenario_two_point(0.5)
    fam = enumerate_family(D)
    h, v = exact_best(fam, D, "robust", r=10.0)
    assert v == 0.5 and h is fam[0]  # both constants tie at 1/2


def test_exact_best_rejects_unknown_loss():
    D = scenario_two_point(0.5)
    with pytest.raises(ValueError):
        exact_best(enumerate_family(D), D, "hinge")
    with pytest.raises(ValueError):
        exact_best(enumerate_family(D), D, "robust")
