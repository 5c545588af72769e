"""Library range checks reject NaN, non-integer counts and seeds, negative
seeds and infinite values no computation can use, with an error that names the
parameter: every interval check is one `core.check_range` call, and NaN lies in
no interval."""
import math
import re

import numpy as np
import pytest

from adaptrobust.augment import ExpansionSpec, expand
from adaptrobust.core import LabeledDataset, RandomStream
from adaptrobust.datagen import ShapeSpec, SplitSpec, manifold_sampler, shape_geometry
from adaptrobust.losses import (
    adaptive_robust_empirical,
    adaptive_robust_testtime,
    disagreement_mass,
    robust_loss_fixed_grid,
)
from adaptrobust.margin import MarginProfile, margin_profile, nn_sample_bound
from adaptrobust.mlp import TrainSpec, init
from adaptrobust.scenarios import (
    FiniteDistribution,
    HalfspaceClassifier,
    TwoRectangles,
    exact_robust_loss,
    scenario_two_point,
)

NAN = math.nan
S = LabeledDataset(np.array([[0.1, 0.2], [0.8, 0.9], [0.4, 0.6]]), np.array([0, 1, 1]))
# labels NaN inputs instead of rejecting them, as a network does
H = HalfspaceClassifier(axis=0, threshold=0.5, above_label=1)


def uniform_square(stream, n):
    return stream.uniform((n, 2))


# id: (the name the error message starts with, the call)
CASES = {
    "train-learning-rate": ("learning_rate", lambda: TrainSpec(learning_rate=NAN)),
    "train-epochs": ("epochs", lambda: TrainSpec(epochs=NAN)),
    "train-batch-size": ("batch_size", lambda: TrainSpec(batch_size=NAN)),
    "expansion-c": ("c", lambda: ExpansionSpec(c=NAN)),
    "expansion-fixed-radius": ("fixed_radius", lambda: ExpansionSpec(fixed_radius=NAN)),
    "expansion-m": ("m", lambda: ExpansionSpec(c=0.5, m=NAN)),
    "expand-c": ("c", lambda: expand(S, NAN)),
    "fixed-grid-radius": ("radius grid", lambda: robust_loss_fixed_grid(H, S, [NAN],
                                                                  stream=RandomStream(0))),
    "fixed-grid-later-radius": ("radius grid", lambda: robust_loss_fixed_grid(
        H, S, [0.1, NAN], stream=RandomStream(0))),
    "adaptive-empirical-c": ("c", lambda: adaptive_robust_empirical(H, S, c=NAN,
                                                                    stream=RandomStream(0))),
    "adaptive-testtime-factor": ("factor", lambda: adaptive_robust_testtime(
        H, S, S, factor=NAN, stream=RandomStream(0))),
    "disagreement-n": ("N", lambda: disagreement_mass(H, H, uniform_square, NAN,
                                                      RandomStream(0))),
    "margin-radius": ("radius grid", lambda: margin_profile(uniform_square, H, [NAN], N=4,
                                                            stream=RandomStream(0))),
    "margin-later-radius": ("radius grid", lambda: margin_profile(
        uniform_square, H, [0.1, NAN], N=4, stream=RandomStream(0))),
    "margin-n": ("N", lambda: margin_profile(uniform_square, H, [0.1], N=NAN,
                                             stream=RandomStream(0))),
    "exact-robust-radius": ("r", lambda: exact_robust_loss(H, scenario_two_point(1.0), NAN)),
    "slab-radius": ("r", lambda: TwoRectangles(0.2).margin_slab_mass(NAN)),
    "sample-bound-radius": ("r_eps", lambda: nn_sample_bound(2, 0.1, 0.1, NAN)),
    "two-point-gap": ("gap", lambda: scenario_two_point(NAN)),
    "atom-mass": ("mass", lambda: FiniteDistribution([[0.0], [1.0]], [0.0, 1.0], [NAN, 0.5])),
    "atom-mu": ("mu", lambda: FiniteDistribution([[0.0], [1.0]], [NAN, 1.0], [0.5, 0.5])),
    "atom-point": ("atom coordinates", lambda: FiniteDistribution([[NAN], [1.0]], [0.0, 1.0],
                                                                  [0.5, 0.5])),
    "profile-radius": ("radius grid", lambda: MarginProfile([NAN], [0.5])),
    "profile-later-radius": ("radius grid", lambda: MarginProfile([0.1, NAN], [0.1, 0.5])),
    "profile-value": ("values", lambda: MarginProfile([0.1, 0.2], [NAN, 0.5])),
    "halfspace-threshold": ("threshold", lambda: HalfspaceClassifier(axis=0, threshold=NAN,
                                                                     above_label=1)),
    "shape-n": ("n", lambda: ShapeSpec("circles", NAN, 0)),
    "shape-seed": ("seed", lambda: ShapeSpec("circles", 10, NAN)),
    "stream-seed": ("seed", lambda: RandomStream(NAN)),
}


@pytest.mark.parametrize("name, call", CASES.values(), ids=CASES.keys())
def test_range_checks_reject_nan(name, call):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        call()


INF = math.inf
# Counts take the integer form of the rule: no float, bool or NaN. An `inf]`
# end stays only where the math is defined at inf (radii of exact losses,
# masses, thresholds); everywhere else inf is rejected up front.
BAD_VALUE_CASES = {
    "shape-n": ("n", lambda: ShapeSpec("circles", 10.5, 0)),
    "expansion-m": ("m", lambda: ExpansionSpec(c=0.5, m=2.5)),
    "train-epochs": ("epochs", lambda: TrainSpec(epochs=1.5)),
    "train-epochs-bool": ("epochs", lambda: TrainSpec(epochs=True)),
    "train-batch-size": ("batch_size", lambda: TrainSpec(batch_size=1.5)),
    "train-batch-size-bool": ("batch_size", lambda: TrainSpec(batch_size=True)),
    "init-d": ("d", lambda: init(2.5, seed=0)),
    "fixed-grid-probes": ("probes", lambda: robust_loss_fixed_grid(
        H, S, [0.1], probes=2.5, stream=RandomStream(0))),
    "adaptive-empirical-probes": ("probes", lambda: adaptive_robust_empirical(
        H, S, probes=2.5, stream=RandomStream(0))),
    "adaptive-testtime-probes": ("probes", lambda: adaptive_robust_testtime(
        H, S, S, probes=2.5, stream=RandomStream(0))),
    "margin-probes": ("probes", lambda: margin_profile(uniform_square, H, [0.1], N=4, probes=2.5,
                                                       stream=RandomStream(0))),
    "disagreement-n": ("N", lambda: disagreement_mass(H, H, uniform_square, 3.5,
                                                      RandomStream(0))),
    "margin-n": ("N", lambda: margin_profile(uniform_square, H, [0.1], N=3.5,
                                             stream=RandomStream(0))),
    "sample-bound-d": ("d", lambda: nn_sample_bound(2.5, 0.1, 0.1, 0.1)),
    "train-learning-rate-inf": ("learning_rate", lambda: TrainSpec(learning_rate=INF)),
    "expansion-c-inf": ("c", lambda: ExpansionSpec(c=INF)),
    "expansion-fixed-radius-inf": ("fixed_radius", lambda: ExpansionSpec(fixed_radius=INF)),
    "expand-c-inf": ("c", lambda: expand(S, INF)),
    "adaptive-empirical-c-inf": ("c", lambda: adaptive_robust_empirical(
        H, S, c=INF, stream=RandomStream(0))),
    "adaptive-testtime-factor-inf": ("factor", lambda: adaptive_robust_testtime(
        H, S, S, factor=INF, stream=RandomStream(0))),
    "two-point-gap-inf": ("gap", lambda: scenario_two_point(INF)),
    "class-support-m": ("m", lambda: shape_geometry("circles").class_support(0, 2.5)),
    "class-support-m-zero": ("m", lambda: shape_geometry("circles").class_support(0, 0)),
    "manifold-sampler-count": ("count", lambda: manifold_sampler("circles")(RandomStream(0),
                                                                            2.5)),
    "rectangles-sampler-n": ("n", lambda: TwoRectangles(0.2).sampler(RandomStream(0), 2.5)),
    # a seed is an integer >= 0: no float, bool or negative value, checked
    # where it is given, not late inside numpy
    "shape-seed": ("seed", lambda: ShapeSpec("circles", 10, seed=1.5)),
    "shape-seed-bool": ("seed", lambda: ShapeSpec("circles", 10, seed=True)),
    "shape-seed-numpy-float": ("seed", lambda: ShapeSpec("circles", 10, seed=np.float64(2.7))),
    "shape-seed-negative": ("seed", lambda: ShapeSpec("circles", 10, seed=-1)),
    "split-seed-negative": ("seed", lambda: SplitSpec(seed=-1)),
    "expansion-seed-negative": ("seed", lambda: ExpansionSpec(c=0.5, seed=-1)),
    "train-seed-negative": ("seed", lambda: TrainSpec(seed=-1)),
    "train-seed": ("seed", lambda: TrainSpec(seed=1.5)),
    "init-seed": ("seed", lambda: init(2, seed=1.5)),
    "init-seed-negative": ("seed", lambda: init(2, seed=-1)),
    "stream-seed": ("seed", lambda: RandomStream(1.5)),
    "stream-seed-negative": ("seed", lambda: RandomStream(-1)),
}


@pytest.mark.parametrize("name, call", BAD_VALUE_CASES.values(), ids=BAD_VALUE_CASES.keys())
def test_range_checks_reject_non_integer_counts_and_unusable_inf(name, call):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        call()
