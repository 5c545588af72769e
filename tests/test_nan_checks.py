"""Library range checks reject NaN: each is written so that NaN fails it
(`not r >= 0.0`), not so that only a value on the wrong side does."""
import math

import numpy as np
import pytest

from adaptrobust.augment import ExpansionSpec, expand, sample_ball_uniform
from adaptrobust.core import LabeledDataset, RandomStream
from adaptrobust.losses import (
    adaptive_robust_empirical,
    adaptive_robust_testtime,
    robust_loss_fixed_grid,
)
from adaptrobust.margin import margin_profile, nn_sample_bound
from adaptrobust.mlp import TrainSpec
from adaptrobust.scenarios import (
    FiniteDistribution,
    HalfspaceClassifier,
    exact_robust_loss,
    scenario_two_point,
    scenario_two_rectangles,
)

NAN = math.nan
S = LabeledDataset(np.array([[0.1, 0.2], [0.8, 0.9], [0.4, 0.6]]), np.array([0, 1, 1]))
# labels NaN inputs instead of rejecting them, as a network does
H = HalfspaceClassifier(axis=0, threshold=0.5, above_label=1)


def uniform_square(stream, n):
    return stream.uniform((n, 2))


CASES = {
    "train-learning-rate": lambda: TrainSpec(learning_rate=NAN),
    "expansion-c": lambda: ExpansionSpec(c=NAN),
    "expansion-fixed-radius": lambda: ExpansionSpec(fixed_radius=NAN),
    "expand-c": lambda: expand(S, NAN),
    "ball-radius": lambda: sample_ball_uniform(np.zeros((3, 2)), NAN, RandomStream(0)),
    "fixed-grid-radius": lambda: robust_loss_fixed_grid(H, S, [NAN], stream=RandomStream(0)),
    "fixed-grid-later-radius": lambda: robust_loss_fixed_grid(H, S, [0.1, NAN],
                                                              stream=RandomStream(0)),
    "adaptive-empirical-c": lambda: adaptive_robust_empirical(H, S, c=NAN,
                                                              stream=RandomStream(0)),
    "adaptive-testtime-factor": lambda: adaptive_robust_testtime(H, S, S, factor=NAN,
                                                                 stream=RandomStream(0)),
    "margin-radius": lambda: margin_profile(uniform_square, H, [NAN], N=4,
                                            stream=RandomStream(0)),
    "margin-later-radius": lambda: margin_profile(uniform_square, H, [0.1, NAN], N=4,
                                                  stream=RandomStream(0)),
    "exact-robust-radius": lambda: exact_robust_loss(H, scenario_two_point(1.0), NAN),
    "slab-radius": lambda: scenario_two_rectangles(0.2).margin_slab_mass(NAN),
    "sample-bound-radius": lambda: nn_sample_bound(2, 0.1, 0.1, NAN),
    "two-point-gap": lambda: scenario_two_point(NAN),
    "atom-mass": lambda: FiniteDistribution([[0.0], [1.0]], [0.0, 1.0], [NAN, 0.5]),
    "atom-mu": lambda: FiniteDistribution([[0.0], [1.0]], [NAN, 1.0], [0.5, 0.5]),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_range_checks_reject_nan(call):
    with pytest.raises(ValueError):
        call()

