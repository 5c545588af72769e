"""Locally adaptive adversarial-robustness primitives.

Nearest-opposite-label radii, adaptive robust expansion and augmentation,
probe-based robust losses, margin-rate profiles, exact separation scenarios,
a 1-NN classifier, and a small ReLU network, tied together by a reproducible
experiment CLI.
"""
from .core import (
    Classifier,
    FuncClassifier,
    LabeledDataset,
    RandomStream,
    predict_batch,
)
from .datagen import (
    MinMaxScale,
    ShapeSpec,
    SplitSpec,
    generate,
    load_csv,
    manifold_sampler,
    save_csv,
    shape_geometry,
    split,
)
from .neighbors import NnClassifier, rho, rho_all
from .augment import ExpansionSpec, augment, expand, sample_ball_uniform
from .losses import (
    LossReport,
    adaptive_robust_empirical,
    adaptive_robust_empirical_grid,
    adaptive_robust_testtime,
    binary_loss,
    disagreement_mass,
    robust_loss_fixed,
    robust_loss_fixed_grid,
)
from .margin import (
    MarginProfile,
    NearestSetClassifier,
    canonical_bayes,
    inverse_phi,
    margin_profile,
    nn_sample_bound,
)
from .mlp import (
    MlpClassifier,
    MlpModel,
    TrainSpec,
    as_classifier,
    forward,
    forward_batch,
    grad,
    init,
    load_model,
    save_model,
    train,
    training_curve,
)
from .scenarios import (
    ConstantClassifier,
    FiniteDistribution,
    HalfspaceClassifier,
    disagreement_exact,
    enumerate_family,
    exact_best,
    exact_binary_loss,
    exact_robust_loss,
    margin_mass,
    scenario_four_point,
    scenario_two_point,
    scenario_two_rectangles,
)

__version__ = "0.1.0"
