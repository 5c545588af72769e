"""Locally adaptive adversarial-robustness primitives.

Nearest-opposite-label radii, adaptive robust expansion and augmentation,
probe-based robust losses, margin-rate profiles, exact separation scenarios,
a 1-NN classifier, and a small ReLU network, tied together by a reproducible
experiment CLI.

The package root re-exports only the names of the README "Library use"
example; everything else is imported from its submodule.
"""
from .augment import ExpansionSpec, augment
from .core import RandomStream
from .datagen import ShapeSpec, SplitSpec, generate, split
from .losses import adaptive_robust_testtime, binary_loss
from .neighbors import NnClassifier
