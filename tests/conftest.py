import time

import pytest

from adaptrobust.cli import run_sweep


@pytest.fixture(scope="session")
def sweep_result():
    """The acceptance sweep (5 shapes x 6 augmentations x 3 seeds), run once
    per session: criteria 9 and 10 read it and its digests are checked."""
    t0 = time.perf_counter()
    result = run_sweep(
        ("sines", "sfigure", "nnn", "circles", "boxes"), n=1000, m=4, c=2.0 / 3.0,
        fixed_radii=[0.1, 0.5, 1.0, 2.0], n_seeds=3, base_seed=0, epochs=600, lr=0.3,
        batch=64, probes=100,
    )
    print(f"\n[sweep fixture: {len(result.cells)} cells in {time.perf_counter() - t0:.0f}s]")
    return result
