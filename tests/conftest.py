"""Shared fixtures: small deterministic datasets reused across test modules."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # make reference_solvers importable

from isoeffect import Dataset, Family, ModelSpec, SynthSpec, generate
from isoeffect.nuisance import _choose

# Property tests draw the same examples on every run, so a tier-1 result
# reproduces exactly; no example database is read or written.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

# Single-candidate grids skip inner CV, keeping integration tests fast while
# exercising the full cross-fitting path.
FAST_LINEAR = ModelSpec(Family.ELASTIC_LINEAR, {"alpha": [1e-3], "l1_ratio": [0.5]})
FAST_LOGISTIC = ModelSpec(Family.ELASTIC_LOGISTIC, {"C": [100.0], "l1_ratio": [0.0]})


def inner_cv_choose(X, target, spec: ModelSpec, seed: int = 0) -> tuple[dict, dict]:
    """The hyperparameter choice and inner-CV facts of one fit on every row of ``X``."""
    return _choose(X, target, spec, [(np.arange(len(target)), seed)])[0]


@pytest.fixture
def tiny_dataset() -> Dataset:
    """Eight rows, two features, both arms present. Values chosen by hand."""
    return Dataset(
        y=np.array([1.0, 3.0, 2.0, 0.5, -1.0, 4.0, 2.5, 1.5]),
        a=np.array([0, 1, 1, 0, 0, 1, 1, 0]),
        features=np.array(
            [
                [0.0, 1.2],
                [1.0, -0.3],
                [1.0, 0.8],
                [0.0, 0.1],
                [0.0, -1.0],
                [1.0, 2.0],
                [0.0, 0.4],
                [1.0, -0.6],
            ]
        ),
    )


@pytest.fixture(scope="session")
def synth_small() -> Dataset:
    """Confounded linear benchmark, small enough for per-test crossfits."""
    return generate(SynthSpec(n=400, d=4, rho=0.5, beta_a=1.0, seed=11))


@pytest.fixture(scope="session")
def synth_medium() -> Dataset:
    return generate(SynthSpec(n=1200, d=6, rho=0.5, beta_a=1.0, seed=29))
