"""Shared fixtures: small deterministic datasets reused across test modules."""

from __future__ import annotations

import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # make reference_solvers importable

from isoeffect import Dataset, Family, ModelSpec, SynthSpec, generate
from isoeffect.boosting import GBTModel
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
    return _choose(spec, [(X, target, [(np.arange(len(target)), seed)])])[0][0]


def assert_same_fitted(batch, solo):
    """Bit-for-bit equality of two fitted nuisance models, solver state included."""
    assert (batch.family, batch.chosen) == (solo.family, solo.chosen)
    assert batch.diagnostics == solo.diagnostics
    assert type(batch.model) is type(solo.model)
    if isinstance(solo.model, GBTModel):
        names = ("feature", "threshold", "value", "init", "diagnostics")
    else:
        names = [f.name for f in fields(solo.model)]
    for name in names:
        got, want = getattr(batch.model, name), getattr(solo.model, name)
        if isinstance(want, dict):
            assert got == want, name
        else:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


@pytest.fixture
def inline(monkeypatch):
    """Every nuisance fit of a cross-fit runs in this process, where patched seams see it.

    On a host where :func:`isoeffect.estimator._in_child` forks, the outcome
    models are fitted in a child process, whose calls a test cannot record.
    """
    import isoeffect.estimator as estimator

    monkeypatch.setattr(estimator, "_can_fork", lambda: False)


@pytest.fixture
def forked(monkeypatch):
    """Every cross-fit fits its outcome models in a forked child; yields the list of forks.

    Checks on teardown that no child process outlived the test.
    """
    import isoeffect.estimator as estimator

    if not hasattr(os, "fork") or sys.version_info >= (3, 12):
        pytest.skip("the outcome fit forks only where os.fork exists, before Python 3.12")
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(estimator, "_can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", counted)
    yield forks
    with pytest.raises(ChildProcessError):  # no child, running or unreaped, is left
        os.waitpid(-1, os.WNOHANG)


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
