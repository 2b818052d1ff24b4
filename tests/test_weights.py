"""Transporting weight arithmetic: hand-computed values and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from isoeffect import (
    ValidationError,
    Weights,
    weights_for,
    weights_general,
    weights_iate,
    weights_iatt,
)


def test_iate_hand_values():
    a = np.array([1.0, 0.0])
    p = np.array([0.25, 0.25])
    w = weights_iate(a, p)
    assert w.kind == "iate"
    np.testing.assert_allclose(w.gamma, [4.0, -4.0 / 3.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(w.target_gap, [16.0 / 3.0] * 2, rtol=0, atol=1e-15)


def test_iate_gap_equals_weight_contrast_exactly():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.02, 0.98, 100)
    gap = weights_iate(np.ones(100), p).target_gap
    gamma1 = weights_iate(np.ones(100), p).gamma
    gamma0 = weights_iate(np.zeros(100), p).gamma
    assert np.max(np.abs(gap - (gamma1 - gamma0))) < 1e-12


def test_iatt_hand_values():
    a = np.array([0.0, 1.0])
    p = np.array([0.5, 0.5])
    w = weights_iatt(a, p, 0.5)
    # control: -p/((1-p) pi) = -0.5/(0.5*0.5) = -2; treated: 1/pi = 2
    np.testing.assert_allclose(w.gamma, [-2.0, 2.0], atol=1e-15)
    # gaps only over the treated row: 1/pi + p/((1-p) pi) = 2 + 2 = 4
    np.testing.assert_allclose(w.target_gap, [4.0], atol=1e-15)


def test_iatt_accepts_per_row_pi():
    a = np.array([1.0, 1.0, 0.0])
    p = np.array([0.3, 0.6, 0.4])
    pi = np.array([0.25, 0.5, 0.4])
    w = weights_iatt(a, p, pi)
    np.testing.assert_allclose(w.gamma[:2], [4.0, 2.0], atol=1e-15)
    assert len(w.target_gap) == 2


def test_general_hand_value():
    a = np.array([1.0])
    w = weights_general(a, p_hat=np.array([0.5]), corpus_prob_t=np.array([0.75]),
                        frac_s=0.5, frac_t=0.5)
    # ratio = (0.5/0.5) * (0.75/0.25) = 3; gamma = +3 / 0.5 = 6
    np.testing.assert_allclose(w.gamma, [6.0], atol=1e-14)


def test_general_reduces_to_iate():
    rng = np.random.default_rng(1)
    n = 200
    a = (rng.random(n) < 0.5).astype(float)
    p = rng.uniform(0.05, 0.95, n)
    frac_t = 0.37
    q = np.full(n, frac_t)  # classifier output equal to the marginal share
    gen = weights_general(a, p, q, frac_s=1.0 - frac_t, frac_t=frac_t)
    base = weights_iate(a, p)
    assert np.max(np.abs(gen.gamma - base.gamma)) < 1e-12
    assert np.max(np.abs(gen.target_gap - base.target_gap)) < 1e-12


def test_weights_for_general_gaps_use_each_target_rows_fold_share():
    from isoeffect.core import Dataset, FoldPlan
    from isoeffect.estimator import GeneralFits, NuisanceFits

    a = np.array([1.0, 0.0, 1.0, 0.0])
    p = np.array([0.4, 0.6, 0.3, 0.5])
    plan = FoldPlan(n=4, k=2, assignment=np.array([0, 0, 1, 1]))
    frac_t = np.array([0.2, 0.6])  # target share of each fold's corpus training rows
    t_assign = np.array([1, 0, 0, 1, 1])
    tp = np.array([0.25, 0.5, 0.75, 0.4, 0.6])
    tq = np.array([0.3, 0.5, 0.6, 0.45, 0.7])
    sq = np.array([0.5, 0.4, 0.6, 0.3])
    zeros = np.zeros(5)
    general = GeneralFits(
        target_assignment=t_assign, target_ghat1=zeros, target_ghat0=zeros,
        target_p_hat=tp, target_prob_t=tq, source_prob_t=sq, frac_t_by_fold=frac_t,
    )
    fits = NuisanceFits(
        dataset=Dataset(y=np.zeros(4), a=a, features=np.zeros((4, 1))),
        fold_plan=plan, ghat_obs=np.zeros(4), ghat1=np.zeros(4), ghat0=np.zeros(4),
        p_hat=p, pi1_by_fold=np.array([0.5, 0.5]), outcome_models=(),
        propensity_models=(), general=general,
    )
    w = weights_for(fits, a, "general")
    ft = frac_t[t_assign]
    want_gap = (1.0 - ft) / ft * tq / (1.0 - tq) * (1.0 / tp + 1.0 / (1.0 - tp))
    np.testing.assert_allclose(w.target_gap, want_gap, rtol=1e-14, atol=0)
    # gamma: each source row's own fold share, signed inverse propensity
    fs = frac_t[plan.assignment]
    p_obs = np.where(a == 1.0, p, 1.0 - p)
    want_gamma = (2 * a - 1) * (1.0 - fs) / fs * sq / (1.0 - sq) / p_obs
    np.testing.assert_allclose(w.gamma, want_gamma, rtol=1e-14, atol=0)
    assert w.kind == "general"


def test_weight_validation():
    a = np.array([1.0, 0.0])
    with pytest.raises(ValidationError, match="strictly inside"):
        weights_iate(a, np.array([0.0, 0.5]))
    with pytest.raises(ValidationError, match="strictly inside"):
        weights_iate(a, np.array([0.5, 1.0]))
    with pytest.raises(ValidationError, match="pi1"):
        weights_iatt(a, np.array([0.5, 0.5]), 1.0)
    with pytest.raises(ValidationError, match="positive"):
        weights_general(a, np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.0, 0.5)
    with pytest.raises(ValidationError, match="finite"):
        Weights(kind="iate", gamma=np.array([np.inf]), target_gap=np.array([1.0]))


def test_weights_are_readonly():
    w = weights_iate(np.array([1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        w.gamma[0] = 0.0


@settings(max_examples=50, deadline=None)
@given(
    p=hnp.arrays(np.float64, st.integers(1, 50),
                 elements=st.floats(0.01, 0.99)),
    seed=st.integers(0, 2**31),
)
def test_iate_magnitude_invariants(p, seed):
    a = (np.random.default_rng(seed).random(len(p)) < 0.5).astype(float)
    w = weights_iate(a, p)
    treated = a == 1.0
    assert np.all(w.gamma[treated] >= 1.0)
    assert np.all(w.gamma[~treated] <= -1.0)
    assert np.all(w.target_gap >= 4.0 - 1e-12)  # minimized at p = 1/2


@settings(max_examples=50, deadline=None)
@given(
    p=hnp.arrays(np.float64, st.integers(2, 50),
                 elements=st.floats(0.01, 0.99)),
    pi1=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**31),
)
def test_iatt_invariants(p, pi1, seed):
    a = (np.random.default_rng(seed).random(len(p)) < 0.5).astype(float)
    w = weights_iatt(a, p, pi1)
    treated = a == 1.0
    # treated weights are the constant 1/pi1; control weights are negative
    assert np.allclose(w.gamma[treated], 1.0 / pi1, atol=1e-12)
    assert np.all(w.gamma[~treated] < 0.0)
    assert len(w.target_gap) == int(treated.sum())
