"""Boosted-tree solver versus an exhaustive-search reference."""

from __future__ import annotations

import numpy as np
import pytest

from isoeffect.boosting import (
    MAX_CUTS,
    GBTModel,
    _bin,
    _column_cuts,
    _grow,
    _leaf_values,
    _split_gains,
    fit_gbt_core,
)
from isoeffect.nuisance import Family, ModelSpec, _inner_cv_choose
from reference_solvers import (
    best_split_exhaustive,
    reference_boost_regression,
    reference_tree_values,
)


def _pkg_tree_values(X, g, h, depth):
    _, _, R = _bin(X)
    stats = np.stack([g, h, np.ones_like(g)])
    with np.errstate(divide="ignore", invalid="ignore"):
        _, leaf = _grow(R, (R > 0).ravel(), stats, depth)
        return _leaf_values(leaf, stats, depth)[leaf]


# ---------------------------------------------------------------------------
# split search versus brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_tree_matches_exhaustive_reference_continuous(depth):
    rng = np.random.default_rng(10 + depth)
    X = rng.standard_normal((120, 4))
    g = rng.standard_normal(120)
    h = np.ones(120)
    ours = _pkg_tree_values(X, g, h, depth)
    ref = reference_tree_values(X, g, h, depth)
    np.testing.assert_allclose(ours, ref, atol=1e-9)


def test_tree_matches_exhaustive_reference_binary():
    rng = np.random.default_rng(42)
    X = (rng.random((150, 5)) < 0.4).astype(float)
    g = rng.standard_normal(150)
    h = np.full(150, 0.25)
    ours = _pkg_tree_values(X, g, h, 2)
    ref = reference_tree_values(X, g, h, 2)
    np.testing.assert_allclose(ours, ref, atol=1e-9)


def test_tree_matches_reference_with_nonuniform_hessians():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((90, 3))
    p = rng.uniform(0.05, 0.95, 90)
    g = rng.standard_normal(90)
    h = p * (1 - p)  # classification-style curvature
    ours = _pkg_tree_values(X, g, h, 2)
    ref = reference_tree_values(X, g, h, 2)
    np.testing.assert_allclose(ours, ref, atol=1e-9)


def test_boosting_matches_reference_loop():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((80, 3))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.1 * rng.standard_normal(80)
    model = fit_gbt_core(X, y, classification=False, depth=2, n_trees=10,
                         learning_rate=0.3, subsample=1.0, seed=0)
    ref_score = reference_boost_regression(X, y, depth=2, n_trees=10, learning_rate=0.3)
    np.testing.assert_allclose(model.predict(X), ref_score, atol=1e-8)


# ---------------------------------------------------------------------------
# hand-solved cases
# ---------------------------------------------------------------------------


def test_single_noiseless_split_recovered_exactly():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = fit_gbt_core(X, y, classification=False, depth=1, n_trees=1,
                         learning_rate=1.0, subsample=1.0, seed=0)
    # init = 0.5, residuals +-0.5, one stump at 0.5 fits them exactly
    np.testing.assert_allclose(model.predict(X), y, atol=1e-12)
    assert model.diagnostics["n_trees_fit"] == 1


def test_constant_target_stops_immediately():
    X = np.random.default_rng(0).standard_normal((30, 2))
    model = fit_gbt_core(X, np.full(30, 3.5), classification=False, n_trees=50,
                         subsample=1.0)
    assert model.diagnostics["n_trees_fit"] == 0
    np.testing.assert_allclose(model.predict(X), 3.5)


def test_noiseless_split_high_training_accuracy():
    rng = np.random.default_rng(21)
    X = (rng.random((400, 5)) < 0.5).astype(float)
    y = X[:, 2].copy()
    model = fit_gbt_core(X, y, classification=False, depth=1, n_trees=60,
                         learning_rate=0.5, subsample=1.0, seed=3)
    pred = model.predict(X)
    accuracy = float(((pred > 0.5) == (y > 0.5)).mean())
    assert accuracy >= 0.99
    assert model.diagnostics["train_loss"][-1] < 1e-4


# ---------------------------------------------------------------------------
# loss traces, determinism, classification
# ---------------------------------------------------------------------------


def test_regression_loss_trace_monotone_without_subsampling():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((200, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.2 * rng.standard_normal(200)
    model = fit_gbt_core(X, y, classification=False, depth=2, n_trees=40,
                         learning_rate=0.2, subsample=1.0, seed=0)
    trace = np.array(model.diagnostics["train_loss"])
    assert len(trace) == model.diagnostics["n_trees_fit"] + 1
    assert np.all(np.diff(trace) <= 1e-12)


def test_classification_loss_decreases():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((300, 3))
    p = 1.0 / (1.0 + np.exp(-(1.5 * X[:, 0] - X[:, 1])))
    y = (rng.random(300) < p).astype(float)
    model = fit_gbt_core(X, y, classification=True, depth=2, n_trees=60,
                         learning_rate=0.1, subsample=1.0, seed=0)
    trace = model.diagnostics["train_loss"]
    assert trace[-1] < trace[0]
    proba = model.predict_proba(X)
    assert np.all((proba > 0) & (proba < 1))
    # the fit should order probabilities by the true signal direction
    assert proba[X[:, 0] > 1].mean() > proba[X[:, 0] < -1].mean()


def test_classification_init_is_logit_base_rate():
    X = np.random.default_rng(1).standard_normal((50, 2))
    y = np.array([1.0] * 10 + [0.0] * 40)
    model = fit_gbt_core(X, y, classification=True, n_trees=1, learning_rate=0.1,
                         subsample=1.0)
    assert model.init == pytest.approx(np.log(0.2 / 0.8))


def test_subsampling_is_seed_deterministic():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((150, 3))
    y = X[:, 0] + rng.standard_normal(150)
    m1 = fit_gbt_core(X, y, classification=False, n_trees=20, subsample=0.7, seed=5)
    m2 = fit_gbt_core(X, y, classification=False, n_trees=20, subsample=0.7, seed=5)
    m3 = fit_gbt_core(X, y, classification=False, n_trees=20, subsample=0.7, seed=6)
    np.testing.assert_array_equal(m1.predict(X), m2.predict(X))
    assert not np.array_equal(m1.predict(X), m3.predict(X))


def test_no_split_when_features_uninformative():
    X = np.ones((40, 2))  # constant features: nothing to split on
    y = np.random.default_rng(3).standard_normal(40)
    model = fit_gbt_core(X, y, classification=False, n_trees=5, subsample=1.0)
    np.testing.assert_allclose(model.predict(X), y.mean(), atol=1e-12)


def test_exhaustive_reference_agrees_on_gain():
    # direct cross-check of the split-finder outputs, not just predictions
    rng = np.random.default_rng(11)
    X = rng.standard_normal((60, 3))
    g = rng.standard_normal(60)
    h = np.ones(60)
    ref_gain, ref_j, ref_thr = best_split_exhaustive(X, g, h)
    feature, threshold, R = _bin(X)
    stats = np.stack([g, h, np.ones(60)])
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = _split_gains((stats @ R)[:, None, :])[0, :-2]  # the cuts' columns
    cut = int(np.argmax(gain))
    assert feature[cut] == ref_j
    assert gain[cut] == pytest.approx(ref_gain, abs=1e-9)
    assert threshold[cut] == pytest.approx(ref_thr, abs=1e-12)


def test_gbt_input_validation():
    X = np.zeros((5, 1))
    y = np.zeros(5)
    with pytest.raises(ValueError, match="depth"):
        fit_gbt_core(X, y, classification=False, depth=0)
    with pytest.raises(ValueError, match="one boosting stage"):
        fit_gbt_core(X, y, classification=False, n_trees=0)
    with pytest.raises(ValueError, match="subsample"):
        fit_gbt_core(X, y, classification=False, subsample=1.5)
    with pytest.raises(ValueError, match="empty"):
        fit_gbt_core(np.zeros((0, 1)), np.zeros(0), classification=False)
    with pytest.raises(ValueError, match="at least one column"):
        fit_gbt_core(np.zeros((5, 0)), y, classification=False)


def test_model_predict_proba_only_for_classifiers():
    X = np.array([[0.0], [1.0]])
    reg = fit_gbt_core(X, np.array([0.0, 1.0]), classification=False, n_trees=1,
                       subsample=1.0)
    assert isinstance(reg, GBTModel)
    p = reg.predict_proba(X)  # raw sigmoid is still defined on the raw score
    assert np.all((p > 0) & (p < 1))


# ---------------------------------------------------------------------------
# staged scores, bin edges, cut cap
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("classification", [False, True])
def test_staged_raw_equals_separate_shorter_fit(classification):
    rng = np.random.default_rng(12)
    X = np.column_stack([rng.standard_normal(120), rng.poisson(3, 120),
                         rng.random(120) < 0.5]).astype(float)
    y = X[:, 0] + 0.5 * X[:, 2] + 0.3 * rng.standard_normal(120)
    if classification:
        y = (y > 0).astype(float)
    X_new = rng.standard_normal((40, 3))
    long = fit_gbt_core(X, y, classification=classification, depth=3, n_trees=30,
                        learning_rate=0.1, subsample=0.7, seed=4)
    staged = long.raw(X_new, stages=[0, 10, 30])
    assert staged.shape == (3, 40)
    np.testing.assert_array_equal(staged[2], long.raw(X_new))
    np.testing.assert_array_equal(staged[0], long.init)
    short = fit_gbt_core(X, y, classification=classification, depth=3, n_trees=10,
                         learning_rate=0.1, subsample=0.7, seed=4)
    np.testing.assert_array_equal(staged[1], short.raw(X_new))
    np.testing.assert_array_equal(long.raw(X_new, stages=[10])[0], short.raw(X_new))


def test_early_stop_ties_every_count_and_picks_fewer_trees():
    X = np.array([[0.0], [0.0], [1.0], [1.0]] * 10)
    y = X[:, 0] * 2.0  # one stump of learning rate 1 fits this exactly
    model = fit_gbt_core(X, y, classification=False, depth=1, n_trees=50,
                         learning_rate=1.0, subsample=1.0)
    assert model.diagnostics["n_trees_fit"] == 1
    staged = model.raw(X, stages=[5, 20, 50])
    np.testing.assert_array_equal(staged[0], staged[1])
    np.testing.assert_array_equal(staged[0], staged[2])

    spec = ModelSpec(Family.GBT_REG,
                     {"depth": [1], "n_trees": [50, 5, 20], "learning_rate": [1.0]},
                     subsample=1.0)
    chosen, diag = _inner_cv_choose(X, y, spec, classifier=False)
    scores = diag["inner_cv"]["scores"]
    assert scores[0] == scores[1] == scores[2]
    assert chosen["n_trees"] == 5


def test_held_out_value_routes_by_bin_edge_midpoint():
    X = np.array([[1.0], [1.0], [3.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = fit_gbt_core(X, y, classification=False, depth=1, n_trees=1,
                         learning_rate=1.0, subsample=1.0)
    assert model.threshold[0, 0] == 2.0
    pred = model.predict(np.array([[1.999], [2.0], [2.001]]))
    np.testing.assert_allclose(pred, [0.0, 0.0, 1.0], atol=1e-12)


def test_many_distinct_values_capped_at_max_cuts():
    col = np.random.default_rng(13).standard_normal(1000)
    assert np.unique(col).size == 1000
    cuts = _column_cuts(col)
    assert MAX_CUTS == 255
    assert 0 < cuts.size <= MAX_CUTS
    assert np.all(np.diff(cuts) > 0)
    # every kept cut is still a midpoint between adjacent distinct values
    vals = np.unique(col)
    np.testing.assert_array_equal(np.isin(cuts, 0.5 * (vals[:-1] + vals[1:])), True)
    feature, threshold, R = _bin(np.column_stack([col, col > 0]))
    assert R.shape == (1000, cuts.size + 1 + 2)
    np.testing.assert_array_equal(np.bincount(feature[:-1]), [cuts.size, 1])
