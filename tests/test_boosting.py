"""Boosted-tree solver versus an exhaustive-search reference."""

from __future__ import annotations

import numpy as np
import pytest

import isoeffect.boosting as boosting
from conftest import inner_cv_choose
from isoeffect.boosting import (
    MAX_CUTS,
    GBTModel,
    GBTTask,
    _bin,
    _column_cuts,
    _cuts,
    _grow,
    _leaf_values,
    _split_gains,
    fit_gbt_batch,
    fit_gbt_core,
)
from isoeffect.core import derive_seed, make_folds
from isoeffect.nuisance import _INNER_FOLDS, Family, ModelSpec, _losses, cv_select
from reference_solvers import (
    best_split_exhaustive,
    reference_boost_regression,
    reference_tree_values,
)


def _pkg_tree_values(X, g, h, depth):
    R = _bin([X], [_cuts(X)[0]])
    stats = np.stack([g, h, np.ones_like(g)])[None]
    with np.errstate(divide="ignore", invalid="ignore"):
        _, leaf = _grow(R, R > 0, stats, depth, np.array([depth]))
        return _leaf_values(leaf, stats, depth)[0][leaf[0]]


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
    assert np.mean((y - model.raw(X)) ** 2) < 1e-4


# ---------------------------------------------------------------------------
# loss traces, determinism, classification
# ---------------------------------------------------------------------------


def _loss_trace(model: GBTModel, X: np.ndarray, y: np.ndarray,
                classification: bool) -> np.ndarray:
    """Training loss after each of 0..n_trees_fit trees, from the model's first-k-tree models."""
    scores = np.array([model.first(k).raw(X)
                       for k in range(model.diagnostics["n_trees_fit"] + 1)])
    if classification:
        return np.logaddexp(0.0, (1.0 - 2.0 * y) * scores).mean(axis=1)
    return ((y - scores) ** 2).mean(axis=1)


def test_regression_loss_trace_monotone_without_subsampling():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((200, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.2 * rng.standard_normal(200)
    model = fit_gbt_core(X, y, classification=False, depth=2, n_trees=40,
                         learning_rate=0.2, subsample=1.0, seed=0)
    trace = _loss_trace(model, X, y, classification=False)
    assert len(trace) == 41
    assert np.all(np.diff(trace) <= 1e-12)


def test_classification_loss_decreases():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((300, 3))
    p = 1.0 / (1.0 + np.exp(-(1.5 * X[:, 0] - X[:, 1])))
    y = (rng.random(300) < p).astype(float)
    model = fit_gbt_core(X, y, classification=True, depth=2, n_trees=60,
                         learning_rate=0.1, subsample=1.0, seed=0)
    trace = _loss_trace(model, X, y, classification=True)
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


def _stage_masks(*fit_args, **fit_kwargs):
    """The row mask of every stage of one fit, as ``_grow`` receives it."""
    masks = []
    grow = boosting._grow
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boosting, "_grow", lambda R, right_of, stats, *rest:
                   masks.append(stats[0, 2].copy()) or grow(R, right_of, stats, *rest))
        fit_gbt_core(*fit_args, **fit_kwargs)
    return np.array(masks)


def test_every_stage_subsamples_exactly_m_rows():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((150, 3))
    y = X[:, 0] + rng.standard_normal(150)
    masks = _stage_masks(X, y, classification=False, n_trees=40, subsample=0.7, seed=5)
    assert masks.shape == (40, 150)
    assert np.isin(masks, (0.0, 1.0)).all()
    np.testing.assert_array_equal(masks.sum(axis=1), 105)
    # the stages draw different subsamples, and every row is drawn at some stage
    assert len({m.tobytes() for m in masks}) == 40
    assert masks.max(axis=0).min() == 1.0


def test_stage_masks_are_seed_deterministic():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((90, 2))
    y = X[:, 1] + rng.standard_normal(90)
    first, again, other = (_stage_masks(X, y, classification=False, n_trees=25,
                                        subsample=0.5, seed=seed) for seed in (8, 8, 9))
    np.testing.assert_array_equal(first, again)
    assert not np.array_equal(first, other)


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
    cuts, feature, threshold = _cuts(X)
    R = _bin([X], [cuts])[0]
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
    with pytest.raises(ValueError, match="but y has 4"):
        fit_gbt_core(X, np.zeros(4), classification=False)
    for rows in ([0, 5], [-1, 2]):
        with pytest.raises(ValueError, match="must index the 5 rows"):
            fit_gbt_batch(X, y, False, [GBTTask(np.array(rows))])


def test_prediction_rejects_input_of_another_width():
    X = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1.0]] * 10)
    y = 3.0 * X[:, 2] * (X[:, 0] == 1.0)
    model = fit_gbt_core(X, y, classification=False, depth=2, n_trees=1,
                         learning_rate=1.0, subsample=1.0)
    assert model.n_features == 3
    np.testing.assert_allclose(model.predict(X[:4]), [0.0, 0.0, 0.0, 3.0], atol=1e-12)
    for bad in ([[1.0, 0.0], [0.0, 0.0]], np.ones((2, 4)), [1.0, 0.0, 1.0]):
        with pytest.raises(ValueError, match="3 columns"):
            model.predict(bad)
        for k in (0, 1):
            with pytest.raises(ValueError, match="3 columns"):
                model.first(k).raw(bad)


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
    staged = np.array([long.first(k).raw(X_new) for k in (0, 10, 30)])
    assert staged.shape == (3, 40)
    np.testing.assert_array_equal(staged[2], long.raw(X_new))
    np.testing.assert_array_equal(staged[0], long.init)
    short = fit_gbt_core(X, y, classification=classification, depth=3, n_trees=10,
                         learning_rate=0.1, subsample=0.7, seed=4)
    np.testing.assert_array_equal(staged[1], short.raw(X_new))
    assert long.first(10).raw(X_new).tobytes() == short.raw(X_new).tobytes()
    _assert_same_model(long.first(10), short)  # the 10-tree fit, n_trees_fit included
    _assert_same_model(long.first(99), long)  # a count past the fitted trees keeps them all
    with pytest.raises(ValueError, match="non-negative"):
        long.first(-1)
    # one walk of the 30 trees holds every prefix's score, in the order asked
    walked = long.raw(X_new, [30, 0, 10, 99, 1])
    assert walked.tobytes() == np.array([long.first(k).raw(X_new)
                                         for k in (30, 0, 10, 99, 1)]).tobytes()
    assert long.predict_proba(X_new, [10])[0].tobytes() == short.predict_proba(X_new).tobytes()
    with pytest.raises(ValueError, match="non-negative"):
        long.raw(X_new, [5, -1])


def test_early_stop_ties_every_count_and_picks_fewer_trees():
    X = np.array([[0.0], [0.0], [1.0], [1.0]] * 10)
    y = X[:, 0] * 2.0  # one stump of learning rate 1 fits this exactly
    model = fit_gbt_core(X, y, classification=False, depth=1, n_trees=50,
                         learning_rate=1.0, subsample=1.0)
    assert model.diagnostics["n_trees_fit"] == 1
    staged = [model.first(k).raw(X) for k in (5, 20, 50)]
    np.testing.assert_array_equal(staged[0], staged[1])
    np.testing.assert_array_equal(staged[0], staged[2])

    # with the default row subsample, each inner fit still stops after one exact stump
    spec = ModelSpec(Family.GBT_REG,
                     {"depth": [1], "n_trees": [50, 5, 20], "learning_rate": [1.0]})
    chosen, diag = inner_cv_choose(X, y, spec)
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
    X = np.column_stack([col, col > 0])
    both_cuts, feature, threshold = _cuts(X)
    R = _bin([X], [both_cuts])[0]
    assert R.shape == (1000, cuts.size + 1 + 2)
    np.testing.assert_array_equal(np.bincount(feature[:-1]), [cuts.size, 1])


# ---------------------------------------------------------------------------
# lockstep batches
# ---------------------------------------------------------------------------


def _batch_data(classification):
    rng = np.random.default_rng(17)
    X = np.column_stack([rng.standard_normal(150), rng.poisson(3, 150),
                         rng.random(150) < 0.5]).astype(float)
    y = X[:, 0] + 0.5 * X[:, 2] + 0.3 * rng.standard_normal(150)
    if classification:
        y = (y > 0).astype(float)
    y[:25] = 0.0  # the first 25 rows have a constant target
    return X, y


def _assert_same_model(batch, solo):
    for name in ("feature", "threshold", "value"):
        np.testing.assert_array_equal(getattr(batch, name), getattr(solo, name))
    assert batch.init == solo.init
    assert batch.diagnostics == solo.diagnostics


@pytest.mark.parametrize("classification", [False, True])
def test_batch_fits_equal_solo_fits(classification):
    X, y = _batch_data(classification)
    half = np.arange(0, 150, 2)
    tasks = [
        GBTTask(np.arange(150), depth=3, n_trees=30, learning_rate=0.1, seed=1),
        GBTTask(half, depth=2, n_trees=20, learning_rate=0.05, seed=2),
        GBTTask(half, depth=3, n_trees=15, learning_rate=0.1, seed=3),
        GBTTask(half, depth=2, n_trees=25, learning_rate=0.1, seed=4, subsample=1.0),
        GBTTask(np.arange(120), depth=3, n_trees=25, learning_rate=0.05, seed=5),
        GBTTask(np.arange(25), depth=2, n_trees=10, learning_rate=0.1, seed=6),
    ]
    models = fit_gbt_batch(X, y, classification, tasks)
    assert models[-1].diagnostics["n_trees_fit"] == 0
    for task, model in zip(tasks, models):
        solo = fit_gbt_core(X[task.rows], y[task.rows], classification, depth=task.depth,
                            n_trees=task.n_trees, learning_rate=task.learning_rate,
                            subsample=task.subsample, seed=task.seed)
        _assert_same_model(model, solo)
        assert model.value.shape[1] == 1 << task.depth


def _solo_inner_cv(family, spec, X, y, seed):
    """Inner-CV scores, fits and trees with every tree count scored by its own solo fit.

    Each solo fit is seeded as its (depth, rate) group's first candidate, and
    a group adds the trees of its largest fit.
    """
    classifier = family == Family.GBT_CLF
    cands = spec.candidates()
    plan = make_folds(len(y), _INNER_FOLDS, a=y if classifier else None,
                      seed=derive_seed(seed, "inner-cv"))
    groups: dict = {}
    for ci, cand in enumerate(cands):
        groups.setdefault((cand["depth"], cand["learning_rate"]), []).append(ci)
    losses = np.empty((len(cands), plan.k))
    trees = 0
    for (depth, rate), members in groups.items():
        for f in range(plan.k):
            tr, te = plan.train_rows(f), plan.test_rows(f)
            solo = [fit_gbt_core(X[tr], y[tr], classifier, depth=depth,
                                 n_trees=cands[ci]["n_trees"], learning_rate=rate,
                                 seed=derive_seed(seed, f"inner-{members[0]}-{f}"))
                    for ci in members]
            for ci, model in zip(members, solo):
                losses[ci, f] = _losses(family, [model], X[te], y[te])[0]
            trees += max(model.diagnostics["n_trees_fit"] for model in solo)
    scores = tuple(float(np.mean(row)) for row in losses)
    return scores, len(groups) * plan.k, trees


@pytest.mark.parametrize("family", [Family.GBT_REG, Family.GBT_CLF])
def test_inner_cv_scores_equal_solo_fits_per_group_and_fold(family):
    # a group's tree counts are scored from one walk of its longest fit's trees
    X, y = _batch_data(family == Family.GBT_CLF)
    spec = ModelSpec(family)  # default grid: 4 (depth, rate) groups x 5 folds
    chosen, diag = inner_cv_choose(X, y, spec, seed=3)
    scores, fits, trees = _solo_inner_cv(family, spec, X, y, seed=3)
    assert diag["inner_cv"]["scores"] == scores
    assert chosen == cv_select(spec.candidates(), scores)
    assert "chosen" not in diag["inner_cv"]  # the choice is kept once, as FittedModel.chosen
    assert diag["inner_cv"]["fits"] == fits == 20
    assert diag["inner_cv"]["trees"] == trees


@pytest.mark.parametrize("family", [Family.GBT_REG, Family.GBT_CLF])
def test_inner_cv_counts_each_fit_at_its_largest_tree_count_of_an_unsorted_grid(family):
    X, y = _batch_data(family == Family.GBT_CLF)
    spec = ModelSpec(family, {"depth": [1, 2], "n_trees": [50, 5, 20], "learning_rate": [0.3]})
    _, diag = inner_cv_choose(X, y, spec, seed=3)
    # 2 depths x 5 inner folds, each fit growing 50 trees; the last listed count's
    # model holds only 20 of them
    assert diag["inner_cv"]["fits"] == 10
    assert diag["inner_cv"]["trees"] == 500
    assert (diag["inner_cv"]["scores"], 10, 500) == _solo_inner_cv(family, spec, X, y, seed=3)


def test_lockstep_byte_bound_splits_batch_without_changing_models(monkeypatch):
    X, y = _batch_data(False)
    tasks = [GBTTask(np.arange(150), depth=d, n_trees=15, learning_rate=0.1, seed=s)
             for s, d in enumerate((3, 2, 3, 2))]
    sizes = []
    lockstep = boosting._fit_lockstep
    monkeypatch.setattr(boosting, "_fit_lockstep",
                        lambda *args: sizes.append(len(args[3])) or lockstep(*args))
    whole = fit_gbt_batch(X, y, False, tasks)
    assert sizes == [4]

    width = _cuts(X)[1].size + 1
    per_task = 150 * (9 * width + (25 << 2))  # R, its routing copy and depth-3 level sums
    for bound, expected in ((2 * per_task, [2, 2]), (1, [1, 1, 1, 1])):
        sizes.clear()
        monkeypatch.setattr(boosting, "_LOCKSTEP_BYTES", bound)
        split = fit_gbt_batch(X, y, False, tasks)
        assert sizes == expected
        for a, b in zip(whole, split):
            _assert_same_model(a, b)


@pytest.mark.parametrize("block", [1, 7])
def test_draw_block_does_not_change_models(monkeypatch, block):
    X, y = _batch_data(False)
    half = np.arange(0, 150, 2)
    tasks = [
        GBTTask(np.arange(150), depth=3, n_trees=30, learning_rate=0.1, seed=1),
        GBTTask(np.arange(150), depth=2, n_trees=12, learning_rate=0.1, seed=2),
        GBTTask(np.arange(150), depth=2, n_trees=25, learning_rate=0.1, seed=3, subsample=1.0),
        GBTTask(half, depth=2, n_trees=20, learning_rate=0.05, seed=4),
        GBTTask(np.arange(25), depth=2, n_trees=10, learning_rate=0.1, seed=6),
    ]
    default = fit_gbt_batch(X, y, False, tasks)
    assert min(30, boosting._DRAW_BYTES // (8 * 150)) == 30  # one draw per 150-row fit
    monkeypatch.setattr(boosting, "_DRAW_BYTES", 8 * 150 * block)
    for a, b in zip(default, fit_gbt_batch(X, y, False, tasks)):
        _assert_same_model(a, b)


@pytest.mark.parametrize("classification", [False, True])
def test_mixed_shape_batch_grows_as_one_group_and_equals_solo_fits(monkeypatch, classification):
    X, y = _batch_data(classification)
    if not classification:
        y[:25] = 2.0  # a constant the zero padding of shorter tasks does not share
    tasks = [
        GBTTask(np.arange(150), depth=3, n_trees=30, learning_rate=0.1, seed=1),
        GBTTask(np.arange(150), depth=3, n_trees=18, learning_rate=0.1, seed=7),
        GBTTask(np.arange(150), depth=2, n_trees=12, learning_rate=0.1, seed=2),
        GBTTask(np.arange(0, 150, 2), depth=2, n_trees=40, learning_rate=0.05, seed=3),
        GBTTask(np.arange(1, 150, 2), depth=3, n_trees=16, learning_rate=0.1, seed=8),
        GBTTask(np.arange(120), depth=3, n_trees=25, learning_rate=0.05, seed=5, subsample=1.0),
        GBTTask(np.arange(25), depth=2, n_trees=10, learning_rate=0.1, seed=6),
    ]
    groups = []
    lockstep = boosting._fit_lockstep
    monkeypatch.setattr(boosting, "_fit_lockstep",
                        lambda *args: groups.append(args[3:]) or lockstep(*args))
    models = fit_gbt_batch(X, y, classification, tasks)
    assert len(groups) == 1 and len(groups[0][0]) == len(tasks)
    grouped, tables = groups[0]
    assert len({t.rows.size for t in grouped}) >= 3
    assert len({feature.size for _, feature, _ in tables}) >= 2
    assert models[-1].diagnostics["n_trees_fit"] == 0
    for task, model in zip(tasks, models):
        solo = fit_gbt_core(X[task.rows], y[task.rows], classification, depth=task.depth,
                            n_trees=task.n_trees, learning_rate=task.learning_rate,
                            subsample=task.subsample, seed=task.seed)
        _assert_same_model(model, solo)


def test_blas_assumption_stacked_strided_matmul_equals_solo_product():
    """The lockstep level sums are exact only if this holds.

    One ``np.matmul`` over a stack of views (rows cut from a taller operand,
    columns from the right end of a wider one, the result written into the
    right end of a wider buffer) must give every item, bit for bit, the
    product that a solo fit computes from its contiguous operands. The sums
    never zero-pad the rows they add up: with OpenBLAS that can change the
    blocking or the kernel of the product, and so its bits.
    """
    rng = np.random.default_rng(2024)
    for _ in range(150):
        k, m = int(rng.integers(1, 5)), 3 << int(rng.integers(0, 5))
        n, w = int(rng.integers(2, 1500)), int(rng.integers(2, 300))
        taller, wider = n + int(rng.integers(0, 40)), w + int(rng.integers(0, 40))
        A = rng.standard_normal((k, m, taller)) * (rng.random((k, 1, taller)) < 0.7)
        R = np.zeros((k, taller, wider))
        R[:, :n, -w:] = rng.random((k, n, w)) < 0.5
        out = np.zeros((k, m, wider))
        np.matmul(A[:, :, :n], R[:, :n, -w:], out=out[:, :, -w:])
        for b in range(k):
            solo = np.ascontiguousarray(A[b:b + 1, :, :n]) @ np.ascontiguousarray(R[b:b + 1, :n, -w:])
            assert out[b, :, -w:].tobytes() == solo[0].tobytes(), (k, m, n, w)
