"""Model-spec plumbing, inner-CV selection, tie-breaking, degenerate fallbacks."""

from __future__ import annotations

import inspect
from dataclasses import fields

import numpy as np
import pytest

from isoeffect import (
    FoldPlan,
    NuisanceFits,
    SensitivityReport,
    ValidationError,
    audit,
    calibrate_detail,
    crossfit_nuisances,
)
from isoeffect.core import derive_seed, make_folds
from isoeffect.elasticnet import fit_enet_linear, fit_enet_logistic
from isoeffect.nuisance import (
    ClipPolicy,
    Family,
    FittedModel,
    ModelSpec,
    _INNER_FOLDS,
    _losses,
    _reg_strength,
    cv_select,
    default_grid,
    fit_models,
    fit_outcome_model,
    fit_propensity_model,
)

import scalar_paths
from conftest import assert_same_fitted, inner_cv_choose


def test_default_grids_frozen():
    assert default_grid(Family.ELASTIC_LOGISTIC) == {
        "C": (0.001, 0.01, 0.1, 1.0, 10.0, 100.0),
        "l1_ratio": (0.0, 0.1, 0.5, 0.7, 0.9, 0.95, 0.99, 1.0),
    }
    assert default_grid(Family.ELASTIC_LINEAR) == {
        "alpha": (1e-4, 1e-3, 1e-2, 1e-1, 1.0),
        "l1_ratio": (0.0, 0.1, 0.5, 0.7, 0.9, 0.95, 0.99, 1.0),
    }
    assert default_grid(Family.GBT_REG) == {
        "depth": (2, 3),
        "n_trees": (100, 300),
        "learning_rate": (0.05, 0.1),
    }
    assert default_grid(Family.GBT_CLF) == default_grid(Family.GBT_REG)
    with pytest.raises(ValueError):
        default_grid("mystery")


def test_settable_surface():
    # seeds come with the rows to fit, inner CV has one fold count, the
    # audit keeps no copy of the estimate's fields, every fitted model comes
    # from a solver, the cross-fit sees the estimand only as its target corpus
    # and deals its own folds, and the fits record the recipe a calibration
    # refit reads
    expected = {
        ModelSpec: ("family", "hyper_grid"),
        FittedModel: ("family", "model", "chosen", "diagnostics"),
        FoldPlan: ("n", "k", "assignment", "stratified", "downgraded"),
        SensitivityReport: ("sigma2", "nu2", "nu2_plugin", "nu2_negative", "rv"),
        NuisanceFits: ("dataset", "fold_plan", "ghat_obs", "ghat1", "ghat0", "p_hat",
                       "pi1_by_fold", "outcome_models", "propensity_models", "outcome_spec",
                       "propensity_spec", "seed", "clip", "general", "diagnostics"),
    }
    for cls, names in expected.items():
        assert tuple(f.name for f in fields(cls)) == names, cls.__name__
    assert tuple(inspect.signature(audit).parameters) == ("estimate", "dataset", "fits",
                                                          "weights")
    assert tuple(inspect.signature(crossfit_nuisances).parameters) == (
        "dataset", "outcome_spec", "propensity_spec", "k", "seed", "clip", "target_features")
    assert tuple(inspect.signature(calibrate_detail).parameters) == (
        "dataset", "full_fits", "reduced_features", "kind", "outcome_spec", "propensity_spec",
        "seed")
    with pytest.raises(TypeError):
        ModelSpec(Family.GBT_REG, seed=5)
    with pytest.raises(TypeError):
        ModelSpec(Family.ELASTIC_LINEAR, inner_folds=2)


def test_model_spec_validation():
    with pytest.raises(ValueError, match="family"):
        ModelSpec("nope")
    with pytest.raises(ValueError, match="at least one value"):
        ModelSpec(Family.ELASTIC_LINEAR, {"alpha": []})
    # a missing key would fail at the first fit; a misspelt one would
    # multiply the candidates
    with pytest.raises(ValueError, match=r"missing keys \['l1_ratio'\] and has unknown keys \[\]"):
        ModelSpec(Family.ELASTIC_LINEAR, {"alpha": (0.1,)})
    with pytest.raises(ValueError, match=r"missing keys \[\] and has unknown keys \['alpah'\]"):
        ModelSpec(Family.ELASTIC_LINEAR,
                  {"alpha": (0.1, 1.0), "l1_ratio": (0.5,), "alpah": (1, 2, 3)})
    spec = ModelSpec(Family.ELASTIC_LINEAR, {"alpha": [0.1, 1.0], "l1_ratio": [0.0]})
    assert spec.candidates() == [
        {"alpha": 0.1, "l1_ratio": 0.0},
        {"alpha": 1.0, "l1_ratio": 0.0},
    ]


# ---------------------------------------------------------------------------
# selection and tie-breaking
# ---------------------------------------------------------------------------


def test_cv_select_prefers_lower_loss():
    cands = [{"alpha": 0.1}, {"alpha": 1.0}]
    assert cv_select(cands, [0.5, 0.9]) == {"alpha": 0.1}


def test_cv_select_ties_go_to_stronger_penalty():
    # equal scores: pick larger alpha / smaller C / smaller tree count
    assert cv_select([{"alpha": 0.1}, {"alpha": 1.0}], [0.5, 0.5]) == {"alpha": 1.0}
    assert cv_select([{"C": 0.1}, {"C": 10.0}], [0.5, 0.5]) == {"C": 0.1}
    assert cv_select(
        [
            {"n_trees": 300, "depth": 3, "learning_rate": 0.1},
            {"n_trees": 100, "depth": 2, "learning_rate": 0.05},
        ],
        [1.0, 1.0],
    ) == {"n_trees": 100, "depth": 2, "learning_rate": 0.05}


def test_cv_select_near_ties_count_as_ties():
    cands = [{"alpha": 0.01}, {"alpha": 1.0}]
    best = 0.73
    assert cv_select(cands, [best, best + 1e-10 * best]) == {"alpha": 1.0}
    # a clearly-better weak penalty still wins
    assert cv_select(cands, [best, best + 1e-3]) == {"alpha": 0.01}


def test_cv_select_validation():
    with pytest.raises(ValueError):
        cv_select([{"alpha": 1.0}], [0.1, 0.2])
    with pytest.raises(ValueError):
        cv_select([], [])


def test_single_candidate_skips_inner_cv():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3))
    y = X[:, 0] + 0.1 * rng.standard_normal(40)
    spec = ModelSpec(Family.ELASTIC_LINEAR, {"alpha": [0.01], "l1_ratio": [0.5]})
    chosen, diag = inner_cv_choose(X, y, spec)
    assert chosen == {"alpha": 0.01, "l1_ratio": 0.5}
    assert diag == {"inner_cv": None}


def test_small_sample_falls_back_to_most_regularized():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    spec = ModelSpec(Family.ELASTIC_LINEAR, {"alpha": [0.01, 1.0], "l1_ratio": [0.5]})
    chosen, diag = inner_cv_choose(X, y, spec)
    assert chosen["alpha"] == 1.0
    assert diag == {"inner_cv": "skipped_small_n"}


def test_inner_cv_picks_informative_model():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((200, 3))
    y = 3.0 * X[:, 0] + 0.1 * rng.standard_normal(200)
    spec = ModelSpec(Family.ELASTIC_LINEAR, {"alpha": [1e-4, 100.0], "l1_ratio": [0.0]})
    chosen, diag = inner_cv_choose(X, y, spec)
    assert chosen["alpha"] == 1e-4  # shrinking a strong signal to zero loses badly
    assert len(diag["inner_cv"]["scores"]) == 2
    assert diag["inner_cv"]["nonconverged"] == 0


def test_inner_cv_counts_nonconverged_path_solves():
    # perfectly separable with a margin: at C=100 the penalty barely holds the
    # logistic coefficients back, and the path solve stops at the pass cap
    rng = np.random.default_rng(1)
    X = rng.standard_normal((400, 3))
    X[:, 0] += np.sign(X[:, 0])
    a = (X[:, 0] > 0).astype(float)
    spec = ModelSpec(Family.ELASTIC_LOGISTIC, {"C": [1.0, 100.0], "l1_ratio": [0.0]})
    _, diag = inner_cv_choose(X, a, spec)
    assert 0 < diag["inner_cv"]["nonconverged"] <= _INNER_FOLDS  # one C=100 solve per fold


def _per_candidate_choice(X, target, spec, seed):
    """Inner-CV choice with every candidate refit from zero on every fold."""
    cands = spec.candidates()
    classifier = spec.family == Family.ELASTIC_LOGISTIC
    plan = make_folds(len(target), _INNER_FOLDS, a=target if classifier else None,
                      seed=derive_seed(seed, "inner-cv"))
    scores = []
    for cand in cands:
        losses = []
        for f in range(plan.k):
            tr, te = plan.train_rows(f), plan.test_rows(f)
            if classifier:
                model = fit_enet_logistic(X[tr], target[tr], cand["C"], cand["l1_ratio"])
            else:
                model = fit_enet_linear(X[tr], target[tr], cand["alpha"], cand["l1_ratio"])
            losses.extend(_losses(spec.family, [model], X[te], target[te]))
        scores.append(float(np.mean(losses)))
    return cv_select(cands, scores), scores


@pytest.mark.parametrize("family", [Family.ELASTIC_LINEAR, Family.ELASTIC_LOGISTIC])
def test_path_selection_matches_per_candidate_scoring(family):
    # default grids, scored along warm-started paths versus cold refits
    rng = np.random.default_rng(15)
    X = rng.standard_normal((160, 5))
    X[:, 1] = 0.7 * X[:, 0] + 0.3 * X[:, 1]
    eta = 0.3 + X @ np.array([1.0, -0.6, 0.0, 0.4, 0.1])
    if family == Family.ELASTIC_LINEAR:
        target = eta + 0.5 * rng.standard_normal(160)
    else:
        target = (rng.random(160) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    spec = ModelSpec(family)
    chosen, diag = inner_cv_choose(X, target, spec, seed=3)
    expected, scores = _per_candidate_choice(X, target, spec, seed=3)
    assert chosen == expected
    np.testing.assert_allclose(diag["inner_cv"]["scores"], scores, rtol=0, atol=1e-7)


@pytest.mark.parametrize("family", [Family.ELASTIC_LINEAR, Family.ELASTIC_LOGISTIC])
def test_path_inner_cv_equals_solo_paths(family):
    # the batched inner CV scores exactly what one scalar path per (ratio, fold) scores
    rng = np.random.default_rng(23)
    X = rng.standard_normal((150, 4))
    X[:, 2] = 0.8 * X[:, 0] + 0.2 * X[:, 2]
    eta = -0.2 + X @ np.array([0.9, 0.0, -0.5, 0.3])
    classifier = family == Family.ELASTIC_LOGISTIC
    if classifier:
        target = (rng.random(150) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        penalty, path = "C", scalar_paths.logistic_path
    else:
        target = eta + 0.6 * rng.standard_normal(150)
        penalty, path = "alpha", scalar_paths.linear_path
    spec = ModelSpec(family)
    chosen, diag = inner_cv_choose(X, target, spec, seed=8)

    cands = spec.candidates()
    plan = make_folds(len(target), _INNER_FOLDS, a=target if classifier else None,
                      seed=derive_seed(8, "inner-cv"))
    losses = np.empty((len(cands), plan.k))
    nonconverged = 0
    for ratio in spec.hyper_grid["l1_ratio"]:
        members = [ci for ci, cand in enumerate(cands) if cand["l1_ratio"] == ratio]
        for f in range(plan.k):
            tr, te = plan.train_rows(f), plan.test_rows(f)
            fits = path(X[tr], target[tr], [cands[ci][penalty] for ci in members], ratio)
            losses[members, f] = _losses(family, fits, X[te], target[te])
            nonconverged += sum(not model.converged for model in fits)
    scores = tuple(float(np.mean(row)) for row in losses)
    assert diag["inner_cv"]["scores"] == scores
    assert chosen == cv_select(cands, scores)
    assert "chosen" not in diag["inner_cv"]  # the choice is kept once, as FittedModel.chosen
    assert diag["inner_cv"]["nonconverged"] == nonconverged


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------


def test_clip_policy_frozen():
    clip = ClipPolicy(0.01)
    p = np.array([0.0, 0.005, 0.5, 0.999, 1.0])
    np.testing.assert_allclose(clip.apply(p), [0.01, 0.01, 0.5, 0.99, 0.99])
    assert clip.clipped_fraction(p) == pytest.approx(0.8)
    assert clip.clipped_fraction(np.array([])) == 0.0


def test_clip_policy_validation():
    with pytest.raises(ValueError):
        ClipPolicy(0.5)
    with pytest.raises(ValueError):
        ClipPolicy(-0.01)
    ClipPolicy(0.0)  # no-op clipping is allowed


# ---------------------------------------------------------------------------
# outcome / propensity fitting
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("error")
def test_constant_outcome_returns_intercept_only():
    # the solvers fit a constant fold as it is: inner CV scores every candidate
    # 0, the tie goes to the strongest one, and the model predicts the fold mean
    # with no slope (elastic net) and no tree (boosting)
    X = np.random.default_rng(0).standard_normal((60, 2))
    for family in (Family.ELASTIC_LINEAR, Family.GBT_REG):
        spec = ModelSpec(family)
        for value in (2.5, -1e6, 1.0 / 3.0):
            y = np.full(60, value)
            folds = [(np.arange(40), 3), (np.arange(20, 60), 4)]
            batch, = fit_models(spec, [(X, y, folds)])
            for (rows, seed), model in zip(folds, batch):
                assert set(model.diagnostics["inner_cv"]["scores"]) == {0.0}
                assert model.chosen == max(spec.candidates(), key=_reg_strength)
                np.testing.assert_allclose(model.predict(X), value, rtol=1e-15, atol=0.0)
                if family == Family.GBT_REG:
                    assert model.model.diagnostics["n_trees_fit"] == 0
                else:
                    assert not model.model.coef.any()
                (solo,), = fit_models(spec, [(X[rows], y[rows], [(np.arange(rows.size), seed)])])
                assert_same_fitted(model, solo)


@pytest.mark.filterwarnings("error")
def test_zero_penalty_singular_design_keeps_alpha_zero():
    # least squares has many solutions on a singular design, but they all
    # give the same predictions, and coordinate descent converges to one
    rng = np.random.default_rng(1)
    base = rng.standard_normal((300, 3))
    dummies = np.eye(3)[rng.integers(0, 3, 300)]  # with the intercept, one too many
    designs = {
        "duplicate column": np.column_stack([base, base[:, 0]]),
        "linear combination": np.column_stack([base, base[:, 0] - 2.0 * base[:, 1]]),
        "dummy trap": np.column_stack([base[:, :2], dummies]),
    }
    spec = ModelSpec(Family.ELASTIC_LINEAR, {"alpha": [0.0], "l1_ratio": [0.5]})
    for name, X in designs.items():
        assert np.linalg.matrix_rank(np.column_stack([np.ones(300), X])) < X.shape[1] + 1
        y = X @ rng.standard_normal(X.shape[1]) + 0.3 * rng.standard_normal(300)
        rows = np.arange(20, 300)
        (fm,), = fit_models(spec, [(X, y, [(rows, 5)])])
        assert fm.chosen["alpha"] == 0.0 and fm.model.alpha == 0.0, name
        assert fm.model.converged, name
        design = np.column_stack([np.ones(rows.size), X[rows]])
        coef = np.linalg.lstsq(design, y[rows], rcond=None)[0]
        np.testing.assert_allclose(fm.predict(X[rows]), design @ coef, rtol=0.0, atol=1e-10,
                                   err_msg=name)


@pytest.mark.filterwarnings("error")
def test_batched_folds_equal_solo_fits_with_degenerate_folds():
    # one batch holds a constant-target fold, a zero-penalty singular fold,
    # a regular fold and a fold too small for inner CV; each model is the solo fit's
    rng = np.random.default_rng(9)
    X = rng.standard_normal((100, 3))
    X[:30, 2] = X[:30, 0]  # rows 0..29: duplicate column
    y = 2.0 * X[:, 0] - X[:, 1] + 0.1 * rng.standard_normal(100)
    y[60:90] = 1.5
    spec = ModelSpec(Family.ELASTIC_LINEAR, {"alpha": [0.0, 10.0], "l1_ratio": [0.5]})
    folds = [(np.arange(30), 11), (np.arange(60, 90), 12), (np.arange(30, 60), 13),
             (np.arange(90, 98), 14)]
    batch, = fit_models(spec, [(X, y, folds)])
    assert batch[0].chosen == {"alpha": 0.0, "l1_ratio": 0.5}  # the CV's choice stands
    assert batch[0].model.converged
    assert batch[1].chosen == {"alpha": 10.0, "l1_ratio": 0.5}  # a tie at 0 loss
    np.testing.assert_allclose(batch[1].predict(X), 1.5, rtol=1e-15, atol=0.0)
    assert batch[2].chosen == {"alpha": 0.0, "l1_ratio": 0.5}
    assert batch[3].diagnostics == {"inner_cv": "skipped_small_n"}
    for (rows, seed), model in zip(folds, batch):
        (solo,), = fit_models(spec, [(X[rows], y[rows], [(np.arange(rows.size), seed)])])
        assert_same_fitted(model, solo)


def test_batched_propensity_folds_validated_before_fitting(monkeypatch):
    import isoeffect.nuisance as nuisance

    monkeypatch.setattr(nuisance, "_fit_models", lambda *args: pytest.fail("fitted"))
    X = np.random.default_rng(2).standard_normal((10, 2))
    a = np.array([0.0, 1.0] * 5)
    spec = ModelSpec(Family.ELASTIC_LOGISTIC)
    with pytest.raises(ValidationError, match="both treatment arms"):
        fit_models(spec, [(X, a, [(np.arange(10), 1), (np.array([0, 2, 4]), 2)])])


def test_outcome_family_guard():
    X = np.zeros((4, 1))
    with pytest.raises(ValueError, match="outcome-regression"):
        fit_outcome_model(X, np.zeros(4), ModelSpec(Family.ELASTIC_LOGISTIC))
    with pytest.raises(ValidationError):
        fit_outcome_model(np.zeros((1, 1)), np.zeros(1), ModelSpec(Family.ELASTIC_LINEAR))


@pytest.mark.parametrize("fit, family, message", [
    (fit_outcome_model, Family.ELASTIC_LOGISTIC, "is not an outcome-regression family"),
    (fit_outcome_model, Family.GBT_CLF, "is not an outcome-regression family"),
    (fit_propensity_model, Family.ELASTIC_LINEAR, "is not a propensity family"),
    (fit_propensity_model, Family.GBT_REG, "is not a propensity family"),
])
def test_single_fit_family_checked_before_any_fit(fit, family, message, monkeypatch):
    # a 0/1 target with both classes passes either nuisance's input checks, so only
    # the family check stands between a wrong spec and a fit
    import isoeffect.nuisance as nuisance

    monkeypatch.setattr(nuisance, "_fit_models", lambda *args: pytest.fail("fitted"))
    X = np.random.default_rng(2).standard_normal((10, 2))
    with pytest.raises(ValueError, match=f"^'{family}' {message}$"):
        fit(X, np.array([0.0, 1.0] * 5), ModelSpec(family))


def test_propensity_single_class_raises():
    X = np.random.default_rng(2).standard_normal((10, 2))
    with pytest.raises(ValidationError, match="both treatment arms"):
        fit_propensity_model(X, np.ones(10), ModelSpec(Family.ELASTIC_LOGISTIC))
    with pytest.raises(ValidationError, match="0/1"):
        fit_propensity_model(X, np.full(10, 0.5), ModelSpec(Family.ELASTIC_LOGISTIC))
    with pytest.raises(ValueError, match="propensity family"):
        fit_propensity_model(X, np.ones(10), ModelSpec(Family.ELASTIC_LINEAR))


def test_propensity_predictions_respect_clip():
    from isoeffect import Dataset
    from isoeffect.estimator import crossfit_nuisances

    X = np.linspace(-3, 3, 60).reshape(-1, 1)
    a = (X[:, 0] > 0).astype(float)  # separable: raw probabilities go extreme
    ds = Dataset(y=X[:, 0] + a, a=a.astype(np.int64), features=X)
    fits = crossfit_nuisances(
        ds,
        outcome_spec=ModelSpec(Family.ELASTIC_LINEAR, {"alpha": [1e-3], "l1_ratio": [0.5]}),
        propensity_spec=ModelSpec(Family.ELASTIC_LOGISTIC, {"C": [100.0], "l1_ratio": [0.0]}),
        k=3,
        clip=ClipPolicy(0.05),
    )
    assert fits.p_hat.min() >= 0.05 and fits.p_hat.max() <= 0.95
    assert fits.diagnostics["clipped_frac"] > 0


def test_predict_guards():
    X = np.random.default_rng(3).standard_normal((30, 2))
    y = X[:, 0]
    a = (X[:, 1] > 0).astype(float)
    reg = fit_outcome_model(X, y, ModelSpec(Family.ELASTIC_LINEAR,
                                            {"alpha": [0.01], "l1_ratio": [0.0]}))
    clf = fit_propensity_model(X, a, ModelSpec(Family.ELASTIC_LOGISTIC,
                                               {"C": [1.0], "l1_ratio": [0.0]}))
    with pytest.raises(ValueError):
        reg.predict_proba(X)
    with pytest.raises(ValueError):
        clf.predict(X)


def test_gbt_family_dispatch():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 2))
    y = X[:, 0] + 0.1 * rng.standard_normal(60)
    a = (X[:, 1] + 0.3 * rng.standard_normal(60) > 0).astype(float)
    reg_spec = ModelSpec(Family.GBT_REG, {"depth": [2], "n_trees": [20], "learning_rate": [0.1]})
    clf_spec = ModelSpec(Family.GBT_CLF, {"depth": [2], "n_trees": [20], "learning_rate": [0.1]})
    reg = fit_outcome_model(X, y, reg_spec)
    clf = fit_propensity_model(X, a, clf_spec)
    assert reg.family == Family.GBT_REG and not reg.is_classifier
    assert clf.family == Family.GBT_CLF and clf.is_classifier
    assert np.isfinite(reg.predict(X)).all()
    assert np.isfinite(clf.predict_proba(X)).all()
    with pytest.raises(ValueError, match="outcome-regression"):
        fit_outcome_model(X, y, clf_spec)
    with pytest.raises(ValueError, match="propensity family"):
        fit_propensity_model(X, a, reg_spec)


def test_gbt_outcome_model_deterministic_seeding():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((80, 3))
    y = X[:, 0] + 0.2 * rng.standard_normal(80)
    spec = ModelSpec(Family.GBT_REG, {"depth": [2], "n_trees": [30], "learning_rate": [0.1]})
    every = np.arange(80)
    (f1,), = fit_models(spec, [(X, y, [(every, 7)])])
    (f2,), = fit_models(spec, [(X, y, [(every, 7)])])
    np.testing.assert_array_equal(f1.predict(X), f2.predict(X))
    # the one-fold seam is seed 0, which draws other row subsamples than seed 7
    seam = fit_outcome_model(X, y, spec)
    (f0,), = fit_models(spec, [(X, y, [(every, 0)])])
    np.testing.assert_array_equal(seam.predict(X), f0.predict(X))
    assert not np.array_equal(seam.predict(X), f1.predict(X))
