"""Doubly robust estimation: collapse oracles, invariances, cross-fitting honesty."""

from __future__ import annotations

import os
import signal
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import FAST_LINEAR, FAST_LOGISTIC, assert_same_fitted
from isoeffect import (
    Dataset,
    SynthSpec,
    ValidationError,
    crossfit_nuisances,
    crossfit_representations,
    estimate_dr,
    estimate_effect,
    estimate_naive,
    generate,
    variance_ci,
    weights_for,
    weights_iate,
    weights_iatt,
)
from isoeffect.core import derive_seed
from isoeffect.estimator import GeneralFits, NuisanceFits
from isoeffect.nuisance import Family, ModelSpec, fit_outcome_models, fit_propensity_models


def _zeroed(arr):
    return np.zeros_like(np.asarray(arr))


# ---------------------------------------------------------------------------
# naive estimator and variance arithmetic
# ---------------------------------------------------------------------------


def test_naive_hand_case():
    ds = Dataset(y=np.array([1.0, 3.0]), a=np.array([0, 1]), features=np.zeros((2, 1)))
    est = estimate_naive(ds)
    # mean((2a-1) y) = mean([-1, 3]) = 1, NOT the arm-mean difference (2)
    assert est.tau_hat == 1.0
    assert est.variance_hat == pytest.approx(4.0)
    assert est.standard_error == pytest.approx(np.sqrt(2.0))
    lo, hi = est.ci95
    assert lo == pytest.approx(1.0 - 1.96 * np.sqrt(2.0))
    assert hi == pytest.approx(1.0 + 1.96 * np.sqrt(2.0))
    assert est.diagnostics == {}  # the report takes pi1 from the fits


def test_naive_requires_both_arms():
    ds = Dataset(y=np.array([1.0, 2.0]), a=np.array([1, 1]), features=np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        estimate_naive(ds)


def test_variance_ci_frozen():
    var, se, ci = variance_ci(np.array([-1.0, 1.0]), tau_hat=0.5, n=2)
    assert var == pytest.approx(1.0)
    assert se == pytest.approx(np.sqrt(0.5))
    assert ci == (pytest.approx(0.5 - 1.96 * se), pytest.approx(0.5 + 1.96 * se))
    with pytest.raises(ValueError):
        variance_ci(np.array([1.0]), 0.0, 1)


def test_variance_ci_centers_influence():
    rng = np.random.default_rng(0)
    inf = rng.standard_normal(50)
    v1, *_ = variance_ci(inf, 0.0, 50)
    v2, *_ = variance_ci(inf + 100.0, 0.0, 50)  # location shift must not matter
    assert v1 == pytest.approx(v2)


# ---------------------------------------------------------------------------
# collapse oracles: the DR formula reduces to known estimators
# ---------------------------------------------------------------------------


def _manual_fits(ds: Dataset, ghat_obs, ghat1, ghat0, p_hat, k: int = 2) -> NuisanceFits:
    """Hand-assembled nuisances bypassing any model fitting."""
    from isoeffect import make_folds

    plan = make_folds(ds.n, k, a=ds.a, seed=0)
    pi1 = np.array([ds.a[plan.train_rows(f)].mean() for f in range(k)])
    return NuisanceFits(
        dataset=ds,
        fold_plan=plan,
        ghat_obs=np.asarray(ghat_obs, dtype=float),
        ghat1=np.asarray(ghat1, dtype=float),
        ghat0=np.asarray(ghat0, dtype=float),
        p_hat=np.asarray(p_hat, dtype=float),
        pi1_by_fold=pi1,
        outcome_models=(),
        propensity_models=(),
    )


def test_dr_with_zero_outcome_model_is_weighted_mean(tiny_dataset):
    ds = tiny_dataset
    p = np.full(ds.n, 0.5)
    fits = _manual_fits(ds, _zeroed(ds.y), _zeroed(ds.y), _zeroed(ds.y), p)
    w = weights_iate(ds.a.astype(float), p)
    est = estimate_dr(fits, w, ds)
    expected = float(np.mean(w.gamma * ds.y))
    assert est.tau_hat == pytest.approx(expected, abs=1e-14)


def test_dr_with_zero_weights_is_plug_in(tiny_dataset):
    ds = tiny_dataset
    rng = np.random.default_rng(1)
    g1 = rng.standard_normal(ds.n)
    g0 = rng.standard_normal(ds.n)
    fits = _manual_fits(ds, g0, g1, g0, np.full(ds.n, 0.5))
    from isoeffect import Weights

    w = Weights(kind="iate", gamma=np.zeros(ds.n), target_gap=np.zeros(ds.n))
    est = estimate_dr(fits, w, ds)
    assert est.tau_hat == pytest.approx(float(np.mean(g1 - g0)), abs=1e-14)


def test_dr_with_true_nuisances_recovers_effect():
    spec = SynthSpec(n=4000, d=4, rho=0.5, beta_a=1.0, noise_sd=0.5, seed=17)
    ds = generate(spec)
    beta = np.asarray(spec.beta)
    g1 = spec.beta0 + spec.beta_a + ds.features @ beta
    g0 = spec.beta0 + ds.features @ beta
    g_obs = np.where(ds.a == 1, g1, g0)
    # true propensity is unknown in closed form; a rich logistic fit on the
    # full sample is fine here because g is exactly correct (DR protects it)
    from isoeffect.nuisance import fit_propensity_model

    pm = fit_propensity_model(ds.features, ds.a.astype(float), FAST_LOGISTIC)
    p = pm.predict_proba(ds.features)
    fits = _manual_fits(ds, g_obs, g1, g0, p)
    w = weights_iate(ds.a.astype(float), p)
    est = estimate_dr(fits, w, ds)
    assert abs(est.tau_hat - 1.0) < 4 * est.standard_error
    assert abs(est.tau_hat - 1.0) < 0.08


def test_dr_iatt_needs_treated_rows(tiny_dataset):
    p = np.full(tiny_dataset.n, 0.5)
    zeros = _zeroed(tiny_dataset.y)
    fits = _manual_fits(tiny_dataset, zeros, zeros, zeros, p)
    ds = Dataset(y=tiny_dataset.y, a=np.zeros(tiny_dataset.n, dtype=int),
                 features=tiny_dataset.features)
    w = weights_iatt(ds.a, p, 0.5)
    with pytest.raises(ValidationError, match="target sample is empty"):
        estimate_dr(fits, w, ds)


def _golden_fits(ds: Dataset) -> NuisanceFits:
    """Hand-assembled nuisances with general extras: 8 source rows, 5 target rows."""
    fits = _manual_fits(
        ds,
        ghat_obs=[0.75, 2.5, 1.75, 0.25, -0.5, 3.5, 2.0, 1.0],
        ghat1=[1.25, 2.5, 1.75, 1.0, 0.5, 3.5, 2.0, 2.25],
        ghat0=[0.75, 1.5, 0.5, 0.25, -0.5, 2.0, 1.25, 1.0],
        p_hat=[0.3, 0.6, 0.55, 0.35, 0.2, 0.7, 0.65, 0.4],
    )
    general = GeneralFits(
        target_assignment=np.array([0, 1, 0, 1, 1]),
        target_ghat1=np.array([1.5, 2.25, 0.75, 3.0, 1.25]),
        target_ghat0=np.array([0.5, 1.0, 0.25, 1.75, 0.5]),
        target_p_hat=np.array([0.45, 0.6, 0.3, 0.7, 0.5]),
        target_prob_t=np.array([0.5, 0.35, 0.6, 0.45, 0.55]),
        source_prob_t=np.array([0.4, 0.3, 0.45, 0.5, 0.35, 0.6, 0.25, 0.55]),
        frac_t_by_fold=np.array([5 / 13, 4 / 13]),
    )
    return replace(fits, general=general)


# exact (tau_hat, standard_error, variance_hat, ci95, n, m_target) per
# estimand: a change in the order of the float operations moves them
GOLDEN = {
    "iate": (1.227662962037962, 0.26186259150338487, 0.548576134630949,
             (0.7144122826913276, 1.7409136413845965), 8, 8),
    "iatt": (1.4499771062271063, 0.6130849139575574, 3.006984893778764,
             (0.2483306748702938, 2.6516235375839186), 8, 4),
    "general": (1.114409927194018, 0.5549916093908527, 4.0042039244252345,
                (0.026626372787946773, 2.202193481600089), 13, 5),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_dr_estimate_bits_per_estimand(tiny_dataset, kind):
    fits = _golden_fits(tiny_dataset)
    est = estimate_dr(fits, weights_for(fits, tiny_dataset.a, kind), tiny_dataset)
    got = (est.tau_hat, est.standard_error, est.variance_hat, est.ci95, est.n,
           est.diagnostics["m_target"])
    assert got == GOLDEN[kind]
    assert est.estimand == kind
    assert est.influence.shape == (est.n,)


# ---------------------------------------------------------------------------
# full pipeline invariances
# ---------------------------------------------------------------------------


def test_estimate_effect_deterministic(synth_small):
    e1 = estimate_effect(synth_small, outcome_spec=FAST_LINEAR,
                         propensity_spec=FAST_LOGISTIC, seed=5)
    e2 = estimate_effect(synth_small, outcome_spec=FAST_LINEAR,
                         propensity_spec=FAST_LOGISTIC, seed=5)
    assert e1.tau_hat == e2.tau_hat
    assert e1.ci95 == e2.ci95
    np.testing.assert_array_equal(e1.influence, e2.influence)
    e3 = estimate_effect(synth_small, outcome_spec=FAST_LINEAR,
                         propensity_spec=FAST_LOGISTIC, seed=6)
    assert e1.tau_hat != e3.tau_hat  # folds differ


def test_location_shift_moves_only_the_intercept(synth_small):
    base = estimate_effect(synth_small, outcome_spec=FAST_LINEAR,
                           propensity_spec=FAST_LOGISTIC, seed=2)
    shifted_ds = Dataset(y=synth_small.y + 50.0, a=synth_small.a,
                         features=synth_small.features)
    shifted = estimate_effect(shifted_ds, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC, seed=2)
    assert shifted.tau_hat == pytest.approx(base.tau_hat, abs=1e-8)
    assert shifted.standard_error == pytest.approx(base.standard_error, abs=1e-8)


def test_outcome_scaling_scales_estimate(synth_small):
    # exact scale equivariance holds only with no penalty (a fixed alpha is
    # not equivariant in the outcome scale)
    from isoeffect import Family, ModelSpec

    ols = ModelSpec(Family.ELASTIC_LINEAR, {"alpha": [0.0], "l1_ratio": [0.0]})
    base = estimate_effect(synth_small, outcome_spec=ols,
                           propensity_spec=FAST_LOGISTIC, seed=2)
    scaled_ds = Dataset(y=3.0 * synth_small.y, a=synth_small.a,
                        features=synth_small.features)
    scaled = estimate_effect(scaled_ds, outcome_spec=ols,
                             propensity_spec=FAST_LOGISTIC, seed=2)
    assert scaled.tau_hat == pytest.approx(3.0 * base.tau_hat, rel=1e-9)


def test_out_of_fold_predictions_ignore_own_outcome(synth_small):
    fits = crossfit_nuisances(synth_small, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC, seed=7)
    plan = fits.fold_plan
    rows0 = plan.test_rows(0)
    y2 = synth_small.y.copy()
    y2[rows0] += 100.0  # poison fold 0's outcomes
    poisoned = Dataset(y=y2, a=synth_small.a, features=synth_small.features)
    fits2 = crossfit_nuisances(poisoned, outcome_spec=FAST_LINEAR,
                               propensity_spec=FAST_LOGISTIC, seed=7)
    # the plan depends on the row count, k, a and the seed, never on y
    np.testing.assert_array_equal(fits2.fold_plan.assignment, plan.assignment)
    # fold-0 rows are predicted by models trained on the other folds, so their
    # out-of-fold predictions cannot depend on their own outcomes
    np.testing.assert_array_equal(fits.ghat_obs[rows0], fits2.ghat_obs[rows0])
    other = np.setdiff1d(np.arange(synth_small.n), rows0)
    assert not np.array_equal(fits.ghat_obs[other], fits2.ghat_obs[other])


def test_crossfit_diagnostics_and_plan_reuse(synth_small):
    fits = crossfit_nuisances(synth_small, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC, k=4, seed=1)
    d = fits.diagnostics
    assert 0.0 <= d["clipped_frac"] <= 1.0
    assert 0.0 < d["p_min"] <= d["p_max"] < 1.0
    assert len(fits.pi1_by_fold) == 4
    assert fits.pi1_rows().shape == (synth_small.n,)
    # per-row pi1 values come from the row's fold
    for f in range(4):
        rows = fits.fold_plan.test_rows(f)
        assert np.all(fits.pi1_rows()[rows] == fits.pi1_by_fold[f])


def test_estimand_kinds_and_target_sizes(synth_small):
    iate = estimate_effect(synth_small, kind="iate", outcome_spec=FAST_LINEAR,
                           propensity_spec=FAST_LOGISTIC, seed=0)
    iatt = estimate_effect(synth_small, kind="iatt", outcome_spec=FAST_LINEAR,
                           propensity_spec=FAST_LOGISTIC, seed=0)
    assert iate.estimand == "iate" and iatt.estimand == "iatt"
    # the fits' facts (p_min, clipped_frac, ...) stay on the fits
    assert iate.diagnostics == {"m_target": synth_small.n}
    assert iatt.diagnostics == {"m_target": synth_small.n_treated()}
    # same folds, same nuisances; only the weighting differs
    assert iate.tau_hat != iatt.tau_hat


def test_return_parts_round_trip(synth_small):
    target = generate(SynthSpec(n=120, d=synth_small.features.shape[1], seed=31)).features
    for kind in ("iate", "iatt", "general"):
        est, fits, weights = estimate_effect(
            synth_small, kind=kind, outcome_spec=FAST_LINEAR, propensity_spec=FAST_LOGISTIC,
            seed=4, target_features=target if kind == "general" else None, return_parts=True,
        )
        rebuilt = estimate_dr(fits, weights, synth_small)
        assert rebuilt.tau_hat == est.tau_hat
        assert rebuilt.ci95 == est.ci95
        assert rebuilt.n == est.n
        np.testing.assert_array_equal(rebuilt.influence, est.influence)


# ---------------------------------------------------------------------------
# general (transported) estimand
# ---------------------------------------------------------------------------


def test_general_close_to_iate_for_same_distribution_target():
    spec = SynthSpec(n=1500, d=4, rho=0.5, beta_a=1.0, seed=23)
    ds = generate(spec)
    target = generate(replace_seed(spec, 977)).features
    est_gen, fits, w = estimate_effect(
        ds, kind="general", outcome_spec=FAST_LINEAR, propensity_spec=FAST_LOGISTIC,
        seed=1, target_features=target, return_parts=True,
    )
    est_iate = estimate_effect(ds, kind="iate", outcome_spec=FAST_LINEAR,
                               propensity_spec=FAST_LOGISTIC, seed=1)
    # the target corpus is a fresh draw of the same law, so transporting
    # should move the estimate by at most a few combined standard errors
    tol = 3.0 * np.hypot(est_gen.standard_error, est_iate.standard_error)
    assert abs(est_gen.tau_hat - est_iate.tau_hat) < tol
    assert est_gen.diagnostics["m_target"] == 1500
    assert est_gen.n == ds.n + 1500


def test_general_predictions_come_from_each_folds_models(synth_small):
    # source and target rows held out of fold f are predicted by fold f's
    # models, and the corpus classifier trains on the rest of both corpora;
    # k = 3 does not divide m = 50, so the target folds are unequal
    target = generate(SynthSpec(n=50, d=synth_small.features.shape[1], seed=41)).features
    fits = crossfit_nuisances(synth_small, FAST_LINEAR, FAST_LOGISTIC, k=3, seed=2,
                              target_features=target)
    g = fits.general
    clip = fits.clip.apply
    assert len(set(np.bincount(g.target_assignment))) == 2
    for f in range(3):
        om, pm, cm = fits.outcome_models[f], fits.propensity_models[f], g.corpus_models[f]
        t_te = np.flatnonzero(g.target_assignment == f)
        x = target[t_te]
        for arm, ghat in ((1.0, g.target_ghat1), (0.0, g.target_ghat0)):
            expected = om.predict(np.column_stack([x, np.full(len(t_te), arm)]))
            assert ghat[t_te].tobytes() == expected.tobytes()
        assert g.target_p_hat[t_te].tobytes() == clip(pm.predict_proba(x)).tobytes()
        assert g.target_prob_t[t_te].tobytes() == clip(cm.predict_proba(x)).tobytes()
        te = fits.fold_plan.test_rows(f)
        expected = clip(cm.predict_proba(synth_small.features[te]))
        assert g.source_prob_t[te].tobytes() == expected.tobytes()
        x = synth_small.features[te]
        for arm, ghat in ((1.0, fits.ghat1), (0.0, fits.ghat0)):
            expected = om.predict(np.column_stack([x, np.full(len(te), arm)]))
            assert ghat[te].tobytes() == expected.tobytes()
        # the observed arm's prediction, not the other arm's
        expected = om.predict(np.column_stack([x, synth_small.a[te]]))
        assert fits.ghat_obs[te].tobytes() == expected.tobytes()
        n_src, n_tgt = synth_small.n - len(te), len(target) - len(t_te)
        assert g.frac_t_by_fold[f] == n_tgt / (n_src + n_tgt)


_GRIDS = {
    "elastic": (ModelSpec(Family.ELASTIC_LINEAR, {"alpha": (1e-3, 0.1), "l1_ratio": (0.0, 0.5)}),
                ModelSpec(Family.ELASTIC_LOGISTIC, {"C": (0.1, 10.0), "l1_ratio": (0.0, 0.9)})),
    "gbt": (ModelSpec(Family.GBT_REG, {"depth": (2,), "n_trees": (5, 15), "learning_rate": (0.1,)}),
            ModelSpec(Family.GBT_CLF, {"depth": (1, 2), "n_trees": (10,), "learning_rate": (0.1,)})),
}


@pytest.mark.parametrize("model", ["elastic", "gbt"])
@pytest.mark.parametrize("kind", ["iate", "general"])
def test_crossfit_fold_models_equal_solo_fits(model, kind, synth_small, monkeypatch, inline):
    # every fold of a nuisance is fitted in one inner-CV call and one final-fit
    # call, and each fold's model is the one a fit on its training rows alone gives;
    # the propensity and corpus classifiers share a spec, and elastic nets of one
    # width share the calls
    import isoeffect.nuisance as nuisance

    calls = []
    for name in ("enet_linear_paths", "enet_logistic_paths", "fit_gbt_batch"):
        def counted(*args, _name=name, _fn=getattr(nuisance, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(nuisance, name, counted)
    outcome_spec, propensity_spec = _GRIDS[model]
    target = generate(SynthSpec(n=90, d=synth_small.features.shape[1], seed=43)).features
    seed, k = 6, 3
    fits = crossfit_nuisances(synth_small, outcome_spec, propensity_spec, k=k, seed=seed,
                              target_features=target if kind == "general" else None)
    nuisances = 3 if kind == "general" else 2
    if model == "gbt":
        assert calls == ["fit_gbt_batch"] * 2 * nuisances
    else:
        assert calls == ["enet_linear_paths"] * 2 + ["enet_logistic_paths"] * 2
    monkeypatch.undo()

    def alone(fit, X, target, spec, label):
        # the rows fitted as the only fold, with that fold's derived seed
        return fit(X, target, spec, [(np.arange(len(target)), derive_seed(seed, label))])[0]

    feats, y, a = synth_small.features, synth_small.y, synth_small.a.astype(float)
    design = np.column_stack([feats, a])
    for f in range(k):
        tr = fits.fold_plan.train_rows(f)
        assert fits.outcome_models[f].diagnostics["inner_cv"]["scores"]
        assert_same_fitted(fits.outcome_models[f], alone(
            fit_outcome_models, design[tr], y[tr], outcome_spec, f"outcome-f{f}"))
        assert_same_fitted(fits.propensity_models[f], alone(
            fit_propensity_models, feats[tr], a[tr], propensity_spec, f"propensity-f{f}"))
        if kind == "general":
            train = np.concatenate([fits.fold_plan.assignment, fits.general.target_assignment]) != f
            rows = np.vstack([feats, target])
            is_target = np.arange(len(rows)) >= synth_small.n
            assert_same_fitted(fits.general.corpus_models[f], alone(
                fit_propensity_models, rows[train], is_target[train].astype(float),
                propensity_spec, f"corpus-f{f}"))


def test_crossfit_representations_equal_each_crossfit_alone(synth_small):
    # one batch holds a general-estimand dataset and a narrower one without a corpus
    from isoeffect import crossfit_representations

    narrow = Dataset(y=synth_small.y, a=synth_small.a, features=synth_small.features[:, :2])
    target = generate(SynthSpec(n=90, d=synth_small.features.shape[1], seed=43)).features
    outcome_spec, propensity_spec = _GRIDS["elastic"]
    batch = crossfit_representations([synth_small, narrow], outcome_spec, propensity_spec,
                                     k=3, seed=6, target_features=[target, None])
    alone = [crossfit_nuisances(synth_small, outcome_spec, propensity_spec, k=3, seed=6,
                                target_features=target),
             crossfit_nuisances(narrow, outcome_spec, propensity_spec, k=3, seed=6)]
    for got, want in zip(batch, alone):
        assert got.dataset is want.dataset and (got.general is None) == (want.general is None)
        for name in ("ghat_obs", "ghat1", "ghat0", "p_hat", "pi1_by_fold"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for g, w in zip(got.outcome_models + got.propensity_models,
                        want.outcome_models + want.propensity_models):
            assert_same_fitted(g, w)
    for name in ("target_ghat1", "target_ghat0", "target_p_hat", "target_prob_t",
                 "source_prob_t", "frac_t_by_fold"):
        got, want = getattr(batch[0].general, name), getattr(alone[0].general, name)
        assert got.tobytes() == want.tobytes(), name
    with pytest.raises(ValueError, match="1 target corpora for 2 datasets"):
        crossfit_representations([synth_small, narrow], target_features=[target])


def test_default_gbt_crossfit_grows_each_nuisance_in_two_lockstep_groups(monkeypatch, inline):
    # the first input set of the estimate-gbt benchmark at seed 21: n=400,
    # criterion 9's nonlinear spec plus a count column, the default GBT grids,
    # 2 folds. The 40 inner-CV fits of a nuisance differ in rows and cuts and
    # still grow as one group, and its 2 final fits as another
    import isoeffect.boosting as boosting

    spec = SynthSpec(n=400, d=6, rho=0.6, beta_a=1.0, interaction=(2, 0.5),
                     outcome_form="nonlinear", seed=21000)
    base = generate(spec)
    counts = np.random.default_rng(21000).poisson(3.0, size=spec.n).astype(float)
    dataset = Dataset(y=base.y, a=base.a, features=np.column_stack([base.features, counts]),
                      feature_names=(*base.feature_names, "x_6"))
    groups = []
    lockstep = boosting._fit_lockstep
    monkeypatch.setattr(boosting, "_fit_lockstep",
                        lambda *args: groups.append(args[3:]) or lockstep(*args))
    crossfit_nuisances(dataset, ModelSpec(Family.GBT_REG), ModelSpec(Family.GBT_CLF),
                       k=2, seed=0)
    assert [len(tasks) for tasks, _ in groups] == [40, 2, 40, 2]
    for tasks, tables in groups[::2]:
        assert len({t.rows.size for t in tasks}) >= 3
        assert len({feature.size for _, feature, _ in tables}) >= 2


def replace_seed(spec: SynthSpec, seed: int) -> SynthSpec:
    from dataclasses import replace as _replace

    return _replace(spec, seed=seed)


def _never_fitted(monkeypatch):
    import isoeffect.nuisance as nuisance

    def never(*args, **kwargs):
        raise AssertionError("nothing may be fitted")

    monkeypatch.setattr(nuisance, "_fit_models", never)  # every fit passes through it


def test_estimand_validation(synth_small, monkeypatch):
    # estimate_effect checks the kind and whether a target fits it, before any fit
    _never_fitted(monkeypatch)
    with pytest.raises(ValueError, match="unknown estimand kind 'nope'"):
        estimate_effect(synth_small, kind="nope")
    for kind in ("iate", "iatt"):
        with pytest.raises(ValueError, match="only meaningful for the general estimand"):
            estimate_effect(synth_small, kind=kind, target_features=np.ones((10, 4)))


def test_general_requires_target(synth_small, monkeypatch):
    _never_fitted(monkeypatch)
    with pytest.raises(ValidationError, match="general estimand requires a target feature matrix"):
        estimate_effect(synth_small, kind="general")
    with pytest.raises(ValidationError, match="feature columns"):
        crossfit_nuisances(synth_small, FAST_LINEAR, FAST_LOGISTIC,
                           target_features=np.zeros((10, 99)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_estimand_rejects_nonfinite_target_features(bad, synth_small, monkeypatch):
    _never_fitted(monkeypatch)
    target = np.ones((10, 4))
    target[1, 0] = bad
    with pytest.raises(ValidationError, match="non-finite target feature value at row 2"):
        crossfit_nuisances(synth_small, target_features=target)
    with pytest.raises(ValidationError, match="non-finite target feature value at row 2"):
        estimate_effect(synth_small, kind="general", target_features=target)


@pytest.mark.parametrize("target, match", [
    (np.ones(4), "target feature matrix must be non-empty and 2-d"),
    (np.ones((0, 4)), "target feature matrix must be non-empty and 2-d"),
    (np.ones((2, 3, 4)), "target feature matrix must be non-empty and 2-d"),
    (np.zeros((10, 99)), "target corpus has 99 feature columns, source has 4"),
    (np.zeros((4, 4)), "cannot split 4 rows into 5 folds"),
], ids=["1-d", "empty", "3-d", "width", "fewer-rows-than-folds"])
def test_target_corpus_checked_before_fitting(target, match, synth_small, monkeypatch):
    _never_fitted(monkeypatch)
    with pytest.raises(ValidationError, match=match):
        crossfit_nuisances(synth_small, target_features=target)
    with pytest.raises(ValidationError, match=match):
        estimate_effect(synth_small, kind="general", target_features=target)


def test_general_estimator_guards(synth_small, tiny_dataset):
    fits = crossfit_nuisances(synth_small, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC)
    with pytest.raises(ValidationError, match="no general"):
        weights_for(fits, synth_small.a.astype(float), "general")
    golden = _golden_fits(tiny_dataset)
    w = weights_for(golden, tiny_dataset.a, "general")
    with pytest.raises(ValidationError, match="general-estimand extras"):
        estimate_dr(replace(golden, general=None), w, tiny_dataset)
    # a target corpus is only meaningful for the general estimand
    with pytest.raises(ValueError, match="only meaningful"):
        estimate_effect(synth_small, kind="iate", target_features=np.zeros((10, 3)))


# ---------------------------------------------------------------------------
# the outcome models fitted in a forked child
# ---------------------------------------------------------------------------


def _assert_same_fits(got, want):
    """Bit-for-bit equality of two cross-fits of one dataset, every model included."""
    assert got.dataset is want.dataset
    assert got.fold_plan.assignment.tobytes() == want.fold_plan.assignment.tobytes()
    for name in ("ghat_obs", "ghat1", "ghat0", "p_hat", "pi1_by_fold"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    models = got.outcome_models + got.propensity_models
    assert len(models) == len(want.outcome_models + want.propensity_models)
    for g, w in zip(models, want.outcome_models + want.propensity_models):
        assert_same_fitted(g, w)
    assert ((got.outcome_spec, got.propensity_spec, got.seed, got.clip, got.diagnostics)
            == (want.outcome_spec, want.propensity_spec, want.seed, want.clip, want.diagnostics))
    assert (got.general is None) == (want.general is None)
    if want.general is not None:
        for f in fields(GeneralFits):
            g, w = getattr(got.general, f.name), getattr(want.general, f.name)
            if f.name == "corpus_models":
                assert len(g) == len(w)
                for gm, wm in zip(g, w):
                    assert_same_fitted(gm, wm)
            else:
                assert g.tobytes() == w.tobytes(), f.name


def _inline_and_forked(monkeypatch, forked, run):
    """``run()`` with every fit in this process, then with the outcome fit in a child."""
    import isoeffect.estimator as estimator

    with monkeypatch.context() as m:
        m.setattr(estimator, "_can_fork", lambda: False)
        inline = run()
    assert forked == []
    return inline, run()


@pytest.mark.parametrize("model", ["elastic", "gbt"])
@pytest.mark.parametrize("kind", ["iate", "iatt", "general"])
def test_forked_outcome_fit_equals_inline_fit(model, kind, synth_small, monkeypatch, forked):
    outcome_spec, propensity_spec = _GRIDS[model]
    target = generate(SynthSpec(n=90, d=synth_small.features.shape[1], seed=43)).features

    def run():
        return estimate_effect(synth_small, kind, outcome_spec, propensity_spec, k=3, seed=6,
                               target_features=target if kind == "general" else None,
                               return_parts=True)

    (est_in, fits_in, _), (est, fits, _) = _inline_and_forked(monkeypatch, forked, run)
    assert len(forked) == 1  # one child per cross-fit
    _assert_same_fits(fits, fits_in)
    assert est.influence.tobytes() == est_in.influence.tobytes()
    assert (est.tau_hat, est.standard_error) == (est_in.tau_hat, est_in.standard_error)


def test_forked_calibration_batch_equals_inline_batch(synth_small, monkeypatch, forked):
    # the full features and two reductions of different widths, as `calibrate` fits them
    outcome_spec, propensity_spec = _GRIDS["elastic"]
    datasets = [synth_small] + [replace(synth_small, features=synth_small.features[:, keep],
                                        feature_names=())
                                for keep in ([0, 2, 3], [1, 2])]

    def run():
        return crossfit_representations(datasets, outcome_spec, propensity_spec, k=3, seed=6)

    inline, batch = _inline_and_forked(monkeypatch, forked, run)
    assert len(forked) == 1
    for got, want in zip(batch, inline):
        _assert_same_fits(got, want)


@pytest.mark.parametrize("a, message", [
    # 3 rows in 2 folds: one fold trains on a single row, which fails the
    # outcome check (fewer than 2 rows) and the propensity check (one arm)
    ([0, 1, 0], "outcome fitting needs >= 2 aligned rows"),
    # 4 rows in 2 folds of 2: the fold holding the one treated row trains on
    # two control rows, which fails the propensity check only
    ([0, 0, 0, 1], "propensity fitting requires both treatment arms"),
], ids=["both-fail", "propensity-fails"])
@pytest.mark.parametrize("fork", [False, True], ids=["inline", "forked"])
def test_input_checks_run_before_any_fit_outcome_first(fork, a, message, monkeypatch, request):
    import isoeffect.estimator as estimator
    import isoeffect.nuisance as nuisance

    forks = request.getfixturevalue("forked") if fork else None
    if not fork:
        monkeypatch.setattr(estimator, "_can_fork", lambda: False)

    def never(*args, **kwargs):
        raise AssertionError("every input is checked before any fit")

    monkeypatch.setattr(nuisance, "_fit_models", never)
    n = len(a)
    ds = Dataset(y=np.arange(n, dtype=float), a=np.array(a),
                 features=np.arange(n, dtype=float).reshape(-1, 1))
    with pytest.warns(UserWarning, match="unstratified"):
        with pytest.raises(ValidationError, match=message):
            crossfit_nuisances(ds, FAST_LINEAR, FAST_LOGISTIC, k=2)
    assert forks in (None, [])


def test_child_error_is_raised_before_the_parents(synth_small, monkeypatch, forked):
    import isoeffect.nuisance as nuisance

    def failing(spec, jobs):
        raise ValueError(f"{spec.family} failed")

    monkeypatch.setattr(nuisance, "_fit_models", failing)
    with pytest.raises(ValueError, match="elastic_linear failed") as exc:
        crossfit_nuisances(synth_small, FAST_LINEAR, FAST_LOGISTIC, k=2)
    # the parent's own error, raised while the child ran, is its context
    assert str(exc.value.__context__) == "elastic_logistic failed"
    assert len(forked) == 1


def test_child_that_dies_without_a_result_raises_in_the_parent(synth_small, monkeypatch,
                                                               forked):
    import isoeffect.nuisance as nuisance

    fit = nuisance._fit_models

    def dying(spec, jobs):
        if spec.family == Family.ELASTIC_LINEAR:  # only in the child
            os.kill(os.getpid(), signal.SIGKILL)
        return fit(spec, jobs)

    monkeypatch.setattr(nuisance, "_fit_models", dying)
    with pytest.raises(RuntimeError, match="dying ended by signal SIGKILL without a result"):
        crossfit_nuisances(synth_small, FAST_LINEAR, FAST_LOGISTIC, k=2)
    assert len(forked) == 1


def test_interrupt_in_the_parent_kills_and_reaps_the_child(synth_small, monkeypatch, forked):
    import time

    import isoeffect.nuisance as nuisance

    def fit(spec, jobs):
        if spec.family == Family.ELASTIC_LINEAR:  # the child would run for a minute
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(nuisance, "_fit_models", fit)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        crossfit_nuisances(synth_small, FAST_LINEAR, FAST_LOGISTIC, k=2)
    assert time.monotonic() - start < 30 and len(forked) == 1  # the fixture checks the reaping


@pytest.mark.parametrize("fork", [False, True], ids=["inline", "forked"])
def test_outcome_fit_warnings_reach_the_caller_in_order(fork, synth_small, monkeypatch,
                                                         request):
    import isoeffect.estimator as estimator
    import isoeffect.nuisance as nuisance

    forks = request.getfixturevalue("forked") if fork else None
    if not fork:
        monkeypatch.setattr(estimator, "_can_fork", lambda: False)
    fit = nuisance._fit_models

    def warning(spec, jobs):
        if spec.family == Family.ELASTIC_LINEAR:
            warnings.warn_explicit("first", UserWarning, "fit.py", 7)
            warnings.warn_explicit("second", RuntimeWarning, "fit.py", 3)
        return fit(spec, jobs)

    monkeypatch.setattr(nuisance, "_fit_models", warning)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = crossfit_nuisances(synth_small, FAST_LINEAR, FAST_LOGISTIC, k=2)
    assert [(str(w.message), w.category, w.filename, w.lineno) for w in caught] == [
        ("first", UserWarning, "fit.py", 7), ("second", RuntimeWarning, "fit.py", 3)]
    assert len(fits.outcome_models) == 2
    assert forks in (None, [os.getpid()])
    # the caller's filters decide: an error filter raises the first one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="first"):
            crossfit_nuisances(synth_small, FAST_LINEAR, FAST_LOGISTIC, k=2)


def test_outcome_fit_forks_only_on_two_cpus_before_python_3_12(monkeypatch):
    from isoeffect.estimator import _can_fork

    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        pytest.skip("no os.fork or os.sched_getaffinity on this platform")
    cases = [({0, 1}, (3, 11, 7), True), ({0}, (3, 11, 7), False),
             ({0, 1}, (3, 12, 0), False), ({0, 1, 2, 3}, (3, 13, 0), False),
             ({3, 5}, (3, 10, 0), True)]
    for cpus, version, forks in cases:
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            m.setattr(sys, "version_info", version)
            assert _can_fork() is forks, (cpus, version)
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        m.delattr(os, "fork")
        assert _can_fork() is False
