"""Sensitivity audit: fidelity, overlap, robustness value, bounds, calibration."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import FAST_LINEAR, FAST_LOGISTIC
from isoeffect import (
    Dataset,
    Family,
    ModelSpec,
    SensitivityParams,
    SynthSpec,
    ValidationError,
    Weights,
    audit,
    calibrate_detail,
    contour_grid,
    crossfit_nuisances,
    estimate_dr,
    generate,
    nu2_hat,
    nu2_plugin,
    ovb_bounds,
    robustness_value,
    sigma2_hat,
    weights_for,
    weights_iate,
)
from isoeffect.sensitivity import DegenerateModelError


def test_sigma2_hand_case():
    assert sigma2_hat(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0])) == pytest.approx(5.0 / 3.0)
    with pytest.raises(ValueError):
        sigma2_hat(np.array([1.0]), np.array([1.0, 2.0]))


def test_nu2_at_constant_half_propensity():
    # p = 1/2: gamma^2 = 4 and gap = 4 for every row, so the debiased and
    # plug-in forms agree exactly at 4
    n = 10
    a = np.array([0, 1] * 5, dtype=float)
    w = weights_iate(a, np.full(n, 0.5))
    assert nu2_hat(w) == pytest.approx(4.0, abs=1e-14)
    assert nu2_plugin(w) == pytest.approx(4.0, abs=1e-14)


def test_nu2_debiased_vs_plugin_formula():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.1, 0.9, 200)
    a = (rng.random(200) < p).astype(float)
    w = weights_iate(a, p)
    expected = 2.0 * np.mean(1.0 / p + 1.0 / (1.0 - p)) - np.mean(w.gamma**2)
    assert nu2_hat(w) == pytest.approx(expected, abs=1e-12)
    assert nu2_plugin(w) == pytest.approx(float(np.mean(w.gamma**2)), abs=1e-12)


def test_negative_nu2_is_flagged_never_clamped(tiny_dataset):
    w = Weights(kind="iate", gamma=np.array([10.0, -10.0]), target_gap=np.array([1.0, 1.0]))
    val = nu2_hat(w)
    assert val == pytest.approx(2.0 - 100.0)
    fits = _fits_for(tiny_dataset)
    est = estimate_dr(fits, weights_for(fits, tiny_dataset.a.astype(float), "iate"),
                      tiny_dataset)
    report = audit(est, tiny_dataset, fits, w)
    assert report.nu2 == val  # preserved, not clamped to zero
    assert report.nu2_negative
    assert report.rv is None
    with pytest.raises(ValidationError, match="nu2"):
        ovb_bounds(est.tau_hat, report.sigma2, report.nu2, SensitivityParams(0.5, 0.5))


def _fits_for(ds, seed=0):
    return crossfit_nuisances(ds, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC, k=2, seed=seed)


def test_robustness_value_cases():
    assert robustness_value(1.0, 1.0, 4.0) == pytest.approx(0.5)
    assert robustness_value(0.0, 1.0, 4.0) == 0.0
    assert robustness_value(1.0, 1.0, -0.5) is None
    with pytest.raises(DegenerateModelError):
        robustness_value(1.0, 0.0, 4.0)


def test_ovb_bounds_hand_case():
    lo, hi = ovb_bounds(1.0, 1.0, 4.0, SensitivityParams(0.5, 0.5))
    assert (lo, hi) == (pytest.approx(0.5), pytest.approx(1.5))
    # zero strengths bound nothing away
    lo0, hi0 = ovb_bounds(1.0, 1.0, 4.0, SensitivityParams(0.0, 0.0))
    assert lo0 == hi0 == 1.0
    with pytest.raises(ValidationError):
        ovb_bounds(1.0, 1.0, 0.0, SensitivityParams(0.5, 0.5))
    with pytest.raises(DegenerateModelError):
        ovb_bounds(1.0, -1.0, 4.0, SensitivityParams(0.5, 0.5))
    with pytest.raises(ValueError):
        SensitivityParams(-0.1, 0.5)


def test_contour_grid_structure():
    grid = contour_grid(2.0, 1.5, 3.0, cy_max=1.0, cd_max=0.5, steps=5)
    assert grid.lower_bound.shape == (5, 5)
    assert grid.lower_bound[0, 0] == 2.0  # exact, by contract
    assert grid.cy_axis[0] == 0.0 and grid.cy_axis[-1] == 1.0
    assert grid.cd_axis[-1] == 0.5
    # non-increasing along both axes
    assert np.all(np.diff(grid.lower_bound, axis=0) <= 0)
    assert np.all(np.diff(grid.lower_bound, axis=1) <= 0)
    corner = 2.0 - np.sqrt(1.5 * 3.0) * 1.0 * 0.5
    assert grid.lower_bound[-1, -1] == pytest.approx(corner, abs=1e-12)


def test_contour_grid_validation():
    with pytest.raises(ValueError, match="steps"):
        contour_grid(1.0, 1.0, 1.0, 1.0, 1.0, 1)
    with pytest.raises(ValueError, match="positive"):
        contour_grid(1.0, 1.0, 1.0, 0.0, 1.0, 5)
    with pytest.raises(ValidationError) as grid_exc:
        contour_grid(1.0, 1.0, -1.0, 1.0, 1.0, 5)
    with pytest.raises(ValidationError) as bounds_exc:
        ovb_bounds(1.0, 1.0, -1.0, SensitivityParams(0.5, 0.5))
    assert str(grid_exc.value) == str(bounds_exc.value)  # one nu2 <= 0 policy, one message
    with pytest.raises(DegenerateModelError):
        contour_grid(1.0, 0.0, 1.0, 1.0, 1.0, 5)


# ---------------------------------------------------------------------------
# calibration against weakened representations
# ---------------------------------------------------------------------------


def test_calibration_identity_is_exactly_zero(synth_medium):
    fits = crossfit_nuisances(synth_medium, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC, seed=9)
    params = calibrate_detail(synth_medium, fits, synth_medium.features,
                              outcome_spec=FAST_LINEAR, propensity_spec=FAST_LOGISTIC,
                              seed=9).params
    # same features, same fold plan, same seeds: the reduced run reproduces
    # the full run bit for bit, so both strengths are exactly zero
    assert params.c_y == 0.0
    assert params.c_d == 0.0
    assert not params.cd_clamped


GBT_SMALL = {"depth": [2], "n_trees": [50], "learning_rate": [0.1]}


@pytest.mark.parametrize("specs", [
    (ModelSpec(Family.GBT_REG, GBT_SMALL), ModelSpec(Family.GBT_CLF, GBT_SMALL)),
    (None, None),  # the default-grid elastic nets
], ids=["gbt", "elastic-default"])
def test_calibration_identity_with_default_arguments_reuses_the_fits_recipe(synth_small, specs):
    # the refit reads the specs and the seed from the fits: calling with no
    # recipe arguments still reproduces a seed-7 fit of any family bit for bit
    fits = crossfit_nuisances(synth_small, *specs, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = calibrate_detail(synth_small, fits, synth_small.features).params
    assert (params.c_y, params.c_d, params.cd_clamped) == (0.0, 0.0, False)


def _never_refit(monkeypatch):
    import isoeffect.sensitivity as sensitivity

    def never(*args, **kwargs):
        raise AssertionError("nothing may be refitted")

    monkeypatch.setattr(sensitivity, "crossfit_nuisances", never)


def test_calibration_rejects_another_seed_before_refitting(synth_small, monkeypatch):
    fits = crossfit_nuisances(synth_small, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC, seed=7)
    _never_refit(monkeypatch)
    with pytest.raises(ValueError, match="seed 3 differs from the fits' seed 7"):
        calibrate_detail(synth_small, fits, synth_small.features[:, 1:], seed=3)


def test_calibration_rejects_a_dataset_of_another_size_before_refitting(
        synth_small, monkeypatch):
    fits = crossfit_nuisances(synth_small, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC, seed=7)
    other = generate(SynthSpec(n=100, d=4, seed=0))
    _never_refit(monkeypatch)
    with pytest.raises(ValidationError, match="dataset has 100 rows, the fits have 400"):
        calibrate_detail(other, fits, other.features[:, 1:], seed=7)


@pytest.mark.parametrize("other", ["another draw", "other outcomes"])
def test_calibration_rejects_another_dataset_of_the_same_size_before_refitting(
        other, synth_small, monkeypatch):
    fits = crossfit_nuisances(synth_small, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC, seed=7)
    if other == "another draw":  # other y and a; the refit would deal folds from its a
        ds = generate(SynthSpec(n=400, d=4, rho=0.5, beta_a=1.0, seed=12))
    else:
        ds = Dataset(y=synth_small.y + 1.0, a=synth_small.a, features=synth_small.features)
    _never_refit(monkeypatch)
    with pytest.raises(ValidationError, match="outcomes or treatments differ from the fits'"):
        calibrate_detail(ds, fits, ds.features, seed=7)
    assert fits.dataset is synth_small  # kept by reference, not copied


def test_calibration_dropping_signal_moves_cy(synth_medium):
    fits = crossfit_nuisances(synth_medium, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC, seed=9)
    reduced = synth_medium.features[:, 1:]  # drop the first feature entirely
    detail = calibrate_detail(synth_medium, fits, reduced,
                              outcome_spec=FAST_LINEAR, propensity_spec=FAST_LOGISTIC,
                              seed=9)
    assert detail.params.c_y > 0.01
    assert detail.params.c_d >= 0.0
    assert detail.reduced_sigma2 > sigma2_hat(synth_medium.y, fits.ghat_obs) - 1e-9
    expected_half = np.sqrt(max(detail.reduced_sigma2 * detail.reduced_nu2, 0.0))
    expected_half *= detail.params.c_y * detail.params.c_d
    assert detail.bound_halfwidth == pytest.approx(expected_half, abs=1e-12)


def test_calibration_clamps_negative_cd(synth_medium):
    from isoeffect import Family, ModelSpec

    # full fit with a nearly-constant propensity (tiny C shrinks to the base
    # rate) has the smallest possible weight second moment; any informative
    # reduced fit exceeds it, which must clamp C_D to zero with a flag
    flat = ModelSpec(Family.ELASTIC_LOGISTIC, {"C": [1e-6], "l1_ratio": [0.0]})
    fits_flat = crossfit_nuisances(synth_medium, outcome_spec=FAST_LINEAR,
                                   propensity_spec=flat, seed=3)
    with pytest.warns(UserWarning, match="clamping"):
        params = calibrate_detail(synth_medium, fits_flat,
                                  synth_medium.features[:, :3],
                                  outcome_spec=FAST_LINEAR,
                                  propensity_spec=FAST_LOGISTIC, seed=3).params
    assert params.cd_clamped
    assert params.c_d == 0.0


def test_calibration_withholds_halfwidth_when_reduced_nu2_nonpositive(synth_medium, monkeypatch):
    import isoeffect.sensitivity as sensitivity

    fits = crossfit_nuisances(synth_medium, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC, seed=9)
    monkeypatch.setattr(sensitivity, "nu2_hat", lambda weights: -0.25)
    detail = calibrate_detail(synth_medium, fits, synth_medium.features[:, 1:],
                              outcome_spec=FAST_LINEAR, propensity_spec=FAST_LOGISTIC,
                              seed=9)
    assert detail.reduced_nu2 == -0.25  # reported as computed, not clamped
    assert detail.bound_halfwidth is None
    assert detail.params.c_y > 0.01  # the strengths are still calibrated


def test_calibration_rejects_general_kind(synth_medium):
    fits = crossfit_nuisances(synth_medium, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC)
    with pytest.raises(ValueError, match="iate and iatt"):
        calibrate_detail(synth_medium, fits, synth_medium.features, kind="general").params


def test_audit_matches_direct_computations(synth_medium):
    fits = crossfit_nuisances(synth_medium, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC, seed=4)
    w = weights_for(fits, synth_medium.a.astype(float), "iate")
    est = estimate_dr(fits, w, synth_medium)
    report = audit(est, synth_medium, fits, w)
    assert report.sigma2 == sigma2_hat(synth_medium.y, fits.ghat_obs)
    assert report.nu2 == nu2_hat(w)
    assert report.nu2_plugin == nu2_plugin(w)
    assert not report.nu2_negative
    assert report.rv == robustness_value(est.tau_hat, report.sigma2, report.nu2)


def test_iatt_audit_runs(synth_medium):
    est, fits, w = _estimate_parts(synth_medium, "iatt")
    report = audit(est, synth_medium, fits, w)
    assert report.sigma2 > 0
    assert est.estimand == "iatt"


def _estimate_parts(ds, kind):
    from isoeffect import estimate_effect

    return estimate_effect(ds, kind=kind, outcome_spec=FAST_LINEAR,
                           propensity_spec=FAST_LOGISTIC, seed=2, return_parts=True)


def test_realized_shift_within_calibrated_bound(synth_medium):
    # dropping one feature: the movement of the point estimate should be
    # covered by the calibrated bias bound (the acceptance suite repeats
    # this over many replications; here one deterministic smoke case)
    fits = crossfit_nuisances(synth_medium, outcome_spec=FAST_LINEAR,
                              propensity_spec=FAST_LOGISTIC, seed=9)
    w = weights_for(fits, synth_medium.a.astype(float), "iate")
    est_full = estimate_dr(fits, w, synth_medium)
    detail = calibrate_detail(synth_medium, fits, synth_medium.features[:, 1:],
                              outcome_spec=FAST_LINEAR, propensity_spec=FAST_LOGISTIC,
                              seed=9)
    realized = abs(detail.reduced_estimate.tau_hat - est_full.tau_hat)
    assert realized <= detail.bound_halfwidth + 1e-12
