"""Semi-synthetic generator: latent-Gaussian binaries and ground-truth effects."""

from __future__ import annotations

import numpy as np
import pytest

from isoeffect import SynthSpec, ValidationError, generate, oracle_tau
from isoeffect.synth import (
    OracleMethod,
    OutcomeForm,
    default_beta,
    gen_features,
    gen_outcome,
    spec_from_json,
)


def test_default_beta_frozen():
    assert default_beta(5) == (0.2, -0.4, 0.6, -0.8, 0.2)
    assert default_beta(1) == (0.2,)
    assert default_beta(9)[8] == 0.2  # cycle wraps every four entries


class TestSpecValidation:
    def test_rho_bounds(self):
        with pytest.raises(ValueError, match="rho"):
            SynthSpec(n=10, d=2, rho=1.0)
        with pytest.raises(ValueError, match="rho"):
            SynthSpec(n=10, d=2, rho=-0.1)
        SynthSpec(n=10, d=2, rho=0.0)  # boundary allowed

    def test_sizes(self):
        with pytest.raises(ValueError):
            SynthSpec(n=0, d=2)
        with pytest.raises(ValueError):
            SynthSpec(n=10, d=0)

    def test_marginals(self):
        with pytest.raises(ValueError, match="strictly inside"):
            SynthSpec(n=10, d=2, marginals=0.0)
        with pytest.raises(ValueError, match="marginals"):
            SynthSpec(n=10, d=2, marginals=(0.5, 0.5))  # needs d + 1 entries
        spec = SynthSpec(n=10, d=2, marginals=0.3)
        assert spec.marginals == (0.3, 0.3, 0.3)

    def test_beta_length(self):
        with pytest.raises(ValueError, match="beta"):
            SynthSpec(n=10, d=3, beta=(1.0,))
        assert SynthSpec(n=10, d=3).beta == default_beta(3)

    def test_interaction_rules(self):
        with pytest.raises(ValueError, match="interaction"):
            SynthSpec(n=10, d=2, interaction=(0, 0.5))  # linear form
        with pytest.raises(ValueError, match="interaction"):
            SynthSpec(n=10, d=2, outcome_form=OutcomeForm.NONLINEAR)
        with pytest.raises(ValueError, match="out of range"):
            SynthSpec(n=10, d=2, interaction=(2, 0.5), outcome_form=OutcomeForm.NONLINEAR)
        spec = SynthSpec(n=10, d=2, interaction=(1, 0.5), outcome_form=OutcomeForm.NONLINEAR)
        assert spec.interaction == (1, 0.5)

    def test_noise_sd(self):
        with pytest.raises(ValueError, match="noise_sd"):
            SynthSpec(n=10, d=2, noise_sd=-1.0)

    def test_unknown_form(self):
        with pytest.raises(ValueError, match="outcome form"):
            SynthSpec(n=10, d=2, outcome_form="quadratic")


def test_spec_from_json_round_trip():
    raw = {"n": 50, "d": 3, "rho": 0.4, "beta_a": 2.0, "seed": 7,
           "interaction": [1, 0.25], "outcome_form": "nonlinear"}
    spec = spec_from_json(raw)
    assert (spec.n, spec.d, spec.rho, spec.beta_a, spec.seed) == (50, 3, 0.4, 2.0, 7)
    assert spec.interaction == (1, 0.25)


def test_spec_from_json_rejects_unknowns():
    with pytest.raises(ValidationError, match="unknown synth spec keys"):
        spec_from_json({"n": 10, "d": 2, "treatment_effect": 1.0})
    with pytest.raises(ValidationError, match="pair"):
        spec_from_json({"n": 10, "d": 2, "interaction": [1],
                        "outcome_form": "nonlinear"})


def test_generate_determinism_and_channel_separation():
    spec = SynthSpec(n=300, d=4, rho=0.5, seed=13)
    ds1 = generate(spec)
    ds2 = generate(spec)
    assert np.array_equal(ds1.features, ds2.features)
    assert np.array_equal(ds1.a, ds2.a)
    assert np.array_equal(ds1.y, ds2.y)
    # the outcome coefficients must not perturb the feature stream
    ds3 = generate(SynthSpec(n=300, d=4, rho=0.5, seed=13, beta_a=5.0))
    assert np.array_equal(ds1.features, ds3.features)
    assert np.array_equal(ds1.a, ds3.a)
    assert not np.array_equal(ds1.y, ds3.y)
    # a different seed moves everything
    ds4 = generate(SynthSpec(n=300, d=4, rho=0.5, seed=14))
    assert not np.array_equal(ds1.features, ds4.features)


def test_gen_outcome_shape_validation():
    spec = SynthSpec(n=5, d=2)
    with pytest.raises(ValidationError, match="features"):
        gen_outcome(spec, np.zeros(5), np.zeros((5, 3)))
    with pytest.raises(ValidationError, match="features"):
        gen_outcome(spec, np.zeros(4), np.zeros((5, 2)))


def test_marginals_calibrated():
    marg = (0.3, 0.5, 0.7, 0.4)
    spec = SynthSpec(n=200_000, d=3, rho=0.6, marginals=marg, seed=5)
    a, e = gen_features(spec)
    got = [a.mean(), *e.mean(axis=0)]
    for want, have in zip(marg, got):
        assert have == pytest.approx(want, abs=0.01)


def test_pairwise_binary_correlation_matches_arcsine_law():
    # equicorrelated latent Gaussians thresholded at their median give
    # binary correlation 2 arcsin(rho) / pi
    rho = 0.6
    spec = SynthSpec(n=200_000, d=4, rho=rho, seed=21)
    a, e = gen_features(spec)
    cols = np.column_stack([a, e])
    want = 2.0 * np.arcsin(rho) / np.pi
    corr = np.corrcoef(cols, rowvar=False)
    off = corr[~np.eye(cols.shape[1], dtype=bool)]
    assert np.allclose(off, want, atol=0.012)


def test_rho_zero_features_independent_of_treatment():
    spec = SynthSpec(n=200_000, d=3, rho=0.0, seed=8)
    a, e = gen_features(spec)
    for j in range(3):
        assert abs(np.corrcoef(a, e[:, j])[0, 1]) < 0.01


# ---------------------------------------------------------------------------
# ground-truth effects
# ---------------------------------------------------------------------------


def test_linear_oracle_closed_form():
    spec = SynthSpec(n=100, d=4, rho=0.7, beta_a=1.5, seed=3)
    oracle = oracle_tau(spec)
    assert oracle.tau_iate == 1.5
    assert oracle.tau_iatt == 1.5
    assert oracle.method == OracleMethod.CLOSED_FORM
    assert oracle.mc_se == 0.0


def test_nonlinear_oracle_at_rho_zero():
    # independence of a and e_j makes both estimands beta_a + eta * p_j
    p_j = 0.35
    spec = SynthSpec(n=100, d=3, rho=0.0, marginals=(0.5, 0.5, p_j, 0.5),
                     beta_a=1.0, interaction=(1, 0.8),
                     outcome_form=OutcomeForm.NONLINEAR, seed=2)
    oracle = oracle_tau(spec)
    want = 1.0 + 0.8 * p_j
    assert oracle.method == OracleMethod.MONTE_CARLO
    assert type(oracle.tau_iate) is float and type(oracle.tau_iatt) is float
    assert oracle.mc_se > 0
    assert oracle.tau_iate == pytest.approx(want, abs=4 * oracle.mc_se + 1e-4)
    assert oracle.tau_iatt == pytest.approx(want, abs=4 * oracle.mc_se + 1e-4)


def test_nonlinear_oracle_treated_shift():
    # positive latent correlation raises E[e_j | a = 1] above E[e_j], so a
    # positive interaction pushes the treated-group effect above the average
    spec = SynthSpec(n=100, d=3, rho=0.6, interaction=(0, 0.8),
                     outcome_form=OutcomeForm.NONLINEAR, seed=2)
    oracle = oracle_tau(spec)
    assert oracle.tau_iatt > oracle.tau_iate + 10 * oracle.mc_se


def test_oracle_monte_carlo_fallback_for_wide_d():
    spec = SynthSpec(n=100, d=16, rho=0.3, interaction=(2, 0.5),
                     outcome_form=OutcomeForm.NONLINEAR, seed=2)
    oracle = oracle_tau(spec)
    assert oracle.method == OracleMethod.MONTE_CARLO
    assert oracle.mc_samples == 1_000_000
    # rho fixed: a wide and a narrow spec share the estimand up to MC error
    narrow = oracle_tau(SynthSpec(n=100, d=3, rho=0.3, interaction=(2, 0.5),
                                  outcome_form=OutcomeForm.NONLINEAR, seed=2))
    tol = 4 * (oracle.mc_se + narrow.mc_se)
    assert oracle.tau_iate == pytest.approx(narrow.tau_iate, abs=tol)


def test_oracle_determinism_and_sample_floor():
    spec = SynthSpec(n=100, d=3, rho=0.4, interaction=(1, 0.5),
                     outcome_form=OutcomeForm.NONLINEAR, seed=6)
    o1 = oracle_tau(spec)
    o2 = oracle_tau(spec)
    assert (o1.tau_iate, o1.tau_iatt) == (o2.tau_iate, o2.tau_iatt)
    o3 = oracle_tau(spec, seed=99)
    assert o3.tau_iate != o1.tau_iate  # different MC stream
    assert o3.tau_iate == pytest.approx(o1.tau_iate, abs=4 * (o1.mc_se + o3.mc_se))
    with pytest.raises(ValueError, match="1e6"):
        oracle_tau(spec, mc_samples=10_000)


def test_generated_dataset_shape_and_focal_column():
    spec = SynthSpec(n=120, d=3, rho=0.5, seed=1)
    ds = generate(spec)
    assert ds.features.shape == (120, 3)
    assert ds.a.shape == (120,)
    assert set(np.unique(ds.a)) <= {0, 1}
    assert ds.y.shape == (120,)
    assert ds.feature_names == ("x_0", "x_1", "x_2")
    assert set(np.unique(ds.features)) <= {0.0, 1.0}
