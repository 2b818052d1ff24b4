"""Semi-synthetic generator: latent-Gaussian binaries and ground-truth effects."""

from __future__ import annotations

import math

import numpy as np
import pytest

from isoeffect import SynthSpec, ValidationError, generate, oracle_tau
from isoeffect.synth import (
    OutcomeForm,
    _latent_binary,
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
    assert oracle.method == "closed_form"
    assert oracle.mc_se == 0.0


def _nonlinear(rho, marginals=0.5, d=3, j=1, eta=0.8):
    return SynthSpec(n=100, d=d, rho=rho, marginals=marginals, beta_a=1.0,
                     interaction=(j, eta), outcome_form=OutcomeForm.NONLINEAR, seed=2)


def test_nonlinear_oracle_at_rho_zero():
    # independence of a and e_j makes both estimands beta_a + eta * p_j
    p_j = 0.35
    oracle = oracle_tau(_nonlinear(0.0, marginals=(0.5, 0.5, p_j, 0.5)))
    want = 1.0 + 0.8 * p_j
    assert oracle.method == "closed_form"
    assert type(oracle.tau_iate) is float and type(oracle.tau_iatt) is float
    assert (oracle.mc_samples, oracle.mc_se) == (0, 0.0)
    assert oracle.tau_iate == want
    assert oracle.tau_iatt == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.1, 0.3, 0.6, 0.9, 0.99])
def test_nonlinear_oracle_matches_sheppard_at_even_marginals(rho):
    # Sheppard: P(Z_0 < 0, Z_1 < 0) = 1/4 + asin(rho) / (2 pi) at correlation rho
    oracle = oracle_tau(_nonlinear(rho))
    p_both = 0.25 + math.asin(rho) / (2 * math.pi)
    assert oracle.tau_iate == 1.0 + 0.8 * 0.5
    assert oracle.tau_iatt == pytest.approx(1.0 + 0.8 * p_both / 0.5, abs=1e-12)


@pytest.mark.parametrize("rho, marginals", [
    (0.2, (0.3, 0.5, 0.8, 0.5)),
    (0.6, (0.1, 0.5, 0.35, 0.5)),
    (0.85, (0.7, 0.5, 0.05, 0.5)),
])
def test_nonlinear_oracle_matches_one_dimensional_integral(rho, marginals):
    # given the common factor c, a and e_j are independent thresholded normals
    from scipy import integrate
    from scipy.stats import norm

    t_a, t_j = norm.ppf([marginals[0], marginals[2]])
    s, r = math.sqrt(rho), math.sqrt(1.0 - rho)

    def given_c(c):
        return norm.pdf(c) * norm.cdf((t_a - s * c) / r) * norm.cdf((t_j - s * c) / r)

    p_both = integrate.quad(given_c, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13)[0]
    oracle = oracle_tau(_nonlinear(rho, marginals))
    assert oracle.tau_iate == 1.0 + 0.8 * marginals[2]
    assert oracle.tau_iatt == pytest.approx(1.0 + 0.8 * p_both / marginals[0], abs=1e-10)


def test_nonlinear_oracle_matches_latent_draws():
    # the generator's own law: 10^6 draws of (a, e_j) agree within 4 standard errors
    spec = _nonlinear(0.6, marginals=(0.3, 0.5, 0.65, 0.5))
    rng = np.random.default_rng(12)
    counts = np.zeros((2, 2))
    for _ in range(4):
        b = _latent_binary(spec, rng, 250_000)
        counts += np.histogram2d(b[:, 0], b[:, 2], bins=2, range=[[0, 1], [0, 1]])[0]
    p_j = counts[:, 1].sum() / counts.sum()
    cond = counts[1, 1] / counts[1].sum()
    oracle = oracle_tau(spec)
    se_iate = 0.8 * math.sqrt(p_j * (1 - p_j) / counts.sum())
    se_iatt = 0.8 * math.sqrt(cond * (1 - cond) / counts[1].sum())
    assert abs(oracle.tau_iate - (1.0 + 0.8 * p_j)) < 4 * se_iate
    assert abs(oracle.tau_iatt - (1.0 + 0.8 * cond)) < 4 * se_iatt


def test_nonlinear_oracle_treated_shift():
    # positive latent correlation raises E[e_j | a = 1] above E[e_j], so a
    # positive interaction pushes the treated-group effect above the average
    oracle = oracle_tau(_nonlinear(0.6, j=0))
    assert oracle.tau_iatt > oracle.tau_iate + 0.05


def test_oracle_wide_and_narrow_specs_agree_exactly():
    # the effects depend only on rho and the marginals of a and e_j, not on d
    wide = oracle_tau(_nonlinear(0.3, d=16, j=2, eta=0.5))
    narrow = oracle_tau(_nonlinear(0.3, d=3, j=2, eta=0.5))
    assert (wide.tau_iate, wide.tau_iatt) == (narrow.tau_iate, narrow.tau_iatt)


def test_generated_dataset_shape_and_focal_column():
    spec = SynthSpec(n=120, d=3, rho=0.5, seed=1)
    ds = generate(spec)
    assert ds.features.shape == (120, 3)
    assert ds.a.shape == (120,)
    assert set(np.unique(ds.a)) <= {0, 1}
    assert ds.y.shape == (120,)
    assert ds.feature_names == ("x_0", "x_1", "x_2")
    assert set(np.unique(ds.features)) <= {0.0, 1.0}
