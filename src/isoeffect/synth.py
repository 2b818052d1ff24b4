"""Synthetic benchmarks with correlated binary features and known effects.

Features (treatment included) are thresholded latent Gaussians with an
exchangeable correlation ``rho``: column k equals 1 when the latent Z_k
falls below the quantile matching its Bernoulli marginal. Column 0 is the
treatment. Outcomes are

    LINEAR     y = beta0 + beta_a a + beta . e + eps
    NONLINEAR  y = beta0 + beta_a a + eta a e_j + beta . e
                   + 0.5 (beta . e)^2 + eps

with eps ~ N(0, noise_sd^2). The unit-level contrast y(1,e) - y(0,e) is
beta_a (+ eta e_j under NONLINEAR), so the averaged effects are exact:

    LINEAR     tau_iate = tau_iatt = beta_a           (closed form)
    NONLINEAR  tau_iate = beta_a + eta E[e_j]
               tau_iatt = beta_a + eta E[e_j | a = 1]

With t_k the latent thresholds, E[e_j] is e_j's marginal and
E[e_j | a = 1] = Phi_2(t_0, t_{1+j}; rho) / P(a = 1), where Phi_2 is the
standard bivariate normal CDF with correlation rho (computed as in Genz,
"Numerical computation of rectangular bivariate and trivariate normal
probabilities", Stat. Comput. 2004), so every oracle is closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .core import Dataset, ValidationError, derive_seed, read_json_object

__all__ = [
    "OutcomeForm",
    "SynthSpec",
    "Oracle",
    "default_beta",
    "gen_features",
    "gen_outcome",
    "generate",
    "oracle_tau",
    "spec_from_json",
    "spec_from_json_file",
]


class OutcomeForm:
    LINEAR = "linear"
    NONLINEAR = "nonlinear"
    ALL = (LINEAR, NONLINEAR)


def default_beta(d: int) -> tuple[float, ...]:
    """Alternating-sign magnitudes cycling 0.2, 0.4, 0.6, 0.8."""
    mags = (0.2, 0.4, 0.6, 0.8)
    return tuple(((-1.0) ** j) * mags[j % 4] for j in range(d))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic dataset.

    ``marginals`` is a scalar (broadcast) or a length d+1 sequence whose
    first entry is the treatment's Bernoulli rate. ``interaction`` is a
    (feature index, strength) pair and is only legal under NONLINEAR: the
    LINEAR outcome has no interaction term, which keeps its closed-form
    oracle exact.
    """

    n: int
    d: int
    rho: float = 0.0
    marginals: float | Sequence[float] = 0.5
    beta0: float = 0.0
    beta_a: float = 1.0
    beta: Sequence[float] | None = None
    interaction: tuple[int, float] | None = None
    noise_sd: float = 0.5
    seed: int = 0
    outcome_form: str = OutcomeForm.LINEAR

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")
        if self.outcome_form not in OutcomeForm.ALL:
            raise ValueError(f"unknown outcome form {self.outcome_form!r}")
        marg = self.marginals
        if np.isscalar(marg):
            marg = (float(marg),) * (self.d + 1)
        else:
            marg = tuple(float(v) for v in marg)
        if len(marg) != self.d + 1:
            raise ValueError(f"need {self.d + 1} marginals (treatment first), got {len(marg)}")
        if any(not 0.0 < v < 1.0 for v in marg):
            raise ValueError("marginals must lie strictly inside (0, 1)")
        object.__setattr__(self, "marginals", marg)
        beta = self.beta if self.beta is not None else default_beta(self.d)
        beta = tuple(float(v) for v in beta)
        if len(beta) != self.d:
            raise ValueError(f"beta must have {self.d} entries, got {len(beta)}")
        object.__setattr__(self, "beta", beta)
        inter = self.interaction
        if inter is not None:
            if self.outcome_form == OutcomeForm.LINEAR:
                raise ValueError("interaction is only defined for the nonlinear outcome")
            j, eta = int(inter[0]), float(inter[1])
            if not 0 <= j < self.d:
                raise ValueError(f"interaction feature index {j} out of range")
            object.__setattr__(self, "interaction", (j, eta))
        elif self.outcome_form == OutcomeForm.NONLINEAR:
            raise ValueError("nonlinear outcome requires an interaction (index, strength)")


def _thresholds(spec: SynthSpec) -> np.ndarray:
    from scipy.stats import norm  # imported here: scipy.stats dominates the CLI's start-up

    return norm.ppf(np.asarray(spec.marginals))


def _latent_binary(spec: SynthSpec, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Draw thresholded latent Gaussians: shape (rows, d+1), column 0 = a."""
    t = _thresholds(spec)
    common = rng.standard_normal((rows, 1))
    own = rng.standard_normal((rows, spec.d + 1))
    z = np.sqrt(spec.rho) * common + np.sqrt(1.0 - spec.rho) * own
    return (z < t).astype(np.float64)


def gen_features(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Treatment vector and feature matrix for ``spec`` (deterministic in seed)."""
    rng = np.random.default_rng(derive_seed(spec.seed, "features"))
    b = _latent_binary(spec, rng, spec.n)
    return b[:, 0].astype(np.int64), b[:, 1:]


def gen_outcome(spec: SynthSpec, a: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Outcomes for given (a, features); noise seeded independently of them."""
    a = np.asarray(a, dtype=np.float64)
    e = np.asarray(features, dtype=np.float64)
    if e.shape != (a.shape[0], spec.d):
        raise ValidationError(f"features must be (n, {spec.d})")
    beta = np.asarray(spec.beta)
    linear = spec.beta0 + spec.beta_a * a + e @ beta
    if spec.outcome_form == OutcomeForm.NONLINEAR:
        j, eta = spec.interaction
        be = e @ beta
        linear = linear + eta * a * e[:, j] + 0.5 * be * be
    rng = np.random.default_rng(derive_seed(spec.seed, "outcome-noise"))
    return linear + spec.noise_sd * rng.standard_normal(a.shape[0])


def generate(spec: SynthSpec) -> Dataset:
    """Full synthetic dataset with default x_0..x_{d-1} feature names."""
    a, e = gen_features(spec)
    y = gen_outcome(spec, a, e)
    return Dataset(y=y, a=a, features=e)


@dataclass(frozen=True)
class Oracle:
    """Ground-truth effects for a spec, with the method that produced them.

    Every oracle is closed form, so ``mc_samples`` and ``mc_se`` are always
    0; they keep the keys of the ``synth`` command's ``oracle.json``.
    """

    tau_iate: float
    tau_iatt: float
    method: str = "closed_form"
    mc_samples: int = 0
    mc_se: float = 0.0


def oracle_tau(spec: SynthSpec) -> Oracle:
    """Exact ground-truth tau_iate / tau_iatt for ``spec``.

    NONLINEAR needs E[e_j] = P(e_j = 1), the marginal, and
    E[e_j | a = 1] = P(a = 1, e_j = 1) / P(a = 1), whose numerator is the
    bivariate normal CDF of the two latent thresholds at correlation rho.
    """
    if spec.outcome_form == OutcomeForm.LINEAR:
        return Oracle(tau_iate=spec.beta_a, tau_iatt=spec.beta_a)
    from scipy.stats import multivariate_normal  # imported here, as in _thresholds

    j, eta = spec.interaction
    both = multivariate_normal.cdf(_thresholds(spec)[[0, 1 + j]],
                                   cov=[[1.0, spec.rho], [spec.rho, 1.0]])
    return Oracle(
        tau_iate=spec.beta_a + eta * spec.marginals[1 + j],
        tau_iatt=spec.beta_a + eta * float(both) / spec.marginals[0],
    )


def spec_from_json(raw: dict) -> SynthSpec:
    """Build a spec from the JSON recipe format used by the command line."""
    unknown = set(raw) - {f.name for f in fields(SynthSpec)}
    if unknown:
        raise ValidationError(f"unknown synth spec keys: {sorted(unknown)}")
    kwargs = dict(raw)
    if kwargs.get("interaction") is not None:
        pair = kwargs["interaction"]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValidationError("interaction must be a [feature_index, strength] pair")
        kwargs["interaction"] = (int(pair[0]), float(pair[1]))
    try:
        return SynthSpec(**kwargs)
    except TypeError as exc:
        raise ValidationError(f"bad synth spec: {exc}") from None


def spec_from_json_file(path) -> SynthSpec:
    return spec_from_json(read_json_object(path, ValidationError))
