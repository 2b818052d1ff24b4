"""Omitted-variable-bias sensitivity audit for the doubly robust estimate.

Two estimable quantities anchor the audit:

- fidelity  sigma2 = mean((y_i - g(a_i, e_i))^2), the out-of-fold outcome
  residual second moment: how much outcome variation the representation
  leaves unexplained;
- overlap   nu2 = (2/m) sum_j [gamma(1,e*_j) - gamma(0,e*_j)]
                 - (1/n) sum_i gamma_i^2, a debiased second moment of the
  weights: how extreme the implied importance weights are.

If a richer representation would change the outcome model by a relative
factor C_Y and the weights by C_D, the induced bias is bounded by
sqrt(sigma2 * nu2) * C_Y * C_D. The robustness value is the common
C_Y = C_D magnitude that could just explain the whole estimate away.
The debiased nu2 can go negative in samples with weak overlap signal; it
is flagged and never clamped. The bound is computed in one place,
``_bound_scale``: at nu2 <= 0 the robustness value and calibrated
half-widths are withheld (None), and ``ovb_bounds`` / ``contour_grid``,
which have nothing to withhold, raise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Dataset, EstimandKind, ValidationError
from .estimator import (
    EffectEstimate,
    NuisanceFits,
    Weights,
    crossfit_nuisances,
    estimate_dr,
    weights_for,
)
from .nuisance import ModelSpec

__all__ = [
    "SensitivityParams",
    "SensitivityReport",
    "ContourGrid",
    "CalibrationResult",
    "sigma2_hat",
    "nu2_hat",
    "nu2_plugin",
    "robustness_value",
    "ovb_bounds",
    "check_contour_grid",
    "contour_grid",
    "calibrate_detail",
    "audit",
]


class DegenerateModelError(ValidationError):
    """The audit inputs are degenerate (e.g. zero residual variance)."""


@dataclass(frozen=True)
class SensitivityParams:
    """Calibration strengths: outcome-side C_Y and weight-side C_D."""

    c_y: float
    c_d: float
    cd_clamped: bool = False

    def __post_init__(self) -> None:
        if self.c_y < 0 or self.c_d < 0:
            raise ValueError("calibration strengths must be non-negative")


@dataclass(frozen=True)
class SensitivityReport:
    """Audit summary attached to one effect estimate."""

    sigma2: float
    nu2: float
    nu2_plugin: float
    nu2_negative: bool
    rv: float | None


@dataclass(frozen=True)
class ContourGrid:
    """Lower bound of the effect over a (C_Y, C_D) grid."""

    cy_axis: np.ndarray
    cd_axis: np.ndarray
    lower_bound: np.ndarray


def sigma2_hat(y: np.ndarray, ghat_obs: np.ndarray) -> float:
    """Mean squared out-of-fold outcome residual."""
    y = np.asarray(y, dtype=np.float64)
    ghat = np.asarray(ghat_obs, dtype=np.float64)
    if y.shape != ghat.shape or y.size == 0:
        raise ValueError("y and ghat_obs must be aligned and non-empty")
    r = y - ghat
    return float(np.mean(r * r))


def nu2_hat(weights: Weights) -> float:
    """Debiased weight second moment: 2 * mean(target gaps) - mean(gamma^2).

    Can be negative in finite samples; callers must flag, not clamp.
    """
    return 2.0 * float(weights.target_gap.mean()) - float(np.mean(weights.gamma**2))


def nu2_plugin(weights: Weights) -> float:
    """Plug-in alternative: mean(gamma^2). Reported alongside the debiased form."""
    return float(np.mean(weights.gamma**2))


def _bound_scale(sigma2: float, nu2: float, required: bool = False) -> float | None:
    """sqrt(sigma2 * nu2): the bias bound per unit of C_Y * C_D.

    sigma2 <= 0 is a degenerate fit and raises. nu2 <= 0 leaves the bound
    undefined: None is returned, or ``ValidationError`` raised when the
    caller cannot withhold (``required``); the product is never clamped.
    """
    if sigma2 <= 0:
        raise DegenerateModelError(f"sigma2 must be positive, got {sigma2}")
    if nu2 <= 0:
        if required:
            raise ValidationError(f"nu2 = {nu2} <= 0: bias bound undefined (overlap degenerate)")
        return None
    return float(np.sqrt(sigma2 * nu2))


def robustness_value(tau_hat: float, sigma2: float, nu2: float) -> float | None:
    """|tau| / sqrt(sigma2 * nu2); None when nu2 <= 0 (undefined overlap).

    This is the joint calibration strength C_Y = C_D at which the bias
    bound first crosses the point estimate.
    """
    scale = _bound_scale(sigma2, nu2)
    return None if scale is None else abs(tau_hat) / scale


def ovb_bounds(tau_hat: float, sigma2: float, nu2: float, params: SensitivityParams) -> tuple[float, float]:
    """Bias interval tau_hat -+ sqrt(sigma2 nu2) * C_Y * C_D."""
    half = _bound_scale(sigma2, nu2, required=True) * params.c_y * params.c_d
    return (tau_hat - half, tau_hat + half)


def check_contour_grid(cy_max: float, cd_max: float, steps: int) -> None:
    """Raise ``ValueError`` unless the grid has >= 2 steps and finite positive maxima."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not (0 < cy_max < np.inf and 0 < cd_max < np.inf):
        raise ValueError("grid maxima must be positive and finite")


def contour_grid(
    tau_hat: float, sigma2: float, nu2: float, cy_max: float, cd_max: float, steps: int
) -> ContourGrid:
    """Lower bounds over the axis-aligned grid [0, cy_max] x [0, cd_max].

    Cell (0, 0) is exactly ``tau_hat``; the bound is non-increasing in both
    axes.
    """
    check_contour_grid(cy_max, cd_max, steps)
    scale = _bound_scale(sigma2, nu2, required=True)
    cy = np.linspace(0.0, cy_max, steps)
    cd = np.linspace(0.0, cd_max, steps)
    return ContourGrid(cy_axis=cy, cd_axis=cd, lower_bound=tau_hat - scale * np.outer(cy, cd))


# ---------------------------------------------------------------------------
# Calibration against a deliberately weakened representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """Calibration strengths plus the reduced-representation audit pieces.

    ``bound_halfwidth`` is None when ``reduced_nu2 <= 0``.
    """

    params: SensitivityParams
    reduced_estimate: EffectEstimate
    reduced_sigma2: float
    reduced_nu2: float
    bound_halfwidth: float | None


def calibrate_detail(
    dataset: Dataset,
    full_fits: NuisanceFits,
    reduced_features: np.ndarray,
    kind: str = EstimandKind.IATE,
    outcome_spec: ModelSpec | None = None,
    propensity_spec: ModelSpec | None = None,
    seed: int | None = None,
) -> CalibrationResult:
    """Refit on a weakened representation and measure how much moved.

    The (C_Y, C_D) implied by dropping information are in ``.params``; the
    reduced estimate, its ``sigma2`` / ``nu2`` and the bound half-width come
    with them. The refit takes the fold count, seed and clip of ``full_fits``,
    and their model specs unless others are passed, so it deals the same
    folds and differs only in the omitted features: the out-of-fold
    quantities are paired row by row, and omitting nothing (reduced == full)
    yields exactly (0, 0). C_Y compares outcome predictions relative to the
    reduced residual scale; C_D compares weight second moments. Checked
    before the refit: ``kind`` is iate or iatt (the refit's nuisances are the
    same for both, and only the weights built from them differ), ``seed`` is
    None or the fits' own, and ``dataset`` has the ``y`` and ``a`` that the
    fits were made on.
    """
    if kind not in (EstimandKind.IATE, EstimandKind.IATT):
        raise ValueError("calibration supports the iate and iatt estimands")
    if seed not in (None, full_fits.seed):  # another seed would deal other folds
        raise ValueError(f"seed {seed} differs from the fits' seed {full_fits.seed}")
    fitted = full_fits.dataset
    if dataset.n != fitted.n:
        raise ValidationError(f"dataset has {dataset.n} rows, the fits have {fitted.n}")
    if not (np.array_equal(dataset.y, fitted.y) and np.array_equal(dataset.a, fitted.a)):
        raise ValidationError("dataset's outcomes or treatments differ from the fits' own")
    reduced = Dataset(y=dataset.y, a=dataset.a, features=np.asarray(reduced_features, dtype=np.float64))
    red_fits = crossfit_nuisances(reduced, outcome_spec or full_fits.outcome_spec,
                                  propensity_spec or full_fits.propensity_spec,
                                  k=full_fits.fold_plan.k, seed=full_fits.seed, clip=full_fits.clip)
    a = dataset.a
    w_full = weights_for(full_fits, a, kind)
    w_red = weights_for(red_fits, a, kind)
    red_sigma2 = sigma2_hat(dataset.y, red_fits.ghat_obs)
    red_nu2 = nu2_hat(w_red)
    scale = _bound_scale(red_sigma2, red_nu2)

    diff = full_fits.ghat_obs - red_fits.ghat_obs
    c_y = float(np.sqrt(np.mean(diff * diff) / red_sigma2))

    m_full = nu2_plugin(w_full)
    m_red = nu2_plugin(w_red)
    numer = m_full - m_red
    clamped = numer < 0
    if clamped:
        warnings.warn(
            "weight second moment decreased on the reduced representation; clamping C_D to 0"
        )
        numer = 0.0
    c_d = float(np.sqrt(numer / m_red))

    return CalibrationResult(
        params=SensitivityParams(c_y=c_y, c_d=c_d, cd_clamped=clamped),
        reduced_estimate=estimate_dr(red_fits, w_red, reduced),
        reduced_sigma2=red_sigma2,
        reduced_nu2=red_nu2,
        bound_halfwidth=None if scale is None else scale * c_y * c_d,
    )


def audit(
    estimate: EffectEstimate,
    dataset: Dataset,
    fits: NuisanceFits,
    weights: Weights,
) -> SensitivityReport:
    """Assemble the sensitivity summary for one estimate.

    When nu2 comes out non-positive the robustness value is withheld (None)
    rather than silently clamped. Bias intervals at chosen strengths come
    from :func:`ovb_bounds` on the report's ``sigma2`` and ``nu2``.
    """
    s2 = sigma2_hat(dataset.y, fits.ghat_obs)
    n2 = nu2_hat(weights)
    return SensitivityReport(
        sigma2=s2,
        nu2=n2,
        nu2_plugin=nu2_plugin(weights),
        nu2_negative=n2 <= 0,
        rv=robustness_value(estimate.tau_hat, s2, n2),
    )
