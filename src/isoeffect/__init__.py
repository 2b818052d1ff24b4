"""isoeffect: isolated effects of binary text interventions.

Estimate the average effect of switching one language-encoded intervention
on or off while holding the rest of the text's representation fixed, from
observational data, using cross-fitted doubly robust estimation. Every
estimate ships with an omitted-variable-bias sensitivity audit (fidelity
sigma2, overlap nu2, robustness value, bias bounds, calibration).
"""

from .core import (
    Dataset,
    Estimand,
    EstimandKind,
    FoldPlan,
    SchemaError,
    ValidationError,
    derive_seed,
    load_csv,
    make_folds,
    write_csv,
)
from .estimator import (
    EffectEstimate,
    NuisanceFits,
    Weights,
    crossfit_nuisances,
    estimate_dr,
    estimate_effect,
    estimate_naive,
    variance_ci,
    weights_for,
    weights_general,
    weights_iate,
    weights_iatt,
)
from .featurize import (
    InterventionSplit,
    Lexicon,
    featurize_texts,
    load_lexicon,
    mask_terms,
    restrict_dims,
    select_intervention,
)
from .nuisance import (
    ClipPolicy,
    Family,
    FittedModel,
    ModelSpec,
    cv_select,
    default_grid,
    fit_outcome_model,
    fit_propensity_model,
)
from .sensitivity import (
    CalibrationResult,
    ContourGrid,
    SensitivityParams,
    SensitivityReport,
    audit,
    calibrate_detail,
    contour_grid,
    nu2_hat,
    nu2_plugin,
    ovb_bounds,
    robustness_value,
    sigma2_hat,
)
from .synth import (
    Oracle,
    OutcomeForm,
    SynthSpec,
    default_beta,
    gen_features,
    gen_outcome,
    generate,
    oracle_tau,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "Estimand", "EstimandKind", "FoldPlan",
    "SchemaError", "ValidationError",
    "derive_seed", "load_csv", "make_folds", "write_csv",
    "EffectEstimate", "NuisanceFits", "Weights",
    "crossfit_nuisances", "estimate_dr", "estimate_effect",
    "estimate_naive", "variance_ci",
    "weights_for", "weights_general", "weights_iate", "weights_iatt",
    "InterventionSplit", "Lexicon",
    "featurize_texts", "load_lexicon", "mask_terms", "restrict_dims",
    "select_intervention",
    "ClipPolicy", "Family", "FittedModel", "ModelSpec",
    "cv_select", "default_grid", "fit_outcome_model",
    "fit_propensity_model",
    "CalibrationResult", "ContourGrid", "SensitivityParams", "SensitivityReport",
    "audit", "calibrate_detail", "contour_grid",
    "nu2_hat", "nu2_plugin", "ovb_bounds", "robustness_value", "sigma2_hat",
    "Oracle", "OutcomeForm", "SynthSpec",
    "default_beta", "gen_features", "gen_outcome", "generate", "oracle_tau",
    "__version__",
]
