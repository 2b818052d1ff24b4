"""Nuisance model fitting: outcome regressions and propensity classifiers.

Two model families per task: elastic-net (linear or logistic) and
gradient-boosted trees. Hyperparameters are chosen by inner k-fold
cross-validation on the training split; ties are broken toward the stronger
regularization (elastic net) or the smaller model (boosting), so the
selected model never gets more complex than it has to be.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .boosting import GBTModel, GBTTask, fit_gbt_batch, fit_gbt_core
from .core import ValidationError, derive_seed, make_folds
from .elasticnet import (
    LinearFit,
    LogisticFit,
    enet_linear_paths,
    enet_logistic_paths,
    fit_enet_linear,
    fit_enet_logistic,
    prepare_design,
    standardize_columns,
)

__all__ = [
    "Family",
    "ModelSpec",
    "ClipPolicy",
    "FittedModel",
    "default_grid",
    "cv_select",
    "fit_outcome_model",
    "fit_propensity_model",
]


class Family:
    """Model family names."""

    ELASTIC_LINEAR = "elastic_linear"
    ELASTIC_LOGISTIC = "elastic_logistic"
    GBT_REG = "gbt_reg"
    GBT_CLF = "gbt_clf"

    ALL = (ELASTIC_LINEAR, ELASTIC_LOGISTIC, GBT_REG, GBT_CLF)
    REGRESSORS = (ELASTIC_LINEAR, GBT_REG)
    CLASSIFIERS = (ELASTIC_LOGISTIC, GBT_CLF)


_L1_GRID = (0.0, 0.1, 0.5, 0.7, 0.9, 0.95, 0.99, 1.0)


def default_grid(family: str) -> dict[str, tuple]:
    """Default hyperparameter grid per family."""
    if family == Family.ELASTIC_LINEAR:
        return {"alpha": (1e-4, 1e-3, 1e-2, 1e-1, 1.0), "l1_ratio": _L1_GRID}
    if family == Family.ELASTIC_LOGISTIC:
        return {"C": (0.001, 0.01, 0.1, 1.0, 10.0, 100.0), "l1_ratio": _L1_GRID}
    if family in (Family.GBT_REG, Family.GBT_CLF):
        return {"depth": (2, 3), "n_trees": (100, 300), "learning_rate": (0.05, 0.1)}
    raise ValueError(f"unknown model family {family!r}")


@dataclass(frozen=True)
class ModelSpec:
    """What to fit and over which hyperparameter grid.

    ``hyper_grid=None`` selects :func:`default_grid`. A single-candidate grid
    skips inner cross-validation entirely.
    """

    family: str
    hyper_grid: Mapping[str, Sequence] | None = None
    inner_folds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in Family.ALL:
            raise ValueError(f"unknown model family {self.family!r}")
        default = default_grid(self.family)
        grid = dict(self.hyper_grid) if self.hyper_grid is not None else default
        if not grid or any(len(tuple(v)) == 0 for v in grid.values()):
            raise ValueError("hyper_grid must have at least one value per key")
        if grid.keys() != default.keys():  # a misspelt key would multiply the candidates
            raise ValueError(f"hyper_grid for {self.family!r} is missing keys "
                             f"{sorted(default.keys() - grid.keys())} and has unknown keys "
                             f"{sorted(grid.keys() - default.keys())}")
        object.__setattr__(self, "hyper_grid", {k: tuple(v) for k, v in grid.items()})
        if self.inner_folds < 2:
            raise ValueError("inner_folds must be >= 2")

    def candidates(self) -> list[dict]:
        keys = list(self.hyper_grid)
        return [dict(zip(keys, combo)) for combo in itertools.product(*self.hyper_grid.values())]


@dataclass(frozen=True)
class ClipPolicy:
    """Symmetric probability clipping to [epsilon, 1 - epsilon]."""

    epsilon: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in [0, 0.5), got {self.epsilon}")

    def apply(self, p: np.ndarray) -> np.ndarray:
        return np.clip(p, self.epsilon, 1.0 - self.epsilon)

    def clipped_fraction(self, p: np.ndarray) -> float:
        if len(p) == 0:
            return 0.0
        outside = (p < self.epsilon) | (p > 1.0 - self.epsilon)
        return float(outside.mean())


@dataclass(frozen=True)
class FittedModel:
    """A trained nuisance model with its chosen hyperparameters.

    Predictions are pure functions of the input features. Classifier
    probabilities are raw; the cross-fitting step clips them once.
    """

    family: str
    model: LinearFit | LogisticFit | GBTModel | None
    chosen: dict
    constant: float | None = None  # degenerate constant-target fallback
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_classifier(self) -> bool:
        return self.family in Family.CLASSIFIERS

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.is_classifier:
            raise ValueError("use predict_proba for classifiers")
        if self.constant is not None:
            return np.full(np.asarray(X).shape[0], self.constant)
        return self.model.predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.is_classifier:
            raise ValueError("predict_proba is only defined for classifiers")
        if self.constant is not None:
            return np.full(np.asarray(X).shape[0], self.constant)
        return self.model.predict_proba(X)


def _reg_strength(candidate: Mapping) -> tuple:
    """Sort key: larger means more regularized / smaller model."""
    if "alpha" in candidate:
        return (float(candidate["alpha"]), float(candidate.get("l1_ratio", 0.0)))
    if "C" in candidate:
        return (-float(candidate["C"]), float(candidate.get("l1_ratio", 0.0)))
    if "n_trees" in candidate:
        return (
            -float(candidate["n_trees"]),
            -float(candidate.get("depth", 0)),
            -float(candidate.get("learning_rate", 0.0)),
        )
    return ()


def cv_select(candidates: Sequence[Mapping], scores: Sequence[float]) -> dict:
    """Pick the lowest-loss candidate, ties going to the strongest penalty.

    Scores are mean inner-CV losses (lower is better). Candidates whose
    score is within a hair of the minimum count as tied, and the tie breaks
    toward the larger penalty / smaller model.
    """
    if len(candidates) != len(scores) or not candidates:
        raise ValueError("need one score per candidate")
    if len(candidates) == 1:
        return dict(candidates[0])
    scores = np.asarray(scores, dtype=np.float64)
    best = float(np.min(scores))
    tol = 1e-12 + 1e-9 * abs(best)
    tied = [dict(c) for c, s in zip(candidates, scores) if s <= best + tol]
    return max(tied, key=_reg_strength)


def _fit_one(family: str, X, target, cand: Mapping, seed: int):
    if family == Family.ELASTIC_LINEAR:
        return fit_enet_linear(X, target, alpha=cand["alpha"], l1_ratio=cand["l1_ratio"])
    if family == Family.ELASTIC_LOGISTIC:
        return fit_enet_logistic(X, target, C=cand["C"], l1_ratio=cand["l1_ratio"])
    return fit_gbt_core(
        X,
        target,
        classification=(family == Family.GBT_CLF),
        depth=int(cand["depth"]),
        n_trees=int(cand["n_trees"]),
        learning_rate=float(cand["learning_rate"]),
        seed=seed,
    )


def _loss(family: str, model, X, target, stages=None):
    """Mean held-out loss; with ``stages``, one per boosting tree count."""
    staged = {} if stages is None else {"stages": stages}
    if family in Family.CLASSIFIERS:
        p = np.clip(model.predict_proba(X, **staged), 1e-12, 1.0 - 1e-12)
        return -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)).mean(axis=-1)
    resid = target - model.predict(X, **staged)
    return np.mean(resid * resid, axis=-1)


def _fold_losses(X, target, spec: ModelSpec, cands: list[dict], plan) -> tuple[np.ndarray, dict]:
    """Held-out loss of every candidate on every inner fold, plus solver facts.

    Elastic-net candidates that share an ``l1_ratio`` are scored from one
    regularization path per inner fold, on one standardization of its
    training rows, and every (inner fold, ``l1_ratio``) path is solved in one
    lockstep batch; the facts count the path solves that did not converge.
    Boosting candidates that differ only in ``n_trees`` share one fit per
    fold at their largest count, seeded as the first of them, and each count
    is scored from the staged predictions of that fit. Those fits, one per
    (candidate group, inner fold), grow in lockstep; the facts count them and
    their trees.
    """
    if spec.family in (Family.ELASTIC_LINEAR, Family.ELASTIC_LOGISTIC):
        return _path_fold_losses(X, target, spec.family, cands, plan)
    groups: dict = {}
    for ci, cand in enumerate(cands):
        key = tuple((k, v) for k, v in cand.items() if k != "n_trees")
        groups.setdefault(key, []).append(ci)
    tasks, scored = [], []
    for members in groups.values():
        stages = [int(cands[ci]["n_trees"]) for ci in members]
        first = cands[members[0]]
        for f in range(plan.k):
            tasks.append(GBTTask(
                plan.train_rows(f), depth=int(first["depth"]), n_trees=max(stages),
                learning_rate=float(first["learning_rate"]),
                seed=derive_seed(spec.seed, f"inner-{members[0]}-{f}"),
            ))
            scored.append((members, stages, f))
    models = fit_gbt_batch(X, target, spec.family == Family.GBT_CLF, tasks)
    losses = np.empty((len(cands), plan.k))
    for (members, stages, f), model in zip(scored, models):
        te = plan.test_rows(f)
        losses[members, f] = _loss(spec.family, model, X[te], target[te], stages)
    trees = sum(model.diagnostics["n_trees_fit"] for model in models)
    return losses, {"fits": len(models), "trees": trees}


def _path_fold_losses(X, target, family: str, cands: list[dict], plan) -> tuple[np.ndarray, dict]:
    linear = family == Family.ELASTIC_LINEAR
    penalty, paths = ("alpha", enet_linear_paths) if linear else ("C", enet_logistic_paths)
    by_ratio: dict = {}
    for ci, cand in enumerate(cands):
        by_ratio.setdefault(cand["l1_ratio"], []).append(ci)
    problems, scored = [], []
    for f in range(plan.k):
        tr = plan.train_rows(f)
        design, y = prepare_design(X[tr]), target[tr]
        for ratio, members in by_ratio.items():
            problems.append((design, y, [cands[ci][penalty] for ci in members], ratio))
            scored.append((f, members))
    losses = np.empty((len(cands), plan.k))
    nonconverged = 0
    for (f, members), fits in zip(scored, paths(problems)):
        te = plan.test_rows(f)
        for ci, model in zip(members, fits):
            losses[ci, f] = _loss(family, model, X[te], target[te])
            nonconverged += not model.converged
    return losses, {"nonconverged": nonconverged}


def _inner_cv_choose(X, target, spec: ModelSpec, classifier: bool) -> tuple[dict, dict]:
    cands = spec.candidates()
    if len(cands) == 1:
        return dict(cands[0]), {"inner_cv": None}
    n = X.shape[0]
    if n < 2 * spec.inner_folds:
        # too little data to split meaningfully; fall back to the most
        # regularized candidate rather than guessing from noise
        choice = max(cands, key=_reg_strength)
        return dict(choice), {"inner_cv": "skipped_small_n"}
    strat = target if classifier else None
    plan = make_folds(n, spec.inner_folds, a=strat, seed=derive_seed(spec.seed, "inner-cv"))
    losses, facts = _fold_losses(X, target, spec, cands, plan)
    scores = [float(np.mean(row)) for row in losses]
    choice = cv_select(cands, scores)
    return choice, {"inner_cv": {"scores": tuple(scores), "chosen": dict(choice), **facts}}


def _design_is_singular(X: np.ndarray) -> bool:
    # a constant column standardizes to zeros, so it lowers the rank too
    return np.linalg.matrix_rank(standardize_columns(X)[0]) < X.shape[1]


def fit_outcome_model(X: np.ndarray, y: np.ndarray, spec: ModelSpec) -> FittedModel:
    """Fit the outcome regression ``g(features) ~ y``.

    Constant targets short-circuit to an intercept-only model with a
    warning. A zero-penalty elastic net on a singular design falls back to
    the smallest nonzero penalty in the grid (the least-squares solution
    would not be unique).
    """
    if spec.family not in Family.REGRESSORS:
        raise ValueError(f"{spec.family!r} is not an outcome-regression family")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if X.shape[0] != y.shape[0] or X.shape[0] < 2:
        raise ValidationError("outcome fitting needs >= 2 aligned rows")

    if np.ptp(y) == 0.0:
        warnings.warn("constant outcome target; returning an intercept-only model")
        return FittedModel(
            family=spec.family, model=None, chosen={}, constant=float(y[0]),
            diagnostics={"warning": "constant_target"},
        )

    chosen, diag = _inner_cv_choose(X, y, spec, classifier=False)
    if spec.family == Family.ELASTIC_LINEAR and chosen.get("alpha", 1.0) == 0.0:
        if _design_is_singular(X):
            nonzero = sorted(a for a in spec.hyper_grid.get("alpha", ()) if a > 0)
            fallback = nonzero[0] if nonzero else 1e-6
            warnings.warn(
                f"singular design with zero penalty; refitting with alpha={fallback}"
            )
            chosen = dict(chosen, alpha=fallback)
            diag = dict(diag, singular_fallback=fallback)
    model = _fit_one(spec.family, X, y, chosen, derive_seed(spec.seed, "final"))
    return FittedModel(family=spec.family, model=model, chosen=chosen, diagnostics=diag)


def fit_propensity_model(X: np.ndarray, a: np.ndarray, spec: ModelSpec) -> FittedModel:
    """Fit the propensity classifier ``P(a = 1 | features)``.

    Raises when only one class is present: a propensity on a single arm is
    never usable downstream, so this fails loudly instead of degenerating.
    """
    if spec.family not in Family.CLASSIFIERS:
        raise ValueError(f"{spec.family!r} is not a propensity family")
    X = np.asarray(X, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if not np.all(np.isin(a, (0.0, 1.0))):
        raise ValidationError("treatment labels must be 0/1")
    if a.min() == a.max():
        raise ValidationError("propensity fitting requires both treatment arms")

    chosen, diag = _inner_cv_choose(X, a, spec, classifier=True)
    model = _fit_one(spec.family, X, a, chosen, derive_seed(spec.seed, "final"))
    return FittedModel(family=spec.family, model=model, chosen=chosen, diagnostics=diag)
