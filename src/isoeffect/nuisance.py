"""Nuisance model fitting: outcome regressions and propensity classifiers.

Two model families per task: elastic-net (linear or logistic) and
gradient-boosted trees. Hyperparameters are chosen by inner k-fold
cross-validation on the training split; ties are broken toward the stronger
regularization (elastic net) or the smaller model (boosting), so the
selected model never gets more complex than it has to be.

A cross-fit needs one model per outer fold, so :func:`fit_outcome_models` and
:func:`fit_propensity_models` fit all of them in two phases: the inner CV of
every fold in one solver call, then every final fit in another. Each model is
bit for bit the one a fit on its fold alone gives; the single-model
functions are the one-fold case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

# the single-fit seams are no longer called here; bench/spans.py wraps them by name
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
)

__all__ = [
    "Family",
    "ModelSpec",
    "ClipPolicy",
    "FittedModel",
    "default_grid",
    "cv_select",
    "fit_outcome_model",
    "fit_outcome_models",
    "fit_propensity_model",
    "fit_propensity_models",
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
_INNER_FOLDS = 5  # inner cross-validation folds of every grid search


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
    skips inner cross-validation entirely; any other runs it over
    ``_INNER_FOLDS`` folds. The seeds come with the rows to fit (see
    :func:`fit_outcome_models`), not with the spec.
    """

    family: str
    hyper_grid: Mapping[str, Sequence] | None = None

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
    model: LinearFit | LogisticFit | GBTModel
    chosen: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_classifier(self) -> bool:
        return self.family in Family.CLASSIFIERS

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.is_classifier:
            raise ValueError("use predict_proba for classifiers")
        return self.model.predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.is_classifier:
            raise ValueError("predict_proba is only defined for classifiers")
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


def _loss(family: str, model, X, target, stages=None):
    """Mean held-out loss; with ``stages``, one per boosting tree count."""
    staged = {} if stages is None else {"stages": stages}
    if family in Family.CLASSIFIERS:
        p = np.clip(model.predict_proba(X, **staged), 1e-12, 1.0 - 1e-12)
        return -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)).mean(axis=-1)
    resid = target - model.predict(X, **staged)
    return np.mean(resid * resid, axis=-1)


def _fold_losses(X, target, family: str, cands: list[dict], cvs: list) -> list:
    """Held-out loss of every candidate on every inner fold, plus solver facts, per CV.

    ``cvs`` holds one ``(seed, splits)`` per outer fold, ``splits`` its inner
    folds as ``(training rows, test rows)`` of ``X``. Elastic-net candidates
    that share an ``l1_ratio`` are scored from one regularization path per
    inner fold, on one standardization of its training rows, and every (CV,
    inner fold, ``l1_ratio``) path is solved in one lockstep batch; the facts
    count the path solves that did not converge. Boosting candidates that
    differ only in ``n_trees`` share one fit per inner fold at their largest
    count, seeded as the first of them, and each count is scored from the
    staged predictions of that fit. Those fits, one per (CV, candidate
    group, inner fold), grow in lockstep; the facts count them and their trees.
    """
    if family in (Family.ELASTIC_LINEAR, Family.ELASTIC_LOGISTIC):
        return _path_fold_losses(X, target, family, cands, cvs)
    groups: dict = {}
    for ci, cand in enumerate(cands):
        key = tuple((k, v) for k, v in cand.items() if k != "n_trees")
        groups.setdefault(key, []).append(ci)
    tasks, scored = [], []
    for c, (seed, splits) in enumerate(cvs):
        for members in groups.values():
            stages = [int(cands[ci]["n_trees"]) for ci in members]
            first = cands[members[0]]
            for f, (tr, te) in enumerate(splits):
                tasks.append(GBTTask(
                    tr, depth=int(first["depth"]), n_trees=max(stages),
                    learning_rate=float(first["learning_rate"]),
                    seed=derive_seed(seed, f"inner-{members[0]}-{f}"),
                ))
                scored.append((c, f, te, members, stages))
    out = [(np.empty((len(cands), len(splits))), {"fits": 0, "trees": 0}) for _, splits in cvs]
    for (c, f, te, members, stages), model in zip(
            scored, fit_gbt_batch(X, target, family == Family.GBT_CLF, tasks)):
        losses, facts = out[c]
        losses[members, f] = _loss(family, model, X[te], target[te], stages)
        facts["fits"] += 1
        facts["trees"] += model.diagnostics["n_trees_fit"]
    return out


def _path_fold_losses(X, target, family: str, cands: list[dict], cvs: list) -> list:
    linear = family == Family.ELASTIC_LINEAR
    penalty, paths = ("alpha", enet_linear_paths) if linear else ("C", enet_logistic_paths)
    by_ratio: dict = {}
    for ci, cand in enumerate(cands):
        by_ratio.setdefault(cand["l1_ratio"], []).append(ci)
    problems, scored = [], []
    for c, (_, splits) in enumerate(cvs):
        for f, (tr, te) in enumerate(splits):
            design, y = prepare_design(X[tr]), target[tr]
            for ratio, members in by_ratio.items():
                problems.append((design, y, [cands[ci][penalty] for ci in members], ratio))
                scored.append((c, f, te, members))
    out = [(np.empty((len(cands), len(splits))), {"nonconverged": 0}) for _, splits in cvs]
    for (c, f, te, members), fits in zip(scored, paths(problems)):
        losses, facts = out[c]
        for ci, model in zip(members, fits):
            losses[ci, f] = _loss(family, model, X[te], target[te])
            facts["nonconverged"] += not model.converged
    return out


def _choose(X, target, spec: ModelSpec, folds: list) -> list[tuple[dict, dict]]:
    """Phase 1: each ``(rows, seed)`` fold's choice and facts, every inner CV in one batch."""
    cands = spec.candidates()
    classifier = spec.family in Family.CLASSIFIERS
    out: list = [None] * len(folds)
    cvs, at = [], []
    for j, (rows, seed) in enumerate(folds):
        if len(cands) == 1:
            out[j] = dict(cands[0]), {"inner_cv": None}
        elif rows.size < 2 * _INNER_FOLDS:
            # too little data to split meaningfully; fall back to the most
            # regularized candidate rather than guessing from noise
            out[j] = dict(max(cands, key=_reg_strength)), {"inner_cv": "skipped_small_n"}
        else:
            strat = target[rows] if classifier else None
            plan = make_folds(rows.size, _INNER_FOLDS, a=strat,
                              seed=derive_seed(seed, "inner-cv"))
            cvs.append((seed, [(rows[plan.train_rows(f)], rows[plan.test_rows(f)])
                               for f in range(plan.k)]))
            at.append(j)
    for j, (losses, facts) in zip(at, _fold_losses(X, target, spec.family, cands, cvs)):
        scores = [float(np.mean(row)) for row in losses]
        choice = cv_select(cands, scores)
        out[j] = choice, {"inner_cv": {"scores": tuple(scores), "chosen": dict(choice), **facts}}
    return out


def _final_fits(X, target, family: str, fits: list) -> list:
    """Phase 2: one model per ``(rows, chosen, seed)``, all in one solver batch."""
    if family in (Family.GBT_REG, Family.GBT_CLF):
        return fit_gbt_batch(X, target, family == Family.GBT_CLF, [
            GBTTask(rows, depth=int(c["depth"]), n_trees=int(c["n_trees"]),
                    learning_rate=float(c["learning_rate"]), seed=seed) for rows, c, seed in fits])
    linear = family == Family.ELASTIC_LINEAR
    penalty, paths = ("alpha", enet_linear_paths) if linear else ("C", enet_logistic_paths)
    return [path[0] for path in paths([(X[rows], target[rows], [c[penalty]], c["l1_ratio"])
                                       for rows, c, _ in fits])]


def _fit_models(X, target, spec: ModelSpec, folds) -> list[FittedModel]:
    folds = [(np.asarray(rows, dtype=np.intp), seed) for rows, seed in folds]
    choices = _choose(X, target, spec, folds)
    finals = [(rows, chosen, derive_seed(seed, "final"))
              for (rows, seed), (chosen, _) in zip(folds, choices)]
    fitted = _final_fits(X, target, spec.family, finals)
    return [FittedModel(family=spec.family, model=model, chosen=chosen, diagnostics=diag)
            for model, (chosen, diag) in zip(fitted, choices)]


def fit_outcome_models(X: np.ndarray, y: np.ndarray, spec: ModelSpec,
                       folds: Sequence[tuple]) -> list[FittedModel]:
    """Fit the outcome regression ``g(features) ~ y`` once per ``(rows, seed)`` fold.

    Fold j's model depends only on ``X[rows]``, ``y[rows]`` and its ``seed``:
    it is bit for bit that fold fitted alone. Every fold is chosen by inner CV
    and fitted by its solver as it is: a constant target gives a model that
    predicts the fold mean, and a zero-penalty elastic net on a singular
    design keeps ``alpha = 0`` and converges to a least-squares solution.
    """
    if spec.family not in Family.REGRESSORS:
        raise ValueError(f"{spec.family!r} is not an outcome-regression family")
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64).reshape(-1)
    if X.shape[0] != y.shape[0] or any(len(rows) < 2 for rows, _ in folds):
        raise ValidationError("outcome fitting needs >= 2 aligned rows")
    return _fit_models(X, y, spec, folds)


def fit_outcome_model(X: np.ndarray, y: np.ndarray, spec: ModelSpec) -> FittedModel:
    """The outcome regression on every row: :func:`fit_outcome_models`, one fold, seed 0."""
    return fit_outcome_models(X, y, spec, [(np.arange(np.size(y)), 0)])[0]


def fit_propensity_models(X: np.ndarray, a: np.ndarray, spec: ModelSpec,
                          folds: Sequence[tuple]) -> list[FittedModel]:
    """Fit the propensity classifier ``P(a = 1 | features)`` per fold, as the outcome models.

    Raises, before any fit, when a fold's rows hold only one class: a
    propensity on a single arm is never usable downstream, so this fails
    loudly instead of degenerating.
    """
    if spec.family not in Family.CLASSIFIERS:
        raise ValueError(f"{spec.family!r} is not a propensity family")
    X, a = np.asarray(X, dtype=np.float64), np.asarray(a, dtype=np.float64).reshape(-1)
    if not np.all(np.isin(a, (0.0, 1.0))):
        raise ValidationError("treatment labels must be 0/1")
    if any(a[rows].min() == a[rows].max() for rows, _ in folds):
        raise ValidationError("propensity fitting requires both treatment arms")
    return _fit_models(X, a, spec, folds)


def fit_propensity_model(X: np.ndarray, a: np.ndarray, spec: ModelSpec) -> FittedModel:
    """The propensity classifier on every row: :func:`fit_propensity_models`, one fold, seed 0."""
    return fit_propensity_models(X, a, spec, [(np.arange(np.size(a)), 0)])[0]
