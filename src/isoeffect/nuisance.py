"""Nuisance model fitting: outcome regressions and propensity classifiers.

Two model families per task: elastic-net (linear or logistic) and
gradient-boosted trees. Hyperparameters are chosen by inner k-fold
cross-validation on the training split; ties are broken toward the stronger
regularization (elastic net) or the smaller model (boosting), so the
selected model never gets more complex than it has to be.

One grid search serves every family. Each walks one hyperparameter in a
single fit: an elastic net its penalty along a regularization path
(Friedman, Hastie & Tibshirani, JSS 2010), boosting its tree count through
the fit's first k trees. Candidates that differ only in that value are one
fit with a model per value, and a final fit is the one-value path.

A cross-fit needs one model per outer fold, and a calibration one cross-fit
per representation, so :func:`fit_models` fits every fold of several
``(X, target, folds)`` jobs of one spec in two phases: the inner CV of every
fold in one batch, then every final fit in another. A batch is one solver
call per column count for elastic nets and one :func:`fit_gbt_batch` call per
``X`` for boosting. Each model is bit for bit the one a fit on its fold alone
gives; :func:`fit_outcome_models` and :func:`fit_propensity_models` are the
one-job case, and the single-model functions the one-fold case.
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
    "check_jobs",
    "fit_models",
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
_WALKED = {Family.ELASTIC_LINEAR: "alpha", Family.ELASTIC_LOGISTIC: "C",  # one fit's values
           Family.GBT_REG: "n_trees", Family.GBT_CLF: "n_trees"}


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


def _losses(family: str, models: list, X, target) -> list[float]:
    """Mean held-out loss of each model of one path: log loss for classifiers, squared error otherwise.

    A boosting path's models are prefixes of one fit (:meth:`GBTModel.first`),
    so the longest of them scores every one in a single walk of its trees.
    """
    classifier = family in Family.CLASSIFIERS
    if family in (Family.GBT_REG, Family.GBT_CLF):
        counts = [model.value.shape[0] for model in models]
        longest = models[counts.index(max(counts))]
        outputs = (longest.predict_proba if classifier else longest.predict)(X, counts)
    else:
        outputs = [model.predict_proba(X) if classifier else model.predict(X) for model in models]
    out = []
    for output in outputs:
        if classifier:
            p = np.clip(output, 1e-12, 1.0 - 1e-12)
            out.append(-(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)).mean())
        else:
            resid = target - output
            out.append(np.mean(resid * resid))
    return out


def _grouped(problems: list, key, solve) -> list:
    """``solve`` once per group of problems with equal ``key(problem)``; results in problem order."""
    groups: dict = {}
    for i, problem in enumerate(problems):
        groups.setdefault(key(problem), []).append(i)
    out: list = [None] * len(problems)
    for members in groups.values():
        for i, result in zip(members, solve([problems[i] for i in members])):
            out[i] = result
    return out


def _paths(family: str, problems: list) -> list[list]:
    """Each ``(X, target, rows, fixed, values, seed)`` problem's models, one per value in order.

    ``values`` are the family's walked hyperparameter's (:data:`_WALKED`),
    ``fixed`` holds the others, and a problem is fitted on ``X[rows]`` and
    ``target[rows]``. An elastic net solves one penalty path and ignores
    ``seed``: problems with the same ``X`` and ``rows`` objects share one
    standardization and target slice, and every problem of one column count
    is solved in one core call (a batch has one width, and none is padded).
    Boosting grows ``max(values)`` trees from ``seed``, one
    :func:`fit_gbt_batch` call per ``X`` and ``target``, and value k's model
    is the first k of them (:meth:`GBTModel.first`).
    """
    if family in (Family.GBT_REG, Family.GBT_CLF):
        def grow(batch):
            X, target = batch[0][:2]
            fits = fit_gbt_batch(X, target, family == Family.GBT_CLF, [
                GBTTask(rows, depth=int(fixed["depth"]), n_trees=int(max(values)),
                        learning_rate=float(fixed["learning_rate"]), seed=seed)
                for _, _, rows, fixed, values, seed in batch])
            return [[fit.first(int(k)) for k in problem[4]] for fit, problem in zip(fits, batch)]

        return _grouped(problems, lambda problem: (id(problem[0]), id(problem[1])), grow)
    paths = enet_linear_paths if family == Family.ELASTIC_LINEAR else enet_logistic_paths
    designs, slices = {}, {}
    for X, target, rows, *_ in problems:
        if (id(X), id(rows)) not in designs:
            designs[id(X), id(rows)] = prepare_design(X[rows])
        if (id(target), id(rows)) not in slices:
            slices[id(target), id(rows)] = target[rows]
    return _grouped(problems, lambda problem: problem[0].shape[1], lambda batch: paths([
        (designs[id(X), id(rows)], slices[id(target), id(rows)], values, fixed["l1_ratio"])
        for X, target, rows, fixed, values, _ in batch]))


def _fold_losses(family: str, cands: list[dict], cvs: list) -> list:
    """Held-out loss of every candidate on every inner fold, plus solver facts, per CV.

    ``cvs`` holds one ``(X, target, seed, splits)`` per outer fold, ``splits``
    its inner folds as ``(training rows, test rows)`` of ``X``. Candidates
    that differ only in the walked hyperparameter are one :func:`_paths`
    problem per inner fold, seeded as the first of them, and every problem of
    every CV is solved in one batch. The facts count the elastic-net solves
    that did not converge, or the boosting fits and the trees each grew.
    """
    walked = _WALKED[family]
    groups: dict = {}
    for ci, cand in enumerate(cands):
        groups.setdefault(tuple((k, v) for k, v in cand.items() if k != walked), []).append(ci)
    problems, scored = [], []
    for c, (X, target, seed, splits) in enumerate(cvs):
        for f, (tr, te) in enumerate(splits):
            for fixed, members in groups.items():
                problems.append((X, target, tr, dict(fixed), [cands[ci][walked] for ci in members],
                                 derive_seed(seed, f"inner-{members[0]}-{f}")))
                scored.append((c, f, X, target, te, members))
    boosting = family in (Family.GBT_REG, Family.GBT_CLF)
    out = [(np.empty((len(cands), len(splits))),
            {"fits": 0, "trees": 0} if boosting else {"nonconverged": 0}) for *_, splits in cvs]
    for (c, f, X, target, te, members), models in zip(scored, _paths(family, problems)):
        losses, facts = out[c]
        for ci, loss in zip(members, _losses(family, models, X[te], target[te])):
            losses[ci, f] = loss
        if boosting:
            facts["fits"] += 1
            # the fit grew the trees of its largest count's model, whatever the value order
            facts["trees"] += max(model.diagnostics["n_trees_fit"] for model in models)
        else:
            facts["nonconverged"] += sum(not model.converged for model in models)
    return out


def _choose(spec: ModelSpec, jobs: list) -> list[list[tuple[dict, dict]]]:
    """Phase 1: each job's per-fold choices and facts, every inner CV of every job in one batch."""
    cands = spec.candidates()
    classifier = spec.family in Family.CLASSIFIERS
    out: list = [[None] * len(folds) for *_, folds in jobs]
    cvs, at = [], []
    for i, (X, target, folds) in enumerate(jobs):
        for j, (rows, seed) in enumerate(folds):
            if len(cands) == 1:
                out[i][j] = dict(cands[0]), {"inner_cv": None}
            elif rows.size < 2 * _INNER_FOLDS:
                # too little data to split meaningfully; fall back to the most
                # regularized candidate rather than guessing from noise
                out[i][j] = dict(max(cands, key=_reg_strength)), {"inner_cv": "skipped_small_n"}
            else:
                strat = target[rows] if classifier else None
                plan = make_folds(rows.size, _INNER_FOLDS, a=strat,
                                  seed=derive_seed(seed, "inner-cv"))
                cvs.append((X, target, seed, [(rows[plan.train_rows(f)], rows[plan.test_rows(f)])
                                              for f in range(plan.k)]))
                at.append((i, j))
    for (i, j), (losses, facts) in zip(at, _fold_losses(spec.family, cands, cvs)):
        scores = [float(np.mean(row)) for row in losses]
        choice = cv_select(cands, scores)
        out[i][j] = choice, {"inner_cv": {"scores": tuple(scores), **facts}}
    return out


def _fit_models(spec: ModelSpec, jobs: list) -> list[list[FittedModel]]:
    """Each ``(X, target, folds)`` job's fold models: phase 1, then every final fit in one batch.

    A fold's final fit is its inner-CV choice, fitted on its rows as a
    one-value path seeded ``"final"``.
    """
    jobs = [(X, target, [(np.asarray(rows, dtype=np.intp), seed) for rows, seed in folds])
            for X, target, folds in jobs]
    choices = _choose(spec, jobs)
    walked = _WALKED[spec.family]
    fitted = iter(_paths(spec.family, [
        (X, target, rows, chosen, [chosen[walked]], derive_seed(seed, "final"))
        for (X, target, folds), job in zip(jobs, choices)
        for (rows, seed), (chosen, _) in zip(folds, job)]))
    return [[FittedModel(family=spec.family, model=next(fitted)[0], chosen=chosen,
                         diagnostics=diag) for chosen, diag in job] for job in choices]


def check_jobs(spec: ModelSpec, jobs: Sequence[tuple]) -> list[tuple]:
    """The ``(X, target, folds)`` jobs as float arrays, after :func:`fit_models`'s input checks.

    A regressor's target is an outcome and a classifier's a 0/1 label, checked
    as :func:`fit_outcome_models` and :func:`fit_propensity_models` check
    them, job by job; the first failing check raises :class:`ValidationError`.
    """
    checked = []
    for X, target, folds in jobs:
        X = np.asarray(X, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64).reshape(-1)
        if spec.family in Family.REGRESSORS:
            if X.shape[0] != target.shape[0] or any(len(rows) < 2 for rows, _ in folds):
                raise ValidationError("outcome fitting needs >= 2 aligned rows")
        elif not np.all(np.isin(target, (0.0, 1.0))):
            raise ValidationError("treatment labels must be 0/1")
        elif any(target[rows].min() == target[rows].max() for rows, _ in folds):
            raise ValidationError("propensity fitting requires both treatment arms")
        checked.append((X, target, folds))
    return checked


def fit_models(spec: ModelSpec, jobs: Sequence[tuple]) -> list[list[FittedModel]]:
    """Fit ``spec`` once per ``(rows, seed)`` fold of every ``(X, target, folds)`` job.

    Every job is checked (:func:`check_jobs`) before any fit. All jobs are
    fitted together: one solver batch for every fold's inner CV, then one for
    every final fit (an elastic net makes one core call per column count,
    boosting one :func:`fit_gbt_batch` call per ``X``). Each model is bit for
    bit its fold fitted alone, and job j's models come back as list j, in
    fold order.
    """
    return _fit_models(spec, check_jobs(spec, jobs))


def fit_outcome_models(X: np.ndarray, y: np.ndarray, spec: ModelSpec,
                       folds: Sequence[tuple]) -> list[FittedModel]:
    """Fit the outcome regression ``g(features) ~ y`` once per ``(rows, seed)`` fold.

    Fold j's model depends only on ``X[rows]``, ``y[rows]`` and its ``seed``:
    it is bit for bit that fold fitted alone. Every fold is chosen by inner CV
    and fitted by its solver as it is: a constant target gives a model that
    predicts the fold mean, and a zero-penalty elastic net on a singular
    design keeps ``alpha = 0`` and converges to a least-squares solution.
    This is :func:`fit_models` with one job.
    """
    if spec.family not in Family.REGRESSORS:
        raise ValueError(f"{spec.family!r} is not an outcome-regression family")
    return fit_models(spec, [(X, y, folds)])[0]


def fit_outcome_model(X: np.ndarray, y: np.ndarray, spec: ModelSpec) -> FittedModel:
    """The outcome regression on every row: :func:`fit_outcome_models`, one fold, seed 0."""
    return fit_outcome_models(X, y, spec, [(np.arange(np.size(y)), 0)])[0]


def fit_propensity_models(X: np.ndarray, a: np.ndarray, spec: ModelSpec,
                          folds: Sequence[tuple]) -> list[FittedModel]:
    """Fit the propensity classifier ``P(a = 1 | features)`` per fold, as the outcome models.

    Raises, before any fit, when a fold's rows hold only one class: a
    propensity on a single arm is never usable downstream, so this fails
    loudly instead of degenerating. This is :func:`fit_models` with one job.
    """
    if spec.family not in Family.CLASSIFIERS:
        raise ValueError(f"{spec.family!r} is not a propensity family")
    return fit_models(spec, [(X, a, folds)])[0]


def fit_propensity_model(X: np.ndarray, a: np.ndarray, spec: ModelSpec) -> FittedModel:
    """The propensity classifier on every row: :func:`fit_propensity_models`, one fold, seed 0."""
    return fit_propensity_models(X, a, spec, [(np.arange(np.size(a)), 0)])[0]
