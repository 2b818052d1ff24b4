"""Cross-fitted doubly robust estimation of isolated treatment effects.

One estimator, :func:`estimate_dr`, serves every estimand. It combines an
outcome-model plug-in term with an importance weighted residual correction:

    tau_hat = (1/m) sum_j [g(1, e*_j) - g(0, e*_j)]
            + (1/n) sum_i gamma_i (y_i - g(a_i, e_i))

where e are the non-focal features, the target sample {e*_j} is what the
estimand fixes (every row for IATE, the treated rows for IATT, an external
corpus for the general transported estimand), and gamma are transporting
inverse probability weights. Nuisances are cross-fitted: every row's
predictions come from models trained on the other folds. The K fold models
of a nuisance are fitted together, in one solver batch for all their inner
cross-validations and one for all their final fits; a calibration's
representations (the full features and each reduction) share those batches
too (:func:`crossfit_representations`). The two kinds of nuisance are
independent, so on a host with two usable CPUs the outcome models are fitted
in a forked child process while this one fits the classifiers.

Standard errors come from the influence-function variance with 1/n CLT
scaling (n + m stacked rows for the general estimand); ``ci95`` is the
usual two-sided normal interval.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import nuisance
from .core import (
    Dataset,
    EstimandKind,
    FoldPlan,
    ValidationError,
    _readonly,
    _require_finite,
    derive_seed,
    make_folds,
)
# the one-fold fits are no longer called here; bench/spans.py wraps them by name
from .nuisance import (
    ClipPolicy,
    Family,
    FittedModel,
    ModelSpec,
    check_jobs,
    fit_outcome_model,
    fit_propensity_model,
)

__all__ = [
    "NuisanceFits",
    "GeneralFits",
    "Weights",
    "EffectEstimate",
    "crossfit_nuisances",
    "crossfit_representations",
    "weights_iate",
    "weights_iatt",
    "weights_general",
    "weights_for",
    "estimate_dr",
    "estimate_naive",
    "variance_ci",
    "estimate_effect",
]

Z_95 = 1.96


@dataclass(frozen=True)
class GeneralFits:
    """Extra cross-fitted pieces for the transported (general) estimand."""

    target_assignment: np.ndarray
    target_ghat1: np.ndarray
    target_ghat0: np.ndarray
    target_p_hat: np.ndarray
    target_prob_t: np.ndarray
    source_prob_t: np.ndarray
    frac_t_by_fold: np.ndarray
    corpus_models: tuple[FittedModel, ...] = ()


@dataclass(frozen=True)
class NuisanceFits:
    """Out-of-fold nuisance predictions, the per-fold models and the recipe that made them.

    ``dataset`` is the one fitted on, kept by reference. The recipe is both
    model specs (after defaulting), ``seed``, ``clip`` and ``fold_plan.k``;
    its defaults are :func:`crossfit_nuisances`'s own.
    """

    dataset: Dataset
    fold_plan: FoldPlan
    ghat_obs: np.ndarray
    ghat1: np.ndarray
    ghat0: np.ndarray
    p_hat: np.ndarray
    pi1_by_fold: np.ndarray
    outcome_models: tuple[FittedModel, ...]
    propensity_models: tuple[FittedModel, ...]
    outcome_spec: ModelSpec = ModelSpec(Family.ELASTIC_LINEAR)
    propensity_spec: ModelSpec = ModelSpec(Family.ELASTIC_LOGISTIC)
    seed: int = 0
    clip: ClipPolicy = ClipPolicy()
    general: GeneralFits | None = None
    diagnostics: dict = field(default_factory=dict)

    def pi1_rows(self) -> np.ndarray:
        """Per-row training-fold treated fraction."""
        return self.pi1_by_fold[self.fold_plan.assignment]


def crossfit_nuisances(
    dataset: Dataset,
    outcome_spec: ModelSpec | None = None,
    propensity_spec: ModelSpec | None = None,
    k: int = 5,
    seed: int = 0,
    clip: ClipPolicy = ClipPolicy(),
    target_features: np.ndarray | None = None,
) -> NuisanceFits:
    """Cross-fit outcome and propensity models over k folds.

    The outcome model regresses y on [features, a] (treatment appended as
    the last column); the propensity classifier predicts a from features
    alone. All returned predictions are out-of-fold. The fold plan depends
    only on (n, k, a, seed), so cross-fits of the same rows with one ``k``
    and ``seed`` share it; the fits record the specs, seed and clip used.

    ``target_features``, the general estimand's corpus, is checked before
    any fit (2-d, finite, the source's columns, at least k rows), dealt into
    pseudo-folds and stacked under the source rows, and a source-vs-target
    corpus classifier is cross-fitted alongside. Each fold predicts all of
    its held-out rows, source then target, with one call per model and
    quantity; IATE and IATT, which fit the same nuisances, are the case of no
    target. This is :func:`crossfit_representations` with one dataset.
    """
    targets = None if target_features is None else [target_features]
    return crossfit_representations([dataset], outcome_spec, propensity_spec, k=k, seed=seed,
                                    clip=clip, target_features=targets)[0]


def crossfit_representations(
    datasets: Sequence[Dataset],
    outcome_spec: ModelSpec | None = None,
    propensity_spec: ModelSpec | None = None,
    k: int = 5,
    seed: int = 0,
    clip: ClipPolicy = ClipPolicy(),
    target_features: Sequence[np.ndarray | None] | None = None,
) -> list[NuisanceFits]:
    """Cross-fit several datasets together; each fits as :func:`crossfit_nuisances` alone.

    The datasets are typically one set of rows under several representations,
    as a calibration has: the full features and each reduction. Every dataset
    and its target corpus (``target_features[i]``, or None for none) is
    checked before any fit. Each nuisance is then fitted for every fold of
    every dataset at once (:func:`~isoeffect.nuisance.fit_models`): one solver
    batch for all their inner CVs and one for all their final fits, where the
    propensity and corpus classifiers, which share a spec, share the batches
    too. Both nuisances' inputs are checked (:func:`~isoeffect.nuisance.check_jobs`,
    outcome first) before either is fitted. The outcome models are fitted in
    a forked child while this process fits the classifiers, where
    :func:`_can_fork` allows, and inline otherwise; the same code runs on the
    same inputs either way. Every model, and so every prediction, is bit for
    bit the one a cross-fit of its dataset alone gives.
    """
    outcome_spec = outcome_spec or ModelSpec(Family.ELASTIC_LINEAR)
    propensity_spec = propensity_spec or ModelSpec(Family.ELASTIC_LOGISTIC)
    targets = [None] * len(datasets) if target_features is None else list(target_features)
    if len(targets) != len(datasets):
        raise ValueError(f"{len(targets)} target corpora for {len(datasets)} datasets")
    splits = [_Split(dataset, target, k, seed) for dataset, target in zip(datasets, targets)]
    # the outcome model regresses y on [features, a]
    outcome_jobs = check_jobs(outcome_spec, [
        (np.column_stack([s.dataset.features, s.a]), s.dataset.y, s.folds("outcome"))
        for s in splits])
    classifier_jobs = check_jobs(propensity_spec, [
        *((s.dataset.features, s.a, s.folds("propensity")) for s in splits),
        *((s.rows, s.is_target, s.folds("corpus")) for s in splits if s.is_target is not None)])
    wait = _in_child(nuisance._fit_models, outcome_spec, outcome_jobs)
    try:
        classifiers = nuisance._fit_models(propensity_spec, classifier_jobs)
    except BaseException as exc:
        # an outcome error is raised first, with this one as its context; Ctrl-C ends the child
        wait(kill=not isinstance(exc, Exception))
        raise
    outcome = wait()
    corpus = iter(classifiers[len(splits):])
    return [s.fits(om, pm, None if s.is_target is None else next(corpus),
                   outcome_spec, propensity_spec, clip)
            for s, om, pm in zip(splits, outcome, classifiers)]


def _can_fork() -> bool:
    """Whether :func:`_in_child` forks: a POSIX host, two usable CPUs, and Python before 3.12.

    From 3.12 on, forking a process that runs threads (numpy's BLAS pool is
    one) emits a ``DeprecationWarning``, so those versions fit inline.
    """
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and sys.version_info < (3, 12))


def _in_child(fn: Callable, *args) -> Callable:
    """Start ``fn(*args)`` in a forked child while the caller works on; ``wait()`` gives its result.

    The child inherits every input, so only the result (or the exception
    ``fn`` raised) crosses back, pickled through a pipe, together with the
    warnings ``fn`` issued, which ``wait`` re-issues here in order. ``wait``
    reaps the child on every path; when the child ends without a result it
    raises :class:`RuntimeError` naming its exit status or signal, and
    ``wait(kill=True)`` ends it unread. The child always leaves by
    ``os._exit``, so nothing of this process runs twice. Where
    :func:`_can_fork` is False, ``fn`` runs at once, here.
    """
    if not _can_fork():
        result = fn(*args)
        return lambda kill=False: result
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns
        code = 1
        try:
            os.close(read_end)
            with warnings.catch_warnings(record=True) as caught:
                try:
                    outcome = True, fn(*args)
                except Exception as exc:
                    outcome = False, exc
            issued = [(w.message, w.category, w.filename, w.lineno) for w in caught]
            try:
                payload = pickle.dumps((outcome, issued))
            except Exception as exc:  # say why, rather than end without a result
                payload = pickle.dumps(((False, RuntimeError(
                    f"the child's outcome {outcome[1]!r:.200} cannot be pickled: {exc!r}")), []))
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    pipe = os.fdopen(read_end, "rb")

    def wait(kill: bool = False):
        with pipe:
            try:
                payload = b"" if kill else pipe.read()
            except BaseException:
                kill = True
                raise
            finally:
                if kill:
                    os.kill(pid, signal.SIGKILL)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])  # reaps the child
        if kill:
            return None
        if code != 0:
            how = f"exit status {code}" if code > 0 else "signal " + next(
                (sig.name for sig in signal.Signals if sig == -code), str(-code))
            raise RuntimeError(f"the child process running {fn.__name__} ended by {how} "
                               "without a result")
        (ok, result), issued = pickle.loads(payload)
        for message, category, filename, lineno in issued:
            warnings.warn_explicit(message, category, filename, lineno)
        if not ok:
            raise result
        return result

    return wait


class _Split:
    """One dataset's checked cross-fit inputs: its fold plans and the rows each fold predicts."""

    def __init__(self, dataset: Dataset, target_features, k: int, seed: int) -> None:
        dataset.require_both_arms()
        self.dataset, self.seed = dataset, seed
        self.plan = make_folds(dataset.n, k, a=dataset.a, seed=derive_seed(seed, "folds"))
        feats = dataset.features
        self.a = dataset.a.astype(np.float64)
        self.rows, self.assign = feats, self.plan.assignment
        self.target_assign = self.is_target = None
        if target_features is not None:
            tgt = np.asarray(target_features, dtype=np.float64)
            if tgt.ndim != 2 or tgt.shape[0] == 0:
                raise ValidationError("target feature matrix must be non-empty and 2-d")
            _require_finite(tgt, "target feature value")
            if tgt.shape[1] != feats.shape[1]:
                raise ValidationError(f"target corpus has {tgt.shape[1]} feature columns, "
                                      f"source has {feats.shape[1]}")
            m = tgt.shape[0]
            if m < k:
                raise ValidationError(
                    f"target corpus too small for the folds: cannot split {m} rows into {k} folds"
                )
            self.target_assign = make_folds(m, k, seed=derive_seed(seed, "target-folds")).assignment
            self.rows = np.vstack([feats, tgt])
            self.assign = np.concatenate([self.plan.assignment, self.target_assign])
            self.is_target = np.concatenate([np.zeros(dataset.n), np.ones(m)])
        self.train = [self.plan.train_rows(f) for f in range(k)]

    def folds(self, nuisance: str) -> list[tuple]:
        """The ``(training rows, seed)`` of every fold for ``nuisance``.

        The outcome and propensity models train on the fold plan's source
        rows, the corpus classifier on the source and target rows of the other
        folds.
        """
        if nuisance == "corpus":
            return [(np.flatnonzero(self.assign != f), derive_seed(self.seed, f"corpus-f{f}"))
                    for f in range(len(self.train))]
        return [(tr, derive_seed(self.seed, f"{nuisance}-f{f}")) for f, tr in enumerate(self.train)]

    def fits(self, outcome_models, propensity_models, corpus_models, outcome_spec,
             propensity_spec, clip: ClipPolicy) -> NuisanceFits:
        """The out-of-fold predictions of the fitted fold models, and the recipe that made them."""
        n, rows, a, k = self.dataset.n, self.rows, self.a, len(self.train)
        general = corpus_models is not None
        ghat1, ghat0, p_raw, q_raw = (np.empty(len(rows)) for _ in range(4))
        pi1_by_fold, frac_t_by_fold = np.empty(k), np.empty(k)
        for f, (tr, om, pm) in enumerate(zip(self.train, outcome_models, propensity_models)):
            held = np.flatnonzero(self.assign == f)  # the fold's source rows, then its target rows
            x = rows[held]
            ghat1[held] = om.predict(np.column_stack([x, np.ones(len(held))]))
            ghat0[held] = om.predict(np.column_stack([x, np.zeros(len(held))]))
            # keep the raw probabilities for clip diagnostics; clip once below
            p_raw[held] = pm.predict_proba(x)
            pi1_by_fold[f] = a[tr].mean()
            if general:
                frac_t_by_fold[f] = self.is_target[self.assign != f].mean()
                q_raw[held] = corpus_models[f].predict_proba(x)

        ghat_obs = np.where(a == 1, ghat1[:n], ghat0[:n])
        p_hat = clip.apply(p_raw[:n])
        diagnostics = {
            "clipped_frac": clip.clipped_fraction(p_raw[:n]),
            "p_min": float(p_hat.min()),
            "p_max": float(p_hat.max()),
            "pi1": float(a.mean()),
        }
        general_fits = None
        if general:
            q_hat = clip.apply(q_raw)
            general_fits = GeneralFits(
                target_assignment=self.target_assign,
                target_ghat1=_readonly(ghat1[n:]),
                target_ghat0=_readonly(ghat0[n:]),
                target_p_hat=_readonly(clip.apply(p_raw[n:])),
                target_prob_t=_readonly(q_hat[n:]),
                source_prob_t=_readonly(q_hat[:n]),
                frac_t_by_fold=_readonly(frac_t_by_fold),
                corpus_models=tuple(corpus_models),
            )
            diagnostics["corpus_clipped_frac"] = clip.clipped_fraction(q_raw)

        return NuisanceFits(
            self.dataset,
            self.plan,
            ghat_obs=_readonly(ghat_obs),
            ghat1=_readonly(ghat1[:n]),
            ghat0=_readonly(ghat0[:n]),
            p_hat=_readonly(p_hat),
            pi1_by_fold=_readonly(pi1_by_fold),
            outcome_models=tuple(outcome_models),
            propensity_models=tuple(propensity_models),
            outcome_spec=outcome_spec, propensity_spec=propensity_spec, seed=self.seed, clip=clip,
            general=general_fits,
            diagnostics=diagnostics,
        )


# ---------------------------------------------------------------------------
# Transporting importance weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weights:
    """Per-row weights gamma plus per-target-row gaps gamma(1,e*) - gamma(0,e*)."""

    kind: str
    gamma: np.ndarray
    target_gap: np.ndarray

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma, dtype=np.float64)
        gap = np.asarray(self.target_gap, dtype=np.float64)
        if not np.all(np.isfinite(gamma)) or not np.all(np.isfinite(gap)):
            raise ValidationError("weights must be finite; check probability clipping")
        object.__setattr__(self, "gamma", _readonly(gamma))
        object.__setattr__(self, "target_gap", _readonly(gap))


def _check_probs(p: np.ndarray, what: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.size and (p.min() <= 0.0 or p.max() >= 1.0):
        raise ValidationError(f"{what} must lie strictly inside (0, 1); clip first")
    return p


def weights_iate(a: np.ndarray, p_hat: np.ndarray) -> Weights:
    """Inverse propensity weights targeting everyone.

    gamma_i = 1/p_i for treated rows and -1/(1-p_i) for control rows, so
    |gamma| >= 1 always. The target gap at e is 1/p + 1/(1-p).
    """
    a = np.asarray(a, dtype=np.float64)
    p = _check_probs(p_hat, "propensities")
    gamma = np.where(a == 1.0, 1.0 / p, -1.0 / (1.0 - p))
    gap = 1.0 / p + 1.0 / (1.0 - p)
    return Weights(kind=EstimandKind.IATE, gamma=gamma, target_gap=gap)


def weights_iatt(a: np.ndarray, p_hat: np.ndarray, pi1) -> Weights:
    """Weights targeting the treated: gamma(1) = 1/pi1, constant per fold.

    ``pi1`` may be a scalar or a per-row array of training-fold treated
    fractions. Control rows get -p/((1-p) pi1); the target gaps are taken
    over treated rows only.
    """
    a = np.asarray(a, dtype=np.float64)
    p = _check_probs(p_hat, "propensities")
    pi1 = np.broadcast_to(np.asarray(pi1, dtype=np.float64), a.shape)
    if pi1.min() <= 0.0 or pi1.max() >= 1.0:
        raise ValidationError("pi1 must lie strictly inside (0, 1)")
    gamma = np.where(a == 1.0, 1.0 / pi1, -p / ((1.0 - p) * pi1))
    treated = a == 1.0
    gap = 1.0 / pi1[treated] + p[treated] / ((1.0 - p[treated]) * pi1[treated])
    return Weights(kind=EstimandKind.IATT, gamma=gamma, target_gap=gap)


def _target_gap(ratio, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Transported gap gamma(1,e) - gamma(0,e) = ratio * q/(1-q) * (1/p + 1/(1-p))."""
    return ratio * (q / (1.0 - q)) * (1.0 / p + 1.0 / (1.0 - p))


def _general_gamma(a: np.ndarray, p: np.ndarray, q: np.ndarray, share) -> np.ndarray:
    """Transported weight (2a - 1) * share * q/(1-q) / P(a | e), share = frac_s/frac_t."""
    p_obs = np.where(a == 1.0, p, 1.0 - p)
    return (2.0 * a - 1.0) * (share * (q / (1.0 - q))) / p_obs


def weights_general(
    a: np.ndarray,
    p_hat: np.ndarray,
    corpus_prob_t: np.ndarray,
    frac_s,
    frac_t,
) -> Weights:
    """Weights transporting onto an arbitrary target corpus, gaps at target = source.

    gamma_i = (2 a_i - 1) * [frac_s/frac_t] * [q_i/(1-q_i)] / P(a=a_i | e_i)

    with q = P(corpus = target | e) from a source-vs-target classifier and
    frac_* the marginal corpus shares. With ``corpus_prob_t == frac_t`` this
    reduces exactly to :func:`weights_iate`. Target gaps are evaluated on
    the source rows; :func:`weights_for` evaluates them on the target rows
    of cross-fitted general nuisances.
    """
    a = np.asarray(a, dtype=np.float64)
    p = _check_probs(p_hat, "propensities")
    q = _check_probs(corpus_prob_t, "corpus probabilities")
    frac_s = np.broadcast_to(np.asarray(frac_s, dtype=np.float64), a.shape)
    frac_t = np.broadcast_to(np.asarray(frac_t, dtype=np.float64), a.shape)
    if frac_s.min() <= 0.0 or frac_t.min() <= 0.0:
        raise ValidationError("corpus fractions must be positive")
    share = frac_s / frac_t
    return Weights(
        kind=EstimandKind.GENERAL,
        gamma=_general_gamma(a, p, q, share),
        target_gap=_target_gap(share, q, p),
    )


def weights_for(fits: NuisanceFits, a: np.ndarray, kind: str) -> Weights:
    """Build the estimand's weights from cross-fitted nuisances.

    General weights use each row's fold share, (1 - f)/f with f the target
    fraction of the corpus classifier's training rows: per source row for
    gamma, per target row for the target gaps.
    """
    if kind == EstimandKind.IATE:
        return weights_iate(a, fits.p_hat)
    if kind == EstimandKind.IATT:
        return weights_iatt(a, fits.p_hat, fits.pi1_rows())
    if kind == EstimandKind.GENERAL:
        g = fits.general
        if g is None:
            raise ValidationError("fits carry no general-estimand extras")
        frac_t = g.frac_t_by_fold[fits.fold_plan.assignment]
        t_frac_t = g.frac_t_by_fold[g.target_assignment]
        p = _check_probs(fits.p_hat, "propensities")
        q = _check_probs(g.source_prob_t, "corpus probabilities")
        return Weights(
            kind=EstimandKind.GENERAL,
            gamma=_general_gamma(np.asarray(a, dtype=np.float64), p, q, (1.0 - frac_t) / frac_t),
            target_gap=_target_gap((1.0 - t_frac_t) / t_frac_t, g.target_prob_t, g.target_p_hat),
        )
    raise ValueError(f"unknown estimand kind {kind!r}")


# ---------------------------------------------------------------------------
# Point estimates, variance, confidence intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectEstimate:
    """A point estimate with influence-based uncertainty."""

    estimand: str
    tau_hat: float
    variance_hat: float
    standard_error: float
    ci95: tuple[float, float]
    n: int
    influence: np.ndarray = field(repr=False)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "influence", _readonly(self.influence))


def variance_ci(influence: np.ndarray, tau_hat: float, n: int) -> tuple[float, float, tuple[float, float]]:
    """Variance, standard error, and 95% CI from influence values.

    variance_hat is the mean squared *centered* influence; the standard
    error applies the 1/n CLT scaling; the interval is tau_hat +- 1.96 se.
    """
    if n < 2:
        raise ValueError("variance needs at least 2 observations")
    influence = np.asarray(influence, dtype=np.float64)
    centered = influence - influence.mean()
    variance = float(np.mean(centered * centered))
    se = float(np.sqrt(variance / n))
    return variance, se, (tau_hat - Z_95 * se, tau_hat + Z_95 * se)


def estimate_dr(fits: NuisanceFits, weights: Weights, dataset: Dataset) -> EffectEstimate:
    """Doubly robust estimate over the target sample that ``weights.kind`` fixes.

    The plug-in contrast is averaged over every row for IATE, the treated
    rows for IATT and the external corpus for the general estimand; the
    weighted residual correction is averaged over the source rows. For IATT
    the contrast enters the influence through the treated indicator scaled
    by the fold's treated fraction. For the general estimand the influence
    stacks the n source rows (correction scaled by (n+m)/n) and the m target
    rows (contrast scaled by (n+m)/m), and the variance uses n + m.
    """
    y, a = dataset.y, dataset.a.astype(np.float64)
    n = dataset.n
    kind = weights.kind
    contrast = fits.ghat1 - fits.ghat0
    correction = weights.gamma * (y - fits.ghat_obs)
    if kind == EstimandKind.IATE:
        target = contrast
        psi = contrast + correction
    elif kind == EstimandKind.IATT:
        target = contrast[a == 1.0]
        if target.size == 0:
            raise ValidationError("target sample is empty: no treated rows")
        psi = (a / fits.pi1_rows()) * contrast + correction
    elif kind == EstimandKind.GENERAL:
        g = fits.general
        if g is None:
            raise ValidationError("general estimation requires fits with general-estimand extras")
        target = g.target_ghat1 - g.target_ghat0
        total = n + target.size
        psi = np.concatenate([correction * (total / n), target * (total / target.size)])
    else:
        raise ValueError(f"unknown estimand kind {kind!r}")
    tau = float(target.mean()) + float(correction.mean())

    influence = psi - psi.mean()
    variance, se, ci = variance_ci(influence, tau, psi.size)
    return EffectEstimate(
        estimand=kind,
        tau_hat=tau,
        variance_hat=variance,
        standard_error=se,
        ci95=ci,
        n=psi.size,
        influence=influence,
        diagnostics={"m_target": int(target.size)},
    )


def estimate_naive(dataset: Dataset) -> EffectEstimate:
    """Unadjusted contrast mean((2a - 1) y), with its sampling variance.

    Deliberately the raw signed mean rather than a difference of arm
    means: this is the no-adjustment reference the robust estimate is
    compared against.
    """
    dataset.require_both_arms()
    y, a = dataset.y, dataset.a.astype(np.float64)
    summand = (2.0 * a - 1.0) * y
    tau = float(summand.mean())
    influence = summand - tau
    variance, se, ci = variance_ci(influence, tau, dataset.n)
    return EffectEstimate(
        estimand="naive",
        tau_hat=tau,
        variance_hat=variance,
        standard_error=se,
        ci95=ci,
        n=dataset.n,
        influence=influence,
    )


def estimate_effect(
    dataset: Dataset,
    kind: str = EstimandKind.IATE,
    outcome_spec: ModelSpec | None = None,
    propensity_spec: ModelSpec | None = None,
    k: int = 5,
    seed: int = 0,
    clip: ClipPolicy = ClipPolicy(),
    target_features: np.ndarray | None = None,
    return_parts: bool = False,
):
    """One-shot pipeline: cross-fit nuisances, build weights, estimate.

    ``target_features`` is the general estimand's target corpus and is
    rejected for any other kind. Returns the :class:`EffectEstimate`, or
    ``(estimate, fits, weights)`` when ``return_parts`` is set (the
    sensitivity audit consumes the parts).
    """
    if kind not in EstimandKind.ALL:
        raise ValueError(f"unknown estimand kind {kind!r}")
    if kind == EstimandKind.GENERAL and target_features is None:
        raise ValidationError("general estimand requires a target feature matrix")
    if kind != EstimandKind.GENERAL and target_features is not None:
        raise ValueError("target_features is only meaningful for the general estimand")
    fits = crossfit_nuisances(dataset, outcome_spec, propensity_spec, k=k, seed=seed,
                              clip=clip, target_features=target_features)
    weights = weights_for(fits, dataset.a, kind)
    est = estimate_dr(fits, weights, dataset)
    return (est, fits, weights) if return_parts else est
