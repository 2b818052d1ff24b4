"""Elastic-net linear and logistic solvers via coordinate descent.

Both solvers standardize feature columns internally (mean 0, standard
deviation 1), leave the intercept unpenalized, and report coefficients on
the original feature scale. The penalty applies to the standardized
coefficients.

Objectives, for standardized design ``Z`` with n rows:

- linear:   (1/2n) ||y - b - Z w||^2 + alpha * (r ||w||_1 + (1-r)/2 ||w||^2)
- logistic: (1/n) sum log(1 + exp(-s_i eta_i)) + (1/(C n)) * (r ||w||_1 + (1-r)/2 ||w||^2)

with ``s = 2y - 1`` and ``eta = b + Z w``; ``C`` is the usual inverse
regularization strength for classifiers.

The linear solver runs cyclic coordinate descent on a cached Gram matrix, so
each sweep costs O(d^2) instead of O(n d). The logistic solver wraps the same
sweep inside a quadratic majorization with the global curvature bound 1/4,
which makes the true objective non-increasing across passes by construction.

Both solvers are batched cores. Each runs P problems at once; every problem
has its own :class:`Design` (a precomputed standardization and Gram matrix),
target, ``l1_ratio`` and penalty grid, and walks its grid from the strongest
penalty down, each solve warm-started from the one before (the
regularization paths of Friedman, Hastie & Tibshirani, JSS 2010). Coordinate
state lives in ``(d, P)`` arrays, so a few numpy operations update
coordinate j of every live problem; a problem that converges or reaches its
iteration cap moves on to its next penalty or leaves the batch. Every
elementwise step is the scalar rule, and sums over a problem's rows (the
logistic gradient refresh) run one problem at a time, so each problem's fits
equal bit for bit those of solving it alone. ``enet_linear_paths`` and
``enet_logistic_paths`` take a batch of paths; ``fit_enet_linear`` and
``fit_enet_logistic`` are the one-path, one-penalty case, solved from zero.
A batch costs about a dozen numpy calls per coordinate and sweep whatever
its width, so it pays off when wide: the inner-CV grid of one nuisance is 5
folds times 8 ``l1_ratio`` values, 40 problems.

The stopping rule is fixed. A linear solve converges once the largest
coefficient step of a sweep (standardized scale) is below 1e-7, or below
1e-12 at ``alpha == 0``, where the contract is exact least-squares
agreement; it stops unconverged after 100,000 sweeps. A logistic solve
converges once no intercept or coefficient step of a pass reaches 1e-7, and
stops unconverged after 5,000 passes (``enet_logistic_paths`` can lower
that cap). Its intercept starts at the log-odds of the base rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Design",
    "LinearFit",
    "LogisticFit",
    "standardize_columns",
    "prepare_design",
    "fit_enet_linear",
    "fit_enet_logistic",
    "enet_linear_paths",
    "enet_logistic_paths",
]


_TOL = 1e-7
_MAX_SWEEPS = 100_000
_MAX_PASSES = 5_000


def standardize_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center and scale columns; constant columns become all-zero with scale 1.

    A column is constant when its standard deviation is at most 1e-12 times
    its magnitude (``max(|mean|, 1)``): a constant such as 0.1 has a computed
    mean a rounding error off its value, and so a tiny nonzero deviation.
    """
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    dead = scale <= 1e-12 * np.maximum(np.abs(mean), 1.0)
    scale[dead] = 1.0
    Z = (X - mean) / scale
    Z[:, dead] = 0.0
    return Z, mean, scale


def _penalty(w: np.ndarray, alpha: float, l1_ratio: float) -> float:
    return alpha * (l1_ratio * np.abs(w).sum() + 0.5 * (1.0 - l1_ratio) * w @ w)


@dataclass(frozen=True)
class LinearFit:
    """Solution of the linear elastic net, coefficients on the original scale."""

    coef: np.ndarray
    intercept: float
    coef_std: np.ndarray
    alpha: float
    l1_ratio: float
    n_sweeps: int
    converged: bool
    objective_trace: tuple[float, ...]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.coef + self.intercept


@dataclass(frozen=True)
class LogisticFit:
    """Solution of the logistic elastic net, coefficients on the original scale."""

    coef: np.ndarray
    intercept: float
    coef_std: np.ndarray
    C: float
    l1_ratio: float
    n_passes: int
    converged: bool
    objective_trace: tuple[float, ...]

    def decision(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.coef + self.intercept

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        eta = self.decision(X)
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-eta))


@dataclass(frozen=True)
class Design:
    """Standardized design and its cross-product ``Z'Z``, shared by every solve on it."""

    Z: np.ndarray
    mean: np.ndarray
    scale: np.ndarray
    cross: np.ndarray


def prepare_design(X: np.ndarray) -> Design:
    """Standardize ``X`` once and cache its cross-product for every solve on it."""
    Z, mean, scale = standardize_columns(X)
    return Design(Z=Z, mean=mean, scale=scale, cross=Z.T @ Z)


class _Walk:
    """One problem of a batch: its data, its penalty order and the fits so far."""

    def __init__(self, X, y, penalties, l1_ratio, strength):
        self.design = X if isinstance(X, Design) else prepare_design(X)
        self.y = y
        self.n = len(y)
        self.penalties = tuple(penalties)
        self.l1_ratio = l1_ratio
        # strongest penalty first: ascending ``strength``, ties in grid order
        self.order = sorted(range(len(self.penalties)), key=lambda i: strength(self.penalties[i]))
        self.fits: list = [None] * len(self.penalties)
        self.at = 0  # position in ``order`` of the penalty being solved
        self.trace: list[float] = []

    @property
    def penalty(self):
        return self.penalties[self.order[self.at]]

    def advance(self, fit) -> bool:
        """Store the fit at the current penalty; False once the grid is done."""
        self.fits[self.order[self.at]] = fit
        self.at += 1
        return self.at < len(self.order)


def _stack(walks: list[_Walk], curvature: list[np.ndarray]):
    """Diagonals ``(d, P)`` and columns ``cols[j] = (d, P)`` of every problem's Gram."""
    widths = {walk.design.Z.shape[1] for walk in walks}
    if len(widths) > 1:
        raise ValueError("every problem in a batch needs the same number of columns")
    diag = np.stack([G.diagonal() for G in curvature], axis=1)
    cols = np.stack([G.T for G in curvature], axis=2)
    return diag, cols


def _denominators(diag: np.ndarray, ridge: float) -> np.ndarray:
    # a coordinate that is constant on a problem's rows has a zero diagonal
    # and zero Gram entries; an infinite denominator pins it at zero
    return np.where(diag > 0, diag + ridge, np.inf)


def _sweep(C, U, W, diag, denom, lo, hi, cols) -> np.ndarray:
    """One cyclic coordinate sweep of every column (problem) of the batch at once.

    ``C`` holds the working correlations and ``U`` the moves made from ``W``
    (``W=None``: ``U`` is the iterate itself). Coordinate j moves to
    soft(rho, hi) / denom with rho = C[j] + diag[j] * (W[j] + U[j]); the soft
    threshold is written ``rho - clip(rho, lo, hi)``, which equals the scalar
    rule bit for bit. Where a step is zero the move is kept as it was, as a
    loop that skips zero steps would. Without ``W`` a zero step means the new
    value equals the stored one (a zero is never stored as -0.0), so it is
    stored unmasked. Returns each column's largest step.
    """
    steps = np.empty_like(C)
    if W is None:
        for Cj, Uj, dj, nj, gj, sj in zip(C, U, diag, denom, cols, steps):
            rho = Cj + dj * Uj
            new = (rho - np.minimum(np.maximum(rho, lo), hi)) / nj
            np.subtract(new, Uj, out=sj)
            C -= sj * gj
            Uj[...] = new
    else:
        for Cj, Uj, Wj, dj, nj, gj, sj in zip(C, U, W, diag, denom, cols, steps):
            cur = Wj + Uj
            rho = Cj + dj * cur
            new = (rho - np.minimum(np.maximum(rho, lo), hi)) / nj
            np.subtract(new, cur, out=sj)
            C -= sj * gj
            np.copyto(Uj, new - Wj, where=sj != 0.0)
    return np.fmax.reduce(np.abs(steps), axis=0, initial=0.0)


def _linear_paths(walks: list[_Walk], track: bool) -> None:
    """Cyclic coordinate descent on the Gram form for a batch of linear paths.

    Per problem, ``G = Z'Z/n``, ``q = Z'yc/n`` and ``c = q - G w``; a penalty
    is solved once the largest coordinate step of a sweep drops below its
    tolerance, or after ``_MAX_SWEEPS`` sweeps. Finished problems move on to
    their next penalty, warm-started, or leave the batch.
    """
    y_means = [walk.y.mean() for walk in walks]
    ycs = [walk.y - m for walk, m in zip(walks, y_means)]
    Gs = [walk.design.cross / walk.n for walk in walks]
    qs = [(walk.design.Z.T @ yc) / walk.n for walk, yc in zip(walks, ycs)]
    bases = [0.5 * float(yc @ yc) / walk.n for walk, yc in zip(walks, ycs)]
    diag, cols = _stack(walks, Gs)
    d, P = diag.shape
    ids = np.arange(P)
    U = np.zeros((d, P))  # standardized coefficients
    C = np.empty((d, P))
    denom = np.empty((d, P))
    hi = np.empty(P)
    tols = np.empty(P)
    sweeps = np.zeros(P, dtype=np.int64)

    def enter(col):
        p = ids[col]
        walk, alpha = walks[p], walks[p].penalty
        denom[:, col] = _denominators(diag[:, col], alpha * (1.0 - walk.l1_ratio))
        hi[col] = alpha * walk.l1_ratio
        tols[col] = _TOL if alpha > 0 else 1e-12
        C[:, col] = qs[p] - Gs[p] @ np.ascontiguousarray(U[:, col])
        sweeps[col] = 0
        walk.trace = []

    for col in range(P):
        enter(col)
    while ids.size:
        delta = _sweep(C, U, None, diag, denom, -hi, hi, cols)
        sweeps += 1
        if track:
            for col, p in enumerate(ids):
                w, c, q = np.ascontiguousarray(U[:, col]), np.ascontiguousarray(C[:, col]), qs[p]
                # objective from Gram caches: 0.5 w'Gw - q'w + const + penalty
                quad = 0.5 * float(w @ (q - c)) - float(q @ w)
                walk = walks[p]
                walk.trace.append(bases[p] + quad + _penalty(w, walk.penalty, walk.l1_ratio))
        converged = delta < tols
        done = converged | (sweeps >= _MAX_SWEEPS)
        if sweeps.max() >= 1024:
            for col in np.flatnonzero(~done & (sweeps % 1024 == 0)):  # kill float drift in c
                C[:, col] = qs[ids[col]] - Gs[ids[col]] @ np.ascontiguousarray(U[:, col])
        if not done.any():
            continue
        keep = np.ones(len(ids), dtype=bool)
        for col in np.flatnonzero(done):
            p = ids[col]
            walk, w = walks[p], U[:, col].copy()
            coef = w / walk.design.scale
            fit = LinearFit(
                coef=coef,
                intercept=y_means[p] - float(coef @ walk.design.mean),
                coef_std=w,
                alpha=walk.penalty,
                l1_ratio=walk.l1_ratio,
                n_sweeps=int(sweeps[col]),
                converged=bool(converged[col]),
                objective_trace=tuple(walk.trace),
            )
            if walk.advance(fit):
                enter(col)
            else:
                keep[col] = False
        if not keep.all():
            ids, U, C, denom, diag, hi, tols, sweeps, cols = (
                a[..., keep] for a in (ids, U, C, denom, diag, hi, tols, sweeps, cols)
            )


def _logistic_paths(walks: list[_Walk], max_passes: int, track: bool) -> None:
    """Majorized coordinate descent for a batch of logistic paths.

    A problem's pass refreshes its probabilities and gradient on its own rows
    (one call per problem, so every sum runs in the order of a lone fit),
    steps the intercept, then runs up to 10 coordinate sweeps on the
    surrogate with curvature ``Z'Z/(4n)``, stopping early once its largest
    step drops below ``_TOL``. Every live problem sweeps once per round, each
    in its own pass: a problem whose pass ends starts its next pass, with a
    refresh, in the next round. A penalty is solved once no intercept or
    coordinate step of a pass reaches ``_TOL``, or after ``max_passes``
    passes.
    """
    G4s = [walk.design.cross / (4.0 * walk.n) for walk in walks]
    diag, cols = _stack(walks, G4s)
    d, P = diag.shape
    b = []
    for walk in walks:
        rate = walk.y.mean()
        b.append(float(np.log(rate / (1.0 - rate))) if 0.0 < rate < 1.0 else 0.0)
    ids = np.arange(P)
    W = np.zeros((d, P))  # standardized coefficients at the start of the pass
    U = np.zeros((d, P))  # moves made in the pass
    C = np.empty((d, P))
    denom = np.empty((d, P))
    hi = np.empty(P)
    passes = np.zeros(P, dtype=np.int64)
    sweeps = np.zeros(P, dtype=np.int64)  # sweeps made in the pass; 0 until it starts
    delta = np.empty(P)  # largest intercept or coordinate step of the pass

    def enter(col):
        walk = walks[ids[col]]
        alpha = 1.0 / (walk.penalty * walk.n)
        denom[:, col] = _denominators(diag[:, col], alpha * (1.0 - walk.l1_ratio))
        hi[col] = alpha * walk.l1_ratio
        passes[col] = 0
        walk.trace = []

    for col in range(P):
        enter(col)
    starting = range(P)  # columns whose next sweep opens a pass
    with np.errstate(over="ignore"):
        while ids.size:
            for col in starting:
                p = ids[col]
                walk, w = walks[p], np.ascontiguousarray(W[:, col])
                eta = b[p] + walk.design.Z @ w
                resid = walk.y - 1.0 / (1.0 + np.exp(-eta))
                if track:
                    loss = float(np.logaddexp(0.0, -(2.0 * walk.y - 1.0) * eta).mean())
                    alpha = 1.0 / (walk.penalty * walk.n)
                    walk.trace.append(loss + _penalty(w, alpha, walk.l1_ratio))
                # exact minimizer of the surrogate in b; sum / n is resid.mean()
                db = 4.0 * (float(resid.sum()) / walk.n)
                b[p] += db
                C[:, col] = (walk.design.Z.T @ resid) / walk.n
                U[:, col] = 0.0
                delta[col] = abs(db)
                passes[col] += 1

            step = _sweep(C, U, W, diag, denom, -hi, hi, cols)
            delta = np.where(step > delta, step, delta)
            sweeps += 1
            starting = np.flatnonzero((step < _TOL) | (sweeps == 10))
            if not starting.size:
                continue
            W[:, starting] += U[:, starting]
            sweeps[starting] = 0
            converged = delta < _TOL
            done = starting[converged[starting] | (passes[starting] >= max_passes)]
            if not done.size:
                continue
            keep = np.ones(len(ids), dtype=bool)
            for col in done:
                p = ids[col]
                walk, w = walks[p], W[:, col].copy()
                fit = LogisticFit(
                    coef=w / walk.design.scale,
                    intercept=b[p] - float((w / walk.design.scale) @ walk.design.mean),
                    coef_std=w,
                    C=walk.penalty,
                    l1_ratio=walk.l1_ratio,
                    n_passes=int(passes[col]),
                    converged=bool(converged[col]),
                    objective_trace=tuple(walk.trace),
                )
                if walk.advance(fit):
                    enter(col)
                else:
                    keep[col] = False
            if not keep.all():
                ids, W, U, C, denom, diag, hi, passes, sweeps, delta, cols = (
                    a[..., keep]
                    for a in (ids, W, U, C, denom, diag, hi, passes, sweeps, delta, cols)
                )
                starting = np.flatnonzero(sweeps == 0)


def enet_linear_paths(
    problems: Sequence[tuple],
    track_objective: bool = False,
) -> list[list[LinearFit]]:
    """Linear elastic-net paths, several solved together.

    Each problem is the ``(X, y, alphas, l1_ratio)`` of one path: one fit per
    penalty in ``alphas``, in that order, solved from the strongest penalty
    down on one standardization and Gram matrix, each solve starting from
    the previous solution. ``X`` may be a :class:`Design` already prepared
    from the features, so several paths on the same rows share it. Every
    problem needs the same number of feature columns, and each problem's
    fits equal bit for bit those of solving it alone.
    """
    walks = []
    for X, y, alphas, l1_ratio in problems:
        if any(alpha < 0 for alpha in alphas) or not 0.0 <= l1_ratio <= 1.0:
            raise ValueError("need alpha >= 0 and l1_ratio in [0, 1]")
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        walks.append(_Walk(X, y, alphas, l1_ratio, lambda alpha: -alpha))
    live = [walk for walk in walks if walk.order]
    if live:
        _linear_paths(live, track_objective)
    return [walk.fits for walk in walks]


def fit_enet_linear(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    l1_ratio: float,
    track_objective: bool = False,
) -> LinearFit:
    """Cyclic coordinate descent for the linear elastic net, from zero."""
    return enet_linear_paths([(X, y, [alpha], l1_ratio)], track_objective)[0][0]


def enet_logistic_paths(
    problems: Sequence[tuple],
    max_passes: int = _MAX_PASSES,
    track_objective: bool = False,
) -> list[list[LogisticFit]]:
    """Logistic elastic-net paths, several solved together.

    Each problem is the ``(X, y, Cs, l1_ratio)`` of one path, solved from the
    strongest penalty (smallest ``C``) up, each solve starting from the
    previous coefficients and intercept; otherwise as
    :func:`enet_linear_paths`.
    """
    if max_passes < 1:
        raise ValueError("max_passes must be >= 1")
    walks = []
    for X, y, Cs, l1_ratio in problems:
        if any(C <= 0 for C in Cs) or not 0.0 <= l1_ratio <= 1.0:
            raise ValueError("need C > 0 and l1_ratio in [0, 1]")
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("logistic targets must be 0/1")
        walks.append(_Walk(X, y, Cs, l1_ratio, lambda C: C))
    live = [walk for walk in walks if walk.order]
    if live:
        _logistic_paths(live, max_passes, track_objective)
    return [walk.fits for walk in walks]


def fit_enet_logistic(
    X: np.ndarray,
    y: np.ndarray,
    C: float,
    l1_ratio: float,
    track_objective: bool = False,
) -> LogisticFit:
    """Majorized coordinate descent for the logistic elastic net, from zero."""
    return enet_logistic_paths([(X, y, [C], l1_ratio)], track_objective=track_objective)[0][0]
