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

Both loops are cores that take a precomputed standardization and Gram matrix
(:class:`Design`) and a starting point. ``enet_linear_path`` and
``enet_logistic_path`` solve a whole penalty grid on one design, from the
strongest penalty down, each solve warm-started from the one before (the
regularization paths of Friedman, Hastie & Tibshirani, JSS 2010);
``fit_enet_linear`` and ``fit_enet_logistic`` are the one-penalty case,
solved from zero. Most of a path's saving over separate fits is the shared
standardization and Gram matrix; the warm starts also trim the sweeps.
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
    "enet_linear_path",
    "enet_logistic_path",
    "linear_objective_std",
    "logistic_objective_std",
]


def standardize_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center and scale columns; constant columns become all-zero with scale 1."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return (X - mean) / scale, mean, scale


def _soft(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def _penalty(w: np.ndarray, alpha: float, l1_ratio: float) -> float:
    return alpha * (l1_ratio * np.abs(w).sum() + 0.5 * (1.0 - l1_ratio) * w @ w)


def linear_objective_std(Z, yc, w, alpha, l1_ratio) -> float:
    """Elastic-net objective on pre-centered data (no intercept term)."""
    r = yc - Z @ w
    return 0.5 * (r @ r) / len(yc) + _penalty(w, alpha, l1_ratio)


def logistic_objective_std(Z, y, w, b, C, l1_ratio) -> float:
    """Penalized mean logistic loss on standardized data."""
    eta = b + Z @ w
    s = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    loss = np.logaddexp(0.0, -s * eta).mean()
    return loss + _penalty(w, 1.0 / (C * len(y)), l1_ratio)


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


def _linear_cd(G, q, w, alpha, l1_ratio, tol, max_sweeps, base=None):
    """Cyclic coordinate descent on the Gram form, from ``w`` (updated in place).

    ``G = Z'Z/n`` and ``q = Z'yc/n``. Returns ``(sweeps, converged, trace)``;
    the objective is traced per sweep only when ``base = yc'yc/(2n)`` is given.
    """
    diag = G.diagonal()
    order = np.flatnonzero(diag > 0)  # constant columns stay at zero
    denom = diag + alpha * (1.0 - l1_ratio)
    threshold = alpha * l1_ratio
    eff_tol = tol if alpha > 0 else min(tol, 1e-12)
    c = q - G @ w  # (1/n) Z^T (yc - Z w)
    trace: list[float] = []
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        sweeps += 1
        delta_max = 0.0
        for j in order:
            rho = c[j] + diag[j] * w[j]
            w_new = _soft(rho, threshold) / denom[j]
            step = w_new - w[j]
            if step != 0.0:
                c -= step * G[:, j]
                w[j] = w_new
                adelta = abs(step)
                if adelta > delta_max:
                    delta_max = adelta
        if base is not None:
            # objective from Gram caches: 0.5 w'Gw - q'w + const + penalty
            quad = 0.5 * float(w @ (q - c)) - float(q @ w)
            trace.append(base + quad + _penalty(w, alpha, l1_ratio))
        if delta_max < eff_tol:
            converged = True
            break
        if sweeps % 1024 == 0:  # kill accumulated float drift in c
            c = q - G @ w
    return sweeps, converged, trace


def _logistic_cd(Z, y, G4, w, b, alpha, l1_ratio, tol, max_passes, track):
    """Majorized coordinate descent from ``(w, b)``.

    ``G4 = Z'Z/(4n)`` is the curvature bound of the smooth part. Returns
    ``(w, b, passes, converged, trace)``.
    """
    n, d = Z.shape
    diag4 = G4.diagonal()
    order = np.flatnonzero(diag4 > 0)
    denom = diag4 + alpha * (1.0 - l1_ratio)
    threshold = alpha * l1_ratio
    trace: list[float] = []
    passes = 0
    converged = False
    while passes < max_passes:
        passes += 1
        eta = b + Z @ w
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-eta))
        resid = y - p
        if track:
            s = 2.0 * y - 1.0
            trace.append(
                float(np.logaddexp(0.0, -s * eta).mean()) + _penalty(w, alpha, l1_ratio)
            )
        db = 4.0 * float(resid.mean())  # exact minimizer of the surrogate in b
        b += db

        # CD on the surrogate: variables u = w' - w, residual correlations
        # tracked through the Gram cache. A handful of inner sweeps per pass
        # amortizes the O(nd) gradient refresh.
        u = np.zeros(d)
        c = (Z.T @ resid) / n  # minus the smooth-part gradient in w, at u = 0
        pass_delta = abs(db)
        for _ in range(10):
            delta_max = 0.0
            for j in order:
                # working correlation for the coordinate value w_j + u_j
                rho = c[j] + diag4[j] * (w[j] + u[j])
                w_new = _soft(rho, threshold) / denom[j]
                step = w_new - (w[j] + u[j])
                if step != 0.0:
                    c -= step * G4[:, j]
                    u[j] = w_new - w[j]
                    adelta = abs(step)
                    if adelta > delta_max:
                        delta_max = adelta
            if delta_max > pass_delta:
                pass_delta = delta_max
            if delta_max < tol:
                break
        w = w + u
        if pass_delta < tol:
            converged = True
            break
    return w, b, passes, converged, trace


def enet_linear_path(
    X: np.ndarray | Design,
    y: np.ndarray,
    alphas: Sequence[float],
    l1_ratio: float,
    tol: float = 1e-7,
    max_sweeps: int = 100_000,
    track_objective: bool = False,
) -> list[LinearFit]:
    """Linear elastic net at every penalty in ``alphas``, one fit each, in that order.

    The penalties are solved from the strongest down on one standardization
    and Gram matrix, each solve starting from the previous solution. ``X``
    may be a :class:`Design` already prepared from the features, so several
    paths on the same rows share it. Every solve has the convergence rule of
    :func:`fit_enet_linear`.
    """
    if any(alpha < 0 for alpha in alphas) or not 0.0 <= l1_ratio <= 1.0:
        raise ValueError("need alpha >= 0 and l1_ratio in [0, 1]")
    design = X if isinstance(X, Design) else prepare_design(X)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = len(y)
    y_mean = y.mean()
    yc = y - y_mean
    G = design.cross / n
    q = (design.Z.T @ yc) / n
    base = 0.5 * float(yc @ yc) / n if track_objective else None

    w = np.zeros(design.Z.shape[1])
    fits: list = [None] * len(alphas)
    for i in sorted(range(len(alphas)), key=lambda i: -alphas[i]):
        sweeps, converged, trace = _linear_cd(G, q, w, alphas[i], l1_ratio, tol, max_sweeps, base)
        coef = w / design.scale
        fits[i] = LinearFit(
            coef=coef,
            intercept=y_mean - float(coef @ design.mean),
            coef_std=w.copy(),
            alpha=alphas[i],
            l1_ratio=l1_ratio,
            n_sweeps=sweeps,
            converged=converged,
            objective_trace=tuple(trace),
        )
    return fits


def fit_enet_linear(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    l1_ratio: float,
    tol: float = 1e-7,
    max_sweeps: int = 100_000,
    track_objective: bool = False,
) -> LinearFit:
    """Cyclic coordinate descent for the linear elastic net, from zero.

    Convergence is declared when the largest coefficient change in a sweep
    drops below ``tol`` (standardized scale). At ``alpha == 0`` the tolerance
    tightens to 1e-12 because the zero-penalty contract is exact
    least-squares agreement, not merely a stationary penalty solution.
    """
    return enet_linear_path(X, y, [alpha], l1_ratio, tol, max_sweeps, track_objective)[0]


def enet_logistic_path(
    X: np.ndarray | Design,
    y: np.ndarray,
    Cs: Sequence[float],
    l1_ratio: float,
    tol: float = 1e-7,
    max_passes: int = 5_000,
    track_objective: bool = False,
) -> list[LogisticFit]:
    """Logistic elastic net at every ``C`` in ``Cs``, one fit each, in that order.

    Solved from the strongest penalty (smallest ``C``) up on one
    standardization and Gram matrix, each solve starting from the previous
    coefficients and intercept. ``X`` may be a prepared :class:`Design`, as
    for :func:`enet_linear_path`.
    """
    if any(C <= 0 for C in Cs) or not 0.0 <= l1_ratio <= 1.0:
        raise ValueError("need C > 0 and l1_ratio in [0, 1]")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("logistic targets must be 0/1")
    design = X if isinstance(X, Design) else prepare_design(X)
    n = len(y)
    G4 = design.cross / (4.0 * n)  # curvature-bound Hessian of the smooth part

    w = np.zeros(design.Z.shape[1])
    b = float(np.log(y.mean() / (1.0 - y.mean()))) if 0.0 < y.mean() < 1.0 else 0.0
    fits: list = [None] * len(Cs)
    for i in sorted(range(len(Cs)), key=lambda i: Cs[i]):
        w, b, passes, converged, trace = _logistic_cd(
            design.Z, y, G4, w, b, 1.0 / (Cs[i] * n), l1_ratio, tol, max_passes,
            track_objective,
        )
        fits[i] = LogisticFit(
            coef=w / design.scale,
            intercept=b - float((w / design.scale) @ design.mean),
            coef_std=w,
            C=Cs[i],
            l1_ratio=l1_ratio,
            n_passes=passes,
            converged=converged,
            objective_trace=tuple(trace),
        )
    return fits


def fit_enet_logistic(
    X: np.ndarray,
    y: np.ndarray,
    C: float,
    l1_ratio: float,
    tol: float = 1e-7,
    max_passes: int = 5_000,
    track_objective: bool = False,
) -> LogisticFit:
    """Majorized coordinate descent for the logistic elastic net, from zero.

    Each outer pass refreshes probabilities, minimizes the curvature-bound
    quadratic surrogate over the intercept, and runs coordinate-descent
    sweeps on the cached Gram matrix. The surrogate touches the objective at
    the current iterate, so every pass is a descent step. The intercept
    starts at the log-odds of the base rate.
    """
    return enet_logistic_path(X, y, [C], l1_ratio, tol, max_passes, track_objective)[0]
