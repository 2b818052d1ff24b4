"""Scalar coordinate-descent paths, one problem and one coordinate at a time.

The reference that the batched cores of ``isoeffect.elasticnet`` must
reproduce bit for bit: the same updates in the same order, with Python-level
soft thresholding and one coordinate update per loop step. Each path returns
the package's own ``LinearFit`` / ``LogisticFit`` objects, so every field can
be compared exactly.
"""

from __future__ import annotations

import numpy as np

from isoeffect.elasticnet import Design, LinearFit, LogisticFit, prepare_design


def _soft(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def _linear_cd(G, q, w, alpha, l1_ratio, tol, max_sweeps):
    diag = G.diagonal()
    order = np.flatnonzero(diag > 0)  # constant columns stay at zero
    denom = diag + alpha * (1.0 - l1_ratio)
    threshold = alpha * l1_ratio
    eff_tol = tol if alpha > 0 else min(tol, 1e-12)
    c = q - G @ w
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
                delta_max = max(delta_max, abs(step))
        if delta_max < eff_tol:
            converged = True
            break
        if sweeps % 1024 == 0:
            c = q - G @ w
    return sweeps, converged


def _logistic_cd(Z, y, G4, w, b, alpha, l1_ratio, tol, max_passes):
    n, d = Z.shape
    diag4 = G4.diagonal()
    order = np.flatnonzero(diag4 > 0)
    denom = diag4 + alpha * (1.0 - l1_ratio)
    threshold = alpha * l1_ratio
    passes = 0
    converged = False
    while passes < max_passes:
        passes += 1
        eta = b + Z @ w
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-eta))
        resid = y - p
        db = 4.0 * float(resid.mean())
        b += db
        u = np.zeros(d)
        c = (Z.T @ resid) / n
        pass_delta = abs(db)
        for _ in range(10):
            delta_max = 0.0
            for j in order:
                rho = c[j] + diag4[j] * (w[j] + u[j])
                w_new = _soft(rho, threshold) / denom[j]
                step = w_new - (w[j] + u[j])
                if step != 0.0:
                    c -= step * G4[:, j]
                    u[j] = w_new - w[j]
                    delta_max = max(delta_max, abs(step))
            pass_delta = max(pass_delta, delta_max)
            if delta_max < tol:
                break
        w = w + u
        if pass_delta < tol:
            converged = True
            break
    return w, b, passes, converged


def linear_path(X, y, alphas, l1_ratio, tol=1e-7, max_sweeps=100_000):
    design = X if isinstance(X, Design) else prepare_design(X)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = len(y)
    y_mean = y.mean()
    yc = y - y_mean
    G = design.cross / n
    q = (design.Z.T @ yc) / n
    w = np.zeros(design.Z.shape[1])
    fits: list = [None] * len(alphas)
    for i in sorted(range(len(alphas)), key=lambda i: -alphas[i]):
        sweeps, converged = _linear_cd(G, q, w, alphas[i], l1_ratio, tol, max_sweeps)
        coef = w / design.scale
        fits[i] = LinearFit(
            coef=coef, intercept=y_mean - float(coef @ design.mean), coef_std=w.copy(),
            alpha=alphas[i], l1_ratio=l1_ratio, n_sweeps=sweeps, converged=converged,
        )
    return fits


def logistic_path(X, y, Cs, l1_ratio, tol=1e-7, max_passes=5_000):
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    design = X if isinstance(X, Design) else prepare_design(X)
    n = len(y)
    G4 = design.cross / (4.0 * n)
    w = np.zeros(design.Z.shape[1])
    b = float(np.log(y.mean() / (1.0 - y.mean()))) if 0.0 < y.mean() < 1.0 else 0.0
    fits: list = [None] * len(Cs)
    for i in sorted(range(len(Cs)), key=lambda i: Cs[i]):
        w, b, passes, converged = _logistic_cd(
            design.Z, y, G4, w, b, 1.0 / (Cs[i] * n), l1_ratio, tol, max_passes,
        )
        fits[i] = LogisticFit(
            coef=w / design.scale, intercept=b - float((w / design.scale) @ design.mean),
            coef_std=w, C=Cs[i], l1_ratio=l1_ratio, n_passes=passes, converged=converged,
        )
    return fits
