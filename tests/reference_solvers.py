"""Independent reference implementations used as test oracles.

Every solver here deliberately uses a *different* algorithm from the package
implementation, so agreement is evidence of correctness rather than a shared
bug:

- linear elastic net: projected gradient on the positive/negative split
  (u, v >= 0, w = u - v), versus the package's Gram coordinate descent;
- logistic elastic net: proximal gradient (ISTA) with a global Lipschitz
  step, versus the package's majorized coordinate descent;
- boosted trees: exhaustive threshold search with plain per-side sums,
  versus the package's binned right-of-cut histogram split finder.

All reference solvers work on the standardized problem (columns centered and
scaled to unit standard deviation, response centered for the linear case),
matching the scale on which the package applies its penalty.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit


# ---------------------------------------------------------------------------
# elastic net, linear
# ---------------------------------------------------------------------------


def standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return (X - mean) / scale, mean, scale


def enet_linear_objective(Z: np.ndarray, yc: np.ndarray, w: np.ndarray,
                          alpha: float, l1_ratio: float) -> float:
    """(1/2n)||yc - Zw||^2 + alpha (r ||w||_1 + (1-r)/2 ||w||^2), computed directly."""
    r = yc - Z @ w
    n = len(yc)
    pen = alpha * (l1_ratio * np.abs(w).sum() + 0.5 * (1.0 - l1_ratio) * w @ w)
    return float(0.5 * (r @ r) / n + pen)


def solve_enet_linear_pg(
    Z: np.ndarray,
    yc: np.ndarray,
    alpha: float,
    l1_ratio: float,
    max_iter: int = 300_000,
    tol: float = 1e-13,
) -> np.ndarray:
    """Projected gradient on the split formulation of the linear elastic net.

    With w = u - v, u, v >= 0 the l1 term becomes linear, so the whole
    problem is smooth over the nonnegative orthant and plain projected
    gradient with a 1/L step converges. Slow but simple: the point is to be
    obviously correct, not fast.
    """
    n, d = Z.shape
    A = Z.T @ Z / n + alpha * (1.0 - l1_ratio) * np.eye(d)
    q = Z.T @ yc / n
    L = 2.0 * float(np.linalg.eigvalsh(A).max())  # block Hessian [[A,-A],[-A,A]]
    step = 1.0 / L
    lin = alpha * l1_ratio
    u = np.zeros(d)
    v = np.zeros(d)
    for _ in range(max_iter):
        grad_w = A @ (u - v) - q
        u_new = np.maximum(u - step * (grad_w + lin), 0.0)
        v_new = np.maximum(v - step * (-grad_w + lin), 0.0)
        delta = max(np.abs(u_new - u).max(), np.abs(v_new - v).max(), 0.0)
        u, v = u_new, v_new
        if delta < tol:
            break
    return u - v


def kkt_residual_linear(Z: np.ndarray, yc: np.ndarray, w: np.ndarray,
                        alpha: float, l1_ratio: float) -> float:
    """Max violation of the elastic-net stationarity conditions at w.

    For w_j != 0 the smooth gradient must cancel -alpha r sign(w_j); for
    w_j == 0 its magnitude must not exceed alpha r. Zero at an exact optimum.
    """
    n = len(yc)
    grad = Z.T @ (Z @ w - yc) / n + alpha * (1.0 - l1_ratio) * w
    lin = alpha * l1_ratio
    res = np.where(
        w != 0.0,
        np.abs(grad + lin * np.sign(w)),
        np.maximum(np.abs(grad) - lin, 0.0),
    )
    return float(res.max()) if res.size else 0.0


# ---------------------------------------------------------------------------
# elastic net, logistic
# ---------------------------------------------------------------------------


def enet_logistic_objective(Z: np.ndarray, y: np.ndarray, w: np.ndarray,
                            b: float, C: float, l1_ratio: float) -> float:
    """Mean logistic loss plus the 1/(Cn)-scaled elastic-net penalty."""
    eta = b + Z @ w
    s = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    loss = np.logaddexp(0.0, -s * eta).mean()
    alpha = 1.0 / (C * len(y))
    pen = alpha * (l1_ratio * np.abs(w).sum() + 0.5 * (1.0 - l1_ratio) * w @ w)
    return float(loss + pen)


def solve_enet_logistic_ista(
    Z: np.ndarray,
    y: np.ndarray,
    C: float,
    l1_ratio: float,
    max_iter: int = 200_000,
    tol: float = 1e-12,
) -> tuple[np.ndarray, float]:
    """Proximal gradient (ISTA) for the logistic elastic net.

    Joint step over (w, b) with the Lipschitz constant of the smooth part,
    soft-thresholding w only (the intercept is unpenalized).
    """
    n, d = Z.shape
    y = np.asarray(y, dtype=np.float64)
    alpha = 1.0 / (C * n)
    M = np.column_stack([np.ones(n), Z])
    L = float(np.linalg.eigvalsh(M.T @ M).max()) / (4.0 * n) + alpha * (1.0 - l1_ratio)
    step = 1.0 / L
    thr = step * alpha * l1_ratio
    w = np.zeros(d)
    b = 0.0
    for _ in range(max_iter):
        p = expit(b + Z @ w)
        gw = Z.T @ (p - y) / n + alpha * (1.0 - l1_ratio) * w
        gb = float((p - y).mean())
        z = w - step * gw
        w_new = np.sign(z) * np.maximum(np.abs(z) - thr, 0.0)
        b_new = b - step * gb
        delta = max(float(np.abs(w_new - w).max()) if d else 0.0, abs(b_new - b))
        w, b = w_new, b_new
        if delta < tol:
            break
    return w, b


# ---------------------------------------------------------------------------
# boosted trees
# ---------------------------------------------------------------------------


def best_split_exhaustive(X: np.ndarray, g: np.ndarray, h: np.ndarray,
                          eps_hess: float = 1e-12):
    """Best (gain, feature, threshold) by brute force over every midpoint.

    Gain is GL^2/HL + GR^2/HR with rows sent right when x > threshold,
    sides summed directly (no prefix scans). Returns None when no valid
    split exists.
    """
    n, d = X.shape
    best = None
    for j in range(d):
        vals = np.unique(X[:, j])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (lo + hi)
            right = X[:, j] > thr
            HL = float(h[~right].sum())
            HR = float(h[right].sum())
            if HL <= eps_hess or HR <= eps_hess:
                continue
            GL = float(g[~right].sum())
            GR = float(g[right].sum())
            gain = GL * GL / HL + GR * GR / HR
            if best is None or gain > best[0]:
                best = (gain, j, thr)
    return best


def reference_tree_values(X: np.ndarray, g: np.ndarray, h: np.ndarray,
                          max_depth: int, min_leaf: int = 1) -> np.ndarray:
    """Per-row leaf values of a greedy exhaustive-search tree.

    Mirrors the package's growth policy (leaf value sum(g)/sum(h), split only
    when the gain improves on the unsplit score by more than 1e-12, rows with
    x > threshold go right) but finds splits by brute force.
    """
    out = np.empty(X.shape[0])

    def rec(rows: np.ndarray, depth: int) -> None:
        gs, hs = float(g[rows].sum()), float(h[rows].sum())
        val = gs / hs if hs > 1e-12 else 0.0
        if depth >= max_depth or rows.size < 2 * min_leaf:
            out[rows] = val
            return
        base = gs * gs / hs if hs > 1e-12 else 0.0
        found = best_split_exhaustive(X[rows], g[rows], h[rows])
        if found is None or found[0] - base <= 1e-12:
            out[rows] = val
            return
        _, j, thr = found
        right = X[rows, j] > thr
        if right.sum() < min_leaf or (~right).sum() < min_leaf:
            out[rows] = val
            return
        rec(rows[right], depth + 1)
        rec(rows[~right], depth + 1)

    rec(np.arange(X.shape[0]), 0)
    return out


def reference_boost_regression(X: np.ndarray, y: np.ndarray, depth: int,
                               n_trees: int, learning_rate: float) -> np.ndarray:
    """Full-sample least-squares boosting using the exhaustive tree oracle."""
    score = np.full(X.shape[0], y.mean())
    for _ in range(n_trees):
        resid = y - score
        if np.abs(resid).max() < 1e-12:
            break
        score = score + learning_rate * reference_tree_values(
            X, resid, np.ones_like(resid), depth
        )
    return score
