"""Gradient-boosted regression trees for squared and logistic loss.

Stagewise boosting with shallow trees. Each stage fits a tree to the
negative gradient of the loss on a row subsample and takes a damped Newton
step per leaf (for squared loss the Newton step is the residual mean, so
this reduces to classic least-squares boosting). Splits maximize the usual
gain G_L^2/H_L + G_R^2/H_R - G^2/H, in the histogram style of Ke et al.,
"LightGBM" (NeurIPS 2017):

- **Cuts, once per fit.** A column's candidate thresholds are the midpoints
  between its adjacent distinct training values, so a binary column has the
  single cut 0.5. A column with more than 255 such midpoints keeps 255 of
  them, taken at evenly spaced quantiles of its values.
- **One matmul per level.** ``R`` is the n x cuts 0/1 matrix of "row lies
  right of cut", built once per fit and held only for that fit
  (n x cuts x 8 bytes, plus a 1-byte copy for routing rows; 160 rows x 16
  cuts is 20 kB, while 100k rows x 20 columns of 255 cuts would be 4 GB). Every node of a level gets its
  right-side gradient, hessian and row-count sums for every cut at once as
  ``[g*w, h*w, w] * node_onehot @ R``, where ``w`` marks the subsample; the
  left side is the node total minus the right side.
- **Flat trees.** A tree of depth D is stored in heap order (children of
  node i at 2i+1 and 2i+2) as a split column and threshold per internal
  node and a value per leaf; a node that does not split sends every row
  left through a ``+inf`` threshold. Rows with ``x > threshold`` go right,
  so a held-out value between two training values is routed by the bin
  edge, their midpoint.
- **Staged scores.** :meth:`GBTModel.raw` walks every tree at once, one
  level per step, and with ``stages=[k, ...]`` returns the score after the
  first k trees for each k, which is what a k-tree fit with the same seed
  would predict. Choosing a tree count therefore needs one fit at the
  largest count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["GBTModel", "fit_gbt_core"]

_EPS_HESS = 1e-12
MAX_CUTS = 255
MAX_DEPTH = 8
_PREDICT_BLOCK = 1 << 18  # trees x rows walked per step of GBTModel.raw


def _column_cuts(col: np.ndarray) -> np.ndarray:
    """Midpoints between adjacent distinct values, at most :data:`MAX_CUTS`."""
    vals = np.unique(col)
    if vals.size - 1 <= MAX_CUTS:
        return 0.5 * (vals[:-1] + vals[1:])
    ordered = np.sort(col)
    pos = np.arange(1, MAX_CUTS + 1) * ordered.size // (MAX_CUTS + 1)
    lo, hi = ordered[pos - 1], ordered[pos]
    keep = lo < hi
    return np.unique(0.5 * (lo[keep] + hi[keep]))


def _bin(X: np.ndarray):
    """Cut columns and thresholds plus ``R``, the right-of-cut matrix.

    ``R`` has two extra columns after the cuts: all zeros (the "no split"
    cut, which sends every row left) and all ones (node totals). The
    returned column and threshold arrays cover the "no split" cut too.
    """
    cuts = [_column_cuts(X[:, j]) for j in range(X.shape[1])]
    feature = np.repeat(np.arange(X.shape[1]), [c.size for c in cuts])
    threshold = np.concatenate(cuts + [np.array([np.inf])])
    R = np.zeros((X.shape[0], feature.size + 2))
    start = 0
    for j, c in enumerate(cuts):
        R[:, start:start + c.size] = X[:, j, None] > c
        start += c.size
    R[:, -1] = 1.0
    return np.append(feature, 0), threshold, R


def _split_gains(S: np.ndarray) -> np.ndarray:
    """Gain of every cut of every node from its right-side sums ``S``.

    ``S`` is (3, nodes, columns of R): gradient, hessian and row-count sums
    right of every cut, with the node totals in the last column. A cut is
    valid when both sides hold rows and hessian mass; an invalid one gets
    ``-inf``. The "no split" column gets the unsplit score ``G^2/H`` plus
    1e-12, so a node splits only on a cut that beats it by more than that.
    Call under ``np.errstate(divide="ignore", invalid="ignore")``.
    """
    L = S[:, :, -1:] - S
    unsplit = L[0] * L[0] / L[1]
    gain = np.where((L[2] > 0) & (np.minimum(S[1], L[1]) > _EPS_HESS),
                    unsplit + S[0] * S[0] / S[1], -np.inf)
    gain[:, -2] = unsplit[:, -2] + 1e-12
    return gain


def _grow(R: np.ndarray, right_of: np.ndarray, stats: np.ndarray, depth: int):
    """Grow one tree level by level; every row of ``R`` is routed.

    ``right_of`` is ``R`` as booleans, flattened. ``stats`` is (3, n):
    weighted gradient, weighted hessian and weight, so rows of weight 0
    follow the splits without shaping them. Returns the cut (column of
    ``R``) of every internal node in heap order and the leaf of every row.
    Call under ``np.errstate(divide="ignore", invalid="ignore")``.
    """
    n, width = R.shape
    no_split = width - 2
    row_start = np.arange(0, n * width, width)
    cut = np.full((1 << depth) - 1, no_split)
    node = np.zeros(n, dtype=np.intp)
    for level in range(depth):
        nodes = 1 << level
        weighted = stats
        if level:
            onehot = node == np.arange(nodes)[:, None]
            weighted = (stats[:, None, :] * onehot).reshape(3 * nodes, n)
        chosen = _split_gains((weighted @ R).reshape(3, nodes, width)).argmax(axis=1)
        cut[nodes - 1:2 * nodes - 1] = chosen
        node = 2 * node + right_of.take(row_start + chosen.take(node))
        if chosen.min() == no_split:
            node <<= depth - level - 1
            break
    return cut, node


def _leaf_values(leaf: np.ndarray, stats: np.ndarray, depth: int) -> np.ndarray:
    """Newton step ``sum(g) / sum(h)`` per leaf; 0 where the hessian vanishes.

    Call under ``np.errstate(divide="ignore", invalid="ignore")``.
    """
    G = np.bincount(leaf, weights=stats[0], minlength=1 << depth)
    H = np.bincount(leaf, weights=stats[1], minlength=1 << depth)
    return np.where(H > _EPS_HESS, G / H, 0.0)


def _sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True, eq=False)
class GBTModel:
    """Fitted boosted ensemble; prediction is ``init + sum(tree(x))``.

    ``feature`` and ``threshold`` are (trees, 2**depth - 1) in heap order;
    ``value`` is (trees, 2**depth) leaf steps with the learning rate
    already applied.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    init: float
    learning_rate: float
    classification: bool
    diagnostics: dict = field(default_factory=dict)

    def raw(self, X: np.ndarray, stages: Sequence[int] | None = None) -> np.ndarray:
        """Raw score of every row, or one row of scores per stage count.

        ``stages=[k, ...]`` gives, for each k, the score after the first k
        trees (all of them when k exceeds the count fitted); the result is
        then (len(stages), rows).
        """
        X = np.asarray(X, dtype=np.float64)
        n_trees, n_leaves = self.value.shape
        if stages is None:
            counts = np.array([n_trees])
        else:
            counts = np.minimum(np.asarray(stages, dtype=np.intp), n_trees)
            if counts.ndim != 1 or (counts < 0).any():
                raise ValueError("stages must be a sequence of non-negative tree counts")
        out = np.empty((counts.size, X.shape[0]))
        # entry (t, i) of a flat (trees, k) array is at t * k + i
        trees = np.arange(n_trees)[:, None]
        feature, threshold = self.feature.ravel(), self.threshold.ravel()
        block = max(1, _PREDICT_BLOCK // max(n_trees, 1))
        for start in range(0, X.shape[0], block):
            Xb = X[start:start + block]
            row_start = np.arange(Xb.shape[0])[None, :] * X.shape[1]
            node = np.zeros((n_trees, Xb.shape[0]), dtype=np.intp)
            for _ in range(n_leaves.bit_length() - 1):
                at = trees * (n_leaves - 1) + node
                right = Xb.take(row_start + feature.take(at)) > threshold.take(at)
                node = 2 * node + 1 + right
            steps = np.empty((n_trees + 1, Xb.shape[0]))
            steps[0] = self.init
            steps[1:] = self.value.take(trees * n_leaves + node - (n_leaves - 1))
            out[:, start:start + block] = np.cumsum(steps, axis=0)[counts]
        return out[0] if stages is None else out

    def predict(self, X: np.ndarray, stages: Sequence[int] | None = None) -> np.ndarray:
        return self.raw(X, stages)

    def predict_proba(self, X: np.ndarray, stages: Sequence[int] | None = None) -> np.ndarray:
        return _sigmoid(self.raw(X, stages))


def fit_gbt_core(
    X: np.ndarray,
    y: np.ndarray,
    classification: bool,
    depth: int = 2,
    n_trees: int = 100,
    learning_rate: float = 0.1,
    subsample: float = 0.7,
    seed: int = 0,
) -> GBTModel:
    """Fit a boosted tree ensemble; deterministic given ``seed``.

    Training stops early once the full-sample gradient vanishes (constant
    targets fit exactly). The per-stage training loss on the full sample is
    recorded in ``diagnostics['train_loss']``. The first k trees of a fit
    do not depend on ``n_trees``, so they are the trees a k-tree fit with
    the same seed would grow.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"tree depth must be in [1, {MAX_DEPTH}], got {depth}")
    if n_trees < 1:
        raise ValueError(f"need at least one boosting stage, got {n_trees}")
    if not 0.0 < subsample <= 1.0:
        raise ValueError(f"subsample must be in (0, 1], got {subsample}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot fit on an empty sample")
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("need a 2-D feature matrix with at least one column")

    if classification:
        p_bar = min(max(y.mean(), 1e-12), 1.0 - 1e-12)
        init = float(np.log(p_bar / (1.0 - p_bar)))
    else:
        init = float(y.mean())

    cut_feature, cut_threshold, R = _bin(X)
    right_of = (R > 0).ravel()
    rng = np.random.default_rng(seed)
    score = np.full(n, init)
    flip = 1.0 - 2.0 * y  # logistic loss is log(1 + exp(flip * score))
    cuts = np.empty((n_trees, (1 << depth) - 1), dtype=np.intp)
    values = np.empty((n_trees, 1 << depth))
    losses: list[float] = []
    m_sub = max(1, int(round(subsample * n)))
    stats = np.empty((3, n))
    stats[2] = 1.0
    fitted = 0

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            if classification:
                losses.append(float(np.logaddexp(0.0, flip * score).mean()))
                p = 1.0 / (1.0 + np.exp(-score))
                g_full = y - p
            else:
                g_full = y - score
                losses.append(float(np.mean(g_full * g_full)))
            if fitted == n_trees or np.abs(g_full).max() < 1e-12:
                break

            if m_sub < n:
                stats[2] = 0.0
                stats[2, rng.choice(n, size=m_sub, replace=False)] = 1.0
            np.multiply(g_full, stats[2], out=stats[0])
            if classification:
                np.multiply(p * (1.0 - p), stats[2], out=stats[1])
            else:
                stats[1] = stats[2]
            cuts[fitted], leaf = _grow(R, right_of, stats, depth)
            values[fitted] = learning_rate * _leaf_values(leaf, stats, depth)
            score += values[fitted][leaf]
            fitted += 1

    return GBTModel(
        feature=cut_feature[cuts[:fitted]],
        threshold=cut_threshold[cuts[:fitted]],
        value=values[:fitted],
        init=init,
        learning_rate=learning_rate,
        classification=classification,
        diagnostics={
            "train_loss": tuple(losses),
            "subsample": subsample,
            "n_trees_fit": fitted,
            "depth": depth,
            "learning_rate": learning_rate,
        },
    )
