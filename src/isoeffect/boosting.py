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
- **Fits in lockstep.** :func:`fit_gbt_batch` grows several fits ("tasks":
  training rows of one X and y, depth, tree count, learning rate and seed)
  stage by stage in one loop, whatever their row counts and cuts, and
  :func:`fit_gbt_core` is its one-task case. Each task has its own cuts and
  its own ``R``, the rows x cuts 0/1 matrix of "row lies right of cut",
  built once per fit. The tasks' ``R`` are stacked into one zero-padded
  (tasks, rows, columns) array, deepest task first. At each level, every
  node of every task gets its right-side gradient, hessian and row-count
  sums for every cut from ``[g*w, h*w, w] * node_onehot @ R``, where ``w``
  marks the subsample; the left side is the node total minus the right
  side. Each run of tasks with the same row count and cut count shares one
  stacked matmul, taken over exactly its own rows and columns, so every
  product has the operand shapes of a solo fit. Padding never enters a
  product: BLAS may sum a product over zero-padded rows or columns in
  another order, which can flip a near-tied split. Everything else (gains,
  the best cut, routing, leaf values, the gradient and the stopping check)
  runs once per stage for the whole stack. It is elementwise or per task,
  and padded rows have weight 0, so every task grows exactly the trees of
  its solo fit. A task shallower than the deepest stops splitting at its
  own depth.
- **Subsamples, drawn a block of stages at a time.** A task with a
  subsample of m of its n rows draws ``block`` stages' uniform keys at
  once from its own generator, a (block, n) array, and each stage's
  subsample is the m rows of smallest key (Friedman, "Stochastic gradient
  boosting", CSDA 2002, needs only a uniform m-of-n draw per stage). The
  generator fills the array in stream order, so a task's subsamples depend
  neither on ``block`` nor on the tasks that share its group, and
  :func:`fit_gbt_batch` and :func:`fit_gbt_core` draw the same ones.
- **Bounded memory.** ``R`` takes rows x columns x 9 bytes per task (8-byte
  floats plus a 1-byte copy for routing rows): 160 rows x 16 cuts is 23 kB,
  4,000 rows x 10 continuous columns of 255 cuts is 92 MB. A lockstep group
  holds at most :data:`_LOCKSTEP_BYTES` of stacked ``R``, its routing copy
  and deepest-level matmul operand, each counted at the group's largest row
  count, width and depth. That bound is the only reason to split a batch: a
  larger batch runs as several groups, and a task larger than the bound
  runs alone. A subsample draw holds at
  most :data:`_DRAW_BYTES` (64 KiB) of 8-byte keys per task, or one
  stage's keys where those are more: ``block`` is 51 stages at 160 rows
  and 1 stage from 4,097 rows on. The block's subsamples are kept as one
  byte per row and stage.
- **Flat trees.** A tree of depth D is stored in heap order (children of
  node i at 2i+1 and 2i+2) as a split column and threshold per internal
  node and a value per leaf; a node that does not split sends every row
  left through a ``+inf`` threshold. Rows with ``x > threshold`` go right,
  so a held-out value between two training values is routed by the bin
  edge, their midpoint.
- **Prefix models.** A fit's first k trees do not depend on its tree
  count, so :meth:`GBTModel.first` gives, from one fit, the model a k-tree
  fit with the same seed would give. Choosing a tree count therefore needs
  one fit at the largest count, and :meth:`GBTModel.raw` with ``counts``
  scores every count in one walk of its trees: the running sum of the
  steps holds each prefix's score.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["GBTModel", "GBTTask", "fit_gbt_batch", "fit_gbt_core"]

_EPS_HESS = 1e-12
MAX_CUTS = 255
MAX_DEPTH = 8
_PREDICT_BLOCK = 1 << 18  # trees x rows walked per step of GBTModel.raw
_LOCKSTEP_BYTES = 1 << 23  # padded R, its routing copy and level sums per lockstep group
_DRAW_BYTES = 1 << 16  # subsample keys drawn per task at a time


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


def _cuts(X: np.ndarray):
    """Every column's cuts, and the column and threshold of each cut.

    The column and threshold arrays end with the "no split" cut (column 0,
    threshold ``+inf``).
    """
    cuts = [_column_cuts(X[:, j]) for j in range(X.shape[1])]
    feature = np.repeat(np.arange(X.shape[1]), [c.size for c in cuts])
    return cuts, np.append(feature, 0), np.concatenate(cuts + [np.array([np.inf])])


def _bin(Xs: Sequence[np.ndarray], cuts: Sequence[list]) -> np.ndarray:
    """``R``, the right-of-cut matrices of ``(X, cuts)`` pairs, stacked and zero-padded.

    Each ``R[b]`` has two extra columns after its cuts: all zeros (the "no
    split" cut, which sends every row left) and all ones (node totals). The
    stack is as wide as its widest task and as tall as its tallest: a
    narrower task's columns end at the last column, with zero columns before
    them, and a shorter task's rows are followed by zero rows.
    """
    widths = [sum(c.size for c in task_cuts) + 2 for task_cuts in cuts]
    columns = max(widths)
    R = np.zeros((len(Xs), max(X.shape[0] for X in Xs), columns))
    for Rb, X, task_cuts, width in zip(R, Xs, cuts, widths):
        start = columns - width
        for j, c in enumerate(task_cuts):
            Rb[:X.shape[0], start:start + c.size] = X[:, j, None] > c
            start += c.size
        Rb[:X.shape[0], -1] = 1.0
    return R


def _split_gains(S: np.ndarray) -> np.ndarray:
    """Gain of every cut of every node from its right-side sums ``S``.

    ``S`` is (..., 3, nodes, columns of R): gradient, hessian and row-count
    sums right of every cut, with the node totals in the last column; the
    result is (..., nodes, columns). A cut is valid when both sides hold
    rows and hessian mass; an invalid one gets ``-inf``, and so does a zero
    padding column. The "no split" column gets the unsplit score ``G^2/H``
    plus 1e-12, so a node splits only on a cut that beats it by more than
    that.
    Call under ``np.errstate(divide="ignore", invalid="ignore")``.
    """
    L = S[..., -1:] - S
    G, H, count = L[..., 0, :, :], L[..., 1, :, :], L[..., 2, :, :]
    G_right, H_right = S[..., 0, :, :], S[..., 1, :, :]
    unsplit = G * G / H
    gain = np.where((count > 0) & (np.minimum(H_right, H) > _EPS_HESS),
                    unsplit + G_right * G_right / H_right, -np.inf)
    gain[..., -2] = unsplit[..., -2] + 1e-12
    return gain


def _grow(R: np.ndarray, right_of: np.ndarray, stats: np.ndarray, depth: int,
          depths: np.ndarray, blocks: Sequence[tuple] = ()):
    """Grow one ``depth``-deep tree per task level by level; every row of ``R`` is routed.

    ``R`` is (tasks, rows, columns), laid out by :func:`_bin`, and
    ``right_of`` is ``R`` as booleans. ``stats`` is (tasks, 3, rows):
    weighted gradient, weighted hessian and weight, so rows of weight 0,
    padding included, follow the splits without shaping them. Task b stops
    splitting past ``depths[b]`` and then sends every row left; ``depths``
    is non-increasing, so the tasks still splitting at a level are a prefix.
    ``blocks`` splits the tasks into runs ``(stop, rows, width)`` of one row
    count and ``R`` width (default: one run of ``R``'s shape). Each run gets
    its level sums from one stacked matmul over exactly its own rows and
    columns, the operand shapes of a solo fit. Returns the cut (column of
    ``R``) of every internal node per task in heap order, and the leaf of
    every row.
    Call under ``np.errstate(divide="ignore", invalid="ignore")``.
    """
    tasks, n, columns = R.shape
    no_split = columns - 2
    row_start = np.arange(0, tasks * n * columns, columns).reshape(tasks, n)
    cut = np.full((tasks, (1 << depth) - 1), no_split)
    node = np.zeros((tasks, n), dtype=np.intp)
    for level in range(depth):
        k = int(np.count_nonzero(depths > level))
        if not k:
            node <<= depth - level
            break
        nodes = 1 << level
        weighted = stats[:k]
        if level:
            onehot = node[:k, None, :] == np.arange(nodes)[:, None]
            weighted = (stats[:k, :, None, :] * onehot[:, None]).reshape(k, 3 * nodes, n)
        sums = np.zeros((k, 3 * nodes, columns))
        start = 0
        for stop, rows, width in blocks or [(tasks, n, columns)]:
            stop = min(stop, k)
            np.matmul(weighted[start:stop, :, :rows], R[start:stop, :rows, -width:],
                      out=sums[start:stop, :, -width:])
            if stop == k:
                break
            start = stop
        chosen = _split_gains(sums.reshape(k, 3, nodes, columns)).argmax(axis=-1)
        cut[:k, nodes - 1:2 * nodes - 1] = chosen
        task_node = np.arange(0, k * nodes, nodes)[:, None] + node[:k]
        right = right_of.take(row_start[:k] + chosen.take(task_node))
        node <<= 1
        node[:k] += right
        if chosen.min() == no_split:
            node <<= depth - level - 1
            break
    return cut, node


def _leaf_values(leaf: np.ndarray, stats: np.ndarray, depth: int) -> np.ndarray:
    """Newton step ``sum(g) / sum(h)`` per leaf and task; 0 where the hessian vanishes.

    ``leaf`` is (tasks, rows) and ``stats`` (tasks, 3, rows); the result is
    (tasks, 2**depth). Call under ``np.errstate(divide="ignore", invalid="ignore")``.
    """
    tasks, leaves = leaf.shape[0], 1 << depth
    bins = np.arange(0, 2 * tasks * leaves, leaves).reshape(tasks, 2, 1) + leaf[:, None, :]
    sums = np.bincount(bins.ravel(), weights=stats[:, :2].ravel(),
                       minlength=2 * tasks * leaves).reshape(tasks, 2, leaves)
    G, H = sums[:, 0], sums[:, 1]
    return np.where(H > _EPS_HESS, G / H, 0.0)


def _sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True, eq=False)
class GBTModel:
    """Fitted boosted ensemble; prediction is ``init + sum(tree(x))``.

    ``feature`` and ``threshold`` are (trees, 2**depth - 1) in heap order;
    ``value`` is (trees, 2**depth) leaf steps with the learning rate
    already applied. ``n_features`` is the training width, which every
    ``X`` to score must have. :meth:`first` keeps the first k trees, which
    is how one fit scores every smaller tree count.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    init: float
    n_features: int
    diagnostics: dict = field(default_factory=dict)

    def raw(self, X: np.ndarray, counts: Sequence[int] | None = None) -> np.ndarray:
        """Raw score of every row: ``init`` plus each tree's leaf step, summed in tree order.

        With ``counts``, row i of the result is ``first(counts[i]).raw(X)``
        bit for bit: the running sum of one walk of the trees holds every
        prefix's score.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"X must be 2-D with {self.n_features} columns, "
                             f"got shape {X.shape}")
        n_trees, n_leaves = self.value.shape
        stages = [n_trees] if counts is None else [self._count(k) for k in counts]
        out = np.empty((len(stages), X.shape[0]))
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
            out[:, start:start + block] = np.cumsum(steps, axis=0)[stages]
        return out[0] if counts is None else out

    def predict(self, X: np.ndarray, counts: Sequence[int] | None = None) -> np.ndarray:
        return self.raw(X, counts)

    def predict_proba(self, X: np.ndarray, counts: Sequence[int] | None = None) -> np.ndarray:
        return _sigmoid(self.raw(X, counts))

    def _count(self, k: int) -> int:
        """The number of trees the model of the first ``k`` keeps."""
        if k < 0:
            raise ValueError(f"need a non-negative tree count, got {k}")
        return min(int(k), self.value.shape[0])

    def first(self, k: int) -> GBTModel:
        """The model of the first ``k`` trees, or of all of them when ``k`` exceeds their count.

        A fit's first k trees do not depend on its tree count, so this is the
        model, ``n_trees_fit`` included, that a k-tree fit with the same seed
        gives; ``first(0)`` predicts ``init``.
        """
        k = self._count(k)
        return replace(self, feature=self.feature[:k], threshold=self.threshold[:k],
                       value=self.value[:k], diagnostics={"n_trees_fit": k})


class GBTTask(NamedTuple):
    """One fit of :func:`fit_gbt_batch`: its training rows and settings."""

    rows: np.ndarray
    depth: int = 2
    n_trees: int = 100
    learning_rate: float = 0.1
    seed: int = 0
    subsample: float = 0.7


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
    targets fit exactly); ``diagnostics['n_trees_fit']`` is the number of
    trees grown. The first k trees of a fit do not depend on ``n_trees``, so
    they are the trees a k-tree fit with the same seed would grow. This is
    :func:`fit_gbt_batch` with one task.
    """
    rows = np.arange(np.shape(X)[0])
    task = GBTTask(rows, depth, n_trees, learning_rate, seed, subsample)
    return fit_gbt_batch(X, y, classification, [task])[0]


def fit_gbt_batch(
    X: np.ndarray, y: np.ndarray, classification: bool, tasks: Sequence[GBTTask],
) -> list[GBTModel]:
    """Fit one boosted ensemble per task, growing the tasks in lockstep.

    Task t sees only ``X[t.rows]`` and ``y[t.rows]``, and its model has the
    trees and leaf values that :func:`fit_gbt_core` fits on those rows with
    the task's settings. The tasks grow together, whatever their row
    counts and cuts, in groups of at most :data:`_LOCKSTEP_BYTES`; the
    models come back in task order.
    """
    for t in tasks:
        if not 1 <= t.depth <= MAX_DEPTH:
            raise ValueError(f"tree depth must be in [1, {MAX_DEPTH}], got {t.depth}")
        if t.n_trees < 1:
            raise ValueError(f"need at least one boosting stage, got {t.n_trees}")
        if not 0.0 < t.subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {t.subsample}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    tasks = [t._replace(rows=np.asarray(t.rows, dtype=np.intp).reshape(-1)) for t in tasks]
    if any(t.rows.size == 0 for t in tasks):
        raise ValueError("cannot fit on an empty sample")
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("need a 2-D feature matrix with at least one column")
    if y.size != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.size}")
    if any(t.rows.min() < 0 or t.rows.max() >= y.size for t in tasks):
        raise ValueError(f"task rows must index the {y.size} rows of X")

    tables = [_cuts(X[t.rows]) for t in tasks]
    # deepest first, so the tasks still splitting at a level are a prefix;
    # then by R's width and rows, so tasks of one shape are consecutive
    order = sorted(range(len(tasks)), key=lambda i: (-tasks[i].depth, tables[i][1].size,
                                                     tasks[i].rows.size))
    groups: list[list[int]] = []
    for i in order:
        shape = (tasks[i].rows.size, tables[i][1].size + 1, tasks[i].depth)
        if groups:
            # the group's padded R, its routing copy and deepest-level matmul operand
            rows, width, depth = grown = tuple(map(max, group_shape, shape))
            if (len(groups[-1]) + 1) * rows * (9 * width + (25 << (depth - 1))) <= _LOCKSTEP_BYTES:
                groups[-1].append(i)
                group_shape = grown
                continue
        groups.append([i])
        group_shape = shape
    models: list = [None] * len(tasks)
    for group in groups:
        fitted = _fit_lockstep(X, y, classification, [tasks[i] for i in group],
                               [tables[i] for i in group])
        for i, model in zip(group, fitted):
            models[i] = model
    return models


def _gradient(classification: bool, target: np.ndarray, score: np.ndarray):
    """Negative gradient and hessian of the loss at ``score``; the squared-loss hessian is 1."""
    if classification:
        p = 1.0 / (1.0 + np.exp(-score))
        return target - p, p * (1.0 - p)
    return target - score, 1.0


def _blocks(rows: np.ndarray, widths: np.ndarray) -> list[tuple]:
    """Runs ``(stop, rows, width)`` of consecutive tasks with one row count and ``R`` width."""
    stops = [*np.flatnonzero((np.diff(rows) != 0) | (np.diff(widths) != 0)) + 1, rows.size]
    return [(int(stop), int(rows[stop - 1]), int(widths[stop - 1])) for stop in stops]


def _fit_lockstep(X, y, classification, tasks, tables) -> list[GBTModel]:
    """Grow ``tasks`` (sorted as :func:`fit_gbt_batch` groups them) together, one stage at a time.

    ``tables`` holds each task's :func:`_cuts`. The live tasks' arrays are
    stacked on a leading axis, zero-padded to the largest row count and
    ``R`` width; a task leaves the stack when its gradient vanishes or its
    trees are grown. Padded rows have weight 0 and are left out of the
    gradient check. Every matmul has a solo fit's operand shapes, and every
    other step is elementwise or per task, so each task's numbers are those
    of its solo fit.
    """
    B, depth = len(tasks), max(t.depth for t in tasks)
    rows = np.array([t.rows.size for t in tasks])
    n = int(rows.max())
    R = _bin([X[t.rows] for t in tasks], [cuts for cuts, _, _ in tables])
    right_of = R > 0
    valid = np.arange(n) < rows[:, None]
    target = np.zeros((B, n))
    init = []
    for row, t in zip(target, tasks):
        row[:t.rows.size] = y[t.rows]
        mean = row[:t.rows.size].mean()
        if classification:
            p_bar = min(max(mean, 1e-12), 1.0 - 1e-12)
            init.append(float(np.log(p_bar / (1.0 - p_bar))))
        else:
            init.append(float(mean))
    score = np.repeat(np.array(init)[:, None], n, axis=1)
    stats = np.empty((B, 3, n))

    live = np.arange(B)
    rngs = [np.random.default_rng(t.seed) for t in tasks]
    m_sub = np.array([max(1, int(round(t.subsample * t.rows.size))) for t in tasks])
    depths = np.array([t.depth for t in tasks])
    widths = np.array([feature.size + 1 for _, feature, _ in tables])
    blocks = _blocks(rows, widths)
    rates = np.array([t.learning_rate for t in tasks], dtype=np.float64)
    stop_at = np.array([t.n_trees for t in tasks])
    longest = int(stop_at.max())
    # each stage's subsample is the m_sub rows of smallest key; keys are drawn
    # for `block` stages at a time, in stream order, so the masks depend on
    # neither `block` nor the other tasks
    block = min(longest, max(1, _DRAW_BYTES // (8 * n)))
    masks = np.repeat(valid[:, None, :], block, axis=1)
    cut_hist = np.empty((B, longest, (1 << depth) - 1), dtype=np.intp)
    value_hist = np.empty((B, longest, 1 << depth))
    fitted = np.zeros(B, dtype=np.intp)
    stage = 0

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g_full, hess = _gradient(classification, target, score)
        while True:
            steep = np.max(np.abs(g_full), axis=1, where=valid, initial=0.0)
            done = (stop_at == stage) | (steep < 1e-12)
            if done.any():
                fitted[live[done]] = stage
                keep = ~done
                if not keep.any():
                    break
                (live, R, right_of, valid, target, score, stats, masks, rows, m_sub, depths,
                 widths, rates, stop_at) = (a[keep] for a in (
                    live, R, right_of, valid, target, score, stats, masks, rows, m_sub, depths,
                    widths, rates, stop_at))
                rngs = [r for r, k in zip(rngs, keep) if k]
                blocks = _blocks(rows, widths)
                g_full, hess = _gradient(classification, target, score)

            at = stage % block
            if not at:
                for j in np.flatnonzero(m_sub < rows):
                    keys = rngs[j].random((block, rows[j]))
                    smallest = np.argpartition(keys, m_sub[j] - 1, axis=1)[:, :m_sub[j]]
                    masks[j] = False
                    np.put_along_axis(masks[j], smallest, True, axis=1)
            stats[:, 2] = masks[:, at]
            np.multiply(g_full, stats[:, 2], out=stats[:, 0])
            np.multiply(hess, stats[:, 2], out=stats[:, 1])
            cut, leaf = _grow(R, right_of, stats, depth, depths, blocks)
            values = rates[:, None] * _leaf_values(leaf, stats, depth)
            score += values.take(np.arange(0, values.size, values.shape[1])[:, None] + leaf)
            cut_hist[live, stage] = cut
            value_hist[live, stage] = values
            stage += 1
            g_full, hess = _gradient(classification, target, score)

    models = []
    for b, (t, (_, feature, threshold)) in enumerate(zip(tasks, tables)):
        k = int(fitted[b])
        # a task shallower than the group keeps every row left past its depth,
        # so its leaf j is leaf j << (depth - t.depth) of the group's tree; a
        # task narrower than the group has its columns at the end of R's
        cuts = cut_hist[b, :k, :(1 << t.depth) - 1] - (R.shape[2] - feature.size - 1)
        models.append(GBTModel(
            feature=feature[cuts],
            threshold=threshold[cuts],
            value=np.ascontiguousarray(value_hist[b, :k, ::1 << (depth - t.depth)]),
            init=init[b],
            n_features=X.shape[1],
            diagnostics={"n_trees_fit": k},
        ))
    return models
