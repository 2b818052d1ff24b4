"""Elastic-net solvers versus independent oracles.

Three oracle routes: exact least squares at zero penalty, a projected
gradient / proximal gradient reference solver at nonzero penalty, and the
subgradient optimality conditions as a solver-free certificate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoeffect import elasticnet
from isoeffect.elasticnet import (
    enet_linear_paths,
    enet_logistic_paths,
    fit_enet_linear,
    fit_enet_logistic,
    prepare_design,
    standardize_columns,
)
from isoeffect.nuisance import _L1_GRID
import scalar_paths
from reference_solvers import (
    enet_linear_objective,
    enet_logistic_objective,
    kkt_residual_linear,
    solve_enet_linear_pg,
    solve_enet_logistic_ista,
)


def _random_problem(seed: int, n: int = 60, d: int = 6):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X[:, 1] = 0.7 * X[:, 0] + 0.3 * X[:, 1]  # correlated pair
    beta = rng.standard_normal(d)
    y = 1.5 + X @ beta + 0.3 * rng.standard_normal(n)
    return X, y


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------


def test_zero_penalty_matches_normal_equations():
    X, y = _random_problem(0, n=40, d=5)
    fit = fit_enet_linear(X, y, alpha=0.0, l1_ratio=0.0)
    design = np.column_stack([np.ones(len(y)), X])
    ols, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert fit.converged
    assert abs(fit.intercept - ols[0]) < 1e-8
    np.testing.assert_allclose(fit.coef, ols[1:], atol=1e-8)


def test_exact_interpolation_zero_noise():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 4))
    beta = np.array([2.0, -1.0, 0.5, 0.0])
    y = -3.0 + X @ beta
    fit = fit_enet_linear(X, y, alpha=0.0, l1_ratio=0.0)
    np.testing.assert_allclose(fit.coef, beta, atol=1e-8)
    np.testing.assert_allclose(fit.predict(X), y, atol=1e-8)


@pytest.mark.parametrize(
    "alpha, l1_ratio",
    [(0.1, 0.5), (0.05, 1.0), (0.5, 0.0), (0.02, 0.9), (1.0, 0.7)],
)
def test_matches_projected_gradient_reference(alpha, l1_ratio):
    X, y = _random_problem(1)
    fit = fit_enet_linear(X, y, alpha=alpha, l1_ratio=l1_ratio)
    Z, _, _ = standardize_columns(X)
    yc = y - y.mean()
    w_ref = solve_enet_linear_pg(Z, yc, alpha, l1_ratio)
    f_cd = enet_linear_objective(Z, yc, fit.coef_std, alpha, l1_ratio)
    f_pg = enet_linear_objective(Z, yc, w_ref, alpha, l1_ratio)
    assert abs(f_cd - f_pg) < 1e-6
    assert f_cd <= f_pg + 1e-9  # coordinate descent should not be worse


def test_hand_solved_single_feature():
    # Z = X (already standardized), q = Z'y/n = 2; with alpha=1, r=0.5 the
    # coordinate solution is soft(2, 0.5) / (1 + 0.5) = 1 exactly.
    X = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    y = np.array([2.0, -2.0, 2.0, -2.0])
    fit = fit_enet_linear(X, y, alpha=1.0, l1_ratio=0.5)
    assert fit.coef_std[0] == pytest.approx(1.0, abs=1e-10)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)


def test_huge_penalty_zeroes_coefficients():
    X, y = _random_problem(4)
    fit = fit_enet_linear(X, y, alpha=1e6, l1_ratio=1.0)
    assert np.all(fit.coef == 0.0)
    assert fit.intercept == pytest.approx(y.mean(), abs=1e-12)


def test_constant_column_gets_zero_coefficient():
    X, y = _random_problem(6)
    X[:, 2] = 5.0
    fit = fit_enet_linear(X, y, alpha=0.01, l1_ratio=0.5)
    assert fit.coef[2] == 0.0
    assert fit.coef_std[2] == 0.0


@pytest.mark.parametrize("value", [0.1, 0.3, 1.0 / 3.0, 2.2])
def test_near_constant_column_is_dead(value):
    # the computed mean of a constant like 0.1 is a rounding error off it, so
    # its std is ~1e-17, not 0; it must still standardize to zeros
    Z, _, scale = standardize_columns(np.full((100, 1), value))
    assert scale[0] == 1.0 and np.all(Z == 0.0)
    X, y = _random_logistic(9, n=100, d=1)
    with_const = np.column_stack([X, np.full(100, value)])
    fit = fit_enet_logistic(with_const, y, C=1.0, l1_ratio=0.0)
    alone = fit_enet_logistic(X, y, C=1.0, l1_ratio=0.0)
    assert fit.coef[1] == 0.0
    np.testing.assert_allclose(fit.predict_proba(with_const), alone.predict_proba(X),
                               rtol=0, atol=1e-12)


def _capped_objectives(monkeypatch, cap, fit, objective, count, t_max=60):
    """Objective of each fit capped at t = 1, 2, ... sweeps or passes until it
    converges; asserts at every t that the objective has not risen."""
    objectives = [np.inf]
    for t in range(1, t_max + 1):
        monkeypatch.setattr(elasticnet, cap, t)
        result = fit()
        assert count(result) == t
        objectives.append(objective(result))
        assert objectives[-1] <= objectives[-2] + 1e-12, f"objective rose at t={t}"
        if result.converged:
            return objectives[1:]
    raise AssertionError(f"not converged within {t_max}")


def test_linear_sweeps_descend(monkeypatch):
    # a solve capped at t sweeps returns its t-th iterate; the objective of
    # those iterates never rises as t grows
    X, y = _random_problem(7, n=80, d=8)
    Z, _, _ = standardize_columns(X)
    objectives = _capped_objectives(
        monkeypatch, "_MAX_SWEEPS",
        lambda: fit_enet_linear(X, y, alpha=0.05, l1_ratio=0.3),
        lambda fit: enet_linear_objective(Z, y - y.mean(), fit.coef_std, 0.05, 0.3),
        lambda fit: fit.n_sweeps,
    )
    assert len(objectives) >= 2 and objectives[-1] < objectives[0]


def test_linear_input_validation():
    X, y = _random_problem(8, n=10, d=2)
    with pytest.raises(ValueError):
        fit_enet_linear(X, y, alpha=-0.1, l1_ratio=0.5)
    with pytest.raises(ValueError):
        fit_enet_linear(X, y, alpha=0.1, l1_ratio=1.5)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.floats(min_value=0.01, max_value=2.0),
    l1_ratio=st.floats(min_value=0.0, max_value=1.0),
)
def test_linear_kkt_conditions_property(seed, alpha, l1_ratio):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 50))
    d = int(rng.integers(1, 6))
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    fit = fit_enet_linear(X, y, alpha=alpha, l1_ratio=l1_ratio)
    Z, _, _ = standardize_columns(X)
    assert kkt_residual_linear(Z, y - y.mean(), fit.coef_std, alpha, l1_ratio) < 1e-5


# ---------------------------------------------------------------------------
# logistic
# ---------------------------------------------------------------------------


def _random_logistic(seed: int, n: int = 90, d: int = 4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    beta = np.resize([1.2, -0.8, 0.0, 0.5], d)
    eta = 0.4 + X @ beta
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    if y.min() == y.max():  # keep both classes, defensively
        y[0] = 1.0 - y[0]
    return X, y


@pytest.mark.parametrize("C, l1_ratio", [(1.0, 0.0), (0.5, 0.5), (10.0, 1.0), (0.1, 0.9)])
def test_logistic_matches_ista_reference(C, l1_ratio):
    X, y = _random_logistic(0)
    fit = fit_enet_logistic(X, y, C=C, l1_ratio=l1_ratio)
    Z, _, _ = standardize_columns(X)
    w_ref, b_ref = solve_enet_logistic_ista(Z, y, C, l1_ratio)
    f_cd = enet_logistic_objective(Z, y, fit.coef_std, _std_intercept(fit, X), C, l1_ratio)
    f_ref = enet_logistic_objective(Z, y, w_ref, b_ref, C, l1_ratio)
    assert abs(f_cd - f_ref) < 1e-6


def _std_intercept(fit, X) -> float:
    # recover the standardized-scale intercept b = intercept + coef . mean
    return float(fit.intercept + fit.coef @ np.asarray(X).mean(axis=0))


def test_logistic_passes_descend(monkeypatch):
    # a solve capped at t passes returns its t-th iterate, intercept included;
    # the majorization makes its objective non-increasing in t
    X, y = _random_logistic(3, n=120, d=5)
    Z, _, _ = standardize_columns(X)
    objectives = _capped_objectives(
        monkeypatch, "_MAX_PASSES",
        lambda: fit_enet_logistic(X, y, C=1.0, l1_ratio=0.5),
        lambda fit: enet_logistic_objective(Z, y, fit.coef_std, _std_intercept(fit, X), 1.0, 0.5),
        lambda fit: fit.n_passes,
    )
    assert len(objectives) >= 2 and objectives[-1] < objectives[0]


def test_logistic_balanced_coin_with_constant_feature():
    X = np.ones((20, 1))
    y = np.array([0.0, 1.0] * 10)
    fit = fit_enet_logistic(X, y, C=1.0, l1_ratio=0.5)
    assert fit.coef[0] == 0.0
    np.testing.assert_allclose(fit.predict_proba(X), 0.5, atol=1e-12)


def test_logistic_intercept_matches_base_rate_with_no_signal():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((400, 2))
    y = (rng.random(400) < 0.7).astype(float)  # independent of X
    fit = fit_enet_logistic(X, y, C=0.001, l1_ratio=0.0)  # strong shrinkage
    # coefficients shrink toward 0 and probabilities toward the base rate
    assert np.abs(fit.coef).max() < 0.05
    assert abs(fit.predict_proba(X).mean() - y.mean()) < 0.02


def test_logistic_separable_is_finite_and_ordered():
    X = np.linspace(-2, 2, 40).reshape(-1, 1)
    y = (X[:, 0] > 0).astype(float)
    fit = fit_enet_logistic(X, y, C=100.0, l1_ratio=0.0)
    p = fit.predict_proba(X)
    assert np.all(np.isfinite(p))
    assert np.all(np.diff(p) >= -1e-12)  # monotone in the single feature
    assert p[0] < 0.05 and p[-1] > 0.95


def test_logistic_input_validation():
    X = np.zeros((4, 1))
    with pytest.raises(ValueError, match="0/1"):
        fit_enet_logistic(X, np.array([0.0, 1.0, 2.0, 0.0]), C=1.0, l1_ratio=0.0)
    with pytest.raises(ValueError, match="C > 0"):
        fit_enet_logistic(X, np.array([0.0, 1.0, 0.0, 1.0]), C=0.0, l1_ratio=0.0)


def test_logistic_l1_sparsifies():
    X, y = _random_logistic(5, n=150, d=4)
    dense = fit_enet_logistic(X, y, C=10.0, l1_ratio=0.0)
    sparse = fit_enet_logistic(X, y, C=0.05, l1_ratio=1.0)
    assert np.count_nonzero(sparse.coef) < np.count_nonzero(dense.coef)


# ---------------------------------------------------------------------------
# regularization paths
# ---------------------------------------------------------------------------

_ALPHAS = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
_CS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


@pytest.mark.parametrize("l1_ratio", [0.0, 0.5, 1.0])
def test_linear_path_matches_cold_fits(l1_ratio):
    X, y = _random_problem(11, n=80, d=6)
    alphas = (1e-2, 1.0, 1e-4, 1e-1, 1e-3)  # any order; solved strongest first
    path = enet_linear_paths([(X, y, alphas, l1_ratio)])[0]
    assert [f.alpha for f in path] == list(alphas)
    Z, _, _ = standardize_columns(X)
    yc = y - y.mean()
    for alpha, warm in zip(alphas, path):
        cold = fit_enet_linear(X, y, alpha, l1_ratio)
        assert warm.converged
        np.testing.assert_allclose(warm.coef_std, cold.coef_std, atol=1e-6)
        assert abs(warm.intercept - cold.intercept) < 1e-6
        gap = (enet_linear_objective(Z, yc, warm.coef_std, alpha, l1_ratio)
               - enet_linear_objective(Z, yc, cold.coef_std, alpha, l1_ratio))
        assert abs(gap) < 1e-10


@pytest.mark.parametrize("l1_ratio", [0.0, 0.5, 1.0])
def test_logistic_path_matches_cold_fits(l1_ratio):
    X, y = _random_logistic(12, n=150, d=5)
    path = enet_logistic_paths([(X, y, _CS, l1_ratio)])[0]
    assert [f.C for f in path] == list(_CS)
    Z, _, _ = standardize_columns(X)
    for C, warm in zip(_CS, path):
        cold = fit_enet_logistic(X, y, C, l1_ratio)
        assert warm.converged
        np.testing.assert_allclose(warm.coef_std, cold.coef_std, atol=1e-5)
        b_warm, b_cold = _std_intercept(warm, X), _std_intercept(cold, X)
        assert abs(b_warm - b_cold) < 1e-5
        gap = (enet_logistic_objective(Z, y, warm.coef_std, b_warm, C, l1_ratio)
               - enet_logistic_objective(Z, y, cold.coef_std, b_cold, C, l1_ratio))
        assert abs(gap) < 1e-10


def test_path_accepts_a_prepared_design():
    X, y = _random_problem(13)
    design = prepare_design(X)
    with_design, with_array = enet_linear_paths([(design, y, _ALPHAS, 0.5), (X, y, _ALPHAS, 0.5)])
    for a, b in zip(with_design, with_array):
        assert a.coef.tobytes() == b.coef.tobytes() and a.intercept == b.intercept


def test_zero_penalty_at_path_end_meets_least_squares_contract():
    X, y = _random_problem(0, n=40, d=5)
    fit = enet_linear_paths([(X, y, (1.0, 0.1, 0.0), 0.5)])[0][-1]
    design = np.column_stack([np.ones(len(y)), X])
    ols, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert fit.converged and fit.alpha == 0.0
    assert abs(fit.intercept - ols[0]) < 1e-8
    np.testing.assert_allclose(fit.coef, ols[1:], atol=1e-8)
    cold = fit_enet_linear(X, y, 0.0, 0.5)
    np.testing.assert_allclose(fit.coef, cold.coef, atol=1e-10)


def test_path_input_validation():
    X, y = _random_logistic(14, n=30, d=2)
    with pytest.raises(ValueError, match="alpha >= 0"):
        enet_linear_paths([(X, y, (0.1, -1.0), 0.5)])
    with pytest.raises(ValueError, match="C > 0"):
        enet_logistic_paths([(X, y, (1.0, 0.0), 0.5)])
    with pytest.raises(ValueError, match="0/1"):
        enet_logistic_paths([(X, y + 2.0, (1.0,), 0.5)])


# ---------------------------------------------------------------------------
# batched paths
# ---------------------------------------------------------------------------


def _mixed_batch(loss: str) -> list[tuple]:
    """Paths with unequal rows and mixed l1_ratio, one of them odd in each way.

    Problem 1 has a column that is constant on its rows. Linear: problem 3
    ends its grid at alpha=0, where the tolerance tightens to 1e-12.
    Logistic: problem 3 is separable with a margin, so its C=100 solve runs
    to the pass cap while the other problems converge. Problem 4 has an empty
    grid and problem 5 repeats a penalty. Problems 6-13 are the 8 default
    ``l1_ratio`` paths of one prepared design and target, as an inner fold
    gives, and problem 14 is that design with another target.
    """
    rng = np.random.default_rng(808)
    problems = []
    for p, (n, ratio) in enumerate([(70, 0.0), (90, 0.5), (55, 1.0), (64, 0.5)]):
        X = rng.standard_normal((n, 3))
        X[:, 1] = 0.6 * X[:, 0] + 0.4 * X[:, 1]
        if p == 1:
            X[:, 2] = 5.0
        if loss == "linear":
            y = 0.5 + X @ np.array([1.0, -0.7, 0.3]) + 0.4 * rng.standard_normal(n)
            grid = (0.5, 0.0) if p == 3 else (1e-2, 1.0, 1e-4, 1e-1)
        elif p == 3:
            X[:, 0] += np.sign(X[:, 0])
            y = (X[:, 0] > 0).astype(float)
            grid = (100.0, 1.0)
        else:
            eta = 0.3 + X @ np.array([1.2, -0.8, 0.4])
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
            grid = (1.0, 0.01, 10.0)
        problems.append((X, y, grid, ratio))
    for n, grid in [(48, ()), (81, (0.1, 0.1, 1.0))]:
        X = rng.standard_normal((n, 3))
        eta = X @ np.array([0.8, 0.0, -0.5])
        if loss == "linear":
            y = eta + 0.5 * rng.standard_normal(n)
        else:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        problems.append((X, y, grid, 0.7))
    X = rng.standard_normal((75, 3))
    design = prepare_design(X)
    eta = 0.2 + X @ np.array([0.6, -0.9, 0.0])
    targets = [eta + 0.5 * rng.standard_normal(75) for _ in range(2)]
    if loss == "logistic":
        targets = [(t > 0.2).astype(float) for t in targets]
    grid = (1e-2, 1.0, 1e-3) if loss == "linear" else (0.1, 10.0, 1.0)
    problems += [(design, targets[0], grid, ratio) for ratio in _L1_GRID]
    problems.append((design, targets[1], grid, 0.5))
    return problems


_MAX_PASSES = 400


@pytest.mark.parametrize("loss", ["linear", "logistic"])
def test_batched_paths_equal_solo_paths(loss, monkeypatch):
    # every problem of the batch, and the same problem solved alone, equals
    # the scalar loop's path in every field
    problems = _mixed_batch(loss)
    if loss == "linear":
        batched = enet_linear_paths(problems)
        alone = [enet_linear_paths([p])[0] for p in problems]
        scalar = [scalar_paths.linear_path(*p) for p in problems]
    else:
        monkeypatch.setattr(elasticnet, "_MAX_PASSES", _MAX_PASSES)
        batched = enet_logistic_paths(problems)
        alone = [enet_logistic_paths([p])[0] for p in problems]
        scalar = [scalar_paths.logistic_path(*p, max_passes=_MAX_PASSES) for p in problems]
    for fits in (batched, alone):
        for path, reference in zip(fits, scalar):
            assert len(path) == len(reference)
            for a, b in zip(path, reference):
                assert a.coef.tobytes() == b.coef.tobytes()
                assert a.coef_std.tobytes() == b.coef_std.tobytes()
                assert a.intercept == b.intercept and a.converged == b.converged
                if loss == "linear":
                    assert a.n_sweeps == b.n_sweeps and a.alpha == b.alpha
                else:
                    assert a.n_passes == b.n_passes and a.C == b.C
    assert batched[1][0].coef[2] == 0.0  # the column constant on problem 1's rows
    assert batched[4] == [] and len(batched[5]) == 3
    converged = [[f.converged for f in fits] for fits in batched]
    if loss == "linear":
        assert all(map(all, converged)) and batched[3][1].alpha == 0.0
    else:
        # only the separable problem's C=100 solve stops at the pass cap
        assert converged[3] == [False, True] and batched[3][0].n_passes == _MAX_PASSES
        assert all(map(all, converged[:3]))


def test_batched_paths_validation():
    X, y = _random_problem(16, n=20, d=3)
    with pytest.raises(ValueError, match="same number of columns"):
        enet_linear_paths([(X, y, (1.0,), 0.5), (X[:, :2], y, (1.0,), 0.5)])
    assert enet_linear_paths([]) == [] and enet_linear_paths([(X, y, (), 0.5)]) == [[]]
