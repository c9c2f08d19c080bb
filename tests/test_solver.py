import math

import numpy as np
import pytest

import membership_oracle as oracle
from sparsepcm import solver
from sparsepcm.core import ClusterModel, DataSet, NumericalError, squared_distances
from sparsepcm.solver import compute_lambda, update_memberships


def test_lambda_zero_gives_exponential():
    for d, g in [(0.0, 1.0), (0.5, 0.25), (7.0, 2.0), (100.0, 0.1)]:
        u = oracle.chosen(d, g, 0.0, 0.5)
        assert u == pytest.approx(math.exp(-d / g), abs=1e-15)


def test_zero_distance_membership_is_positive_but_below_one():
    # with a sparsity weight the best response at the representative
    # itself drops below 1 (the penalty pushes back against u = 1)
    lam = compute_lambda(1.0, 0.5, 0.9)
    assert 0.0 < oracle.chosen(0.0, 1.0, lam, 0.5) < 1.0


def test_far_point_gets_exact_zero():
    lam = compute_lambda(1.0, 0.5, 0.9)
    assert oracle.chosen(50.0, 1.0, lam, 0.5) == 0.0


def test_minimum_at_or_past_one_gives_zero_memberships():
    # a = lam*p*(1-p)/gamma >= 1 puts u_hat at or past 1: f is then
    # decreasing on (0, 1] and positive at 1, so even a point on the
    # representative gets 0. The second column (a < 1/e) shows the rule
    # is applied per cluster.
    model = ClusterModel(theta=np.zeros((2, 1)), gamma=[0.01, 1.0], lam=0.5, p=0.5)
    a = model.lam * model.p * (1.0 - model.p) / model.gamma
    assert a[0] >= 1.0 and a[1] < 1.0 / math.e
    d = np.array([[0.0, 0.0], [0.005, 0.005], [0.02, 0.02], [1.0, 1.0]])
    u = update_memberships(d, model)
    np.testing.assert_array_equal(u[:, 0], 0.0)
    assert u[0, 1] > 0.0


def test_compute_lambda_reference_value():
    # K * gamma_min * e**(p-2) / (p (1-p)); at K=0.9, p=0.5 the ratio
    # lambda / gamma_min is 0.80327, reproducing the pinned two-cluster
    # table's lambda = 0.4938 at gamma_min = 0.6147
    lam = compute_lambda(0.6147, 0.5, 0.9)
    assert lam / 0.6147 == pytest.approx(0.9 * math.exp(-1.5) / 0.25, rel=1e-12)
    assert lam == pytest.approx(0.4938, abs=5e-4)
    assert compute_lambda(2.0, 0.5, 0.0) == 0.0


def test_compute_lambda_validation():
    with pytest.raises(ValueError):
        compute_lambda(-1.0, 0.5, 0.9)
    with pytest.raises(ValueError):
        compute_lambda(1.0, 1.5, 0.9)
    with pytest.raises(ValueError):
        compute_lambda(1.0, 0.5, 1.0)


def test_nonzero_solutions_are_stationary_points():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(500):
        gamma = float(rng.uniform(0.05, 4.0))
        p = float(rng.uniform(0.2, 0.8))
        K = float(rng.uniform(0.05, 0.95))
        lam = compute_lambda(gamma, p, K)
        d = float(gamma * rng.uniform(0.0, 4.0))
        u = oracle.chosen(d, gamma, lam, p)
        if u > 0.0:
            scale = d + gamma + lam + 1.0
            assert abs(oracle.f(u, d, gamma, lam, p)) <= 1e-8 * scale
            # the kept root is the larger one, past the interior minimum
            assert u >= oracle.u_hat(gamma, lam, p) - 1e-12
            checked += 1
    assert checked > 100


def test_newton_iteration_cap_raises(monkeypatch):
    lam = compute_lambda(1.0, 0.5, 0.9)
    assert oracle.chosen(0.2, 1.0, lam, 0.5) > 0.0
    monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
    with pytest.raises(NumericalError):
        oracle.chosen(0.2, 1.0, lam, 0.5)


def test_zero_choice_is_justified_by_the_threshold_rule():
    rng = np.random.default_rng(11)
    zeros = 0
    for _ in range(500):
        gamma = float(rng.uniform(0.05, 4.0))
        p = float(rng.uniform(0.2, 0.8))
        lam = compute_lambda(gamma, p, float(rng.uniform(0.05, 0.95)))
        d = float(gamma * rng.uniform(0.0, 8.0))
        if oracle.chosen(d, gamma, lam, p) == 0.0:
            zeros += 1
            root = oracle.larger_root(d, gamma, lam, p)
            if root is not None:
                assert root <= oracle.threshold(gamma, lam, p) * (1 + 1e-9)
    assert zeros > 50


def test_update_memberships_matches_scalar_solver():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2))
    theta = rng.normal(size=(3, 2))
    gamma = rng.uniform(0.3, 2.0, size=3)
    lam = compute_lambda(float(gamma.min()), 0.5, 0.9)
    data = DataSet(points=x)
    model = ClusterModel(theta=theta, gamma=gamma, lam=lam, p=0.5)
    d = squared_distances(data, theta)
    u = update_memberships(d, model)
    assert u.shape == (40, 3)
    assert np.all(np.isfinite(u)) and u.min() >= 0.0 and u.max() <= 1.0
    thr = [oracle.threshold(g, lam, 0.5) for g in gamma]
    for i in range(0, 40, 7):
        for j in range(3):
            dij, g = float(d[i, j]), float(gamma[j])
            root = oracle.larger_root(dij, g, lam, 0.5)
            expect = root if root is not None and root > thr[j] else 0.0
            # the solver stops at |f| <= 1e-10 * scale, and right of the
            # threshold df/d(ln u) >= gamma * (1 - p): that bounds the
            # error in ln u, so the error in u is relative (and a zero
            # must be exact)
            slack = 1e-10 * (dij + g + lam + 1.0) / (g * 0.5)
            assert u[i, j] == pytest.approx(expect, rel=2.0 * slack)


def test_memberships_decay_with_distance_row():
    data = DataSet(points=np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]))
    theta = np.array([[0.0]])
    gamma = np.array([1.0])
    lam = compute_lambda(1.0, 0.5, 0.9)
    model = ClusterModel(theta=theta, gamma=gamma, lam=lam, p=0.5)
    u = update_memberships(squared_distances(data, theta), model)[:, 0]
    assert (np.diff(u) <= 1e-12).all()
    assert u[0] > 0.0
    assert u[-1] == 0.0
