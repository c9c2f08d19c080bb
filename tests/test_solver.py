import math

import numpy as np
import pytest

from sparsepcm import solver
from sparsepcm.core import ClusterModel, DataSet, NumericalError, squared_distances
from sparsepcm.solver import (
    compute_lambda,
    f_value,
    solve_membership,
    u_hat,
    update_memberships,
)


def test_lambda_zero_gives_exponential():
    for d, g in [(0.0, 1.0), (0.5, 0.25), (7.0, 2.0), (100.0, 0.1)]:
        sol = solve_membership(d, g, 0.0, 0.5)
        assert sol.chosen == pytest.approx(math.exp(-d / g), abs=1e-15)


def test_zero_distance_membership_is_positive_but_below_one():
    # with a sparsity weight the best response at the representative
    # itself drops below 1 (the penalty pushes back against u = 1)
    lam = compute_lambda(1.0, 0.5, 0.9)
    sol = solve_membership(0.0, 1.0, lam, 0.5)
    assert 0.0 < sol.chosen < 1.0


def test_far_point_gets_exact_zero():
    lam = compute_lambda(1.0, 0.5, 0.9)
    sol = solve_membership(50.0, 1.0, lam, 0.5)
    assert sol.chosen == 0.0


def test_u_hat_closed_form():
    gamma, lam, p = 0.7, 0.3, 0.4
    expect = (lam * p * (1 - p) / gamma) ** (1.0 / (1.0 - p))
    assert u_hat(gamma, lam, p) == pytest.approx(expect, rel=1e-12)
    assert u_hat(gamma, 0.0, p) == 0.0


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


def test_solve_membership_validation():
    with pytest.raises(ValueError):
        solve_membership(-1.0, 1.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        solve_membership(1.0, 0.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        solve_membership(1.0, 1.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        solve_membership(1.0, 1.0, 0.1, 1.0)


def test_nonzero_solutions_are_stationary_points():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(500):
        gamma = float(rng.uniform(0.05, 4.0))
        p = float(rng.uniform(0.2, 0.8))
        K = float(rng.uniform(0.05, 0.95))
        lam = compute_lambda(gamma, p, K)
        d = float(gamma * rng.uniform(0.0, 4.0))
        sol = solve_membership(d, gamma, lam, p)
        if sol.chosen > 0.0:
            scale = d + gamma + lam + 1.0
            assert abs(f_value(sol.chosen, d, gamma, lam, p)) <= 1e-8 * scale
            # the kept root is the larger one, past the interior minimum
            assert sol.chosen >= sol.u_hat - 1e-12
            checked += 1
    assert checked > 100


def test_both_roots_bracket_u_hat_and_are_stationary():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(500):
        gamma = float(rng.uniform(0.05, 4.0))
        p = float(rng.uniform(0.2, 0.8))
        lam = compute_lambda(gamma, p, float(rng.uniform(0.05, 0.95)))
        d = float(gamma * rng.uniform(0.0, 4.0))
        sol = solve_membership(d, gamma, lam, p)
        if sol.f_at_u_hat >= 0.0 or sol.u_hat >= 1.0:
            continue
        scale = d + gamma + lam + 1.0
        assert sol.root_low < sol.u_hat < sol.root_high
        for root in (sol.root_low, sol.root_high):
            assert abs(f_value(root, d, gamma, lam, p)) <= 1e-8 * scale
        checked += 1
    assert checked > 100


def test_newton_iteration_cap_raises(monkeypatch):
    lam = compute_lambda(1.0, 0.5, 0.9)
    assert solve_membership(0.2, 1.0, lam, 0.5).chosen > 0.0
    monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
    with pytest.raises(NumericalError):
        solve_membership(0.2, 1.0, lam, 0.5)


def test_zero_choice_is_justified_by_the_threshold_rule():
    rng = np.random.default_rng(11)
    zeros = 0
    for _ in range(500):
        gamma = float(rng.uniform(0.05, 4.0))
        p = float(rng.uniform(0.2, 0.8))
        lam = compute_lambda(gamma, p, float(rng.uniform(0.05, 0.95)))
        d = float(gamma * rng.uniform(0.0, 8.0))
        sol = solve_membership(d, gamma, lam, p)
        if sol.chosen == 0.0:
            zeros += 1
            thr = (lam * (1.0 - p) / gamma) ** (1.0 / (1.0 - p))
            if sol.f_at_u_hat < 0.0 and sol.root_high is not None:
                assert sol.root_high <= thr * (1 + 1e-9)
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
    for i in range(0, 40, 7):
        for j in range(3):
            sol = solve_membership(float(d[i, j]), float(gamma[j]), lam, 0.5)
            assert u[i, j] == pytest.approx(sol.chosen, abs=1e-12)


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
