import math

import numpy as np
import pytest
from scipy.special import lambertw

import loop_oracle
import membership_oracle as oracle
from sparsepcm import solver
from sparsepcm.core import ConfigurationError, DataSet, squared_distances
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
    gamma, lam, p = np.array([0.01, 1.0]), 0.5, 0.5
    a = lam * p * (1.0 - p) / gamma
    assert a[0] >= 1.0 and a[1] < 1.0 / math.e
    d = np.array([[0.0, 0.0], [0.005, 0.005], [0.02, 0.02], [1.0, 1.0]])
    u = update_memberships(d, gamma, lam, p)
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
    for gamma_min in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="gamma_min must be positive"):
            compute_lambda(gamma_min, 0.5, 0.9)
    with pytest.raises(ConfigurationError, match=r"p must lie in \(0,1\)"):
        compute_lambda(1.0, 1.5, 0.9)
    with pytest.raises(ConfigurationError, match=r"K must lie in \[0,1\)"):
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
    d = squared_distances(data, theta)
    u = update_memberships(d, gamma, lam, 0.5)
    assert u.shape == (40, 3)
    assert np.all(np.isfinite(u)) and u.min() >= 0.0 and u.max() <= 1.0
    thr = [oracle.threshold(g, lam, 0.5) for g in gamma]
    for i in range(0, 40, 7):
        for j in range(3):
            dij, g = float(d[i, j]), float(gamma[j])
            root = oracle.larger_root(dij, g, lam, 0.5)
            expect = root if root is not None and root > thr[j] else 0.0
            # the closed form is accurate to a few ulps of ln u, so the
            # error in u is relative (and a zero must be exact)
            assert u[i, j] == pytest.approx(expect, rel=1e-11)


def test_memberships_decay_with_distance_row():
    data = DataSet(points=np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]))
    theta = np.array([[0.0]])
    gamma = np.array([1.0])
    lam = compute_lambda(1.0, 0.5, 0.9)
    u = update_memberships(squared_distances(data, theta), gamma, lam, 0.5)[:, 0]
    assert (np.diff(u) <= 1e-12).all()
    assert u[0] > 0.0
    assert u[-1] == 0.0


@pytest.mark.parametrize("s", [1e100, 1.0, 1e-5, 1e-8, 1e-10, 1e-200])
def test_memberships_do_not_depend_on_the_units(s):
    # the entry depends only on d/gamma and lam/gamma, so scaling all
    # three together must leave the root in place at any magnitude
    lam = compute_lambda(1.0, 0.5, 0.9)
    root = oracle.larger_root(0.5 * s, s, lam * s, 0.5)
    assert root == pytest.approx(0.2863436, abs=1e-7)
    assert oracle.chosen(0.5 * s, s, lam * s, 0.5) == pytest.approx(root, rel=1e-12)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 0.95])
def test_lambert_w0_matches_scipy(p):
    # the solver evaluates W0 on (-p*e**(-p), 0], the range of kept entries
    z = np.concatenate([np.linspace(-p * math.exp(-p), 0.0, 2001), [-1e-300, -0.0]])
    w = solver._lambert_w0(z)
    np.testing.assert_allclose(w, lambertw(z).real, rtol=1e-14, atol=0.0)
    assert w[-1] == 0.0


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("d_order", ["C", "F"])
@pytest.mark.parametrize("K", [0.0, 0.9])
def test_update_memberships_into_out_has_the_bits_of_the_fresh_solve(d_order, K):
    rng = np.random.default_rng(5)
    gamma = np.array([1e-10, 0.5, 2.0])
    d = rng.uniform(0.0, 8.0, size=(60, 3))
    d[0] = 0.0
    d[1] = 100.0         # far from every cluster: an all-zero row when lam > 0
    d[2] = 1e300         # d/gamma past float range in the first column
    d = np.array(d, order=d_order)
    before = d.copy(order="K")
    lam = compute_lambda(0.5, 0.5, K)
    fresh = update_memberships(d, gamma, lam, 0.5)
    assert fresh.flags.f_contiguous
    out = np.empty(d.shape, order="F")
    for _ in range(2):  # a second call reuses what the first left in out
        assert update_memberships(d, gamma, lam, 0.5, out=out) is out
        np.testing.assert_array_equal(_bits(out), _bits(fresh))
    # the plain whole-array expressions of the solve, bit for bit
    np.testing.assert_array_equal(_bits(fresh), _bits(loop_oracle.memberships(d, gamma, lam, 0.5)))
    np.testing.assert_array_equal(_bits(d), _bits(before))
    assert (out[2] == 0.0).all() and (out[1] == 0.0).all() == (K > 0.0)
    assert 0.0 < out[3:].max() <= 1.0


@pytest.mark.parametrize("out", [
    np.full((6, 6), -1.0, order="F")[:, ::2],  # strided: its flat view would be a copy
    np.empty((6, 3)),                          # row-major: the solve is column by column
    np.empty((6, 2), order="F"),               # another shape
    np.empty((6, 3), dtype=np.float32, order="F"),
    np.frombuffer(bytes(6 * 3 * 8)).reshape(6, 3, order="F"),  # read-only
], ids=["strided", "C-order", "shape", "float32", "read-only"])
def test_update_memberships_refuses_an_out_it_cannot_solve_in(out):
    d = np.random.default_rng(0).uniform(0.0, 2.0, size=(6, 3))
    with pytest.raises(ConfigurationError, match="out must be"):
        update_memberships(d, np.ones(3), compute_lambda(1.0, 0.5, 0.9), 0.5, out=out)
