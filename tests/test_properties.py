"""Invariant checks driven by hypothesis.

Six suites, each run at a thousand cases: solver monotonicity in the
distance, solver monotonicity in the scale, the zero-vs-root decision
trace, the cluster count trajectory of the adaptive sparse run, theta
updates staying inside the data box, and metric invariance under
relabelings. The acceptance suite re-runs these same functions.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import membership_oracle as oracle
from sparsepcm import DataSet
from sparsepcm.algorithms import AlgoConfig, run, update_theta
from sparsepcm.metrics import rand_measure, success_rate
from sparsepcm.solver import compute_lambda

_SUITE = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

# the solver stops at |f| <= 1e-10 * scale; 1e-6 in u absorbs the slack
_U_SLACK = 1e-6


@_SUITE
@given(
    d=st.floats(0.0, 50.0),
    step=st.floats(0.0, 10.0),
    gamma=st.floats(0.05, 5.0),
    p=st.floats(0.15, 0.85),
    K=st.floats(0.0, 0.95),
)
def test_membership_nonincreasing_in_distance(d, step, gamma, p, K):
    lam = compute_lambda(gamma, p, K)
    near = oracle.chosen(d, gamma, lam, p)
    far = oracle.chosen(d + step, gamma, lam, p)
    assert far <= near + _U_SLACK


@_SUITE
@given(
    d=st.floats(0.0, 50.0),
    gamma=st.floats(0.05, 5.0),
    widen=st.floats(1.0, 20.0),
    p=st.floats(0.15, 0.85),
    K=st.floats(0.0, 0.95),
)
def test_membership_nondecreasing_in_gamma(d, gamma, widen, p, K):
    # lam pinned at the narrow scale so only gamma varies
    lam = compute_lambda(gamma, p, K)
    narrow = oracle.chosen(d, gamma, lam, p)
    wide = oracle.chosen(d, gamma * widen, lam, p)
    assert wide >= narrow - _U_SLACK


@_SUITE
@given(
    d=st.floats(0.0, 50.0),
    gamma=st.floats(0.05, 5.0),
    p=st.floats(0.15, 0.85),
    K=st.floats(0.05, 0.95),
)
def test_zero_choice_matches_threshold_rule(d, gamma, p, K):
    """A nonzero answer must be a stationary point above the sparsity
    threshold; a zero answer must come with no root, or a root at or
    below the threshold."""
    lam = compute_lambda(gamma, p, K)
    u = oracle.chosen(d, gamma, lam, p)
    thr = oracle.threshold(gamma, lam, p)
    scale = d + gamma + lam + 1.0
    if u > 0.0:
        assert abs(oracle.f(u, d, gamma, lam, p)) <= 1e-6 * scale
        assert u >= thr - _U_SLACK
    else:
        root = oracle.larger_root(d, gamma, lam, p)
        assert root is None or root <= thr + _U_SLACK


@_SUITE
@given(
    seed=st.integers(0, 10**6),
    k=st.integers(2, 3),
    per_blob=st.integers(15, 24),
    spread=st.floats(0.15, 0.45),
    m_ini=st.integers(3, 6),
    alpha=st.floats(0.8, 2.0),
)
def test_adaptive_cluster_count_never_increases(
    seed, k, per_blob, spread, m_ini, alpha
):
    rng = np.random.default_rng(seed)
    centers = np.array([(0.0, 0.0), (4.0, 0.0), (2.0, 3.5)])[:k]
    pts = np.vstack([rng.normal(c, spread, size=(per_blob, 2)) for c in centers])
    report = run(
        DataSet(points=pts),
        AlgoConfig(algorithm="sapcm", m_ini=m_ini, alpha=alpha, seed=seed,
                   max_iter=50),
    )
    counts = [rec.m for rec in report.history]
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    assert report.m_final <= m_ini


@_SUITE
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(3, 40),
    dim=st.integers(1, 3),
    m=st.integers(1, 5),
    dead=st.lists(st.booleans(), min_size=1, max_size=5),
)
def test_theta_update_stays_inside_data_box(seed, n, dim, m, dead):
    rng = np.random.default_rng(seed)
    data = DataSet(points=rng.normal(0.0, 3.0, size=(n, dim)))
    theta_prev = rng.normal(0.0, 30.0, size=(m, dim))  # may start far outside
    u = rng.uniform(0.1, 1.0, size=(n, m))
    dead_cols = [j for j in range(m) if dead[j % len(dead)]]
    u[:, dead_cols] = 0.0
    theta = update_theta(u, data, theta_prev)
    lo, hi = data.points.min(axis=0), data.points.max(axis=0)
    for j in range(m):
        if j in dead_cols:
            np.testing.assert_array_equal(theta[j], theta_prev[j])
        else:
            assert np.all(theta[j] >= lo - 1e-9)
            assert np.all(theta[j] <= hi + 1e-9)


@_SUITE
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 60),
    k=st.integers(1, 4),
    m=st.integers(1, 5),
)
def test_metric_scores_ignore_label_identities(seed, n, k, m):
    rng = np.random.default_rng(seed)
    truth = rng.integers(1, k + 1, size=n)
    pred = rng.integers(0, m + 1, size=n)

    rm = rand_measure(pred, truth)
    sr, _ = success_rate(pred, truth, k)

    # renaming predicted clusters (0 stays 0)
    pperm = np.concatenate([[0], rng.permutation(m) + 1])
    assert rand_measure(pperm[pred], truth) == rm
    assert success_rate(pperm[pred], truth, k)[0] == sr

    # renaming true classes
    tperm = np.concatenate([[0], rng.permutation(k) + 1])
    assert rand_measure(pred, tperm[truth]) == rm
    assert success_rate(pred, tperm[truth], k)[0] == sr

    # shuffling the points
    order = rng.permutation(n)
    assert rand_measure(pred[order], truth[order]) == rm
    sr_s, per_s = success_rate(pred[order], truth[order], k)
    assert sr_s == sr
    assert per_s == success_rate(pred, truth, k)[1]
