"""Invariant checks driven by hypothesis.

Six suites, each run at a thousand cases: solver monotonicity in the
distance, solver monotonicity in the scale, the zero-vs-root decision
trace, the cluster count trajectory of the adaptive sparse run, theta
updates staying inside the data box, and metric invariance under
relabelings. The acceptance suite calls these same functions; each
suite runs once per session, and a second call replays its outcome.

A seventh check, on fixed draws, scales whole runs by powers of two,
and an eighth suite feeds whole runs degenerate inputs.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import membership_oracle as oracle
from sparsepcm import DataSet
from sparsepcm.algorithms import AlgoConfig, run, update_theta
from sparsepcm.core import ClusteringError
from sparsepcm.metrics import rand_measure, success_rate
from sparsepcm.solver import compute_lambda

_SUITE = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

_OUTCOMES = {}


def _once(suite):
    """suite, run at most once per session: later calls return or raise as
    the first did. The suites are derandomized, so a rerun adds nothing."""
    @functools.wraps(suite)
    def replay():
        if suite not in _OUTCOMES:
            try:
                suite()
            except Exception as exc:
                _OUTCOMES[suite] = exc
                raise
            _OUTCOMES[suite] = None
        elif _OUTCOMES[suite] is not None:
            raise _OUTCOMES[suite]
    return replay


# memberships compared across two solves, or against the oracle's brentq
# root and threshold, each carry their own rounding; 1e-6 in u absorbs it
_U_SLACK = 1e-6


@_once
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


@_once
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


@_once
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


@_once
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


@_once
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
    u = rng.uniform(0.1, 1.0, size=(n, m))
    live = np.array([not dead[j % len(dead)] for j in range(m)])
    u[:, ~live] = 0.0
    theta = update_theta(u, data, live)
    assert theta.shape == (live.sum(), dim)
    lo, hi = data.points.min(axis=0), data.points.max(axis=0)
    assert np.all(theta >= lo - 1e-9)
    assert np.all(theta <= hi + 1e-9)


@_once
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


def _blob_draw(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    centers = np.array([(0.0, 0.0), (4.0, 0.0), (2.0, 3.5)])[:k]
    spread = float(rng.uniform(0.15, 0.45))
    pts = np.vstack([rng.normal(c, spread, size=(int(rng.integers(15, 25)), 2))
                     for c in centers])
    return pts, int(rng.integers(3, 7)), float(rng.uniform(0.8, 2.0))


@pytest.mark.parametrize("algorithm", ["pcm", "spcm", "sapcm", "apcm"])
def test_runs_are_equivariant_under_power_of_two_scaling(algorithm):
    """Points and theta_tol times 2**k give theta times 2**k, gamma and
    lam times 4**k, and the same labels, cluster count and iterations,
    bit for bit: no step of a run carries units of its own."""
    for seed in range(6):
        pts, m_ini, alpha = _blob_draw(seed)
        knobs = dict(algorithm=algorithm, m_ini=m_ini, seed=seed, max_iter=100,
                         alpha=alpha if algorithm in ("sapcm", "apcm") else None)
        base = run(DataSet(points=pts), AlgoConfig(**knobs))
        for k in (-300, -30, 30, 300):
            scaled = run(DataSet(points=pts * 2.0**k),
                         AlgoConfig(theta_tol=1e-6 * 2.0**k, **knobs))
            np.testing.assert_array_equal(scaled.theta_final, base.theta_final * 2.0**k)
            np.testing.assert_array_equal(scaled.gamma_final, base.gamma_final * 4.0**k)
            assert scaled.lam_final == base.lam_final * 4.0**k
            np.testing.assert_array_equal(scaled.labels_final, base.labels_final)
            assert (scaled.m_final, scaled.iterations) == (base.m_final, base.iterations)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    algorithm=st.sampled_from(["pcm", "spcm", "sapcm", "apcm"]),
    seed=st.integers(0, 10**6),
    n=st.integers(1, 12),
    dim=st.integers(1, 3),
    m_ini=st.integers(1, 6),
    copies=st.integers(1, 3),
    constant_column=st.booleans(),
    offset=st.sampled_from([0.0, 1.0]) | st.integers(-300, 300).map(lambda e: 10.0**e),
    scale=st.integers(-150, 150).map(lambda e: 10.0**e),
    alpha=st.integers(-300, 300).map(lambda e: 10.0**e),
)
def test_degenerate_inputs_give_a_finite_model_or_a_clustering_error(
    algorithm, seed, n, dim, m_ini, copies, constant_column, offset, scale, alpha
):
    """Duplicates, N <= m_ini, 1-D data, a constant column, offsets up to
    1e300, scales of 1e+-150 and alpha over 1e+-300: a run returns finite
    representatives and scales or raises a ClusteringError. Any numpy
    warning fails the test as well."""
    rng = np.random.default_rng(seed)
    pts = np.repeat(rng.normal(size=(n, dim)) * scale + offset, copies, axis=0)
    if constant_column:
        pts[:, 0] = pts[0, 0]
    config = AlgoConfig(algorithm=algorithm, m_ini=m_ini, seed=seed, max_iter=60,
                        alpha=alpha if algorithm in ("sapcm", "apcm") else None)
    try:
        report = run(DataSet(points=pts), config)
    except ClusteringError:
        return
    assert np.isfinite(report.theta_final).all()
    assert np.isfinite(report.gamma_final).all() and (report.gamma_final > 0).all()
