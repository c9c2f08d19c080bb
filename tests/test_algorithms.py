import numpy as np
import pytest

from sparsepcm.algorithms import (
    AlgoConfig,
    adapt_eta,
    assign_labels,
    eliminate_clusters,
    remove_duplicates,
    run,
    update_theta,
)
from sparsepcm.core import (
    ClusterModel,
    ConfigurationError,
    DataSet,
    DegenerateRunError,
    NumericalError,
    squared_distances,
)
from sparsepcm.fcm import gamma_init_pcm, run_fcm
from sparsepcm.solver import compute_lambda, update_memberships

import reference_tables as ref


def _blob(seed=0, n=150, loc=(0.0, 0.0), scale=0.4):
    rng = np.random.default_rng(seed)
    return DataSet(points=rng.normal(loc=loc, scale=scale, size=(n, 2)))


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AlgoConfig("kmeans", 3)
    with pytest.raises(ConfigurationError):
        AlgoConfig("pcm", 0)
    with pytest.raises(ConfigurationError):
        AlgoConfig("spcm", 3, K=1.0)
    with pytest.raises(ConfigurationError):
        AlgoConfig("spcm", 3, p=0.0)
    with pytest.raises(ConfigurationError):
        AlgoConfig("sapcm", 3)  # alpha required for the adaptive modes
    for bad in [
        dict(m_ini=2.5), dict(m_ini="2"), dict(m_ini=True), dict(max_iter=3.5),
        dict(seed=-1), dict(seed=1.0), dict(alpha="1"), dict(p=None),
        dict(theta_tol=float("nan")), dict(B=float("inf")), dict(K=True),
    ]:
        with pytest.raises(ConfigurationError):
            AlgoConfig(**{"algorithm": "sapcm", "m_ini": 3, "alpha": 1.0, **bad})


def test_config_k_defaults():
    assert AlgoConfig("spcm", 3).K == 0.9
    assert AlgoConfig("sapcm", 3, alpha=1.0).K == 0.1
    # the non-sparse modes pin K to zero no matter what was passed
    assert AlgoConfig("pcm", 3).K == 0.0
    assert AlgoConfig("apcm", 3, alpha=1.0, K=0.7).K == 0.0
    assert AlgoConfig("spcm", 3, K=0.4).K == 0.4


# ---------------------------------------------------------- label helpers


def test_assign_labels_argmax_and_zeros():
    u = np.array([
        [0.9, 0.1],
        [0.2, 0.6],
        [0.0, 0.0],
        [0.5, 0.5],
    ])
    labels, n, mu = assign_labels(u)
    assert labels.tolist() == [1, 2, 0, 1]  # ties go to the lowest index
    assert n.tolist() == [2, 1]
    assert mu is None


def test_assign_labels_means():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0]])
    u = np.array([[1.0, 0.0], [0.8, 0.0], [0.0, 0.9]])
    labels, n, mu = assign_labels(u, pts)
    np.testing.assert_allclose(mu[0], [1.0, 0.0])
    np.testing.assert_allclose(mu[1], [10.0, 10.0])


def test_eliminate_clusters_renumbers():
    data = DataSet(points=np.array([[0.0], [0.1], [5.0]]))
    model = ClusterModel(
        theta=np.array([[0.0], [2.5], [5.0]]),
        gamma=np.array([1.0, 1.0, 1.0]),
        lam=0.0,
        p=0.5,
    )
    u = np.array([
        [0.9, 0.0, 0.0],
        [0.8, 0.0, 0.0],
        [0.0, 0.0, 0.7],
    ])
    labels, n, mu = assign_labels(u, data.points)
    new_model, labels, n, mu, removed = eliminate_clusters(model, labels, n, mu)
    assert removed == [1]
    assert new_model.m == 2
    assert labels.tolist() == [1, 1, 2]
    np.testing.assert_allclose(new_model.theta[:, 0], [0.0, 5.0])


def test_eliminate_all_clusters_raises():
    data = DataSet(points=np.array([[0.0], [1.0]]))
    model = ClusterModel(theta=np.array([[9.0]]), gamma=np.array([1.0]), lam=0.0, p=0.5)
    u = np.zeros((2, 1))
    labels, n, mu = assign_labels(u, data.points)
    with pytest.raises(DegenerateRunError):
        eliminate_clusters(model, labels, n, mu)


def test_adapt_eta_mean_absolute_deviation():
    data = DataSet(points=np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]]))
    labels = np.array([1, 1, 2])
    mu = np.array([[1.0, 0.0], [1.0, 3.0]])
    eta = adapt_eta(data, labels, np.array([2, 1]), mu)
    assert eta[0] == pytest.approx(1.0)       # two points, one unit away each
    assert eta[1] == pytest.approx(1e-9)      # singleton clamps to the floor


def test_update_theta_freezes_dead_columns():
    data = DataSet(points=np.array([[0.0, 0.0], [4.0, 0.0]]))
    theta_prev = np.array([[1.0, 1.0], [7.0, 7.0]])
    u = np.array([[0.5, 0.0], [0.5, 0.0]])
    theta = update_theta(u, data, theta_prev)
    np.testing.assert_allclose(theta[0], [2.0, 0.0])
    np.testing.assert_allclose(theta[1], [7.0, 7.0])  # untouched


# ------------------------------------------------------- duplicate merge


def _model(theta, gamma):
    return ClusterModel(
        theta=np.asarray(theta, dtype=float),
        gamma=np.asarray(gamma, dtype=float),
        lam=0.0,
        p=0.5,
    )


def test_remove_duplicates_keeps_lowest_index():
    model = _model([[0.0, 0.0], [0.4, 0.0], [3.0, 0.0]], [1.0, 1.0, 1.0])
    out = remove_duplicates(model)
    assert out.m == 2
    np.testing.assert_allclose(out.theta[:, 0], [0.0, 3.0])  # keeps lowest index


def test_remove_duplicates_radius_rule():
    # gap 0.8 with radii 1.0: inside 1.5x the smaller radius, merged;
    # gap 4.0: kept
    model = _model([[0.0, 0.0], [0.8, 0.0], [4.0, 0.0]], [1.0, 1.0, 1.0])
    out = remove_duplicates(model)
    assert out.m == 2
    # same gap but tight scales: 0.8 > 1.5 * sqrt(0.04), both survive
    model = _model([[0.0, 0.0], [0.8, 0.0]], [0.04, 0.04])
    assert remove_duplicates(model).m == 2
    model = _model([[0.0, 0.0], [0.8, 0.0]], [1.0, 0.04])
    assert remove_duplicates(model).m == 2  # the smaller radius decides


def test_remove_duplicates_is_idempotent():
    model = _model(
        [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [5.0, 5.0]],
        [1.0, 1.0, 1.0, 1.0],
    )
    once = remove_duplicates(model)
    twice = remove_duplicates(once)
    assert once.m == twice.m == 2
    np.testing.assert_array_equal(once.theta, twice.theta)


# ------------------------------------------------------------- full runs


def test_pcm_single_blob_collapses_to_one():
    data = _blob()
    report = run(data, AlgoConfig("pcm", 2, seed=0))
    assert report.m_final == 1
    assert (report.labels_final == 1).all()
    assert np.linalg.norm(report.theta_final[0] - data.points.mean(axis=0)) < 0.1


def test_spcm_two_blob_run_shape(two_blobs):
    report = run(two_blobs, AlgoConfig("spcm", 5, seed=0))
    assert report.algorithm == "spcm"
    assert report.m_final == 2
    assert report.metrics is not None
    assert report.metrics["sr"] >= 92.0
    assert len(report.history) == report.iterations
    # sparsity shows up in the final labels: far tail points sit outside
    # every influence zone and stay unassigned
    assert (report.labels_final == 0).any()
    assert set(np.unique(report.labels_final)) <= {0, 1, 2}


def test_spcm_lambda_constant_over_iterations(two_blobs):
    report = run(two_blobs, AlgoConfig("spcm", 5, seed=0))
    lams = {rec.lam for rec in report.history}
    assert len(lams) == 1
    assert lams.pop() > 0.0


def test_apcm_mode_runs_with_zero_lambda(two_blobs):
    report = run(two_blobs, AlgoConfig("apcm", 3, alpha=2.0, seed=0))
    assert all(rec.lam == 0.0 for rec in report.history)


def test_sapcm_cluster_count_never_increases():
    data = make_three_groups()
    report = run(data, AlgoConfig("sapcm", 6, alpha=1.0, seed=0))
    ms = [rec.m for rec in report.history]
    assert all(a >= b for a, b in zip(ms, ms[1:]))
    assert report.m_final == ms[-1]


def make_three_groups(seed=1):
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal(loc=(0.0, 0.0), scale=0.3, size=(80, 2)),
        rng.normal(loc=(4.0, 0.0), scale=0.3, size=(60, 2)),
        rng.normal(loc=(2.0, 3.5), scale=0.3, size=(60, 2)),
    ])
    labels = np.array([1] * 80 + [2] * 60 + [3] * 60)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]])
    return DataSet(points=pts, truth_labels=labels, truth_centers=centers)


def test_sapcm_recovers_three_groups():
    data = make_three_groups()
    report = run(data, AlgoConfig("sapcm", 6, alpha=1.0, seed=0))
    assert report.m_final == 3
    assert report.metrics["sr"] >= 98.0
    assert report.metrics["md"] <= 0.15


def test_coincident_representatives_larger_scale_wins():
    """Two representatives on the same spot: the wider influence zone
    collects every point, so the narrow twin is eliminated in one pass."""
    data = _blob(n=100)
    theta = np.array([[0.0, 0.0], [0.0, 0.0]])
    gamma = np.array([0.25, 2.0])
    lam = compute_lambda(float(gamma.min()), 0.5, 0.1)
    model = ClusterModel(theta=theta, gamma=gamma, lam=lam, p=0.5)
    u = update_memberships(squared_distances(data, theta), model)
    labels, n, mu = assign_labels(u, data.points)
    new_model, _, _, _, removed = eliminate_clusters(model, labels, n, mu)
    assert removed == [0]
    assert new_model.m == 1
    assert new_model.gamma[0] == pytest.approx(2.0)


def test_spcm_far_outlier_is_unassigned():
    rng = np.random.default_rng(8)
    pts = np.vstack([
        rng.normal(loc=(0.0, 0.0), scale=0.3, size=(60, 2)),
        rng.normal(loc=(3.0, 0.0), scale=0.3, size=(60, 2)),
        [[60.0, 60.0]],
    ])
    data = DataSet(points=pts)
    report = run(data, AlgoConfig("spcm", 2, seed=0))
    assert report.labels_final[-1] == 0


def test_run_without_labeled_points_has_no_metrics():
    # truth labels that are all noise leave nothing to score
    data = _blob()
    data = DataSet(points=data.points, truth_labels=np.zeros(data.n_points, dtype=int))
    report = run(data, AlgoConfig("pcm", 2, seed=0))
    assert report.metrics is None
    assert report.m_final == 1


@pytest.mark.parametrize("algorithm, alpha", [("spcm", None), ("sapcm", 1.0)])
def test_subnormal_distances_raise_numerical_error(algorithm, alpha):
    # at 1e-160 the squared distances are subnormal and 1/d overflows in
    # the FCM seeding: a numerical limit, not a configuration error
    data = DataSet(points=_blob().points * 1e-160)
    with pytest.raises(NumericalError, match="float64 range"):
        run(data, AlgoConfig(algorithm, 3, alpha=alpha, seed=0))


# ----------------------------------------------- 17-point set snapshots


def test_first_iteration_snapshots_match_reference(tiny_two_cluster_set):
    """Memberships computed from the shared initialization agree with the
    pinned first-iteration columns of both algorithms."""
    data = tiny_two_cluster_set
    fcm = run_fcm(data, 2, seed=0)
    order = np.argsort(fcm.theta[:, 0])
    gamma = gamma_init_pcm(fcm)[order]
    theta = fcm.theta[order]
    d = squared_distances(data, theta)

    u_pcm = np.exp(-d / gamma)
    np.testing.assert_allclose(u_pcm, ref.PCM_ITER1, atol=0.03)

    lam = compute_lambda(float(gamma.min()), 0.5, 0.9)
    model = ClusterModel(theta=theta, gamma=gamma, lam=lam, p=0.5)
    u_spcm = update_memberships(d, model)
    np.testing.assert_allclose(u_spcm, ref.SPCM_ITER1, atol=0.02)
    np.testing.assert_array_equal(u_spcm == 0.0, ref.SPCM_ITER1 == 0.0)
