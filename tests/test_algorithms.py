import re
from dataclasses import replace

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
        dict(theta_tol=float("nan")), dict(K=True),
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
    labels = assign_labels(u)
    assert labels.tolist() == [1, 2, 0, 1]  # ties go to the lowest index


def test_assign_labels_means():
    # the label-group means are taken inside adapt_eta: (1, 0) for the
    # first group and (10, 10) for the singleton
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0]])
    u = np.array([[1.0, 0.0], [0.8, 0.0], [0.0, 0.9]])
    labels = assign_labels(u)
    assert labels.tolist() == [1, 1, 2]
    eta = adapt_eta(DataSet(points=pts), labels, 2, 1e-9)
    assert eta[0] == pytest.approx(1.0)
    assert eta[1] == pytest.approx(1e-9)
    # a three-point group, measured from its mean (1, 1)
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    eta = adapt_eta(DataSet(points=pts), np.array([1, 1, 1]), 1, 1e-9)
    assert eta[0] == pytest.approx((np.sqrt(2.0) + 2.0 * np.sqrt(5.0)) / 3.0)


def test_eliminate_clusters_renumbers():
    u = np.array([
        [0.9, 0.0, 0.0],
        [0.8, 0.0, 0.0],
        [0.0, 0.0, 0.7],
    ])
    labels = assign_labels(u)
    keep = np.bincount(labels, minlength=u.shape[1] + 1)[1:] > 0
    assert keep.tolist() == [True, False, True]
    assert eliminate_clusters(labels, keep).tolist() == [1, 1, 2]
    # a dropped cluster's points and the noise label 0 both map to 0
    keep = np.array([False, True, True])
    assert eliminate_clusters(np.array([0, 1, 2, 3]), keep).tolist() == [0, 0, 1, 2]


def test_adapt_eta_mean_absolute_deviation():
    data = DataSet(points=np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]]))
    labels = np.array([1, 1, 2])
    # deviations are measured from each label group's own mean, here
    # (1, 0) and (1, 3), not from any representative
    eta = adapt_eta(data, labels, 2, 1e-9)
    assert eta[0] == pytest.approx(1.0)       # two points, one unit away each
    assert eta[1] == pytest.approx(1e-9)      # singleton clamps to the floor


@pytest.mark.parametrize("algorithm", ["pcm", "spcm", "sapcm", "apcm"])
def test_run_raises_when_no_cluster_is_left(algorithm, monkeypatch):
    # memberships that are all zero leave no cluster for any point
    monkeypatch.setattr(
        "sparsepcm.algorithms.update_memberships",
        lambda d, gamma, lam, p: np.zeros_like(d),
    )
    with pytest.raises(DegenerateRunError, match="no point has a compatible cluster"):
        run(_blob(n=40), AlgoConfig(algorithm, 3, alpha=1.0, seed=0))


def test_update_theta_returns_only_live_rows():
    data = DataSet(points=np.array([[0.0, 0.0], [4.0, 0.0]]))
    u = np.array([[0.5, 0.0, 0.25], [0.5, 0.0, 0.75]])
    theta = update_theta(u, data, np.array([True, False, True]))
    np.testing.assert_allclose(theta, [[2.0, 0.0], [3.0, 0.0]])
    # a column with mass that is not live is left out as well
    theta = update_theta(u, data, np.array([False, False, True]))
    np.testing.assert_allclose(theta, [[3.0, 0.0]])


@pytest.mark.parametrize("algorithm", ["pcm", "spcm"])
def test_emptied_column_is_dropped_on_the_spot(algorithm, monkeypatch):
    """A start that leaves one representative with no point inside its
    zero-membership radius loses it in the first iteration, not at the end."""
    far = np.array([[1e3, 1e3]])

    def start_with_a_far_representative(data, m, tol, seed=0, max_iter=300):
        res = run_fcm(data, m, tol, seed=seed, max_iter=max_iter)
        # the far row keeps a scale fit for the blob, so no point reaches it
        return replace(res, theta=np.vstack([res.theta[:-1], far]))

    monkeypatch.setattr("sparsepcm.algorithms.run_fcm", start_with_a_far_representative)
    report = run(_blob(n=60), AlgoConfig(algorithm, 3))
    counts = [rec.m for rec in report.history]
    assert counts[0] == 3
    assert len(counts) > 1 and all(m == 2 for m in counts[1:])
    assert not np.isclose(report.theta_final, far).all(axis=1).any()
    assert np.abs(report.theta_final).max() < 5.0


# ------------------------------------------------------- duplicate merge


def _keep(theta, gamma):
    return remove_duplicates(
        np.asarray(theta, dtype=float), np.asarray(gamma, dtype=float)
    ).tolist()


def test_remove_duplicates_keeps_lowest_index():
    # the first two merge and the lower index survives
    assert _keep([[0.0, 0.0], [0.4, 0.0], [3.0, 0.0]], [1.0, 1.0, 1.0]) == [True, False, True]


def test_remove_duplicates_radius_rule():
    # gap 0.8 with radii 1.0: inside 1.5x the smaller radius, merged;
    # gap 4.0: kept
    assert _keep([[0.0, 0.0], [0.8, 0.0], [4.0, 0.0]], [1.0, 1.0, 1.0]) == [True, False, True]
    # same gap but tight scales: 0.8 > 1.5 * sqrt(0.04), both survive
    assert _keep([[0.0, 0.0], [0.8, 0.0]], [0.04, 0.04]) == [True, True]
    # the smaller radius decides
    assert _keep([[0.0, 0.0], [0.8, 0.0]], [1.0, 0.04]) == [True, True]


def test_remove_duplicates_is_idempotent():
    theta = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [5.0, 5.0]])
    gamma = np.ones(4)
    once = remove_duplicates(theta, gamma)
    assert once.tolist() == [True, False, False, True]
    twice = remove_duplicates(theta[once], gamma[once])
    assert twice.tolist() == [True, True]


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
    # plain FCM stopped at its 300-step cap on this draw; SQUAREM converges
    assert report.fcm_converged and report.fcm_iterations < 300
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
    u = update_memberships(squared_distances(data, theta), gamma, lam, 0.5)
    labels = assign_labels(u)
    keep = np.bincount(labels, minlength=len(gamma) + 1)[1:] > 0
    assert keep.tolist() == [False, True]
    assert (eliminate_clusters(labels, keep) == 1).all()


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


@pytest.mark.parametrize("offset", [1e170, 1e300, 1e150])
def test_offset_past_the_rounding_slack_raises_numerical_error(offset):
    # one rounding step of a weighted mean near 1e170 is about 1e154, and its
    # square overflows; the run must say so before any distance does
    points = np.random.default_rng(0).normal(size=(40, 2)) + offset
    if offset > 1e160:
        with pytest.raises(NumericalError, match=re.escape(f"coordinates up to {offset:.3g}")):
            run(DataSet(points=points), AlgoConfig("pcm", 3))
    else:
        report = run(DataSet(points=points), AlgoConfig("pcm", 3))
        assert np.isfinite(report.theta_final).all()


def test_distances_whose_sum_overflows_raise_numerical_error():
    # each squared distance fits in float64, their sum over 40 points does not
    points = np.array([[-5e153], [5e153]] * 20)
    with pytest.raises(NumericalError, match="summed over 40 points"):
        run(DataSet(points=points), AlgoConfig("pcm", 1))


@pytest.mark.parametrize("scale, alpha", [
    (1e100, 1e-300),  # gamma overflows
    (1e-100, 1e300),  # gamma underflows to 0
])
def test_alpha_pushing_gamma_out_of_range_raises_numerical_error(scale, alpha):
    points = np.random.default_rng(0).normal(size=(40, 2)) * scale
    with pytest.raises(NumericalError, match=re.escape(f"alpha={alpha:.3g}")):
        run(DataSet(points=points), AlgoConfig("apcm", 3, alpha=alpha))


def test_tiny_gamma_gives_zero_memberships_without_overflow():
    # gamma near 1e-308 puts every d/gamma past float range: u = 0 exactly,
    # so no point has a compatible cluster
    points = np.random.default_rng(0).normal(size=(40, 2))
    with pytest.raises(DegenerateRunError, match="no point has a compatible cluster"):
        run(DataSet(points=points), AlgoConfig("sapcm", 3, alpha=1e308))
    u = update_memberships(np.array([[1.0, 0.0]]), np.array([1e-308, 1e-308]), 0.0, 0.5)
    np.testing.assert_array_equal(u, [[0.0, 1.0]])


# ----------------------------------------------- 17-point set snapshots


def test_first_iteration_snapshots_match_reference(tiny_two_cluster_set):
    """Memberships computed from the shared initialization agree with the
    pinned first-iteration columns of both algorithms."""
    data = tiny_two_cluster_set
    fcm = run_fcm(data, 2, tol=1e-6, seed=0)
    order = np.argsort(fcm.theta[:, 0])
    gamma = gamma_init_pcm(fcm)[order]
    theta = fcm.theta[order]
    d = squared_distances(data, theta)

    u_pcm = np.exp(-d / gamma)
    np.testing.assert_allclose(u_pcm, ref.PCM_ITER1, atol=0.03)

    lam = compute_lambda(float(gamma.min()), 0.5, 0.9)
    u_spcm = update_memberships(d, gamma, lam, 0.5)
    np.testing.assert_allclose(u_spcm, ref.SPCM_ITER1, atol=0.02)
    np.testing.assert_array_equal(u_spcm == 0.0, ref.SPCM_ITER1 == 0.0)
