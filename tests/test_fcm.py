import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcm_oracle
from sparsepcm import (
    ClusteringError,
    ConfigurationError,
    DataSet,
    DegenerateClusterError,
    NumericalError,
    make_fixture,
)
from sparsepcm import fcm
from sparsepcm.fcm import _fcm_memberships, eta_init_sapcm, gamma_init_pcm, run_fcm


def _blobs(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(0.0, 0.0), scale=0.3, size=(120, 2))
    b = rng.normal(loc=(5.0, 5.0), scale=0.3, size=(80, 2))
    return DataSet(points=np.vstack([a, b]))


def test_fcm_memberships_are_row_stochastic():
    data = _blobs()
    res = run_fcm(data, 3, tol=1e-6, seed=1)
    assert res.u_fcm.shape == (200, 3)
    np.testing.assert_allclose(res.u_fcm.sum(axis=1), 1.0, atol=1e-9)
    assert res.u_fcm.min() >= 0.0


def test_fcm_finds_separated_blob_centers():
    data = _blobs()
    res = run_fcm(data, 2, tol=1e-6, seed=0)
    centers = res.theta[np.argsort(res.theta[:, 0])]
    assert np.linalg.norm(centers[0] - [0.0, 0.0]) < 0.2
    assert np.linalg.norm(centers[1] - [5.0, 5.0]) < 0.2


def test_fcm_seeding_is_reproducible():
    data = _blobs()
    r1 = run_fcm(data, 4, tol=1e-6, seed=123)
    r2 = run_fcm(data, 4, tol=1e-6, seed=123)
    np.testing.assert_array_equal(r1.theta, r2.theta)


def test_fcm_rejects_bad_arguments():
    data = _blobs()
    with pytest.raises(ConfigurationError):
        run_fcm(data, 0, tol=1e-6)
    with pytest.raises(ConfigurationError):
        run_fcm(data, 201, tol=1e-6)


def test_gamma_init_reference_values(tiny_two_cluster_set):
    """FCM-weighted mean squared distances on the 17-point set.

    The two-cluster table pins the initial scales at 0.6147 and 1.2678
    (left and right group respectively).
    """
    res = run_fcm(tiny_two_cluster_set, 2, tol=1e-6, seed=0)
    gamma = gamma_init_pcm(res)
    order = np.argsort(res.theta[:, 0])
    assert gamma[order][0] == pytest.approx(0.6147, abs=5e-4)
    assert gamma[order][1] == pytest.approx(1.2678, abs=5e-4)


def test_eta_init_uses_unsquared_distances(tiny_two_cluster_set):
    res = run_fcm(tiny_two_cluster_set, 2, tol=1e-6, seed=0)
    eta = eta_init_sapcm(res)
    gamma = gamma_init_pcm(res)
    assert (eta > 0).all()
    # mean |d| and mean d^2 agree only for constant distances; on this
    # set the root of the squared average strictly exceeds the average
    assert (eta < np.sqrt(gamma)).all()


def test_degenerate_data_raises():
    pts = np.ones((5, 2))
    with pytest.raises(DegenerateClusterError):
        res = run_fcm(DataSet(points=pts), 2, tol=1e-6, seed=0)
        gamma_init_pcm(res)


@pytest.mark.parametrize("init", [gamma_init_pcm, eta_init_sapcm])
def test_a_zero_membership_column_raises(init):
    """run_fcm never returns a column without mass, so a hand-built result
    reaches the guard. Without it gamma or eta would be 0/0 (NaN), and a
    later step would raise the wrong error."""
    u = np.asfortranarray([[1.0, 0.0], [1.0, 0.0]])
    d = np.asfortranarray([[1.0, 4.0], [4.0, 1.0]])
    res = fcm.FcmResult(theta=np.zeros((2, 2)), u_fcm=u, d=d, iterations=1, converged=True)
    with pytest.raises(DegenerateClusterError, match="^zero membership column in FCM result$"):
        init(res)


def _one_dimensional_set():
    rng = np.random.default_rng(3)
    return DataSet(points=np.concatenate([
        rng.normal(-2.0, 0.4, size=40), rng.normal(1.0, 0.2, size=25),
        rng.normal(4.0, 0.8, size=60),
    ])[:, None])


_ORACLE_CASES = [
    ("experiment1", 2, 0),
    ("one-dimensional", 3, 0),
    ("iris", 10, 0),
    # plain FCM stops at its 300-step cap on these three
    ("example1", 5, 0),
    ("example1", 5, 1),
    ("example1", 5, 2),
]


def _oracle_case_data(case, seed, tiny_two_cluster_set, iris_data):
    if case == "example1":
        return make_fixture(case, seed=seed)
    return {
        "experiment1": tiny_two_cluster_set,
        "one-dimensional": _one_dimensional_set(),
        "iris": iris_data,
    }[case]


def _j2(data, theta):
    """The FCM objective sum_ij u_ij^2 d_ij at the memberships theta gives."""
    d = fcm_oracle.squared_distances(data, theta)
    u = fcm_oracle.memberships(d)
    return (u * u * d).sum()


@pytest.mark.parametrize("max_iter", [1, 2])
@pytest.mark.parametrize("case, m, seed", _ORACLE_CASES)
def test_run_fcm_plain_steps_match_allocating_oracle(
        case, m, seed, max_iter, tiny_two_cluster_set, iris_data):
    """Within two evaluations no extrapolation happens, so these are the
    plain map G, bit for bit."""
    data = _oracle_case_data(case, seed, tiny_two_cluster_set, iris_data)
    res = run_fcm(data, m, tol=1e-6, seed=seed, max_iter=max_iter)
    theta, u_fcm, d, iterations = fcm_oracle.run_fcm(
        data, m, tol=1e-6, seed=seed, max_iter=max_iter)
    np.testing.assert_array_equal(res.theta, theta)
    np.testing.assert_array_equal(res.u_fcm, u_fcm)
    np.testing.assert_array_equal(res.d, d)
    assert res.u_fcm.flags.f_contiguous and res.d.flags.f_contiguous
    assert res.iterations == iterations == max_iter
    mass = u_fcm.sum(axis=0)
    for got, values in [(gamma_init_pcm(res), d), (eta_init_sapcm(res), np.sqrt(d))]:
        np.testing.assert_array_equal(got.view(np.int64),
                                      ((u_fcm * values).sum(axis=0) / mass).view(np.int64))


@pytest.mark.parametrize("case, m, seed", _ORACLE_CASES)
def test_run_fcm_matches_allocating_oracle(case, m, seed, tiny_two_cluster_set, iris_data):
    """The accelerated run reaches the plain map's fixed point: converged,
    a fixed point of one oracle step, no worse in J2 than 300 plain steps
    and within 1e-3 of plain FCM run to convergence."""
    data = _oracle_case_data(case, seed, tiny_two_cluster_set, iris_data)
    tol = 1e-6
    res = run_fcm(data, m, tol=tol, seed=seed)
    assert res.converged
    assert res.iterations < 300
    u = fcm_oracle.memberships(fcm_oracle.squared_distances(data, res.theta))
    w = u * u
    step = (w.T @ data.points) / w.sum(axis=0)[:, None]
    assert np.linalg.norm(step - res.theta, axis=1).max() < tol
    capped, *_ = fcm_oracle.run_fcm(data, m, tol=tol, seed=seed)
    assert _j2(data, res.theta) <= _j2(data, capped) * (1.0 + 1e-12)
    full, *_, iterations = fcm_oracle.run_fcm(data, m, tol=tol, seed=seed, max_iter=5000)
    assert iterations < 5000
    np.testing.assert_allclose(res.theta, full, rtol=0.0, atol=1e-3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    draw=st.integers(0, 2**32 - 1),
    k=st.integers(2, 3),
    per_blob=st.integers(1, 25),
    # 0 gives duplicate points, 1e-160 subnormal distances
    spread=st.sampled_from([0.0, 1e-160]) | st.floats(0.0, 0.45),
    m=st.integers(1, 6),
)
def test_run_fcm_raises_only_where_oracle_raises(draw, k, per_blob, spread, m):
    """Small blob draws like the benchmark's small-n case: no warning, no
    failure the plain loop does not also hit, and representatives inside
    the data box."""
    rng = np.random.default_rng(draw)
    centers = np.array([(0.0, 0.0), (4.0, 0.0), (2.0, 3.5)])[:k]
    data = DataSet(points=np.repeat(centers, per_blob, axis=0)
                   + rng.normal(scale=spread, size=(k * per_blob, 2)))
    m = min(m, data.n_points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = run_fcm(data, m, tol=1e-6, seed=draw)
        except ClusteringError as exc:
            with pytest.raises(type(exc)):
                fcm_oracle.run_fcm(data, m, tol=1e-6, seed=draw)
            return
    slack = 1e-12 * np.abs(data.points).max()
    assert (res.theta >= data.points.min(axis=0) - slack).all()
    assert (res.theta <= data.points.max(axis=0) + slack).all()


@pytest.mark.parametrize("scale, overflows", [(1e160, True), (1e150, False)])
def test_run_fcm_rejects_a_span_whose_square_overflows(scale, overflows):
    points = np.random.default_rng(0).normal(size=(40, 2)) * scale
    data = DataSet(points=points)
    if overflows:
        with pytest.raises(NumericalError, match="span .* overflows"):
            run_fcm(data, 3, tol=1e-6)
    else:
        res = run_fcm(data, 3, tol=1e-6 * scale)
        assert np.isfinite(res.d).all()


def test_fcm_memberships_split_zero_distance_rows():
    d = np.array([[0.0, 0.0, 4.0], [1.0, 1.0, 2.0]])
    u = _fcm_memberships(d)
    np.testing.assert_array_equal(u[0], [0.5, 0.5, 0.0])
    np.testing.assert_allclose(u[1], [0.4, 0.4, 0.2])
    np.testing.assert_array_equal(u, fcm_oracle.memberships(d))


def test_fcm_memberships_subnormal_row_raises_beside_a_zero_row():
    d = np.array([[0.0, 1.0], [1e-310, 2e-310], [1.0, 2.0]])
    with pytest.raises(NumericalError, match="float64 range"):
        _fcm_memberships(d)


def test_fcm_step_raises_when_a_cluster_loses_all_mass():
    # every point sits on representative 1 or 2, so representative 3 gets no mass
    data = DataSet(points=np.array([(0.0, 0.0)] * 3 + [(2.0, 0.0)] * 3))
    theta = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0)])
    d, w = np.empty((6, 3), order="F"), np.empty((6, 3), order="F")
    with pytest.raises(DegenerateClusterError, match="lost all membership mass"):
        fcm._fcm_step(data, theta, d, w, 1e-6)


@pytest.mark.parametrize("error", [DegenerateClusterError, NumericalError])
def test_squarem_falls_back_when_the_extrapolated_step_raises(monkeypatch, two_blobs, error):
    plain = run_fcm(two_blobs, 3, tol=1e-6, seed=0)
    calls, step = [], fcm._fcm_step

    def failing_third_call(*args):
        calls.append(1)
        if len(calls) == 3:  # the first extrapolated evaluation
            raise error("injected")
        return step(*args)

    monkeypatch.setattr(fcm, "_fcm_step", failing_third_call)
    res = run_fcm(two_blobs, 3, tol=1e-6, seed=0)
    assert res.iterations == len(calls) > 3
    assert res.converged
    np.testing.assert_allclose(res.theta, plain.theta, rtol=0.0, atol=1e-3)
