import numpy as np
import pytest

from sparsepcm import ConfigurationError, DataSet, DegenerateClusterError
from sparsepcm.fcm import eta_init_sapcm, gamma_init_pcm, run_fcm


def _blobs(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(0.0, 0.0), scale=0.3, size=(120, 2))
    b = rng.normal(loc=(5.0, 5.0), scale=0.3, size=(80, 2))
    return DataSet(points=np.vstack([a, b]))


def test_fcm_memberships_are_row_stochastic():
    data = _blobs()
    res = run_fcm(data, 3, seed=1)
    assert res.u_fcm.shape == (200, 3)
    np.testing.assert_allclose(res.u_fcm.sum(axis=1), 1.0, atol=1e-9)
    assert res.u_fcm.min() >= 0.0


def test_fcm_finds_separated_blob_centers():
    data = _blobs()
    res = run_fcm(data, 2, seed=0)
    centers = res.theta[np.argsort(res.theta[:, 0])]
    assert np.linalg.norm(centers[0] - [0.0, 0.0]) < 0.2
    assert np.linalg.norm(centers[1] - [5.0, 5.0]) < 0.2


def test_fcm_seeding_is_reproducible():
    data = _blobs()
    r1 = run_fcm(data, 4, seed=123)
    r2 = run_fcm(data, 4, seed=123)
    np.testing.assert_array_equal(r1.theta, r2.theta)


def test_fcm_rejects_bad_arguments():
    data = _blobs()
    with pytest.raises(ConfigurationError):
        run_fcm(data, 0)
    with pytest.raises(ConfigurationError):
        run_fcm(data, 201)


def test_gamma_init_reference_values(tiny_two_cluster_set):
    """FCM-weighted mean squared distances on the 17-point set.

    The two-cluster table pins the initial scales at 0.6147 and 1.2678
    (left and right group respectively).
    """
    res = run_fcm(tiny_two_cluster_set, 2, seed=0)
    gamma = gamma_init_pcm(res)
    order = np.argsort(res.theta[:, 0])
    assert gamma[order][0] == pytest.approx(0.6147, abs=5e-4)
    assert gamma[order][1] == pytest.approx(1.2678, abs=5e-4)


def test_gamma_init_scales_with_b(tiny_two_cluster_set):
    res = run_fcm(tiny_two_cluster_set, 2, seed=0)
    g1 = gamma_init_pcm(res, B=1.0)
    g2 = gamma_init_pcm(res, B=2.0)
    np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12)
    with pytest.raises(ConfigurationError):
        gamma_init_pcm(res, B=0.0)


def test_eta_init_uses_unsquared_distances(tiny_two_cluster_set):
    res = run_fcm(tiny_two_cluster_set, 2, seed=0)
    eta = eta_init_sapcm(res)
    gamma = gamma_init_pcm(res)
    assert (eta > 0).all()
    # mean |d| and mean d^2 agree only for constant distances; on this
    # set the root of the squared average strictly exceeds the average
    assert (eta < np.sqrt(gamma)).all()


def test_degenerate_data_raises():
    pts = np.ones((5, 2))
    with pytest.raises(DegenerateClusterError):
        res = run_fcm(DataSet(points=pts), 2, seed=0)
        gamma_init_pcm(res)

