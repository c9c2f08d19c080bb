import json

import numpy as np
import pytest

from sparsepcm import (
    ClusteringError,
    ConfigurationError,
    DataSet,
    RunReport,
)
from sparsepcm.core import ClusterModel, IterationRecord, squared_distances


def test_dataset_coerces_to_float_matrix():
    d = DataSet(points=[[1, 2], [3, 4]])
    assert d.points.dtype == np.float64
    assert d.points.shape == (2, 2)
    assert d.n_points == 2 and d.n_features == 2


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        DataSet(points=np.zeros((0, 2)))
    with pytest.raises(ConfigurationError):
        DataSet(points=np.zeros(5))
    with pytest.raises(ConfigurationError):
        DataSet(points=[[1.0, np.nan]])
    # text, bools and ragged rows are not numbers
    for bad in ([["1", "2"]], [[True, False]], [[1.0], [1.0, 2.0]]):
        with pytest.raises(ConfigurationError):
            DataSet(points=bad)


def test_dataset_truth_label_validation():
    pts = np.zeros((3, 2))
    DataSet(points=pts, truth_labels=[0, 1, 2])
    with pytest.raises(ConfigurationError):
        DataSet(points=pts, truth_labels=[1, 2])
    with pytest.raises(ConfigurationError):
        DataSet(points=pts, truth_labels=[-1, 0, 1])
    # every positive label needs its generator mean
    DataSet(points=pts, truth_labels=[0, 1, 2], truth_centers=np.zeros((2, 2)))
    with pytest.raises(ConfigurationError):
        DataSet(points=pts, truth_labels=[0, 1, 2], truth_centers=np.zeros((1, 2)))
    with pytest.raises(ConfigurationError):
        DataSet(points=pts, truth_centers=np.zeros((2, 3)))


def test_squared_distances_matches_manual():
    rng = np.random.default_rng(0)
    for n_features in (1, 3, 5):
        x = rng.normal(size=(20, n_features))
        theta = rng.normal(size=(4, n_features))
        x[7] = theta[2]
        d = squared_distances(DataSet(points=x), theta)
        manual = ((x[:, None, :] - theta[None, :, :]) ** 2).sum(axis=2)
        assert d.shape == (20, 4)
        np.testing.assert_allclose(d, manual, atol=1e-12)
        assert (d >= 0).all()
        # a point on a representative is exactly at distance zero
        assert d[7, 2] == 0.0
        for order in "CF":
            out = np.full((20, 4), np.nan, order=order)
            assert squared_distances(DataSet(points=x), theta, out=out) is out
            np.testing.assert_array_equal(out, d)
            assert out[7, 2] == 0.0


def test_cluster_model_validation():
    theta = np.zeros((2, 2))
    ClusterModel(theta=theta, gamma=np.ones(2), lam=0.1, p=0.5)
    with pytest.raises(ConfigurationError):
        ClusterModel(theta=theta, gamma=np.ones(3), lam=0.1, p=0.5)
    with pytest.raises(ConfigurationError):
        ClusterModel(theta=theta, gamma=np.array([1.0, 0.0]), lam=0.1, p=0.5)
    with pytest.raises(ConfigurationError):
        ClusterModel(theta=theta, gamma=np.ones(2), lam=-1.0, p=0.5)
    with pytest.raises(ConfigurationError):
        ClusterModel(theta=theta, gamma=np.ones(2), lam=0.1, p=1.0)


def test_cluster_model_select_keeps_rows():
    model = ClusterModel(
        theta=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
        gamma=np.array([1.0, 2.0, 3.0]),
        lam=0.0,
        p=0.5,
    )
    sub = model.select(np.array([True, False, True]))
    assert sub.m == 2
    np.testing.assert_allclose(sub.gamma, [1.0, 3.0])
    np.testing.assert_allclose(sub.theta[1], [2.0, 2.0])


def test_exception_hierarchy():
    assert issubclass(ConfigurationError, ClusteringError)


def test_run_report_round_trips_through_dict():
    rec = IterationRecord(
        iteration=0,
        theta=np.array([[1.0, 2.0]]),
        gamma=np.array([0.5]),
        lam=0.25,
        m=1,
        max_move=0.1,
    )
    report = RunReport(
        algorithm="spcm",
        m_ini=3,
        m_final=1,
        iterations=7,
        fcm_iterations=300,
        fcm_converged=False,
        wall_time=0.01,
        theta_final=np.array([[1.0, 2.0]]),
        gamma_final=np.array([0.5]),
        lam_final=0.125,
        labels_final=np.array([1, 1, 0]),
        seed=9,
        metrics={"rm": 100.0, "sr": 100.0, "sr_per_cluster": [100.0], "md": 0.0},
        history=[rec],
    )
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["algorithm"] == "spcm"
    assert doc["m_final"] == 1
    assert doc["fcm_iterations"] == 300
    assert doc["fcm_converged"] is False
    assert doc["labels_final"] == [1, 1, 0]
    np.testing.assert_allclose(doc["theta_final"], report.theta_final)
    assert doc["lam_final"] == 0.125
    assert doc["history"][0]["lambda"] == pytest.approx(0.25)
    assert doc["metrics"]["sr"] == pytest.approx(100.0)
