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


def test_dataset_truth_label_validation():
    pts = np.zeros((3, 2))
    DataSet(points=pts, truth_labels=[0, 1, 2])
    with pytest.raises(ConfigurationError):
        DataSet(points=pts, truth_labels=[1, 2])
    with pytest.raises(ConfigurationError):
        DataSet(points=pts, truth_labels=[-1, 0, 1])
    with pytest.raises(ConfigurationError):
        DataSet(points=pts, truth_centers=np.zeros((2, 3)))


def test_squared_distances_matches_manual():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 3))
    theta = rng.normal(size=(4, 3))
    d = squared_distances(DataSet(points=x), theta)
    manual = ((x[:, None, :] - theta[None, :, :]) ** 2).sum(axis=2)
    assert d.shape == (20, 4)
    np.testing.assert_allclose(d, manual, atol=1e-12)
    assert (d >= 0).all()


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
        wall_time=0.01,
        theta_final=np.array([[1.0, 2.0]]),
        gamma_final=np.array([0.5]),
        lam_final=0.125,
        labels_final=np.array([1, 1, 0]),
        seed=9,
        metrics={"rm": 100.0, "sr": 100.0, "sr_per_cluster": [100.0], "md": 0.0},
        history=[rec],
    )
    doc = report.to_dict()
    back = RunReport.from_dict(doc)
    assert back.algorithm == "spcm"
    assert back.m_final == 1
    assert back.labels_final.tolist() == [1, 1, 0]
    np.testing.assert_allclose(back.theta_final, report.theta_final)
    assert back.lam_final == 0.125
    assert back.history[0].lam == pytest.approx(0.25)
    assert back.metrics["sr"] == pytest.approx(100.0)
