"""A run's outcome depends on the data, not on its frame.

The paper's cost uses only Euclidean distances, so moving the points
and the truth centers by a reflection, a reordering of the features or
a rotation must give the same clustering.

- Reflection x -> -x negates every coordinate exactly, and every sum
  and product of a run rounds the same way for a value and its
  negation. So it keeps every bit: theta comes back negated, and
  gamma, lam, the memberships, the labels, the metrics and the counts
  are equal.
- Reversing the order of the features changes the order in which the
  squared distances add up, so theta may move by rounding. The counts,
  the flags and the labels may not move.
- A rotation by one fixed orthogonal matrix per feature count rounds
  every coordinate, so theta, rotated back, may move by rounding. The
  counts, the flags and the labels may not move.

The case list is fixed, 46 runs: iris and experiment1 under their
benchmark settings, and small_n_runs(range(10)). The worst theta gap
reads 4.1e-15 with reversed features and 8.4e-15 rotated.
"""

import json

import numpy as np
import pytest

from sparsepcm import make_fixture
from sparsepcm.algorithms import AlgoConfig, run
from sparsepcm.core import DataSet

from record_digest import small_n_runs


def _cases():
    iris, experiment1 = make_fixture("iris"), make_fixture("experiment1")
    for algorithm, settings in (("sapcm", {"m_ini": 3, "alpha": 2.2}),
                                ("apcm", {"m_ini": 3, "alpha": 2.2}),
                                ("spcm", {"m_ini": 10}), ("pcm", {"m_ini": 10})):
        yield pytest.param(iris, AlgoConfig(algorithm, **settings), id=f"iris/{algorithm}")
    for algorithm in ("pcm", "spcm"):
        yield pytest.param(experiment1, AlgoConfig(algorithm, 2), id=f"experiment1/{algorithm}")
    for name, data, config in small_n_runs(range(10)):
        yield pytest.param(data, config, id=name)


def _moved(data, frame):
    """data with its points and truth centers mapped by frame."""
    centers = None if data.truth_centers is None else frame(data.truth_centers)
    return DataSet(points=frame(data.points), truth_labels=data.truth_labels,
                   truth_centers=centers)


def _reverse_features(a):
    return np.ascontiguousarray(a[:, ::-1])


def _rotation(n_features):
    """A fixed orthogonal matrix: Q of the QR factors of a seed-0 standard
    normal draw, each column's sign set so that diag(R) is positive."""
    q, r = np.linalg.qr(np.random.default_rng(0).standard_normal((n_features, n_features)))
    return q * np.sign(np.diag(r))


def _rotate(a):
    return a @ _rotation(a.shape[1]).T


def _assert_same_outcome(base, moved, theta_back, data):
    """moved has base's counts, flags and labels, and theta_back, its theta
    mapped back to base's frame, lies within 1e-12 of the data's std."""
    for name in ("m_final", "iterations", "fcm_iterations", "converged"):
        assert getattr(moved, name) == getattr(base, name), name
    np.testing.assert_array_equal(moved.labels_final, base.labels_final)
    gap = np.abs(theta_back - base.theta_final) / data.points.std(axis=0)
    assert gap.max() <= 1e-12


def _record(report, sign=1.0):
    """report.to_dict() without wall_time, every theta times sign, as JSON text:
    equal texts mean equal bits."""
    doc = {k: v for k, v in report.to_dict().items() if k != "wall_time"}
    doc["theta_final"] = (sign * report.theta_final).tolist()
    for rec, entry in zip(report.history, doc["history"]):
        entry["theta"] = (sign * rec.theta).tolist()
    return json.dumps(doc)


@pytest.mark.parametrize("data, config", _cases())
def test_a_reflection_keeps_every_bit(data, config):
    base, reflected = run(data, config), run(_moved(data, np.negative), config)
    assert _record(reflected, sign=-1.0) == _record(base)
    assert reflected.memberships.tobytes() == base.memberships.tobytes()


@pytest.mark.parametrize("data, config", _cases())
def test_reversed_features_keep_the_outcome(data, config):
    base, reversed_ = run(data, config), run(_moved(data, _reverse_features), config)
    _assert_same_outcome(base, reversed_, reversed_.theta_final[:, ::-1], data)


@pytest.mark.parametrize("data, config", _cases())
def test_a_rotation_keeps_the_outcome(data, config):
    base, rotated = run(data, config), run(_moved(data, _rotate), config)
    _assert_same_outcome(base, rotated, rotated.theta_final @ _rotation(data.n_features), data)
