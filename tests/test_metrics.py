import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from sparsepcm import AlgoConfig, run
from sparsepcm.core import ConfigurationError, DataSet, NumericalError
from sparsepcm.metrics import (
    _assignment,
    mean_distance,
    rand_measure,
    score,
    success_rate,
)


def test_perfect_labeling():
    truth = np.array([1, 1, 2, 2, 3])
    assert rand_measure(truth, truth) == pytest.approx(100.0)
    sr, per = success_rate(truth, truth, 3)
    assert sr == pytest.approx(100.0)
    assert per == pytest.approx([100.0, 100.0, 100.0])


def test_success_rate_ignores_cluster_numbering():
    truth = np.array([1, 1, 2, 2])
    pred = np.array([2, 2, 1, 1])
    sr, per = success_rate(pred, truth, 2)
    assert sr == pytest.approx(100.0)


def test_unassigned_points_are_excluded():
    # four points, one left unassigned: the remaining three are perfect,
    # so every score stays at 100 over the assigned universe
    truth = np.array([1, 1, 2, 2])
    pred = np.array([1, 1, 2, 0])
    assert rand_measure(pred, truth) == pytest.approx(100.0)
    sr, per = success_rate(pred, truth, 2)
    assert sr == pytest.approx(100.0)
    assert per == pytest.approx([100.0, 100.0])


def test_fully_unassigned_class_scores_zero():
    truth = np.array([1, 1, 2, 2])
    pred = np.array([1, 1, 0, 0])
    sr, per = success_rate(pred, truth, 2)
    assert sr == pytest.approx(100.0)
    assert per == pytest.approx([100.0, 0.0])


def test_collapse_scores_hand_computed():
    # 4 + 2 points all mapped to one cluster. SR = 4/6. Pairs within the
    # prediction: C(6,2)=15 all "same"; truth agrees on C(4,2)+C(2,2)=7
    truth = np.array([1] * 4 + [2] * 2)
    pred = np.ones(6, dtype=int)
    sr, per = success_rate(pred, truth, 2)
    assert sr == pytest.approx(100.0 * 4 / 6)
    assert per == pytest.approx([100.0, 0.0])
    assert rand_measure(pred, truth) == pytest.approx(100.0 * 7 / 15)


def test_rand_measure_hand_computed():
    truth = np.array([1, 1, 2, 2])
    pred = np.array([1, 1, 1, 2])
    # agreements: pair(0,1) same/same, pairs(0,3),(1,3) diff/diff,
    # pair(2,3) same/diff X, pairs(0,2),(1,2) diff/same X -> 3/6
    assert rand_measure(pred, truth) == pytest.approx(50.0)


def test_all_points_unassigned_gives_zero():
    truth = np.array([1, 2])
    pred = np.array([0, 0])
    assert rand_measure(pred, truth) == 0.0
    sr, per = success_rate(pred, truth, 2)
    assert sr == 0.0
    assert per == [0.0, 0.0]


def test_more_predicted_than_true_clusters():
    truth = np.array([1, 1, 1, 2, 2, 2])
    pred = np.array([1, 1, 3, 2, 2, 2])
    sr, per = success_rate(pred, truth, 2)
    assert sr == pytest.approx(100.0 * 5 / 6)
    assert per == pytest.approx([100.0 * 2 / 3, 100.0])


def test_truth_labels_must_be_positive():
    with pytest.raises(ConfigurationError, match="truth labels must be >= 1"):
        rand_measure(np.array([1, 1]), np.array([0, 1]))
    with pytest.raises(ConfigurationError, match="truth labels must be >= 1"):
        success_rate(np.array([1, 1]), np.array([0, 1]), 1)
    with pytest.raises(ConfigurationError, match="equal length"):
        rand_measure(np.array([1]), np.array([1, 2]))


def test_argument_errors_are_configuration_errors():
    pair = np.array([1, 2]), np.array([1, 2])
    # m_true is a count: a fraction or a bool is refused, not truncated
    for pred, truth, m_true in (([1, 2], [1, 2], 0), ([1, 1, 2], [1, 1, 2], 2.5),
                                ([1, 1, 2], [1, 1, 1], True)):
        with pytest.raises(ConfigurationError, match="m_true must be an integer >= 1"):
            success_rate(pred, truth, m_true)
    with pytest.raises(ConfigurationError, match="truth label exceeds m_true"):
        success_rate(*pair, 1)
    for score in (rand_measure, lambda p, t: success_rate(p, t, 2)):
        with pytest.raises(ConfigurationError, match="nonempty"):
            score(np.array([], dtype=int), np.array([], dtype=int))
        # a negative prediction is no cluster, and labels are not truncated
        with pytest.raises(ConfigurationError, match="predicted labels must be >= 0"):
            score([-1, 1, 1], [1, 1, 2])
        for pred, truth in (([1.7, 1, 1], [1, 1, 2]), ([1, 1, 2], [1, 1.5, 2])):
            with pytest.raises(ConfigurationError, match="whole numbers"):
                score(pred, truth)
        # whole-number floats are labels, as in DataSet's truth_labels
        assert score([1.0, 1.0, 2.0], [1, 1, 2.0]) == score([1, 1, 2], [1, 1, 2])
    with pytest.raises(ConfigurationError, match="dimension mismatch"):
        mean_distance(np.zeros((2, 3)), np.zeros((2, 2)))
    for theta, centers in ((np.zeros((0, 2)), np.zeros((1, 2))),
                           (np.zeros((1, 2)), np.zeros((0, 2)))):
        with pytest.raises(ConfigurationError, match="at least one row"):
            mean_distance(theta, centers)
    # non-finite, text, ragged and 1-D input is refused with the argument's name
    for theta, centers, name in ((np.array([[np.nan, 0.0]]), np.zeros((1, 2)), "theta"),
                                 ("ab", np.zeros((1, 2)), "theta"),
                                 ([3.0, 4.0], np.zeros((1, 2)), "theta"),
                                 (np.zeros((1, 2)), [[0.0, 0.0], [1.0]], "truth_centers")):
        with pytest.raises(ConfigurationError, match=f"^{name} "):
            mean_distance(theta, centers)


def test_mean_distance_optimal_assignment():
    centers = np.array([[0.0, 0.0], [10.0, 0.0]])
    theta = np.array([[10.0, 1.0], [0.0, 1.0]])
    # the crosswise pairing costs 1 each; the greedy same-index pairing
    # would cost about 10 each
    assert mean_distance(theta, centers) == pytest.approx(1.0)


def test_mean_distance_with_missing_representatives():
    centers = np.array([[0.0, 0.0], [10.0, 0.0]])
    theta = np.array([[1.0, 0.0]])
    # fewer representatives than true centers: each center looks at its
    # nearest representative
    assert mean_distance(theta, centers) == pytest.approx((1.0 + 9.0) / 2)


def test_mean_distance_extra_representatives():
    centers = np.array([[0.0, 0.0]])
    theta = np.array([[0.5, 0.0], [50.0, 0.0]])
    assert mean_distance(theta, centers) == pytest.approx(0.5)


def _assignment_tables():
    """Seeded tables up to 8 x 8: random floats, 0-2 and 0-49 integers for
    ties, and the degenerate shapes and constant tables."""
    rng = np.random.default_rng(1679)
    for _ in range(700):
        shape = rng.integers(1, 9, size=2)
        yield rng.random(shape)
        yield rng.integers(0, 3, shape)
        yield rng.integers(0, 50, shape)
    for k in range(1, 9):
        yield rng.random((1, k))
        yield rng.integers(0, 3, (1, k))
        for n in range(1, 9):
            yield np.full((n, k), 7.0)
            yield np.zeros((n, k), dtype=int)


def test_assignment_matches_scipy():
    """The same matching as scipy's linear_sum_assignment, not just the same
    optimum: sr_per_cluster depends on which optimal matching is taken."""
    checked = 0
    for table in _assignment_tables():
        for cost in (table, table.T):
            for maximize in (False, True):
                want = linear_sum_assignment(cost, maximize=maximize)
                got = _assignment(cost, maximize=maximize)
                assert cost[got].sum() == cost[want].sum()
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
                checked += 1
    assert checked >= 5000


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assignment_refuses_a_non_finite_cost(bad):
    for maximize in (False, True):
        with pytest.raises(NumericalError, match="not finite"):
            _assignment(np.array([[1.0, bad], [2.0, 3.0]]), maximize=maximize)


def test_mean_distance_beyond_squares_range():
    """Distances whose squares overflow are still scored; one that float64
    cannot hold raises NumericalError naming truth_centers."""
    rng = np.random.default_rng(0)
    points = np.vstack([rng.normal(0.0, 0.3, (30, 2)), rng.normal(4.0, 0.3, (30, 2))])
    data = DataSet(points=points, truth_labels=np.repeat([1, 2], 30),
                   truth_centers=[[0.0, 0.0], [1e160, 0.0]])
    md = run(data, AlgoConfig("spcm", 2, seed=0)).metrics["md"]
    assert md == pytest.approx(5e159, rel=1e-12)
    assert mean_distance([[3e200, 4e200]], [[0.0, 0.0]]) == pytest.approx(5e200)
    with pytest.raises(NumericalError, match="^truth_centers "):
        mean_distance([[-1e308, 0.0]], [[1e308, 0.0]])


_FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0], [5.0, 1.0]])


def test_score_without_truth_labels_is_none():
    data = DataSet(points=_FOUR_POINTS)
    assert score(data, np.array([1, 1, 2, 2]), _FOUR_POINTS[[0, 2]]) is None


def test_score_with_noise_only_truth_is_none():
    data = DataSet(points=_FOUR_POINTS, truth_labels=[0, 0, 0, 0])
    assert score(data, np.array([1, 1, 2, 2]), _FOUR_POINTS[[0, 2]]) is None


def test_score_without_centers_counts_classes_to_the_largest_label():
    # class 2 is absent: m_true is the largest label, 3, and class 2 scores 0
    data = DataSet(points=_FOUR_POINTS, truth_labels=[1, 1, 3, 3])
    scores = score(data, np.array([1, 1, 2, 2]), _FOUR_POINTS[[0, 2]])
    assert list(scores) == ["rm", "sr", "sr_per_cluster", "md"]
    assert scores["md"] is None
    assert scores["rm"] == pytest.approx(100.0)
    assert scores["sr"] == pytest.approx(100.0)
    assert scores["sr_per_cluster"] == pytest.approx([100.0, 0.0, 100.0])


def test_score_counts_a_center_whose_class_drew_no_points():
    # the noise point (truth 0) is not scored; class 3 has a center but no point
    points = np.vstack([_FOUR_POINTS, [[9.0, 9.0]]])
    centers = [[0.0, 0.5], [5.0, 0.5], [20.0, 0.0]]
    data = DataSet(points=points, truth_labels=[1, 1, 2, 2, 0], truth_centers=centers)
    scores = score(data, np.array([1, 1, 2, 2, 1]), np.array(centers))
    assert list(scores) == ["rm", "sr", "sr_per_cluster", "md"]
    assert scores["sr"] == pytest.approx(100.0)
    assert scores["sr_per_cluster"] == pytest.approx([100.0, 100.0, 0.0])
    assert scores["md"] == 0.0


@pytest.mark.parametrize("labels", [[1, 1, 2], [1, 1, 2, 2, 1], [1, 1, 2, 2.5], "1122"])
def test_score_refuses_labels_that_do_not_fit_the_points(labels):
    data = DataSet(points=_FOUR_POINTS, truth_labels=[1, 1, 2, 2])
    with pytest.raises(ConfigurationError, match="labels"):
        score(data, labels, _FOUR_POINTS[[0, 2]])
