"""Clustering evaluation: Rand measure, success rate, mean center distance.

Conventions shared by all three: true labels run 1..m_true, predicted
labels are arbitrary nonnegative ints where 0 means "unassigned/noise".
Callers evaluate only points whose true label is positive. Points the
algorithm left unassigned (predicted 0) are excluded from the pairing
and matching universe: both scores describe the quality of the labeling
the algorithm actually produced, not its coverage. Coverage shows up
separately (zero-label fraction, m_final, MD).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import ConfigurationError, float_array, label_array, natural


def _check_pair(pred, truth):
    pred, truth = label_array(pred, "predicted labels"), label_array(truth, "truth labels", 1)
    if pred.shape != truth.shape or not pred.size:
        raise ConfigurationError("pred and truth must be nonempty 1-D arrays of equal length")
    return pred, truth


def _confusion(pred, truth, m_true):
    """Counts of (true class, predicted cluster) over the assigned points.

    Row c is class c + 1; the columns follow the sorted distinct positive
    predicted labels. Points with predicted label 0 are left out.
    """
    keep = pred > 0
    pred_ids, col = np.unique(pred[keep], return_inverse=True)
    table = np.zeros((m_true, pred_ids.size), dtype=np.int64)
    np.add.at(table, (truth[keep] - 1, col), 1)
    return table


def rand_measure(pred, truth) -> float:
    """Rand index over pairs of assigned points, scaled to [0, 100].

    Points with predicted label 0 are dropped before pairing. Returns
    0.0 when fewer than two assigned points remain (no pairs exist).
    """
    pred, truth = _check_pair(pred, truth)
    table = _confusion(pred, truth, int(truth.max()))
    n = int(table.sum())
    if n < 2:
        return 0.0

    def pairs(x):
        return (x * (x - 1) // 2).sum()

    total = n * (n - 1) // 2
    together_both = pairs(table.ravel())
    same_pred = pairs(table.sum(axis=0))
    same_truth = pairs(table.sum(axis=1))
    agree = total + 2 * together_both - same_pred - same_truth
    return 100.0 * agree / total


def success_rate(pred, truth, m_true: int):
    """Fraction of correctly labeled points under the best one-to-one
    matching of predicted clusters to true classes.

    Returns (sr, sr_per_cluster) in percent. Unassigned points (pred 0)
    are excluded from both numerator and denominators; the confusion
    matrix over the remaining points is matched by maximum-weight
    assignment. Points in unmatched predicted clusters and points of
    unmatched true classes count as errors.
    """
    pred, truth = _check_pair(pred, truth)
    natural(m_true, "m_true", 1)
    if truth.max() > m_true:
        raise ConfigurationError("truth label exceeds m_true")
    conf = _confusion(pred, truth, m_true)
    n = int(conf.sum())
    if n == 0:
        return 0.0, [0.0] * m_true
    rows, cols = linear_sum_assignment(conf, maximize=True)
    correct_per_class = np.zeros(m_true, dtype=np.int64)
    correct_per_class[rows] = conf[rows, cols]
    class_sizes = conf.sum(axis=1)
    sr = 100.0 * correct_per_class.sum() / n
    sr_pc = [
        100.0 * correct_per_class[c] / class_sizes[c] if class_sizes[c] else 0.0
        for c in range(m_true)
    ]
    return float(sr), sr_pc


def mean_distance(theta, truth_centers) -> float:
    """Mean distance between true centers and their representatives.

    With at least as many representatives as true centers the pairing is
    the one-to-one assignment minimizing total distance (surplus
    representatives are ignored); with fewer, every true center simply
    takes its nearest representative, reuse allowed.
    """
    theta, centers = _rows(theta, "theta"), _rows(truth_centers, "truth_centers")
    if theta.shape[1] != centers.shape[1]:
        raise ConfigurationError("dimension mismatch between theta and truth_centers")
    if not (theta.size and centers.size):
        raise ConfigurationError("theta and truth_centers need at least one row each")
    dist = np.linalg.norm(centers[:, None, :] - theta[None, :, :], axis=2)
    if theta.shape[0] >= centers.shape[0]:
        rows, cols = linear_sum_assignment(dist)
        return float(dist[rows, cols].mean())
    return float(dist.min(axis=1).mean())


def _rows(a, name):
    """a, a 2-D array or a single 1-D row, as a 2-D float array."""
    try:
        a = np.atleast_2d(a)
    except ValueError:  # ragged nesting, which float_array reports
        pass
    return float_array(a, name)
