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


def _check_pair(pred, truth):
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("pred and truth must be 1-D arrays of equal length")
    if truth.min() < 1:
        raise ValueError("truth labels must be >= 1 on evaluated points")
    return pred, truth


def _contingency(pred, truth):
    pred_ids, pi = np.unique(pred, return_inverse=True)
    truth_ids, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((truth_ids.size, pred_ids.size), dtype=np.int64)
    np.add.at(table, (ti, pi), 1)
    return table, pred_ids


def rand_measure(pred, truth) -> float:
    """Rand index over pairs of assigned points, scaled to [0, 100].

    Points with predicted label 0 are dropped before pairing. Returns
    0.0 when fewer than two assigned points remain (no pairs exist).
    """
    pred, truth = _check_pair(pred, truth)
    keep = pred > 0
    pred, truth = pred[keep], truth[keep]
    n = len(pred)
    if n < 2:
        return 0.0
    table, _ = _contingency(pred, truth)

    def pairs(x):
        x = x.astype(np.int64)
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
    if m_true < 1:
        raise ValueError("m_true must be >= 1")
    if truth.max() > m_true:
        raise ValueError("truth label exceeds m_true")
    assigned = pred > 0
    n = int(assigned.sum())
    class_sizes = np.bincount(truth[assigned], minlength=m_true + 1)[1:]
    pred_ids = np.unique(pred[assigned])
    if pred_ids.size == 0:
        return 0.0, [0.0] * m_true
    conf = np.zeros((m_true, pred_ids.size), dtype=np.int64)
    np.add.at(
        conf,
        (truth[assigned] - 1, np.searchsorted(pred_ids, pred[assigned])),
        1,
    )
    rows, cols = linear_sum_assignment(conf, maximize=True)
    correct_per_class = np.zeros(m_true, dtype=np.int64)
    correct_per_class[rows] = conf[rows, cols]
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
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    centers = np.atleast_2d(np.asarray(truth_centers, dtype=float))
    if theta.shape[1] != centers.shape[1]:
        raise ValueError("dimension mismatch between theta and truth_centers")
    dist = np.linalg.norm(centers[:, None, :] - theta[None, :, :], axis=2)
    if theta.shape[0] >= centers.shape[0]:
        rows, cols = linear_sum_assignment(dist)
        return float(dist[rows, cols].mean())
    return float(dist.min(axis=1).mean())
