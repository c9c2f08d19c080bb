"""Clustering evaluation: Rand measure, success rate, mean center distance.

Success rate and mean distance both rest on an optimal one-to-one
matching, which _assignment solves exactly in plain Python, so the
package needs numpy alone.

Conventions shared by all three: true labels run 1..m_true, predicted
labels are arbitrary nonnegative ints where 0 means "unassigned/noise".
Points the algorithm left unassigned (predicted 0) are excluded from
the pairing and matching universe: both scores describe the quality of
the labeling the algorithm actually produced, not its coverage.
Coverage shows up separately (zero-label fraction, m_final, MD).
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigurationError, NumericalError, float_array, label_array, natural


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
    rows, cols = _assignment(conf, maximize=True)
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
    theta, centers = float_array(theta, "theta"), float_array(truth_centers, "truth_centers")
    if theta.shape[1] != centers.shape[1]:
        raise ConfigurationError("dimension mismatch between theta and truth_centers")
    if not (theta.size and centers.size):
        raise ConfigurationError("theta and truth_centers need at least one row each")
    # in units of the largest power of two not above any coordinate's
    # magnitude: scaled coordinates lie within ±2, so no square overflows,
    # and a power-of-two unit keeps the unscaled bits
    top = float(max(np.abs(theta).max(), np.abs(centers).max()))
    scale = math.ldexp(0.5, math.frexp(top)[1])
    dist = np.linalg.norm(centers[:, None, :] / scale - theta[None, :, :] / scale, axis=2)
    if math.isinf(float(dist.max()) * scale):
        raise NumericalError("truth_centers lie farther from theta than float64 can hold")
    if theta.shape[0] >= centers.shape[0]:
        rows, cols = _assignment(dist)
        return float(dist[rows, cols].mean() * scale)
    return float(dist.min(axis=1).mean() * scale)


def score(data, labels, theta):
    """rm, sr, sr_per_cluster and md of labels over the points of data with a
    positive true label (None if there is none), against len(truth_centers)
    classes, else the largest true label; md is None without truth_centers.
    labels must hold one label per point of data."""
    labels = label_array(labels, "labels")
    if labels.shape != (data.n_points,):
        raise ConfigurationError(f"{labels.size} labels for {data.n_points} points")
    if data.truth_labels is None or not (data.truth_labels > 0).any():
        return None
    mask, centers = data.truth_labels > 0, data.truth_centers
    truth, pred = data.truth_labels[mask], labels[mask]
    sr, sr_pc = success_rate(pred, truth, int(truth.max()) if centers is None else len(centers))
    md = None if centers is None else mean_distance(theta, centers)
    return {"rm": rand_measure(pred, truth), "sr": sr, "sr_per_cluster": sr_pc, "md": md}


def _assignment(cost, maximize=False):
    """(rows, cols) of a one-to-one matching of the shorter side of cost into
    the longer with the least total cost (the most with maximize), the
    arrays and tie-breaking of scipy's linear_sum_assignment.

    Shortest augmenting paths, one row at a time (Crouse, IEEE TAES 52
    (2016) 1679-1696). A non-finite cost raises NumericalError.
    """
    cost = np.asarray(cost, dtype=float)
    if not np.isfinite(cost).all():
        raise NumericalError("assignment cost is not finite")
    transpose = cost.shape[1] < cost.shape[0]
    c = -cost if maximize else cost
    if transpose:
        c = c.T
    nr, nc = c.shape
    c = c.tolist()
    u, v, path = [0.0] * nr, [0.0] * nc, [-1] * nc
    col4row, row4col = [-1] * nr, [-1] * nc
    for cur in range(nr):
        # columns scanned last first, the chosen one swapped with the last:
        # scipy's order, which decides between equal-cost matchings
        remaining, short = list(range(nc - 1, -1, -1)), [math.inf] * nc
        cols, i, min_val, sink = [], cur, 0.0, -1
        while sink < 0:
            lowest, index = math.inf, -1
            for k, j in enumerate(remaining):
                r = min_val + c[i][j] - u[i] - v[j]
                if r < short[j]:
                    path[j], short[j] = i, r
                # on a tie, prefer a free column: it ends the path
                if short[j] < lowest or (short[j] == lowest and row4col[j] < 0):
                    lowest, index = short[j], k
            min_val, j = lowest, remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # duals: every column on the path, and the row matched to each but the sink
        u[cur] += min_val
        for j in cols:
            v[j] -= min_val - short[j]
            if j != sink:
                u[row4col[j]] += min_val - short[j]
        j, i = sink, -1
        while i != cur:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    if transpose:
        order = np.argsort(col4row)
        return np.asarray(col4row)[order], order
    return np.arange(nr), np.asarray(col4row)
