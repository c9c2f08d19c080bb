"""Reference per-cluster loop for the adaptive bookkeeping.

This is the plain form of sparsepcm.algorithms.adapt_eta: one mask,
mean and norm per cluster. The production version does the same work
in one grouped pass whose sums add in another order than .mean(), so
the two scales agree to rounding only.
"""

import numpy as np


def adapt_eta(data, labels, m, floor):
    """Mean distance of each cluster's labeled points to their mean, one
    cluster at a time; every cluster 1..m must own a label."""
    eta = np.empty(m)
    for j in range(m):
        pts = data.points[labels == j + 1]
        eta[j] = np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean()
    return np.maximum(eta, floor)
