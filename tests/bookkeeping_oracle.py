"""Reference forms of the adaptive bookkeeping.

adapt_eta is the plain form of sparsepcm.algorithms.adapt_eta: one mask,
mean and norm per cluster. The production version does the same work
in grouped passes whose sums add in another order than .mean(), so
the two scales agree to rounding only.

adapt_eta_grouped is the grouped form over the labeled points alone,
with the label-group means gathered to an N x l matrix and the squared
deviations summed per row. The production version takes the same sums
one feature at a time; for fewer than 8 features numpy's row sum adds
left to right too, so the two agree bit for bit.
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


def adapt_eta_grouped(data, labels, m, floor):
    """The scales of adapt_eta through one grouped pass over the points
    whose label is not 0."""
    own = labels > 0
    lab, pts = labels[own] - 1, data.points[own]
    count = np.bincount(lab, minlength=m)
    means = np.stack([np.bincount(lab, col, m) for col in pts.T], axis=1) / count[:, None]
    dist = np.sqrt(np.square(pts - means[lab]).sum(axis=1))
    return np.maximum(np.bincount(lab, dist, m) / count, floor)
