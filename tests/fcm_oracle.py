"""Reference FCM loop that allocates fresh arrays at every step.

This is the plain form of sparsepcm.fcm.run_fcm: each step builds its
distance matrix from a column-major np.zeros, as the production loop's
buffers are, its weights from 1/d and its squared weights from u * u,
each in d's layout, with a full d == 0 pass for coincident points. The
production loop reuses its buffers instead, with the same arithmetic in
the same order, so the two must agree bit for bit. Only the seeding and
the membership-mass floor are shared with it.
"""

import numpy as np

from sparsepcm.core import DegenerateClusterError, NumericalError
from sparsepcm.fcm import _DENOM_FLOOR, _seed_representatives


def squared_distances(data, theta):
    """N x m squared distances, column-major, summed from zero one feature
    at a time."""
    x = data.points
    d = np.zeros((x.shape[0], theta.shape[0]), order="F")
    for k in range(x.shape[1]):
        diff = x[:, k, None] - theta[None, :, k]
        d += diff * diff
    return d


def memberships(d):
    """Row-stochastic fuzzifier-2 memberships in d's layout; zero-distance
    rows split their mass over the coincident clusters."""
    zero_rows = (d == 0.0).any(axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / d
        total = inv.sum(axis=1)
        u = inv / total[:, None]
    bad = ~zero_rows & ~(np.isfinite(total) & (total > 0.0))
    if bad.any():
        raise NumericalError(
            f"FCM membership weights 1/d leave float64 range "
            f"at squared distances down to {d[bad].min():.3g}"
        )
    if zero_rows.any():
        hits = d[zero_rows] == 0.0
        u[zero_rows] = hits / hits.sum(axis=1, keepdims=True)
    return u


def run_fcm(data, m, tol, seed=0, max_iter=300):
    """(theta, u_fcm, d, iterations) of the plain FCM loop, stopped once no
    representative moves tol or more."""
    x = data.points
    theta = _seed_representatives(data, m, seed)
    it = 0
    for it in range(1, max_iter + 1):
        u = memberships(squared_distances(data, theta))
        w = u * u
        denom = w.sum(axis=0)
        if np.any(denom < _DENOM_FLOOR):
            raise DegenerateClusterError("FCM cluster lost all membership mass")
        new_theta = (w.T @ x) / denom[:, None]
        move = np.sqrt(((new_theta - theta) ** 2).sum(axis=1)).max()
        theta = new_theta
        if move < tol:
            break
    d = squared_distances(data, theta)
    return theta, memberships(d), d, it
