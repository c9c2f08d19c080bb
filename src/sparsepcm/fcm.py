"""Fuzzy c-means, the initializer of the possibilistic algorithms.

FCM seeds the representatives, and its memberships weight the initial
scale parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    DataSet,
    DegenerateClusterError,
    NumericalError,
    squared_distances,
)

_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class FcmResult:
    theta: np.ndarray       # m x l final representatives
    u_fcm: np.ndarray       # N x m row-stochastic memberships
    d: np.ndarray           # N x m squared distances to theta
    iterations: int
    converged: bool         # the last step moved every representative less than tol


def _seed_representatives(data: DataSet, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    idx = rng.choice(data.n_points, size=m, replace=False)
    return data.points[idx].copy()


def _fcm_memberships(d: np.ndarray, out=None) -> np.ndarray:
    """Row-stochastic memberships for fuzzifier 2 from squared distances,
    written into out when it is given.

    Rows containing a zero distance split their mass equally over the
    coincident clusters. Raises NumericalError when the weights 1/d of a
    row without a zero distance leave float range, as they do for
    subnormal distances.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = np.divide(1.0, d, out=out)
        total = u.sum(axis=1)
        u /= total[:, None]
    # a zero distance makes its row total infinite, so both special cases
    # lie among the rows whose total is not finite and positive
    rows = np.flatnonzero(~(np.isfinite(total) & (total > 0.0)))
    if rows.size:
        hits = d[rows] == 0.0
        zero = hits.any(axis=1)
        if not zero.all():
            raise NumericalError(
                f"FCM membership weights 1/d leave float64 range "
                f"at squared distances down to {d[rows[~zero]].min():.3g}"
            )
        u[rows] = hits / hits.sum(axis=1, keepdims=True)
    return u


def run_fcm(data: DataSet, m: int, tol: float, seed: int = 0, max_iter: int = 300) -> FcmResult:
    """Standard FCM with fuzzifier 2 on squared Euclidean distances.

    Representatives start at m distinct data points drawn by the seeded
    generator; iteration stops when no representative moves more than
    tol, a distance in data units, or after max_iter steps.
    """
    if not 1 <= m <= data.n_points:
        raise ConfigurationError(f"m={m} must satisfy 1 <= m <= N={data.n_points}")
    x = data.points
    theta = _seed_representatives(data, m, seed)
    # every step reuses these two N x m buffers. d is column-major, so the
    # per-feature differences run along the N points in long inner loops.
    # w is row-major: the order in which numpy adds its row and column sums,
    # and so their last bits, depends on the layout
    d = np.empty((data.n_points, m), order="F")
    w = np.empty((data.n_points, m))
    it, converged = 0, False
    for it in range(1, max_iter + 1):
        squared_distances(data, theta, out=d)
        _fcm_memberships(d, out=w)
        np.multiply(w, w, out=w)
        denom = w.sum(axis=0)
        if np.any(denom < _DENOM_FLOOR):
            raise DegenerateClusterError("FCM cluster lost all membership mass")
        new_theta = (w.T @ x) / denom[:, None]
        move = np.sqrt(((new_theta - theta) ** 2).sum(axis=1)).max()
        theta = new_theta
        converged = bool(move < tol)
        if converged:
            break
    # memberships consistent with the final representatives
    d = squared_distances(data, theta)
    return FcmResult(theta=theta, u_fcm=_fcm_memberships(d), d=d,
                     iterations=it, converged=converged)


def _fcm_weighted_mean(fcm: FcmResult, values: np.ndarray) -> np.ndarray:
    """Per-cluster mean of an N x m matrix of distances, weighted by the
    FCM memberships; every cluster must carry membership mass and spread."""
    denom = fcm.u_fcm.sum(axis=0)
    if np.any(denom < _DENOM_FLOOR):
        raise DegenerateClusterError("zero membership column in FCM result")
    mean = (fcm.u_fcm * values).sum(axis=0) / denom
    if np.any(mean <= 0):
        raise DegenerateClusterError("zero mean distance; cluster has no spread")
    return mean


def gamma_init_pcm(fcm: FcmResult) -> np.ndarray:
    """Per-cluster influence scale: the FCM-weighted mean squared distance."""
    return _fcm_weighted_mean(fcm, fcm.d)


def eta_init_sapcm(fcm: FcmResult) -> np.ndarray:
    """FCM-weighted mean of plain (unsquared) distances per cluster."""
    return _fcm_weighted_mean(fcm, np.sqrt(fcm.d))
