"""Fuzzy c-means, the initializer of the possibilistic algorithms.

FCM, accelerated by SQUAREM under a descent guard, seeds the
representatives, and its memberships weight the initial scale parameters.
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
# factor on SQUAREM's step bound; at 4, the usual one, a run changed FCM optimum
_STEP_GROWTH = 2.0


# run() reuses d and u_fcm as its loop's buffers once the scales are set
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


def _fcm_step(data: DataSet, theta: np.ndarray, d: np.ndarray, w: np.ndarray, tol: float):
    """(G(theta), J2(theta), whether G moves every row of theta by less than
    tol) of one FCM step G, computed in the buffers d and w; J2 = sum_ij
    u_ij^2 d_ij is the FCM objective at theta."""
    squared_distances(data, theta, out=d)
    _fcm_memberships(d, out=w)
    # u_i1 d_i1 = 1 / sum_j 1/d_ij is row i's term of J2, 0 in a zero-distance row
    cost = w[:, 0] @ d[:, 0]
    np.multiply(w, w, out=w)
    denom = w.sum(axis=0)
    if np.any(denom < _DENOM_FLOOR):
        raise DegenerateClusterError("FCM cluster lost all membership mass")
    new_theta = (w.T @ data.points) / denom[:, None]
    return new_theta, cost, bool(np.sqrt(((new_theta - theta) ** 2).sum(axis=1)).max() < tol)


def run_fcm(data: DataSet, m: int, tol: float, seed: int = 0, max_iter: int = 300) -> FcmResult:
    """Standard FCM with fuzzifier 2 on squared Euclidean distances.

    Representatives start at m distinct data points drawn by the seeded
    generator. A SQUAREM cycle (Varadhan & Roland, Scand. J. Stat. 35
    (2008) 335-353) takes the FCM steps theta1 = G(theta0) and theta2 =
    G(theta1), extrapolates to theta' = theta0 + 2a r + a^2 v with
    r = theta1 - theta0, v = theta2 - 2 theta1 + theta0 and a = |r|/|v| in
    [1, step_max], and keeps G(theta') only if J2(theta') <= J2(theta0),
    else goes on from theta2. step_max starts at 1; a kept step at it
    doubles it, a rejected one halves it down to 1. The run returns the
    first step G that moves no representative by tol (in data units), or
    stops after max_iter evaluations of G.
    """
    if not 1 <= m <= data.n_points:
        raise ConfigurationError(f"m={m} must satisfy 1 <= m <= N={data.n_points}")
    # a plain step's theta lies in the points' box up to the rounding of a
    # weighted mean, under 4 N eps |x|: then the squared diagonal bounds every
    # distance and move, and N times it every sum of them
    with np.errstate(over="ignore"):
        span, size = np.ptp(data.points, axis=0), np.abs(data.points).max(axis=0)
        reach = span + 4.0 * data.n_points * np.finfo(float).eps * size
        if not np.isfinite(data.n_points * (reach @ reach)):
            raise NumericalError(f"point span {span.max():.3g} plus the rounding slack of "
                                 f"coordinates up to {size.max():.3g} overflows float64 "
                                 f"when squared and summed over {data.n_points} points")
    # every step reuses these two N x m buffers
    d = np.empty((data.n_points, m), order="F")
    w = np.empty((data.n_points, m), order="F")
    it, converged, step_max = 0, False, 1.0
    theta = _seed_representatives(data, m, seed)
    while not converged and it < max_iter:
        theta0 = theta
        theta, cost0, converged = _fcm_step(data, theta0, d, w, tol)
        it += 1
        if converged or it == max_iter:
            break
        theta1 = theta
        theta, _, converged = _fcm_step(data, theta1, d, w, tol)
        it += 1
        if converged or it == max_iter:
            break
        r, v = theta1 - theta0, theta - 2.0 * theta1 + theta0
        # theta' may leave the data box, lose a cluster or leave float range;
        # an evaluation that raises still counts
        with np.errstate(all="ignore"):
            alpha = min(max(np.linalg.norm(r) / np.linalg.norm(v), 1.0), step_max)
            it += 1
            try:
                theta3, cost, converged = _fcm_step(
                    data, theta0 + 2.0 * alpha * r + alpha**2 * v, d, w, tol)
            except (DegenerateClusterError, NumericalError):
                theta3, cost = theta, np.nan
            kept = bool(cost <= cost0) and np.isfinite(theta3).all()
        if alpha == step_max:
            step_max = step_max * _STEP_GROWTH if kept else max(1.0, step_max / _STEP_GROWTH)
        theta, converged = (theta3, converged) if kept else (theta, False)
    # memberships consistent with the final representatives
    squared_distances(data, theta, out=d)
    return FcmResult(theta=theta, u_fcm=_fcm_memberships(d, out=w), d=d,
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
