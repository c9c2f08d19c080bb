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


def _seed_representatives(data: DataSet, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    idx = rng.choice(data.n_points, size=m, replace=False)
    return data.points[idx].copy()


def _fcm_memberships(d: np.ndarray) -> np.ndarray:
    """Row-stochastic memberships for fuzzifier 2 from squared distances.

    Rows containing a zero distance split their mass equally over the
    coincident clusters. Raises NumericalError when the weights 1/d of a
    row without a zero distance leave float range, as they do for
    subnormal distances.
    """
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


def run_fcm(data: DataSet, m: int, seed: int = 0, tol: float = 1e-6,
            max_iter: int = 300) -> FcmResult:
    """Standard FCM with fuzzifier 2 on squared Euclidean distances.

    Representatives start at m distinct data points drawn by the seeded
    generator; iteration stops when no representative moves more than tol.
    """
    if not 1 <= m <= data.n_points:
        raise ConfigurationError(f"m={m} must satisfy 1 <= m <= N={data.n_points}")
    x = data.points
    theta = _seed_representatives(data, m, seed)
    it = 0
    for it in range(1, max_iter + 1):
        d = squared_distances(data, theta)
        u = _fcm_memberships(d)
        w = u * u
        denom = w.sum(axis=0)
        if np.any(denom < _DENOM_FLOOR):
            raise DegenerateClusterError("FCM cluster lost all membership mass")
        new_theta = (w.T @ x) / denom[:, None]
        move = np.sqrt(((new_theta - theta) ** 2).sum(axis=1)).max()
        theta = new_theta
        if move < tol:
            break
    # memberships consistent with the final representatives
    d = squared_distances(data, theta)
    return FcmResult(theta=theta, u_fcm=_fcm_memberships(d), d=d, iterations=it)


def gamma_init_pcm(fcm: FcmResult, B: float = 1.0) -> np.ndarray:
    """Per-cluster influence scale: B times the FCM-weighted mean squared distance."""
    if B <= 0:
        raise ConfigurationError("B must be positive")
    denom = fcm.u_fcm.sum(axis=0)
    if np.any(denom < _DENOM_FLOOR):
        raise DegenerateClusterError("zero membership column in FCM result")
    gamma = B * (fcm.u_fcm * fcm.d).sum(axis=0) / denom
    if np.any(gamma <= 0):
        raise DegenerateClusterError("nonpositive influence scale; cluster has no spread")
    return gamma


def eta_init_sapcm(fcm: FcmResult) -> np.ndarray:
    """FCM-weighted mean of plain (unsquared) distances per cluster."""
    d = np.sqrt(fcm.d)
    denom = fcm.u_fcm.sum(axis=0)
    if np.any(denom < _DENOM_FLOOR):
        raise DegenerateClusterError("zero membership column in FCM result")
    eta = (fcm.u_fcm * d).sum(axis=0) / denom
    if np.any(eta <= 0):
        raise DegenerateClusterError("zero mean deviation; cluster has no spread")
    return eta

