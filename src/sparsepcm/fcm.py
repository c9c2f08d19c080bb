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
    squared_distances,
)

_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class FcmResult:
    theta: np.ndarray       # m x l final representatives
    u_fcm: np.ndarray       # N x m row-stochastic memberships
    iterations: int


def _seed_representatives(data: DataSet, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    idx = rng.choice(data.n_points, size=m, replace=False)
    return data.points[idx].copy()


def _fcm_memberships(d: np.ndarray, fuzzifier: float) -> np.ndarray:
    """Row-stochastic memberships from squared distances.

    Rows containing a zero distance split their mass equally over the
    coincident clusters.
    """
    expo = 1.0 / (fuzzifier - 1.0)
    zero_rows = (d == 0.0).any(axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = (1.0 / d) ** expo
        u = inv / inv.sum(axis=1, keepdims=True)
    if zero_rows.any():
        hits = d[zero_rows] == 0.0
        u[zero_rows] = hits / hits.sum(axis=1, keepdims=True)
    return u


def run_fcm(data: DataSet, m: int, fuzzifier: float = 2.0, seed: int = 0,
            tol: float = 1e-6, max_iter: int = 300) -> FcmResult:
    """Standard FCM on squared Euclidean distances.

    Representatives start at m distinct data points drawn by the seeded
    generator; iteration stops when no representative moves more than tol.
    """
    if not 1 <= m <= data.n_points:
        raise ConfigurationError(f"m={m} must satisfy 1 <= m <= N={data.n_points}")
    if fuzzifier <= 1.0:
        raise ConfigurationError("fuzzifier must be > 1")
    x = data.points
    theta = _seed_representatives(data, m, seed)
    u = None
    it = 0
    for it in range(1, max_iter + 1):
        d = squared_distances(data, theta)
        u = _fcm_memberships(d, fuzzifier)
        w = u ** fuzzifier
        denom = w.sum(axis=0)
        if np.any(denom < _DENOM_FLOOR):
            raise DegenerateClusterError("FCM cluster lost all membership mass")
        new_theta = (w.T @ x) / denom[:, None]
        move = np.sqrt(((new_theta - theta) ** 2).sum(axis=1)).max()
        theta = new_theta
        if move < tol:
            break
    # memberships consistent with the final representatives
    u = _fcm_memberships(squared_distances(data, theta), fuzzifier)
    return FcmResult(theta=theta, u_fcm=u, iterations=it)


def gamma_init_pcm(data: DataSet, fcm: FcmResult, B: float = 1.0) -> np.ndarray:
    """Per-cluster influence scale: B times the FCM-weighted mean squared distance."""
    if B <= 0:
        raise ConfigurationError("B must be positive")
    d = squared_distances(data, fcm.theta)
    denom = fcm.u_fcm.sum(axis=0)
    if np.any(denom < _DENOM_FLOOR):
        raise DegenerateClusterError("zero membership column in FCM result")
    gamma = B * (fcm.u_fcm * d).sum(axis=0) / denom
    if np.any(gamma <= 0):
        raise DegenerateClusterError("nonpositive influence scale; cluster has no spread")
    return gamma


def eta_init_sapcm(data: DataSet, fcm: FcmResult) -> np.ndarray:
    """FCM-weighted mean of plain (unsquared) distances per cluster."""
    d = np.sqrt(squared_distances(data, fcm.theta))
    denom = fcm.u_fcm.sum(axis=0)
    if np.any(denom < _DENOM_FLOOR):
        raise DegenerateClusterError("zero membership column in FCM result")
    eta = (fcm.u_fcm * d).sum(axis=0) / denom
    if np.any(eta <= 0):
        raise DegenerateClusterError("zero mean deviation; cluster has no spread")
    return eta

