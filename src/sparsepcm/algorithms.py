"""The outer iterative loop shared by the classical possibilistic scheme,
its sparsity-regularized variant, and the sparse adaptive variant (whose
lam = 0 configuration is the plain adaptive baseline).

One loop runs all four algorithms: seed representatives with FCM, set
the scale parameters from the FCM memberships, then alternate membership
and representative updates until no representative moves more than
theta_tol. pcm is spcm with K = 0. One rule eliminates clusters: each
iteration drops, on the spot, every cluster that lost its support. The
adaptive algorithms (sapcm, apcm) then re-estimate the per-cluster
scales; the fixed-scale ones (pcm, spcm) merge duplicates at the end.
One rule labels the points: by the memberships of the returned model.

The state of an iteration is the representatives theta (m x l), their
scales gamma (m) and the sparsity weight lam; run keeps the three as
locals and every step below is a function of plain arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ConfigurationError,
    DataSet,
    DegenerateRunError,
    IterationRecord,
    NumericalError,
    RunReport,
    float_array,
    natural,
    squared_distances,
)
from .fcm import eta_init_sapcm, gamma_init_pcm, run_fcm
from .metrics import score
from .solver import compute_lambda, update_memberships

_DUPLICATE_RADIUS_FACTOR = 1.5

ALGORITHMS = ("pcm", "spcm", "sapcm", "apcm")
_DEFAULT_K = {"spcm": 0.9, "sapcm": 0.1}


@dataclass
class AlgoConfig:
    """Knobs for one run. K defaults depend on the algorithm and is
    pinned to 0 for the non-sparse modes."""

    algorithm: str
    m_ini: int
    alpha: Optional[float] = None
    K: Optional[float] = None
    p: float = 0.5
    theta_tol: float = 1e-6
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        natural(self.m_ini, "m_ini", 1)
        natural(self.max_iter, "max_iter", 1)
        natural(self.seed, "seed")
        for name in ("alpha", "K", "p", "theta_tol"):
            if name in ("p", "theta_tol") or getattr(self, name) is not None:
                float_array(getattr(self, name), name, ndim=0)
        if self.algorithm in ("pcm", "apcm"):
            self.K = 0.0
        elif self.K is None:
            self.K = _DEFAULT_K[self.algorithm]
        if not 0.0 <= self.K < 1.0:
            raise ConfigurationError("K must lie in [0,1)")
        if self.algorithm in ("sapcm", "apcm"):
            if self.alpha is None or self.alpha <= 0:
                raise ConfigurationError(f"{self.algorithm} needs alpha > 0")
        if not 0.0 < self.p < 1.0:
            raise ConfigurationError("p must lie in (0,1)")
        if self.theta_tol <= 0:
            raise ConfigurationError("theta_tol must be positive")


def update_theta(u: np.ndarray, data: DataSet, live: np.ndarray,
                 mass: np.ndarray) -> np.ndarray:
    """Membership-weighted means of the columns flagged in live; mass is
    u.sum(axis=0)."""
    return (u.T @ data.points)[live] / mass[live, None]


def assign_labels(u: np.ndarray) -> np.ndarray:
    """Hard labels from a membership matrix.

    labels[i] is 1 + argmax of row i when the max is positive, else 0
    (no compatible cluster); ties go to the lowest cluster index.
    """
    best = u.argmax(axis=1)
    return np.where(u[np.arange(u.shape[0]), best] > 0.0, best + 1, 0)


def eliminate_clusters(labels: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Renumber the labels to the clusters flagged in keep, in order; points
    labeled with a dropped cluster get label 0."""
    # old cluster id -> new contiguous id (0 stays 0)
    remap = np.zeros(keep.size + 1, dtype=int)
    remap[1:][keep] = np.arange(1, int(keep.sum()) + 1)
    return remap[labels]


def adapt_eta(data: DataSet, labels: np.ndarray, m: int, floor: float) -> np.ndarray:
    """Mean distance of each cluster's most-compatible points to their mean.

    Every cluster 1..m must own at least one label. Deviations are
    measured from the label-group mean, not from the representative.
    Values below floor, a positive distance, are clamped so the
    downstream scale parameters stay positive.

    The squared deviations are taken one feature at a time and added
    left to right, as squared_distances adds them. For fewer than 8
    features that is numpy's row-sum order; from 8 on, numpy's row sum
    is pairwise and the last bits may differ from it.
    """
    count = np.bincount(labels, minlength=m + 1)[1:]
    # slot 0 of the means, the label-0 points' mean, stays NaN: their
    # deviations are NaN, raise no overflow and land in no cluster's bin
    mean = np.full(m + 1, np.nan)
    dist, dev = np.zeros(len(labels)), np.empty(len(labels))
    for col in data.points.T:
        np.divide(np.bincount(labels, col, m + 1)[1:], count, out=mean[1:])
        np.subtract(col, mean.take(labels, out=dev), out=dev)
        dist += np.multiply(dev, dev, out=dev)
    np.sqrt(dist, out=dist)
    return np.maximum(np.bincount(labels, dist, m + 1)[1:] / count, floor)


def _adaptive_gamma(eta_hat: float, eta: np.ndarray, alpha: float) -> np.ndarray:
    """The scales eta_hat * eta / alpha, all in (0, inf) or a NumericalError."""
    with np.errstate(over="ignore"):
        gamma = eta_hat * eta / alpha
    if not np.all((gamma > 0.0) & (gamma < np.inf)):
        raise NumericalError(
            f"scales eta_hat * eta / alpha leave float64 range at alpha={alpha:.3g}"
        )
    return gamma


def remove_duplicates(theta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Greedy merge of representatives that converged onto one cluster;
    returns the boolean mask of the representatives it keeps.

    Scans in index order and keeps a representative only if it stands
    apart from every representative kept so far. Two representatives
    count as the same cluster when their gap is within 1.5x the smaller
    of their influence radii sqrt(gamma): possibilistic runs routinely
    park several representatives inside one physical cluster without
    making them bit-identical, and a rep sitting well inside another's
    zone of influence is not a separate cluster.
    """
    keep = np.zeros(len(gamma), dtype=bool)
    radius = np.sqrt(gamma)
    for j in range(len(gamma)):
        keep[j] = not any(
            np.linalg.norm(theta[j] - theta[i])
            < _DUPLICATE_RADIUS_FACTOR * min(radius[i], radius[j])
            for i in np.flatnonzero(keep)
        )
    return keep


def run(data: DataSet, config: AlgoConfig) -> RunReport:
    """Run the configured algorithm.

    Each iteration drops, on the spot, every cluster that lost its
    support: for pcm and spcm one whose membership column is all zero,
    for sapcm and apcm one that is no point's best match. The rest move
    to their membership-weighted means. pcm and spcm keep the scales FCM
    gives them, with lam fixed from the smallest one (zero for pcm), and
    merge duplicates after the loop. sapcm and apcm re-estimate the scales
    every iteration from each cluster's most-compatible points, and lam
    follows the smallest one. All four solve the memberships of the
    returned model once, return them as the report's memberships and
    label the points by their argmax; an all-zero row gets label 0.
    """
    t0 = time.perf_counter()
    adaptive = config.algorithm in ("sapcm", "apcm")
    fcm = run_fcm(data, config.m_ini, config.theta_tol, seed=config.seed)
    if adaptive:
        eta = eta_init_sapcm(fcm)
        eta_hat = float(eta.min())
        gamma = _adaptive_gamma(eta_hat, eta, config.alpha)
    else:
        gamma = gamma_init_pcm(fcm)
    theta = fcm.theta
    lam = compute_lambda(float(gamma.min()), config.p, config.K)
    history = []
    # FCM's two N x m_ini buffers, dead once the scales are set, are the
    # loop's. Clusters are only ever dropped, so the leading m columns of d
    # and u_buf, both contiguous, serve every later m
    d, u_buf = fcm.d, fcm.u_fcm
    for t in range(config.max_iter):
        m = len(gamma)
        u = update_memberships(squared_distances(data, theta, out=d[:, :m]), gamma, lam,
                               config.p, out=u_buf[:, :m])
        mass = u.sum(axis=0)
        if adaptive:
            labels = assign_labels(u)
            live = np.bincount(labels, minlength=m + 1)[1:] > 0
        else:
            live = mass > 0.0
        if not live.any():
            raise DegenerateRunError(
                "no point has a compatible cluster: every membership is zero"
            )
        new_theta = update_theta(u, data, live, mass)
        # movement over the live clusters only, matched by identity
        move = float(np.sqrt(np.square(new_theta - theta[live]).sum(axis=1)).max())
        history.append(IterationRecord(iteration=t, theta=theta, gamma=gamma, lam=lam,
                                       m=m, max_move=move))
        theta, gamma = new_theta, gamma[live]
        if adaptive:
            labels = eliminate_clusters(labels, live)
            # floor 1e-3 * theta_tol: exactly 1e-9 at the default, unlike theta_tol / 1000
            eta = adapt_eta(data, labels, len(theta), 1e-3 * config.theta_tol)
            gamma = _adaptive_gamma(eta_hat, eta, config.alpha)
            lam = compute_lambda(float(gamma.min()), config.p, config.K)
        if move < config.theta_tol:
            break
    if not adaptive:
        keep = remove_duplicates(theta, gamma)
        theta, gamma = theta[keep], gamma[keep]
    m = len(gamma)
    u = update_memberships(squared_distances(data, theta, out=d[:, :m]), gamma, lam, config.p)
    labels = assign_labels(u)
    return RunReport(
        algorithm=config.algorithm,
        m_ini=config.m_ini,
        m_final=len(gamma),
        iterations=len(history),
        converged=bool(move < config.theta_tol),
        fcm_iterations=fcm.iterations,
        fcm_converged=fcm.converged,
        wall_time=time.perf_counter() - t0,
        theta_final=theta,
        gamma_final=gamma,
        lam_final=lam,
        labels_final=labels,
        seed=config.seed,
        metrics=score(data, labels, theta),
        history=history,
        memberships=u,
    )
