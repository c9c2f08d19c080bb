"""The outer iterative loop shared by the classical possibilistic scheme,
its sparsity-regularized variant, and the sparse adaptive variant (whose
lam = 0 configuration is the plain adaptive baseline).

One loop runs all four algorithms: seed representatives with FCM, set
the scale parameters from the FCM memberships, then alternate membership
and representative updates until no representative moves more than
theta_tol. pcm is spcm with K = 0. The adaptive algorithms (sapcm, apcm)
additionally relabel points, eliminate clusters that are nobody's
most-compatible choice, and re-estimate the per-cluster scales every
iteration; the fixed-scale ones (pcm, spcm) instead drop emptied
clusters and merge duplicates once, at the end of the run.

The state of an iteration is the representatives theta (m x l), their
scales gamma (m) and the sparsity weight lam; run keeps the three as
locals and every step below is a function of plain arrays.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ConfigurationError,
    DataSet,
    DegenerateRunError,
    IterationRecord,
    RunReport,
    squared_distances,
)
from .fcm import eta_init_sapcm, gamma_init_pcm, run_fcm
from .metrics import mean_distance, rand_measure, success_rate
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
        for name in ("m_ini", "max_iter", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name in ("alpha", "K", "p", "theta_tol"):
            value = getattr(self, name)
            if value is None and name in ("alpha", "K"):
                continue
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
        if self.m_ini < 1:
            raise ConfigurationError("m_ini must be a positive integer")
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
        if self.theta_tol <= 0 or self.max_iter < 1:
            raise ConfigurationError("theta_tol, max_iter must be positive")


def update_theta(u: np.ndarray, data: DataSet, theta_prev: np.ndarray) -> np.ndarray:
    """Membership-weighted means; all-zero columns keep their old row."""
    colsum = u.sum(axis=0)
    theta = theta_prev.copy()
    live = colsum > 0.0
    theta[live] = (u[:, live].T @ data.points) / colsum[live, None]
    return theta


def assign_labels(u: np.ndarray) -> np.ndarray:
    """Hard labels from a membership matrix.

    labels[i] is 1 + argmax of row i when the max is positive, else 0
    (no compatible cluster); ties go to the lowest cluster index.
    """
    best = u.argmax(axis=1)
    return np.where(u[np.arange(u.shape[0]), best] > 0.0, best + 1, 0)


def eliminate_clusters(theta: np.ndarray, labels: np.ndarray, keep: np.ndarray):
    """Drop the representatives not flagged in keep; renumber the labels of
    the rest.

    Returns (theta', labels'). Points labeled with a dropped cluster get
    label 0.
    """
    # old cluster id -> new contiguous id (0 stays 0)
    remap = np.zeros(keep.size + 1, dtype=int)
    remap[1:][keep] = np.arange(1, int(keep.sum()) + 1)
    return theta[keep], remap[labels]


def adapt_eta(data: DataSet, labels: np.ndarray, m: int, floor: float) -> np.ndarray:
    """Mean distance of each cluster's most-compatible points to their mean.

    Every cluster 1..m must own at least one label. Deviations are
    measured from the label-group mean, not from the representative.
    Values below floor, a positive distance, are clamped so the
    downstream scale parameters stay positive.
    """
    eta = np.empty(m)
    for j in range(m):
        pts = data.points[labels == j + 1]
        eta[j] = np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean()
    return np.maximum(eta, floor)


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
    radius = np.sqrt(np.maximum(gamma, 0.0))
    for j in range(len(gamma)):
        keep[j] = not any(
            np.linalg.norm(theta[j] - theta[i])
            < _DUPLICATE_RADIUS_FACTOR * min(radius[i], radius[j])
            for i in np.flatnonzero(keep)
        )
    return keep


def _metrics_for(data: DataSet, labels: np.ndarray, theta: np.ndarray):
    """RM/SR/MD over the points with a positive true label; None when
    the data has no such point."""
    if data.truth_labels is None:
        return None
    mask = data.truth_labels > 0
    if not mask.any():
        return None
    truth = data.truth_labels[mask]
    pred = labels[mask]
    if data.truth_centers is not None:
        m_true = data.truth_centers.shape[0]
    else:
        m_true = int(truth.max())
    rm = rand_measure(pred, truth)
    sr, sr_pc = success_rate(pred, truth, m_true)
    md = (
        mean_distance(theta, data.truth_centers)
        if data.truth_centers is not None
        else None
    )
    return {"rm": rm, "sr": sr, "sr_per_cluster": sr_pc, "md": md}


def run(data: DataSet, config: AlgoConfig) -> RunReport:
    """Run the configured algorithm.

    pcm and spcm keep the scales FCM gives them, with lam fixed from the
    smallest one (zero for pcm). Representatives whose membership column
    empties are frozen in place; if still frozen at convergence they are
    dropped before duplicate merging, and the final labels come from one
    membership pass at the returned model.

    sapcm and apcm re-estimate the scales every iteration from each
    cluster's most-compatible points, lam follows the smallest current
    scale, and clusters that are no point's best match are removed on
    the spot. Their final labels are the last iteration's.

    Either way, points with an all-zero membership row get label 0.
    """
    t0 = time.perf_counter()
    adaptive = config.algorithm in ("sapcm", "apcm")
    fcm = run_fcm(data, config.m_ini, config.theta_tol, seed=config.seed)
    if adaptive:
        eta = eta_init_sapcm(fcm)
        eta_hat = float(eta.min())
        gamma = eta_hat * eta / config.alpha
    else:
        gamma = gamma_init_pcm(fcm)
    theta = fcm.theta
    lam = compute_lambda(float(gamma.min()), config.p, config.K)
    history = []
    for t in range(config.max_iter):
        u = update_memberships(squared_distances(data, theta), gamma, lam, config.p)
        new_theta = update_theta(u, data, theta)
        if adaptive:
            labels = assign_labels(u)
            live = np.bincount(labels, minlength=len(gamma) + 1)[1:] > 0
        else:
            live = u.sum(axis=0) > 0.0
        if not live.any():
            raise DegenerateRunError(
                "no point has a compatible cluster: every membership is zero"
            )
        # movement over the live clusters only, matched by identity
        move = float(np.linalg.norm(new_theta[live] - theta[live], axis=1).max())
        history.append(IterationRecord(
            iteration=t, theta=theta.copy(), gamma=gamma.copy(),
            lam=lam, m=len(gamma), max_move=move,
        ))
        theta = new_theta
        if adaptive:
            theta, labels = eliminate_clusters(theta, labels, live)
            # floor 1e-3 * theta_tol: exactly 1e-9 at the default, unlike theta_tol / 1000
            eta = adapt_eta(data, labels, len(theta), 1e-3 * config.theta_tol)
            gamma = eta_hat * eta / config.alpha
            lam = compute_lambda(float(gamma.min()), config.p, config.K)
        if move < config.theta_tol:
            break
    if not adaptive:
        theta, gamma = theta[live], gamma[live]
        keep = remove_duplicates(theta, gamma)
        theta, gamma = theta[keep], gamma[keep]
        u = update_memberships(squared_distances(data, theta), gamma, lam, config.p)
        labels = assign_labels(u)
    wall = time.perf_counter() - t0
    return RunReport(
        algorithm=config.algorithm,
        m_ini=config.m_ini,
        m_final=len(gamma),
        iterations=len(history),
        converged=bool(move < config.theta_tol),
        fcm_iterations=fcm.iterations,
        fcm_converged=fcm.converged,
        wall_time=wall,
        theta_final=theta,
        gamma_final=gamma,
        lam_final=lam,
        labels_final=labels,
        seed=config.seed,
        metrics=_metrics_for(data, labels, theta),
        history=history,
    )
