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
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ClusterModel,
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

_ETA_FLOOR = 1e-9
_DUPLICATE_RADIUS_FACTOR = 1.5

ALGORITHMS = ("pcm", "spcm", "sapcm", "apcm")
_DEFAULT_K = {"pcm": 0.0, "spcm": 0.9, "sapcm": 0.1, "apcm": 0.0}


@dataclass
class AlgoConfig:
    """Knobs for one run. K defaults depend on the algorithm and is
    pinned to 0 for the non-sparse modes."""

    algorithm: str
    m_ini: int
    alpha: Optional[float] = None
    K: Optional[float] = None
    p: float = 0.5
    B: float = 1.0
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
        for name in ("alpha", "K", "p", "B", "theta_tol"):
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
        if self.B <= 0 or self.theta_tol <= 0 or self.max_iter < 1:
            raise ConfigurationError("B, theta_tol, max_iter must be positive")


def update_theta(u: np.ndarray, data: DataSet, theta_prev: np.ndarray) -> np.ndarray:
    """Membership-weighted means; all-zero columns keep their old row."""
    colsum = u.sum(axis=0)
    theta = theta_prev.copy()
    live = colsum > 0.0
    if live.any():
        theta[live] = (u[:, live].T @ data.points) / colsum[live, None]
    return theta


def assign_labels(u: np.ndarray, points: Optional[np.ndarray] = None):
    """Hard labels from a membership matrix.

    Returns (labels, n, mu): labels[i] is 1 + argmax of row i when the
    max is positive, else 0 (no compatible cluster); ties go to the
    lowest cluster index. n are the per-cluster point counts. mu holds
    the coordinate means of each cluster's points when the coordinates
    are supplied (rows of NaN for empty clusters), else None.
    """
    n_pts, m = u.shape
    best = u.argmax(axis=1)
    labels = np.where(u[np.arange(n_pts), best] > 0.0, best + 1, 0)
    n = np.bincount(labels, minlength=m + 1)[1:]
    mu = None
    if points is not None:
        mu = np.full((m, points.shape[1]), np.nan)
        for j in range(m):
            if n[j] > 0:
                mu[j] = points[labels == j + 1].mean(axis=0)
    return labels, n, mu


def eliminate_clusters(model: ClusterModel, labels, n, mu):
    """Drop clusters that appear in no label; renumber everything else.

    Takes the (labels, n, mu) of assign_labels and returns
    (model', labels', n', mu', removed_indices) restricted to the
    renumbered survivors.
    """
    keep = n > 0
    if not keep.any():
        raise DegenerateRunError(
            "every cluster was eliminated; no point has a compatible cluster"
        )
    removed = [int(j) for j in np.flatnonzero(~keep)]
    # old cluster id -> new contiguous id (0 stays 0)
    remap = np.zeros(model.m + 1, dtype=int)
    remap[1:][keep] = np.arange(1, int(keep.sum()) + 1)
    return model.select(keep), remap[labels], n[keep], mu[keep], removed


def adapt_eta(data: DataSet, labels, n, mu) -> np.ndarray:
    """Mean distance of each cluster's most-compatible points to their mean.

    Deviations are measured from the label-group mean mu_j, not from the
    representative. Values below the positivity floor are clamped so the
    downstream scale parameters stay positive.
    """
    assert np.all(n > 0), \
        "adapt_eta requires every surviving cluster to own at least one point"
    eta = np.empty(len(n))
    for j in range(len(n)):
        pts = data.points[labels == j + 1]
        eta[j] = np.linalg.norm(pts - mu[j], axis=1).mean()
    return np.maximum(eta, _ETA_FLOOR)


def remove_duplicates(model: ClusterModel) -> ClusterModel:
    """Greedy merge of representatives that converged onto one cluster.

    Scans in index order and keeps a representative only if it stands
    apart from every representative kept so far. Two representatives
    count as the same cluster when their gap is within 1.5x the smaller
    of their influence radii sqrt(gamma): possibilistic runs routinely
    park several representatives inside one physical cluster without
    making them bit-identical, and a rep sitting well inside another's
    zone of influence is not a separate cluster.
    """
    kept: list[int] = []
    radius = np.sqrt(np.maximum(model.gamma, 0.0))
    for j in range(model.m):
        duplicate = False
        for i in kept:
            gap = float(np.linalg.norm(model.theta[j] - model.theta[i]))
            if gap < _DUPLICATE_RADIUS_FACTOR * min(radius[i], radius[j]):
                duplicate = True
                break
        if not duplicate:
            kept.append(j)
    mask = np.zeros(model.m, dtype=bool)
    mask[kept] = True
    return model.select(mask)


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
    fcm = run_fcm(data, config.m_ini, seed=config.seed)
    if adaptive:
        eta = eta_init_sapcm(fcm)
        eta_hat = float(eta.min())
        gamma = eta_hat * eta / config.alpha
    else:
        gamma = gamma_init_pcm(fcm, config.B)
    model = ClusterModel(
        theta=fcm.theta.copy(), gamma=gamma, p=config.p,
        lam=compute_lambda(float(gamma.min()), config.p, config.K),
    )
    history = []
    for t in range(config.max_iter):
        u = update_memberships(squared_distances(data, model.theta), model)
        new_theta = update_theta(u, data, model.theta)
        if adaptive:
            labels, n, mu = assign_labels(u, data.points)
            live = n > 0
        else:
            live = u.sum(axis=0) > 0.0
        if not live.any():
            raise DegenerateRunError(
                "no point has a compatible cluster: every membership is zero"
            )
        # movement over the live clusters only, matched by identity
        move = float(np.linalg.norm(new_theta[live] - model.theta[live], axis=1).max())
        history.append(IterationRecord(
            iteration=t, theta=model.theta.copy(), gamma=model.gamma.copy(),
            lam=model.lam, m=model.m, max_move=move,
        ))
        model.theta = new_theta
        if adaptive:
            model, labels, n, mu, _ = eliminate_clusters(model, labels, n, mu)
            model.gamma = eta_hat * adapt_eta(data, labels, n, mu) / config.alpha
            model.lam = compute_lambda(float(model.gamma.min()), config.p, config.K)
        if move < config.theta_tol:
            break
    if not adaptive:
        model = remove_duplicates(model.select(live))
        u = update_memberships(squared_distances(data, model.theta), model)
        labels, _, _ = assign_labels(u)
    wall = time.perf_counter() - t0
    return RunReport(
        algorithm=config.algorithm,
        m_ini=config.m_ini,
        m_final=model.m,
        iterations=len(history),
        wall_time=wall,
        theta_final=model.theta,
        gamma_final=model.gamma,
        lam_final=model.lam,
        labels_final=labels,
        seed=config.seed,
        metrics=_metrics_for(data, labels, model.theta),
        history=history,
    )
