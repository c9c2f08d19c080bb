"""Shared domain types and distance computation.

Everything downstream (initializers, the membership solver, the outer
loop) works on the small set of containers defined here. All arrays are
float64; label vectors are int arrays where cluster ids run 1..m and 0
means "no compatible cluster" (noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class ClusteringError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(ClusteringError):
    """Invalid configuration (bad m, unknown algorithm, bad input spec)."""


class DegenerateClusterError(ClusteringError):
    """A cluster lost all support (zero membership mass or zero spread)."""


class DegenerateRunError(ClusteringError):
    """A run cannot continue, e.g. every cluster was eliminated."""


class NumericalError(ClusteringError):
    """A computation left float range or root finding failed to converge."""


def _as_float_matrix(a, name):
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ConfigurationError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class DataSet:
    """N points in R^l with optional ground truth.

    truth_labels uses 1..m_true for generated classes and 0 for noise
    points that were drawn without a class. truth_centers holds the
    generator means when they are known.
    """

    points: np.ndarray
    truth_labels: Optional[np.ndarray] = None
    truth_centers: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = _as_float_matrix(self.points, "points")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ConfigurationError("need at least one point and one feature")
        object.__setattr__(self, "points", pts)
        if self.truth_labels is not None:
            lab = np.asarray(self.truth_labels, dtype=int)
            if lab.shape != (pts.shape[0],):
                raise ConfigurationError("truth_labels length must match points")
            if lab.min() < 0:
                raise ConfigurationError("truth labels must be >= 0 (0 = noise)")
            object.__setattr__(self, "truth_labels", lab)
        if self.truth_centers is not None:
            tc = _as_float_matrix(self.truth_centers, "truth_centers")
            if tc.shape[1] != pts.shape[1]:
                raise ConfigurationError("truth_centers dimension mismatch")
            if self.truth_labels is not None and self.truth_labels.max() > tc.shape[0]:
                raise ConfigurationError(
                    f"truth label {self.truth_labels.max()} has no row in "
                    f"truth_centers ({tc.shape[0]} rows)"
                )
            object.__setattr__(self, "truth_centers", tc)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_features(self) -> int:
        return self.points.shape[1]


@dataclass
class ClusterModel:
    """Representatives plus the scale and sparsity parameters of a run.

    gamma is the per-cluster influence scale, lam the sparsity weight
    (lambda is reserved in Python), p the subunity norm exponent.
    """

    theta: np.ndarray
    gamma: np.ndarray
    lam: float = 0.0
    p: float = 0.5

    def __post_init__(self):
        self.theta = _as_float_matrix(self.theta, "theta")
        self.gamma = np.asarray(self.gamma, dtype=float)
        if self.gamma.shape != (self.theta.shape[0],):
            raise ConfigurationError("gamma length must match theta rows")
        if np.any(self.gamma <= 0):
            raise ConfigurationError("gamma entries must be positive")
        if self.lam < 0:
            raise ConfigurationError("lam must be nonnegative")
        if not (0.0 < self.p < 1.0):
            raise ConfigurationError("p must lie in (0,1)")

    @property
    def m(self) -> int:
        return self.theta.shape[0]

    def select(self, keep: np.ndarray) -> "ClusterModel":
        """New model restricted to the clusters flagged in the boolean mask."""
        return ClusterModel(
            theta=self.theta[keep].copy(),
            gamma=self.gamma[keep].copy(),
            lam=self.lam,
            p=self.p,
        )


@dataclass
class IterationRecord:
    """Snapshot of one outer iteration, kept in RunReport.history.

    theta is the representative matrix *entering* the iteration, i.e. the
    one the iteration's memberships were computed from.
    """

    iteration: int
    theta: np.ndarray
    gamma: np.ndarray
    lam: float
    m: int
    max_move: float

    def to_dict(self):
        return {
            "iteration": self.iteration,
            "theta": self.theta.tolist(),
            "gamma": self.gamma.tolist(),
            "lambda": self.lam,
            "m": self.m,
            "max_move": self.max_move,
        }


@dataclass
class RunReport:
    """Everything a finished run reports back.

    theta_final, gamma_final and lam_final are the returned model; the
    memberships export recomputes its memberships from them.
    """

    algorithm: str
    m_ini: int
    m_final: int
    iterations: int
    wall_time: float
    theta_final: np.ndarray
    gamma_final: np.ndarray
    lam_final: float
    labels_final: np.ndarray
    seed: int
    metrics: Optional[dict] = None
    history: list = field(default_factory=list)

    def to_dict(self):
        return {
            "algorithm": self.algorithm,
            "m_ini": self.m_ini,
            "m_final": self.m_final,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "theta_final": self.theta_final.tolist(),
            "gamma_final": self.gamma_final.tolist(),
            "lam_final": self.lam_final,
            "labels_final": self.labels_final.tolist(),
            "seed": self.seed,
            "metrics": self.metrics,
            "history": [rec.to_dict() for rec in self.history],
        }


def squared_distances(data: DataSet, theta: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every point and every representative.

    Returns an N x m matrix, accumulated one feature at a time from
    explicit coordinate differences, so no N x m x l temporary is built
    and identical coordinates give an exact zero.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != data.n_features:
        raise ConfigurationError(
            f"theta shape {theta.shape} does not match data dimension {data.n_features}"
        )
    x = data.points
    d = np.zeros((x.shape[0], theta.shape[0]))
    for k in range(x.shape[1]):
        diff = x[:, k, None] - theta[None, :, k]
        d += diff * diff
    return d
