"""Shared domain types, argument rules and distance computation.

The input points arrive as a DataSet and a finished run leaves as a
RunReport; in between, the initializer, the membership solver and the
outer loop pass plain arrays (theta, gamma) and the float lam. All arrays
are float64; label vectors are int arrays where cluster ids run 1..m and
0 means "no compatible cluster" (noise).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
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
    """A computation left float range."""


def json_field(doc, key, kinds, what, *default, where=""):
    """doc[key] of a parsed JSON object, checked to be of kinds (a bool is no
    number, an integer must be nonnegative); absent or null gives the default,
    if any. Errors are ConfigurationError naming the key, after where if given."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {doc!r}")
    value = doc.get(key)
    if value is None and default:
        return default[0]
    name = f"{where} {key!r}" if where else key
    if value is None or isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    return natural(value, name) if isinstance(value, int) else value


def natural(value, name, low=0):
    """value, checked to be an int >= low (a bool is no int); anything else
    raises ConfigurationError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        what = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    return value


def float_array(a, name, ndim=2):
    """a as an ndim-D float64 array (a number for ndim=0); text, bools, ragged
    nesting, huge integers and non-finite values raise ConfigurationError naming it."""
    try:
        arr = np.asarray(a)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.ndim != ndim:
        what = f"a {ndim}-D array of numbers" if ndim else "a number"
        raise ConfigurationError(f"{name} must be {what}, got {arr.dtype} {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"{name} contains non-finite values")
    return arr.astype(float, copy=False)


def label_array(a, name, low=0):
    """a as a 1-D int array of whole numbers >= low; anything else raises
    ConfigurationError naming it."""
    lab = float_array(a, name, ndim=1)
    if (lab != np.trunc(lab)).any():
        raise ConfigurationError(f"{name} must be whole numbers")
    if (lab < low).any():
        raise ConfigurationError(f"{name} must be >= {low}")
    return lab.astype(int)


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
        pts = float_array(self.points, "points")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ConfigurationError("need at least one point and one feature")
        object.__setattr__(self, "points", pts)
        if self.truth_labels is not None:
            lab = label_array(self.truth_labels, "truth_labels")
            if lab.shape != (pts.shape[0],):
                raise ConfigurationError("truth_labels length must match points")
            object.__setattr__(self, "truth_labels", lab)
        if self.truth_centers is not None:
            tc = float_array(self.truth_centers, "truth_centers")
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


@dataclass
class RunReport:
    """Everything a finished run reports back.

    theta_final, gamma_final and lam_final are the returned model, and
    memberships, kept out of repr and to_dict, is its N x m_final
    membership matrix, whose argmax labeling is labels_final. converged
    and fcm_converged tell whether the main loop and the FCM initializer
    stopped on their tolerance or at their step cap.
    """

    algorithm: str
    m_ini: int
    m_final: int
    iterations: int
    converged: bool
    fcm_iterations: int
    fcm_converged: bool
    wall_time: float
    theta_final: np.ndarray
    gamma_final: np.ndarray
    lam_final: float
    labels_final: np.ndarray
    seed: int
    metrics: Optional[dict] = None
    history: list = field(default_factory=list)
    memberships: Optional[np.ndarray] = field(default=None, repr=False)

    def to_dict(self):
        return _json_dict(self)


def _json_dict(record):
    """The repr fields of record in declaration order, arrays as lists and
    history records as dicts; lam is written under the key "lambda"."""
    doc = {}
    for f in filter(lambda f: f.repr, fields(record)):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, list):
            value = [_json_dict(rec) for rec in value]
        doc["lambda" if f.name == "lam" else f.name] = value
    return doc


def squared_distances(data: DataSet, theta: np.ndarray, out=None) -> np.ndarray:
    """Squared Euclidean distances between every point and every representative.

    Returns an N x m matrix, written into out when it is given and else
    into a new column-major one, accumulated one feature at a time from
    explicit coordinate differences, so no N x m x l temporary is built and
    identical coordinates give an exact zero.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != data.n_features:
        raise ConfigurationError(
            f"theta shape {theta.shape} does not match data dimension {data.n_features}"
        )
    x = data.points
    if out is None:
        out = np.empty((x.shape[0], theta.shape[0]), order="F")
    # the first feature's square goes straight into d: 0 + a == a exactly
    d = np.subtract(x[:, 0, None], theta[None, :, 0], out=out)
    np.multiply(d, d, out=d)
    diff = np.empty_like(d)
    for k in range(1, x.shape[1]):
        np.subtract(x[:, k, None], theta[None, :, k], out=diff)
        np.multiply(diff, diff, out=diff)
        d += diff
    return d
