"""Seeded synthetic datasets.

A MixtureSpec describes a Gaussian mixture (plus optional uniform
background noise) and generates the same DataSet bit-for-bit for a given
seed. The named fixtures reproduce the benchmark configurations used
throughout the tests: pairs of equal-covariance blobs at varying
separation and size ratio, a three-cluster set with wildly different
spreads, the same with background noise, and one tiny hand-written
17-point set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConfigurationError, DataSet, float_array, json_field


@dataclass(frozen=True)
class Component:
    mean: tuple
    covariance: tuple          # l x l, symmetric positive definite
    count: int


@dataclass(frozen=True)
class MixtureSpec:
    components: tuple
    noise_count: int = 0
    noise_box: Optional[tuple] = None   # ((low...), (high...))
    seed: int = 0

    @classmethod
    def from_dict(cls, d):
        """The spec from its JSON form; a missing or wrongly typed value
        raises ConfigurationError naming its key."""
        where, nonneg = "generator spec", "a nonnegative integer"
        comps = []
        for k, c in enumerate(json_field(d, "components", list, "a list", where=where), 1):
            at = f"{where} component {k}"
            mean = _tuples(json_field(c, "mean", list, "a list of numbers", where=at))
            cov = _tuples(json_field(c, "covariance", list, "a list of rows", where=at))
            comps.append(Component(mean, cov, json_field(c, "count", int, nonneg, where=at)))
        box = json_field(d, "noise_box", list, "[[low...], [high...]]", None, where=where)
        return cls(
            components=tuple(comps),
            noise_count=json_field(d, "noise_count", int, nonneg, 0, where=where),
            noise_box=_tuples(box),
            seed=json_field(d, "seed", int, nonneg, 0, where=where),
        )


def _tuples(value):
    """value with every nested list turned into a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _iso(var, dim):
    """Isotropic covariance var * I as nested tuples."""
    return tuple(
        tuple(var if i == j else 0.0 for j in range(dim)) for i in range(dim)
    )


def generate(spec: MixtureSpec) -> DataSet:
    """Draw the mixture: Gaussian components first (classes 1..k in spec
    order, via Cholesky-transformed standard normals), then uniform noise
    over noise_box (default: bounding box of the clean draw) labeled 0.
    Component 1's mean sets the dimension of the others and of the box.
    """
    if min([spec.noise_count] + [c.count for c in spec.components]) < 0:
        raise ConfigurationError("component and noise counts must be >= 0")
    rng = np.random.default_rng(spec.seed)
    blocks, labels, means = [], [], []
    for k, comp in enumerate(spec.components, start=1):
        mean = float_array(comp.mean, f"component {k} mean", ndim=1)
        cov = float_array(comp.covariance, f"component {k} covariance")
        dim = means[0].size if means else mean.size
        if mean.size != dim or cov.shape != (dim, dim):
            raise ConfigurationError(f"component {k} needs a length-{dim} mean "
                                     f"and a {dim}x{dim} covariance")
        means.append(mean)
        if comp.count == 0:
            continue
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError(
                f"component {k} covariance is not positive definite"
            ) from exc
        z = rng.standard_normal((comp.count, dim))
        blocks.append(mean + z @ chol.T)
        labels.append(np.full(comp.count, k))
    if not blocks and spec.noise_count == 0:
        raise ConfigurationError("spec generates no points")
    if spec.noise_count:
        if spec.noise_box is not None:
            box = float_array(spec.noise_box, "noise_box")
            if box.shape != (2, means[0].size if means else box.shape[1]):
                raise ConfigurationError(f"noise_box shape {box.shape} is not (2, dimension)")
            lo, hi = box
        elif blocks:
            clean = np.vstack(blocks)
            lo, hi = clean.min(axis=0), clean.max(axis=0)
        else:
            raise ConfigurationError("noise_box required when no components")
        with np.errstate(over="ignore"):
            if not np.all((lo <= hi) & np.isfinite(hi - lo)):
                raise ConfigurationError(f"noise box from {lo} to {hi} needs low <= high "
                                         f"and a finite width")
        noise = rng.uniform(lo, hi, size=(spec.noise_count, lo.size))
        blocks.append(noise)
        labels.append(np.zeros(spec.noise_count, dtype=int))
    return DataSet(
        points=np.vstack(blocks),
        truth_labels=np.concatenate(labels).astype(int),
        truth_centers=np.array(means) if means else None,
    )


# 17 points forming a 12-point cluster around (1.75, 2.75) and a 5-point
# cross around (4.25, 2.75); both class means are exact.
_TINY_C1 = [
    (1.5, 3.5), (2.0, 3.5),
    (1.0, 3.0), (1.5, 3.0), (2.0, 3.0), (2.5, 3.0),
    (1.0, 2.5), (1.5, 2.5), (2.0, 2.5), (2.5, 2.5),
    (1.5, 2.0), (2.0, 2.0),
]
_TINY_C2 = [
    (4.25, 3.5),
    (3.5, 2.75), (4.25, 2.75), (5.0, 2.75),
    (4.25, 2.0),
]


def experiment1_fixture() -> DataSet:
    """The hard-coded 17-point two-cluster set."""
    pts = np.array(_TINY_C1 + _TINY_C2, dtype=float)
    labels = np.array([1] * len(_TINY_C1) + [2] * len(_TINY_C2))
    return DataSet(
        points=pts,
        truth_labels=labels,
        truth_centers=np.array([[1.75, 2.75], [4.25, 2.75]]),
    )


def _two_blob_spec(c2, n1, n2, seed):
    return MixtureSpec(
        components=(
            Component(mean=(0.0, 0.0), covariance=_iso(0.4, 2), count=n1),
            Component(mean=c2, covariance=_iso(0.4, 2), count=n2),
        ),
        seed=seed,
    )


def _three_cluster_spec(seed, noise_count=0):
    return MixtureSpec(
        components=(
            Component(mean=(0.27, 7.99), covariance=_iso(3.0, 2), count=200),
            Component(mean=(6.28, 1.49), covariance=_iso(0.5, 2), count=100),
            Component(mean=(7.81, 3.76), covariance=_iso(0.01, 2), count=5000),
        ),
        noise_count=noise_count,
        seed=seed,
    )


_FIXTURE_BUILDERS = {
    "example1": lambda seed: generate(_two_blob_spec((1.5, 1.5), 2000, 1000, seed)),
    "example2": lambda seed: generate(_two_blob_spec((2.0, 2.0), 2000, 1000, seed)),
    "example3": lambda seed: generate(_two_blob_spec((1.5, 1.5), 2000, 500, seed)),
    "example4": lambda seed: generate(_two_blob_spec((2.0, 2.0), 2000, 500, seed)),
    "experiment2": lambda seed: generate(_three_cluster_spec(seed)),
    "experiment3": lambda seed: generate(_three_cluster_spec(seed, noise_count=50)),
    "experiment1": lambda seed: experiment1_fixture(),
}

FIXTURE_NAMES = tuple(sorted(_FIXTURE_BUILDERS))


def make_fixture(name: str, seed: int = 0) -> DataSet:
    """Build a named synthetic fixture (experiment1 ignores the seed)."""
    try:
        builder = _FIXTURE_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fixture {name!r}; choose from {', '.join(FIXTURE_NAMES)}"
        ) from None
    return builder(seed)
