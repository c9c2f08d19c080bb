"""Named and seeded datasets: every DataSet the package builds or reads.

A MixtureSpec describes a Gaussian mixture (plus optional uniform
background noise) and generates the same DataSet bit-for-bit for a given
seed; load_csv parses a numeric CSV. The named fixtures reproduce the
benchmark configurations used throughout the tests: pairs of
equal-covariance blobs at varying separation and size ratio, a
three-cluster set with wildly different spreads, the same with
background noise, a tiny hand-written 17-point set, and the iris table.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ConfigurationError, DataSet, float_array, json_field, natural


class CsvFormatError(ConfigurationError):
    """Malformed CSV input (ragged row, non-numeric cell, bad column)."""


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
    natural(spec.seed, "seed")
    natural(spec.noise_count, "noise_count")
    rng = np.random.default_rng(spec.seed)
    blocks, labels, means = [], [], []
    for k, comp in enumerate(spec.components, start=1):
        natural(comp.count, f"component {k} count")
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


def _experiment1() -> DataSet:
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


def load_csv(path, label_column=None) -> DataSet:
    """Parse a numeric UTF-8 CSV, byte-order mark or not, into a DataSet.

    label_column may be a header name or a 0-based column index; its
    values are mapped to class ids 1..m_true in first-appearance order.
    The first row is a header when label_column is a name, or else when
    any of its cells outside the label column is non-numeric.
    """
    if not (label_column is None or isinstance(label_column, str)):
        natural(label_column, "label_column")
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigurationError(f"input file {path}: {exc.strerror or exc}") from None
    if not rows:
        raise CsvFormatError(f"{path}: empty file")

    by_name = isinstance(label_column, str) and not re.fullmatch(r"-?[0-9]+", label_column)
    label_idx = None if label_column is None or by_name else int(label_column)
    header = None
    try:
        [float(c) for cno, c in enumerate(rows[0]) if cno != label_idx]
        has_header = by_name
    except ValueError:
        has_header = True
    if has_header:
        header = [c.strip() for c in rows.pop(0)]
        if not rows:
            raise CsvFormatError(f"{path}: header but no data rows")
    width = len(rows[0])
    if header is not None and len(header) != width:
        raise CsvFormatError(
            f"{path}: header has {len(header)} names but row 2 has {width} cells"
        )
    if by_name:
        if label_column not in header:
            raise CsvFormatError(f"{path}: unknown label column {label_column!r}")
        label_idx = header.index(label_column)
    elif label_idx is not None and not 0 <= label_idx < width:
        raise CsvFormatError(f"{path}: label column index {label_idx} out of range")

    feats, raw_labels = [], []
    for rno, row in enumerate(rows, start=2 if header else 1):
        if len(row) != width:
            raise CsvFormatError(
                f"{path}: row {rno} has {len(row)} cells, expected {width}"
            )
        vals = []
        for cno, cell in enumerate(row):
            if cno == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise CsvFormatError(
                    f"{path}: non-numeric cell at row {rno}, column {cno}: {cell!r}"
                ) from None
        feats.append(vals)
    points = np.asarray(feats, dtype=float)
    labels = None
    if label_idx is not None:
        ids = {v: i for i, v in enumerate(dict.fromkeys(raw_labels), start=1)}
        labels = np.array([ids[v] for v in raw_labels], dtype=int)
    return DataSet(points=points, truth_labels=labels)


def iris_path() -> Path:
    """Location of the bundled 150x4 iris CSV."""
    return Path(resources.files("sparsepcm").joinpath("data/iris.csv"))


_FIXTURE_BUILDERS = {
    "example1": lambda seed: generate(_two_blob_spec((1.5, 1.5), 2000, 1000, seed)),
    "example2": lambda seed: generate(_two_blob_spec((2.0, 2.0), 2000, 1000, seed)),
    "example3": lambda seed: generate(_two_blob_spec((1.5, 1.5), 2000, 500, seed)),
    "example4": lambda seed: generate(_two_blob_spec((2.0, 2.0), 2000, 500, seed)),
    "experiment2": lambda seed: generate(_three_cluster_spec(seed)),
    "experiment3": lambda seed: generate(_three_cluster_spec(seed, noise_count=50)),
    "experiment1": lambda seed: _experiment1(),
    "iris": lambda seed: load_csv(iris_path(), label_column="species"),
}

FIXTURE_NAMES = tuple(sorted(_FIXTURE_BUILDERS))


def make_fixture(name: str, seed: int = 0) -> DataSet:
    """Build a named fixture (experiment1 and iris ignore the seed but check it)."""
    natural(seed, "seed")
    try:
        builder = _FIXTURE_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fixture {name!r}; choose from {', '.join(FIXTURE_NAMES)}"
        ) from None
    return builder(seed)
