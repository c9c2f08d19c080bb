"""Experiment runner.

Loads a dataset (CSV file, generator spec JSON, or named fixture), runs
one or more configured algorithms, and writes a JSON report plus per-run
CSV matrices and an SVG scatter plot (2-D data only, representatives
drawn as circles of radius sqrt(gamma)).

Exit codes: 0 success, 1 at least one run failed, 2 configuration or
I/O problem.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .algorithms import ALGORITHMS, AlgoConfig, run
from .core import (
    ClusteringError,
    ClusterModel,
    ConfigurationError,
    DataSet,
    RunReport,
    squared_distances,
)
from .datagen import FIXTURE_NAMES, MixtureSpec, generate, make_fixture
from .solver import update_memberships

SCHEMA_VERSION = 1
_EMIT_CHOICES = ("report", "memberships", "plot")


class CsvFormatError(ConfigurationError):
    """Malformed CSV input (ragged row, non-numeric cell, bad column)."""


@dataclass
class ExperimentConfig:
    """One experiment: a single input dataset and a list of runs."""

    runs: list
    output_dir: Path
    csv_path: Optional[Path] = None
    label_column: Optional[str] = None
    generator_path: Optional[Path] = None
    fixture: Optional[str] = None
    fixture_seed: int = 0
    emit: tuple = ("report", "memberships", "plot")

    def __post_init__(self):
        if not self.runs:
            raise ConfigurationError("experiment needs at least one run")
        sources = [
            s for s in (self.csv_path, self.generator_path, self.fixture)
            if s is not None
        ]
        if len(sources) != 1:
            raise ConfigurationError(
                "exactly one input source (csv, generator spec, or fixture) required"
            )
        bad = set(self.emit) - set(_EMIT_CHOICES)
        if bad:
            raise ConfigurationError(f"unknown emit targets: {sorted(bad)}")
        self.output_dir = Path(self.output_dir)


def load_csv(path, label_column=None) -> DataSet:
    """Parse a numeric CSV into a DataSet.

    A single header row is auto-detected (first row with any non-numeric
    cell). label_column may be a header name or a 0-based column index;
    its values are mapped to class ids 1..m_true in first-appearance
    order.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise CsvFormatError(f"{path}: empty file")

    def numeric_row(row):
        try:
            [float(c) for c in row]
            return True
        except ValueError:
            return False

    header = None
    if not numeric_row(rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise CsvFormatError(f"{path}: header but no data rows")
    width = len(rows[0])
    label_idx = None
    if label_column is not None:
        if isinstance(label_column, str) and not label_column.lstrip("-").isdigit():
            if header is None or label_column not in header:
                raise CsvFormatError(f"{path}: unknown label column {label_column!r}")
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not 0 <= label_idx < width:
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
        order = {}
        for v in raw_labels:
            order.setdefault(v, len(order) + 1)
        labels = np.array([order[v] for v in raw_labels], dtype=int)
    return DataSet(points=points, truth_labels=labels)


def iris_path() -> Path:
    """Location of the bundled 150x4 iris CSV."""
    return Path(resources.files("sparsepcm").joinpath("data/iris.csv"))


def _resolve_input(config: ExperimentConfig) -> DataSet:
    if config.csv_path is not None:
        return load_csv(config.csv_path, config.label_column)
    if config.generator_path is not None:
        gp = Path(config.generator_path)
        if not gp.exists():
            raise ConfigurationError(f"generator spec not found: {gp}")
        spec = MixtureSpec.from_dict(json.loads(gp.read_text()))
        return generate(spec)
    if config.fixture == "iris":
        return load_csv(iris_path(), label_column="species")
    return make_fixture(config.fixture, seed=config.fixture_seed)


def _write_matrix_csv(path: Path, matrix: np.ndarray, header: list):
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(matrix.tolist())


def _svg_plot(path: Path, data: DataSet, report: RunReport, size=640, pad=40):
    """Scatter of the points (small squares, colored by final label) with
    one circle per representative at radius sqrt(gamma) in data units."""
    pts = data.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    radii = np.sqrt(report.gamma_final)
    lo = np.minimum(lo, (report.theta_final - radii[:, None]).min(axis=0))
    hi = np.maximum(hi, (report.theta_final + radii[:, None]).max(axis=0))
    span = np.maximum(hi - lo, 1e-12)
    scale = (size - 2 * pad) / span.max()

    def sx(x):
        return pad + (x - lo[0]) * scale

    def sy(y):
        # flip so the y axis points up
        return size - pad - (y - lo[1]) * scale

    palette = ["#777777", "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
               "#ff7f0e", "#8c564b", "#e377c2", "#17becf", "#bcbd22",
               "#7f7f7f"]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for (x, y), lab in zip(pts, report.labels_final):
        color = palette[int(lab) % len(palette)]
        lines.append(
            f'<rect x="{sx(x) - 1.2:.2f}" y="{sy(y) - 1.2:.2f}" width="2.4" '
            f'height="2.4" fill="{color}"/>'
        )
    for j, (center, g) in enumerate(zip(report.theta_final, report.gamma_final)):
        r = np.sqrt(g) * scale
        lines.append(
            f'<circle cx="{sx(center[0]):.2f}" cy="{sy(center[1]):.2f}" '
            f'r="{r:.2f}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    path.write_text("\n".join(lines), encoding="utf-8")


def run_experiment(config: ExperimentConfig):
    """Execute every configured run and write the requested artifacts.

    Returns the list of RunReports. Raises ClusteringError subclasses
    for configuration problems; individual run failures are re-raised
    after all runs were attempted (wrapped with run context).
    """
    data = _resolve_input(config)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    done, failures = [], []
    for i, algo_config in enumerate(config.runs):
        try:
            done.append((i, algo_config, run(data, algo_config)))
        except ClusteringError as exc:
            failures.append((i, algo_config.algorithm, exc))
    reports = [report for _, _, report in done]
    if "report" in config.emit:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "reports": [r.to_dict() for r in reports],
            "failures": [
                {"run": i, "algorithm": a, "error": str(e)} for i, a, e in failures
            ],
        }
        (config.output_dir / "report.json").write_text(
            json.dumps(doc, indent=2), encoding="utf-8"
        )
    for i, algo_config, report in done:
        run_dir = config.output_dir / f"run_{i:02d}_{report.algorithm}"
        run_dir.mkdir(exist_ok=True)
        if "memberships" in config.emit:
            # the memberships of the model the run returned
            model = ClusterModel(
                theta=report.theta_final, gamma=report.gamma_final,
                lam=report.lam_final, p=algo_config.p,
            )
            u = update_memberships(squared_distances(data, report.theta_final), model)
            _write_matrix_csv(
                run_dir / "memberships.csv", u,
                [f"u_{j + 1}" for j in range(report.m_final)],
            )
            _write_matrix_csv(
                run_dir / "theta.csv", report.theta_final,
                [f"x_{k + 1}" for k in range(report.theta_final.shape[1])],
            )
        if "plot" in config.emit and data.n_features == 2:
            _svg_plot(run_dir / "plot.svg", data, report)
    if failures:
        i, a, exc = failures[0]
        raise ClusteringError(f"run {i} ({a}) failed: {exc}") from exc
    return reports


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="sparsepcm",
        description="Possibilistic clustering runner (classic, sparse, adaptive).",
    )
    ap.add_argument("--config", help="JSON experiment config; flags override it")
    ap.add_argument("--algo", choices=ALGORITHMS)
    ap.add_argument("--m-ini", type=int, dest="m_ini")
    ap.add_argument("--alpha", type=float)
    ap.add_argument("--K", type=float, dest="K")
    ap.add_argument("--p", type=float)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--input", help="CSV file with one point per row")
    ap.add_argument("--label-column", dest="label_column",
                    help="name or 0-based index of the class column")
    ap.add_argument("--generator", help="JSON mixture spec to sample from")
    ap.add_argument("--fixture", choices=FIXTURE_NAMES + ("iris",),
                    help="named built-in dataset")
    ap.add_argument("--out", help="output directory (default: ./out)")
    ap.add_argument("--emit", help="comma list from report,memberships,plot")
    return ap


def _config_from_args(args) -> ExperimentConfig:
    base = {}
    if args.config:
        cpath = Path(args.config)
        if not cpath.exists():
            raise ConfigurationError(f"config file not found: {cpath}")
        base = json.loads(cpath.read_text())
        if not isinstance(base, dict):
            raise ConfigurationError("config must be a JSON object")
        if base.get("schema_version") != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported schema_version {base.get('schema_version')!r}"
            )

    run_dicts = base.get("runs", [])
    if not isinstance(run_dicts, list) or not all(
        isinstance(rd, dict) for rd in run_dicts
    ):
        raise ConfigurationError("runs must be a list of JSON objects")
    if not run_dicts:
        run_dicts = [{}]
    known = {f.name for f in fields(AlgoConfig)}
    # flags override every run and the top-level input settings
    overrides = {
        "algorithm": args.algo, "m_ini": args.m_ini, "alpha": args.alpha,
        "K": args.K, "p": args.p, "seed": args.seed,
    }
    runs = []
    for rd in run_dicts:
        merged = dict(rd)
        for key, val in overrides.items():
            if val is not None:
                merged[key] = val
        if "algorithm" not in merged:
            raise ConfigurationError("--algo (or runs[].algorithm) is required")
        if "m_ini" not in merged:
            raise ConfigurationError("--m-ini (or runs[].m_ini) is required")
        unknown = set(merged) - known
        if unknown:
            raise ConfigurationError(f"unknown run options: {sorted(unknown)}")
        runs.append(AlgoConfig(**merged))

    inp = base.get("input", {})
    if not isinstance(inp, dict):
        raise ConfigurationError("input must be a JSON object")
    csv_path = args.input or inp.get("csv")
    generator = args.generator or inp.get("generator")
    fixture = args.fixture or inp.get("fixture")
    label_column = args.label_column or inp.get("label_column")
    emit = base.get("emit", list(_EMIT_CHOICES))
    if args.emit:
        emit = [e.strip() for e in args.emit.split(",") if e.strip()]
    out = args.out or base.get("output_dir", "out")
    seed0 = runs[0].seed if runs else 0
    return ExperimentConfig(
        runs=runs,
        output_dir=Path(out),
        csv_path=None if csv_path is None else Path(csv_path),
        label_column=label_column,
        generator_path=None if generator is None else Path(generator),
        fixture=fixture,
        fixture_seed=base.get("fixture_seed", seed0),
        emit=tuple(emit),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except (ConfigurationError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        reports = run_experiment(config)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClusteringError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    for r in reports:
        line = (
            f"{r.algorithm}: m_ini={r.m_ini} m_final={r.m_final} "
            f"iterations={r.iterations} time={r.wall_time:.3f}s"
        )
        if r.metrics:
            md = r.metrics.get("md")
            line += (
                f" rm={r.metrics['rm']:.2f} sr={r.metrics['sr']:.2f}"
                + (f" md={md:.4f}" if md is not None else "")
            )
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
