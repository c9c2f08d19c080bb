"""Experiment runner.

Maps flags and a JSON config to a dataset from datagen (CSV file,
generator spec JSON, or named fixture) and a list of runs, runs them,
and writes a JSON report plus per-run CSV matrices and an SVG scatter
plot (2-D data only, representatives drawn as circles of radius sqrt(gamma)).

Exit codes: 0 success, 1 at least one run failed, 2 configuration or
I/O problem.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .algorithms import ALGORITHMS, AlgoConfig, run
from .core import (
    ClusteringError,
    ConfigurationError,
    DataSet,
    RunReport,
    json_field,
)
from .datagen import FIXTURE_NAMES, MixtureSpec, generate, load_csv, make_fixture
from .datagen import iris_path  # unused here: perfbench's workloads read cli.iris_path

SCHEMA_VERSION = 1
_EMIT_CHOICES = ("report", "memberships", "plot")
_PLOT_SIZE = 640
_PLOT_PAD = 40


@dataclass
class ExperimentConfig:
    """One experiment: a single input dataset and a list of runs. A fixture
    draws with fixture_seed, by default the first run's seed."""

    runs: list
    output_dir: Path
    csv_path: Optional[Path] = None
    label_column: Optional[str] = None
    generator_path: Optional[Path] = None
    fixture: Optional[str] = None
    fixture_seed: Optional[int] = None
    emit: tuple = _EMIT_CHOICES

    def __post_init__(self):
        if not self.runs:
            raise ConfigurationError("experiment needs at least one run")
        if self.fixture_seed is None:
            self.fixture_seed = self.runs[0].seed
        if sum(s is not None for s in (self.csv_path, self.generator_path, self.fixture)) != 1:
            raise ConfigurationError(
                "exactly one input source (csv, generator spec, or fixture) required"
            )
        bad = [e for e in self.emit if e not in _EMIT_CHOICES]
        if bad:
            raise ConfigurationError(f"unknown emit targets: {bad}")
        self.output_dir = Path(self.output_dir)


def _load_json(path):
    """The parsed JSON file, a leading byte-order mark skipped; one not
    readable as UTF-8 JSON raises ConfigurationError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _resolve_input(config: ExperimentConfig) -> DataSet:
    if config.csv_path is not None:
        return load_csv(config.csv_path, config.label_column)
    if config.generator_path is not None:
        return generate(MixtureSpec.from_dict(_load_json(config.generator_path)))
    return make_fixture(config.fixture, seed=config.fixture_seed)


def _write_matrix_csv(path: Path, matrix: np.ndarray, header: list):
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(matrix.tolist())


def _svg_plot(path: Path, data: DataSet, report: RunReport):
    """Scatter of the points (small squares, colored by final label) with
    one circle per representative at radius sqrt(gamma) in data units. Its
    text is the per-point form's byte for byte; test_cli checks it against
    tests/plot_oracle.py."""
    pts = data.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    radii = np.sqrt(report.gamma_final)
    lo = np.minimum(lo, (report.theta_final - radii[:, None]).min(axis=0))
    hi = np.maximum(hi, (report.theta_final + radii[:, None]).max(axis=0))
    # no floor in data units: a returned model implies points of positive spread
    scale = (_PLOT_SIZE - 2 * _PLOT_PAD) / (hi - lo).max()

    def sx(x):
        return _PLOT_PAD + (x - lo[0]) * scale

    def sy(y):
        # flip so the y axis points up
        return _PLOT_SIZE - _PLOT_PAD - (y - lo[1]) * scale

    # gray for label 0, then the nine cluster colors; as objects, fills share these strings
    colors = np.array(["#777777", "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
                       "#ff7f0e", "#8c564b", "#e377c2", "#17becf", "#bcbd22"], dtype=object)
    fills = colors[np.where(report.labels_final, (report.labels_final - 1) % 9 + 1, 0)]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_SIZE}" '
        f'height="{_PLOT_SIZE}" viewBox="0 0 {_PLOT_SIZE} {_PLOT_SIZE}">',
        f'<rect width="{_PLOT_SIZE}" height="{_PLOT_SIZE}" fill="white"/>',
    ]
    lines += ['<rect x="%.2f" y="%.2f" width="2.4" height="2.4" fill="%s"/>' % rect
              for rect in zip((sx(pts[:, 0]) - 1.2).tolist(), (sy(pts[:, 1]) - 1.2).tolist(),
                              fills.tolist())]
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
            done.append((i, run(data, algo_config)))
        except ClusteringError as exc:
            failures.append((i, algo_config.algorithm, exc))
    reports = [report for _, report in done]
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
    for i, report in done:
        run_dir = config.output_dir / f"run_{i:02d}_{report.algorithm}"
        run_dir.mkdir(exist_ok=True)
        if "memberships" in config.emit:
            # the memberships of the returned model, labels_final's source
            _write_matrix_csv(
                run_dir / "memberships.csv", report.memberships,
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
    ap.add_argument("--fixture", choices=FIXTURE_NAMES,
                    help="named built-in dataset")
    ap.add_argument("--out", help="output directory (default: ./out)")
    ap.add_argument("--emit", help="comma list from report,memberships,plot")
    return ap


def _config_from_args(args) -> ExperimentConfig:
    base = {}
    if args.config:
        base = _load_json(args.config)
        version = json_field(base, "schema_version", int, "an integer", where="config")
        if version != SCHEMA_VERSION:
            raise ConfigurationError(f"unsupported schema_version {version}")

    run_dicts = json_field(base, "runs", list, "a list of JSON objects", []) or [{}]
    if not all(isinstance(rd, dict) for rd in run_dicts):
        raise ConfigurationError(f"runs must be a list of JSON objects, got {run_dicts!r}")
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
        for key, flag in (("algorithm", "--algo"), ("m_ini", "--m-ini")):
            if key not in merged:
                raise ConfigurationError(f"{flag} (or runs[].{key}) is required")
        unknown = set(merged) - known
        if unknown:
            raise ConfigurationError(f"unknown run options: {sorted(unknown)}")
        runs.append(AlgoConfig(**merged))

    inp = json_field(base, "input", dict, "a JSON object", {})
    sources = {"csv": args.input, "generator": args.generator, "fixture": args.fixture}
    if any(sources.values()):
        inp = {**sources, "label_column": inp.get("label_column")}
    csv_path = json_field(inp, "csv", str, "a file path", None)
    generator = json_field(inp, "generator", str, "a file path", None)
    fixture = json_field(inp, "fixture", str, "a fixture name", None)
    label_column = args.label_column or json_field(
        inp, "label_column", (str, int), "a column name or nonnegative index", None
    )
    emit = json_field(base, "emit", list, "a list of names", list(_EMIT_CHOICES))
    if args.emit:
        emit = [e.strip() for e in args.emit.split(",") if e.strip()]
    out = args.out or json_field(base, "output_dir", str, "a directory path", "out")
    fixture_seed = json_field(base, "fixture_seed", int, "a nonnegative integer", None)
    return ExperimentConfig(
        runs=runs,
        output_dir=Path(out),
        csv_path=None if csv_path is None else Path(csv_path),
        label_column=label_column,
        generator_path=None if generator is None else Path(generator),
        fixture=fixture,
        fixture_seed=fixture_seed,
        emit=tuple(emit),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        reports = run_experiment(_config_from_args(args))
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClusteringError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
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
        capped = [loop for loop, ok in (("main loop", r.converged), ("FCM", r.fcm_converged))
                  if not ok]
        if capped:
            print(f"warning: {r.algorithm} m_ini={r.m_ini}: {' and '.join(capped)} "
                  f"stopped at the step cap without converging", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
