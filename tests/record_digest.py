"""Print one digest line per benchmark run, to diff the records of two commits.

    python3 tests/record_digest.py [--save DIR] [--fixture-seeds A:B]
        [--small-n-draws A:B] > digest.txt

Runs perfbench's fixtures-sparse cases (through algorithms.run) and its
fixtures-classic cases (through cli.run_experiment, every artifact
written) at fixture seeds A to B-1 (default 0:3), then the runs of
small_n_runs(range(A, B)) (default 0:60): 273 runs by default.
--fixture-seeds 0:20 --small-n-draws 60:260 gives the wide set of 1020
runs. Each line names the run and gives m_final, iterations,
converged, the sha256 of the report's to_dict() without wall_time and
the sha256 of the bytes of its membership matrix, which to_dict()
leaves out; a classic run adds the sha256 of each artifact,
report.json again without wall_time. A run that raises a
ClusteringError prints it instead. Run the script from two checkouts
and diff the output: equal lines mean equal records, bit for bit.

With --save DIR each run's raw record also goes to DIR/<name>.npz, the
slashes of its name written as "__": theta, gamma, lam, labels,
memberships, m_final, iterations, converged, the FCM counts, the
cluster count of every iteration, the metrics as JSON, theta_tol, the
data's standard deviation per feature and the error message, empty for
a run that finished. record_compare.py tells apart how two such directories
differ.

pytest does not collect this file; test_record_digest.py checks that it
is deterministic. The tests take their small-n runs from small_n_runs
and small_n_config, so the digest and the tests run the same settings.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sparsepcm import algorithms, cli  # noqa: E402
from sparsepcm.algorithms import ALGORITHMS  # noqa: E402
from sparsepcm.core import ClusteringError  # noqa: E402
from workloads import WORKLOADS, small_n_case  # noqa: E402

FIXTURE_SEEDS = range(3)
SMALL_N_DRAWS = range(60)


def seed_range(text):
    """range(A, B) for the command-line text "A:B"."""
    start, sep, stop = text.partition(":")
    try:
        seeds = range(int(start), int(stop))
    except ValueError:
        seeds = None
    if not sep or seeds is None or not 0 <= seeds.start <= seeds.stop:
        raise argparse.ArgumentTypeError(f"expected A:B with 0 <= A <= B, got {text!r}")
    return seeds


def _without_wall_time(report):
    return {k: v for k, v in report.items() if k != "wall_time"}


def _sha(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _artifacts(out, algorithm):
    """name=sha256 of every file run_experiment wrote to out."""
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    doc["reports"] = [_without_wall_time(r) for r in doc["reports"]]
    shas = [f"report.json={_sha(doc)}"]
    for path in sorted((out / f"run_00_{algorithm}").iterdir()):
        shas.append(f"{path.name}={hashlib.sha256(path.read_bytes()).hexdigest()}")
    return " ".join(shas)


def save_record(directory, name, data, config, report=None, error=""):
    """Write the raw record of one run under config, or its error message,
    to directory/<name>.npz."""
    fields = {"error": error, "scale": data.points.std(axis=0),
              "theta_tol": config.theta_tol}
    if report is not None:
        fields.update(
            theta=report.theta_final, gamma=report.gamma_final, lam=report.lam_final,
            labels=report.labels_final, memberships=report.memberships,
            m_final=report.m_final, iterations=report.iterations,
            converged=report.converged, fcm_iterations=report.fcm_iterations,
            fcm_converged=report.fcm_converged,
            history_m=np.array([rec.m for rec in report.history], dtype=int),
            metrics=json.dumps(report.metrics, sort_keys=True),
        )
    np.savez(Path(directory) / (name.replace("/", "__") + ".npz"), **fields)


def digest_line(name, data, config, fixture=None, fixture_seed=0, save=None):
    """The digest of one run: through cli.run_experiment when a fixture name
    is given, else through algorithms.run on data. With a directory in save,
    the run's raw record is written there too."""
    try:
        if fixture is None:
            report, files = algorithms.run(data, config), ""
        else:
            with tempfile.TemporaryDirectory() as tmp:
                report = cli.run_experiment(cli.ExperimentConfig(
                    runs=[config], output_dir=Path(tmp), fixture=fixture,
                    fixture_seed=fixture_seed,
                ))[0]
                files = " " + _artifacts(Path(tmp), config.algorithm)
    except ClusteringError as exc:
        line = f"{name} error={type(exc).__name__}: {exc}"
        if save is not None:
            save_record(save, name, data, config, error=line)
        return line
    if save is not None:
        save_record(save, name, data, config, report)
    record = _sha(_without_wall_time(report.to_dict()))
    u = hashlib.sha256(np.ascontiguousarray(report.memberships).tobytes()).hexdigest()
    return (f"{name} m_final={report.m_final} iterations={report.iterations} "
            f"converged={report.converged} record={record} memberships={u}{files}")


def small_n_config(case, algorithm):
    """A small_n_case draw's settings under algorithm: its alpha only for
    sapcm and apcm, and K at the algorithm's default."""
    alpha = case.config.alpha if algorithm in ("sapcm", "apcm") else None
    return replace(case.config, algorithm=algorithm, alpha=alpha, K=None)


def small_n_runs(draws):
    """(name, data, config) of each draw under each algorithm."""
    for draw in draws:
        case = small_n_case(draw)
        for algorithm in ALGORITHMS:
            yield f"small-n/{draw}/{algorithm}", case.data, small_n_config(case, algorithm)


def fixture_lines(workload, seeds, save=None):
    """The digest of each case of perfbench's workload at fixture seeds."""
    for cases in WORKLOADS[workload].build(0, seeds.stop)[seeds.start:]:
        for case in cases:
            yield digest_line(
                f"{case.group}/{case.fixture_seed}", case.data, case.config,
                fixture=case.fixture if case.via_cli else None,
                fixture_seed=case.fixture_seed, save=save,
            )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--save", type=Path, help="directory for each run's raw record")
    ap.add_argument("--fixture-seeds", type=seed_range, default=FIXTURE_SEEDS,
                    metavar="A:B", help="fixture seeds A to B-1 (default 0:3)")
    ap.add_argument("--small-n-draws", type=seed_range, default=SMALL_N_DRAWS,
                    metavar="A:B", help="small_n_case draws A to B-1 (default 0:60)")
    args = ap.parse_args(argv)
    save = args.save
    if save is not None:
        save.mkdir(parents=True, exist_ok=True)
    for lines in (fixture_lines("fixtures-sparse", args.fixture_seeds, save),
                  fixture_lines("fixtures-classic", args.fixture_seeds, save),
                  (digest_line(*run, save=save) for run in small_n_runs(args.small_n_draws))):
        for line in lines:
            print(line, flush=True)


if __name__ == "__main__":
    main()
