"""The benchmark's workloads, their inputs and the check on every run.

A workload is a list of rounds and a round is one pass: a fixed list of
cases, each of them one clustering run.  Round r of workload seed s
draws its inputs with seed s * 1_000_000 + r (small-n: one seed per
draw), so ``--seed 0`` replays the acceptance suite's seeds 0, 1, 2, ...
Every round draws new fixtures: run time depends on how many outer
iterations a draw needs, so a measurement spans several draws.

fixtures-sparse   the sparse acceptance pairs at paper scale (N 150 to
                  5350); most time goes to the membership solve and to
                  squared distances.
fixtures-classic  the lam = 0 pairs through ``cli.run_experiment`` with
                  every artifact written; the solve is one exp, so a
                  solver change should not move it.  run_experiment
                  resolves its own input, so it gets the fixture name and
                  the derived seed and builds the same DataSet as the
                  check below.
small-n           about 60-point blob draws under sapcm, shaped like the
                  adaptive property suite: per-call overhead and
                  bookkeeping show here.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from sparsepcm import algorithms, cli, datagen
from sparsepcm.algorithms import AlgoConfig
from sparsepcm.core import ClusteringError, DataSet

SEED_STRIDE = 1_000_000
SMALL_N_DRAWS_PER_ROUND = 20
_SMALL_N_CENTERS = ((0.0, 0.0), (4.0, 0.0), (2.0, 3.5))

# (fixture, algorithm, AlgoConfig settings of the acceptance suite)
SPARSE_PAIRS = (
    ("example1", "spcm", {"m_ini": 5}),
    ("example3", "sapcm", {"m_ini": 5, "alpha": 2.0}),
    ("experiment2", "sapcm", {"m_ini": 10, "alpha": 0.15}),
    ("experiment2", "spcm", {"m_ini": 10}),
    ("experiment3", "sapcm", {"m_ini": 10, "alpha": 0.18}),
    ("iris", "sapcm", {"m_ini": 3, "alpha": 2.2}),
    ("iris", "spcm", {"m_ini": 10}),
)
CLASSIC_PAIRS = (
    ("example1", "pcm", {"m_ini": 5}),
    ("example3", "apcm", {"m_ini": 5, "alpha": 1.6}),
    ("example4", "apcm", {"m_ini": 5, "alpha": 1.5}),
    ("iris", "pcm", {"m_ini": 10}),
)


@dataclass
class Case:
    """One clustering run: its input, its settings and how it is driven."""

    group: str                # "fixture/algorithm", the unit of the tables
    fixture: str
    fixture_seed: int
    data: DataSet
    config: AlgoConfig
    via_cli: bool = False


@dataclass
class Outcome:
    """What one run returned, or the error it raised.

    Only a summary is kept, so that holding the outcomes of a whole
    measurement does not add to the peak memory being measured.
    """

    case: Case
    seconds: float
    m_final: Optional[int] = None
    iterations: Optional[int] = None
    converged: Optional[bool] = None
    sr: Optional[float] = None
    error: Optional[str] = None
    problems: tuple = ()
    bytes_written: int = 0

    @property
    def ok(self):
        return self.error is None and not self.problems

    def record(self):
        c = self.case
        rec = {
            "group": c.group, "fixture_seed": c.fixture_seed,
            "N": c.data.n_points, "m_ini": c.config.m_ini, "l": c.data.n_features,
            "ms": round(self.seconds * 1e3, 3), "m_final": self.m_final,
            "iterations": self.iterations, "converged": self.converged, "sr": self.sr,
        }
        if self.error is not None:
            rec["error"] = self.error
        if self.problems:
            rec["problems"] = list(self.problems)
        return rec


def _iris():
    return cli.load_csv(cli.iris_path(), label_column="species")


def _fixture_rounds(pairs, seed, rounds, via_cli):
    iris = _iris()
    plan = []
    for r in range(rounds):
        fs = seed * SEED_STRIDE + r
        drawn = {"iris": iris}
        cases = []
        for fixture, algorithm, settings in pairs:
            if fixture not in drawn:
                drawn[fixture] = datagen.make_fixture(fixture, seed=fs)
            cases.append(Case(
                group=f"{fixture}/{algorithm}", fixture=fixture, fixture_seed=fs,
                data=drawn[fixture],
                config=AlgoConfig(algorithm=algorithm, seed=fs, **settings),
                via_cli=via_cli,
            ))
        plan.append(cases)
    return plan


def small_n_case(draw_seed):
    """One draw shaped like test_adaptive_cluster_count_never_increases."""
    rng = np.random.default_rng(draw_seed)
    k = int(rng.integers(2, 4))
    per_blob = int(rng.integers(15, 25))
    var = float(rng.uniform(0.15, 0.45)) ** 2
    m_ini = int(rng.integers(3, 7))
    alpha = float(rng.uniform(0.8, 2.0))
    spec = datagen.MixtureSpec(
        components=tuple(
            datagen.Component(mean=c, covariance=((var, 0.0), (0.0, var)), count=per_blob)
            for c in _SMALL_N_CENTERS[:k]
        ),
        seed=draw_seed,
    )
    return Case(
        group="small-n/sapcm", fixture="small-n", fixture_seed=draw_seed,
        data=datagen.generate(spec),
        config=AlgoConfig(algorithm="sapcm", m_ini=m_ini, alpha=alpha,
                          seed=draw_seed, max_iter=50),
    )


def _small_n_rounds(seed, rounds):
    base = seed * SEED_STRIDE
    return [
        [small_n_case(base + r * SMALL_N_DRAWS_PER_ROUND + j)
         for j in range(SMALL_N_DRAWS_PER_ROUND)]
        for r in range(rounds)
    ]


def _warm_up_runs(*names):
    def warm_up(outdir):
        data = small_n_case(SEED_STRIDE - 1).data
        for algorithm in names:
            algorithms.run(data, AlgoConfig(algorithm=algorithm, m_ini=3, alpha=1.0))
    return warm_up


def _warm_up_cli(outdir):
    cli.run_experiment(cli.ExperimentConfig(
        runs=[AlgoConfig(algorithm=a, m_ini=2, alpha=1.5) for a in ("pcm", "apcm")],
        output_dir=Path(outdir) / "warm-up", fixture="experiment1",
    ))


@dataclass(frozen=True)
class Workload:
    name: str
    round_seconds: float      # one round on a 2-core x86 box; sizes a run
    pass_layers: frozenset    # exactly the layers a traced pass calls
    build: Callable           # (seed, rounds) -> list of rounds of Cases
    warm_up: Callable         # (outdir) -> None; each code path once, small inputs

    def rounds_for(self, seconds):
        return max(1, round(seconds / self.round_seconds))


_CORE = frozenset({"core", "fcm", "solver", "algorithms", "metrics"})
WORKLOADS = {
    w.name: w for w in (
        Workload("fixtures-sparse", 7.2, _CORE,
                 partial(_fixture_rounds, SPARSE_PAIRS, via_cli=False),
                 _warm_up_runs("spcm", "sapcm")),
        Workload("fixtures-classic", 0.9, _CORE | {"cli", "datagen"},
                 partial(_fixture_rounds, CLASSIC_PAIRS, via_cli=True),
                 _warm_up_cli),
        Workload("small-n", 1.4, _CORE, _small_n_rounds, _warm_up_runs("sapcm")),
    )
}


def execute(case, outdir):
    """Run one case, time it and check what it returned.

    ClusteringError is an outcome, not a crash: it is recorded and the
    pass goes on.
    """
    run_dir = Path(outdir) / case.group.replace("/", "_")
    shutil.rmtree(run_dir, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        if case.via_cli:
            config = cli.ExperimentConfig(
                runs=[case.config], output_dir=run_dir, fixture=case.fixture,
                fixture_seed=case.fixture_seed,
            )
            report = cli.run_experiment(config)[0]
        else:
            report = algorithms.run(case.data, case.config)
    except ClusteringError as exc:
        return Outcome(case, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    problems = tuple(check_report(case, report))
    written = 0
    if case.via_cli:
        problems += tuple(check_artifacts(case, report, run_dir))
        written = sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
    return Outcome(
        case, seconds, m_final=report.m_final, iterations=report.iterations,
        converged=bool(report.history)
        and report.history[-1].max_move < case.config.theta_tol,
        sr=None if report.metrics is None else report.metrics["sr"],
        problems=problems, bytes_written=written,
    )


def check_report(case, report):
    """Invariants every returned RunReport must satisfy."""
    n, l = case.data.n_points, case.data.n_features
    m = report.m_final
    if not 1 <= m <= case.config.m_ini:
        yield f"m_final={m} outside 1..m_ini={case.config.m_ini}"
    if report.theta_final.shape != (m, l) or not np.all(np.isfinite(report.theta_final)):
        yield "theta_final is not a finite m_final x l matrix"
    if report.gamma_final.shape != (m,) or not np.all(np.isfinite(report.gamma_final)):
        yield "gamma_final is not a finite vector of length m_final"
    labels = np.asarray(report.labels_final)
    if labels.shape != (n,) or labels.min() < 0 or labels.max() > m:
        yield f"labels_final not N={n} values in 0..{m}"
    if len(report.history) != report.iterations:
        yield f"len(history)={len(report.history)} != iterations={report.iterations}"
    if report.metrics is None:
        yield "no metrics although the data carries truth labels"


def check_artifacts(case, report, run_dir):
    """The files run_experiment wrote agree with the report it returned."""
    artifacts = run_dir / f"run_00_{report.algorithm}"
    expected = [run_dir / "report.json", artifacts / "memberships.csv", artifacts / "theta.csv"]
    if case.data.n_features == 2:
        expected.append(artifacts / "plot.svg")
    missing = [p.name for p in expected if not p.is_file()]
    if missing:
        yield f"artifacts not written: {missing}"
        return
    doc = json.loads(expected[0].read_text(encoding="utf-8"))
    if doc["failures"] or len(doc["reports"]) != 1:
        yield "report.json does not hold exactly the one successful run"
    elif (doc["reports"][0]["m_final"], doc["reports"][0]["iterations"]) != (
            report.m_final, report.iterations):
        yield "report.json disagrees with the returned report"
    with expected[1].open(encoding="utf-8") as fh:
        rows = sum(1 for _ in fh)
    if rows != case.data.n_points + 1:
        yield f"memberships.csv has {rows} lines, expected N+1={case.data.n_points + 1}"
