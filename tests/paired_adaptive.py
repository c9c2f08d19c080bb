"""Print sapcm against apcm on the same draws, paired by seed.

    python3 tests/paired_adaptive.py > paired.md

For each fixture of PAIRS at its (m_ini, alpha), and at half and twice
that alpha, runs sapcm with K 0.1 and with K 0.05, and apcm, on the
draws of FIXTURE_SEEDS, each run at seed = fixture seed as the
acceptance suite does. Prints one markdown row per (fixture, alpha):

- exact/surplus for each of the three: "exact" means m_final equals the
  number of true classes, "surplus" more;
- the median MD over each one's exact runs;
- for each K, how many of the seeds on which that sapcm and apcm are
  both exact give sapcm the lower MD.

A run that raises a ClusteringError is neither exact nor surplus; the
last column counts them. pytest does not collect this file.
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparsepcm import make_fixture  # noqa: E402
from sparsepcm.algorithms import AlgoConfig, run  # noqa: E402
from sparsepcm.core import ClusteringError  # noqa: E402

# fixture, m_ini, alpha: sapcm's acceptance setting, apcm's for example4
PAIRS = (("example3", 5, 2.0), ("example4", 5, 1.5),
         ("experiment2", 10, 0.15), ("experiment3", 10, 0.18))
ALPHA_FACTORS = (0.5, 1.0, 2.0)
SAPCM_K = (0.1, 0.05)
FIXTURE_SEEDS = range(10)


def header():
    """The markdown header of the table."""
    ks = [f"K {k:g}" for k in SAPCM_K]
    cells = (["fixture (`m_ini`)", "α"] + [f"sapcm {k}" for k in ks]
             + ["apcm", f"median MD, {' / '.join(ks + ['apcm'])}",
                f"sapcm MD lower, paired exact seeds, {' / '.join(ks)}", "raised"])
    return f"| {' | '.join(cells)} |\n|{'---|' * len(cells)}"


def outcomes(data, config, classes):
    """(exact, surplus, md, raised) of one run."""
    try:
        report = run(data, config)
    except ClusteringError:
        return False, False, None, True
    exact = report.m_final == classes
    return exact, report.m_final > classes, report.metrics["md"] if exact else None, False


def cell(fixture, m_ini, alpha):
    """{"sapcm K": [outcomes per seed], ..., "apcm": [...]} of one
    (fixture, alpha) cell, the seeds in order."""
    runs = {f"sapcm {k}": [] for k in SAPCM_K} | {"apcm": []}
    for seed in FIXTURE_SEEDS:
        data = make_fixture(fixture, seed=seed)
        classes = len(data.truth_centers)
        for k in SAPCM_K:
            config = AlgoConfig("sapcm", m_ini, alpha=alpha, K=k, seed=seed)
            runs[f"sapcm {k}"].append(outcomes(data, config, classes))
        config = AlgoConfig("apcm", m_ini, alpha=alpha, seed=seed)
        runs["apcm"].append(outcomes(data, config, classes))
    return runs


def row(fixture, m_ini, alpha, runs):
    """The markdown row of one cell."""
    def counts(name):
        return f"{sum(r[0] for r in runs[name])}/{sum(r[1] for r in runs[name])}"

    def median_md(name):
        mds = [r[2] for r in runs[name] if r[0]]
        return f"{statistics.median(mds):.3f}" if mds else "–"

    def lower(name):
        paired = [(s[2], a[2]) for s, a in zip(runs[name], runs["apcm"]) if s[0] and a[0]]
        return f"{sum(s < a for s, a in paired)}/{len(paired)}"

    sapcm = [f"sapcm {k}" for k in SAPCM_K]
    raised = sum(r[3] for name in runs for r in runs[name])
    cells = ([f"{fixture} ({m_ini})", f"{alpha:g}"] + [counts(n) for n in sapcm + ["apcm"]]
             + [" / ".join(median_md(n) for n in sapcm + ["apcm"]),
                " / ".join(lower(n) for n in sapcm), str(raised)])
    return f"| {' | '.join(cells)} |"


def main():
    print(header())
    for fixture, m_ini, alpha in PAIRS:
        for factor in ALPHA_FACTORS:
            a = alpha * factor
            print(row(fixture, m_ini, a, cell(fixture, m_ini, a)), flush=True)


if __name__ == "__main__":
    main()
