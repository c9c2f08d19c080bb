"""Tell apart how the raw records of two checkouts differ.

    python3 tests/record_digest.py --save A > /dev/null    # in one checkout
    python3 tests/record_digest.py --save B > /dev/null    # in the other
    python3 tests/record_compare.py A B

Unless they are bit-equal, two records with the same m_final first have
b's clusters, its theta rows, gamma, membership columns and labels (0
stays 0), put in the order of a's by the least total theta distance, so
that clusters that only come out in another order read as the same run.
Each run named in either directory then falls in one of four classes:

- bit-equal: every field but theta_tol, a setting, has the same bits;
- rounding: the same error message, m_final, iterations, converged, FCM
  counts, per-iteration cluster counts, labels and metrics apart from md,
  with theta within THETA_BOUND of the data's standard deviation per
  feature (data units for a constant feature), every membership within
  U_BOUND, and gamma, lam and md within REL_BOUND of their size;
- path moved: the same answer reached by another path. The error
  message, m_final, labels and metrics apart from md are the same;
  iterations, FCM counts and per-iteration cluster counts may differ,
  and so may converged and the FCM's converged flag, since a run that
  does not converge stops at its cap. Every gap is stated as the theta
  move it amounts to, in units of the larger theta_tol of the two
  records: theta and md in data units over theta_tol; the memberships,
  and gamma and lam relative to their size, times the data's smallest
  standard deviation over theta_tol. Each must be within PATH_BOUND;
- outcome moved: anything else, a run found in one directory only
  included.

The script prints the count of each class, the worst theta, membership,
gamma, lam and md gaps over the bit-equal and rounding runs, the worst
path gaps against PATH_BOUND, the name of every path moved run whose
converged flags changed, the name and matching of every run that is not
outcome moved only after its clusters were reordered, and the name of
every run whose outcome moved.
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparsepcm.metrics import _assignment  # noqa: E402

THETA_BOUND = 1e-8
U_BOUND = 1e-8
REL_BOUND = 1e-8
# A run stopped by |theta step| < theta_tol at a contraction rate of 0.98
# per step lies up to 49 theta_tol from its fixed point, so two stops of
# one fixed point are up to about 100 theta_tol apart. A different fixed
# point with the same labels sits much further than this away.
PATH_BOUND = 1e3
CLASSES = ("bit-equal", "rounding", "path moved", "outcome moved")
GAPS = ("theta", "memberships", "gamma", "lam", "md")
_FLAGS = ("converged", "fcm_converged")
_SAME_ANSWER = ("error", "m_final", "labels")
_EXACT = _SAME_ANSWER + _FLAGS + ("iterations", "fcm_iterations", "history_m")


def load(directory):
    """{run name: {field: array}} of every record in directory."""
    records = {}
    for path in sorted(Path(directory).glob("*.npz")):
        with np.load(path) as npz:
            records[path.stem.replace("__", "/")] = {k: npz[k] for k in npz.files}
    return records


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _rel(a, b):
    """The largest gap of a and b relative to the larger magnitude."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    gap = np.abs(a - b)
    return float((gap / np.where(gap > 0.0, np.maximum(np.abs(a), np.abs(b)), 1.0)).max())


def _equal_bits(a, b):
    return all(_bits(a[k]) == _bits(b[k]) for k in a if k != "theta_tol")


def _matched(a, b):
    """(b reordered to a's clusters, the order as text), or (b, "") when the
    counts differ, a run raised or b's own order is as near."""
    if "theta" not in a or a["m_final"] != b["m_final"]:
        return b, ""
    cost = np.linalg.norm(a["theta"][:, None, :] - b["theta"][None, :, :], axis=2)
    rows, order = _assignment(cost)
    if cost[rows, order].sum() >= np.trace(cost):
        return b, ""
    relabel = np.r_[0, np.argsort(order) + 1].astype(b["labels"].dtype)
    b = dict(b, theta=b["theta"][order], gamma=b["gamma"][order],
             memberships=b["memberships"][:, order], labels=relabel[b["labels"]])
    return b, f"b's clusters {' '.join(str(j + 1) for j in order)} as a's 1 to {len(order)}"


def classify(a, b):
    """(class, gaps) of one run's records a and b; gaps maps each name in
    GAPS to its gap, in theta_tol for a path moved run, or is None when
    the outcome moved. gaps also say under "permuted" how b's clusters
    were reordered, empty when they were not, and a path moved run's
    gaps under "cap" how its converged flags changed, empty when they
    did not."""
    if a is None or b is None or a.keys() != b.keys():
        return "outcome moved", None
    b, permuted = (b, "") if _equal_bits(a, b) else _matched(a, b)
    cls, gaps = _by_index(a, b)
    if gaps is not None:
        gaps["permuted"] = permuted
    return cls, gaps


def _by_index(a, b):
    """classify's (class, gaps), cluster j of a read against cluster j of b."""
    if _equal_bits(a, b):
        return "bit-equal", dict.fromkeys(GAPS, 0.0)
    if "theta" not in a or any(_bits(a[k]) != _bits(b[k]) for k in _SAME_ANSWER):
        return "outcome moved", None
    metrics = [json.loads(str(r["metrics"])) or {} for r in (a, b)]
    md = [m.pop("md", None) for m in metrics]
    if metrics[0] != metrics[1] or (None in md and md[0] != md[1]):
        return "outcome moved", None
    unit = np.where(a["scale"] > 0.0, a["scale"], 1.0)
    theta_gap = np.abs(a["theta"] - b["theta"])
    gaps = {
        "theta": float((theta_gap / unit).max(initial=0.0)),
        "memberships": float(np.abs(a["memberships"] - b["memberships"]).max(initial=0.0)),
        "gamma": _rel(a["gamma"], b["gamma"]),
        "lam": _rel(a["lam"], b["lam"]),
        "md": 0.0 if md[0] is None else _rel(md[0], md[1]),
    }
    bounds = {"theta": THETA_BOUND, "memberships": U_BOUND}
    if all(_bits(a[k]) == _bits(b[k]) for k in _EXACT) \
            and all(gap <= bounds.get(name, REL_BOUND) for name, gap in gaps.items()):
        return "rounding", gaps
    tol = max(float(a["theta_tol"]), float(b["theta_tol"]))
    per_tol = float(unit.min()) / tol
    path = {name: gap * per_tol for name, gap in gaps.items()}
    path["theta"] = float(theta_gap.max(initial=0.0)) / tol
    path["md"] = 0.0 if md[0] is None else abs(md[0] - md[1]) / tol
    if all(gap <= PATH_BOUND for gap in path.values()):
        path["cap"] = ", ".join(
            f"{flag} {a[flag]} -> {b[flag]} at {a[count]} -> {b[count]} iterations"
            for flag, count in zip(_FLAGS, ("iterations", "fcm_iterations"))
            if a[flag] != b[flag])
        return "path moved", path
    return "outcome moved", None


def compare(dir_a, dir_b):
    """{run name: (class, gaps)} over every run named in either directory."""
    a, b = load(dir_a), load(dir_b)
    return {name: classify(a.get(name), b.get(name)) for name in sorted(a.keys() | b.keys())}


def _worst(result, classes, name):
    """(gap, run) of the largest gap called name over the runs in classes,
    or None when there is no such run."""
    return max(((gaps[name], run) for run, (cls, gaps) in result.items() if cls in classes),
               default=None)


def summary(result):
    """The lines the script prints for compare's result."""
    counts = {c: sum(cls == c for cls, _ in result.values()) for c in CLASSES}
    lines = [f"{len(result)} runs: " + ", ".join(f"{counts[c]} {c}" for c in CLASSES)]
    for name in GAPS:
        worst = _worst(result, CLASSES[:2], name)
        if worst is not None:
            lines.append(f"worst {name} gap {worst[0]:.3g}"
                         + (f" ({worst[1]})" if worst[0] else ""))
    for name in GAPS:
        worst = _worst(result, CLASSES[2:3], name)
        if worst is not None:
            lines.append(f"worst path {name} gap {worst[0]:.3g} theta_tol, bound"
                         f" {PATH_BOUND:g} ({worst[1]})")
    lines += [f"path moved at the cap: {run}: {gaps['cap']}"
              for run, (cls, gaps) in result.items() if cls == "path moved" and gaps["cap"]]
    lines += [f"permuted: {run}: {gaps['permuted']}"
              for run, (_, gaps) in result.items() if gaps is not None and gaps["permuted"]]
    lines += [f"outcome moved: {run}" for run, (cls, _) in result.items()
              if cls == "outcome moved"]
    return lines


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit("usage: record_compare.py A B")
    print("\n".join(summary(compare(*args))))


if __name__ == "__main__":
    main()
