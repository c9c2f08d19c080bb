"""Tell apart how the raw records of two checkouts differ.

    python3 tests/record_digest.py --save A > /dev/null    # in one checkout
    python3 tests/record_digest.py --save B > /dev/null    # in the other
    python3 tests/record_compare.py A B

Each run named in either directory falls in one of three classes:

- bit-equal: every field has the same bits;
- rounding: the same error message, m_final, iterations, converged, FCM
  counts, per-iteration cluster counts, labels and metrics apart from md,
  with theta within THETA_BOUND of the data's standard deviation per
  feature (data units for a constant feature), every membership within
  U_BOUND, and gamma, lam and md within REL_BOUND of their size;
- outcome moved: anything else, a run found in one directory only
  included.

The script prints the count of each class, the worst theta, membership,
gamma, lam and md gaps over the runs that are not outcome moved, and the
name of every run whose outcome moved.
"""

import json
import sys
from pathlib import Path

import numpy as np

THETA_BOUND = 1e-8
U_BOUND = 1e-8
REL_BOUND = 1e-8
CLASSES = ("bit-equal", "rounding", "outcome moved")
GAPS = ("theta", "memberships", "gamma", "lam", "md")
_EXACT = ("error", "m_final", "iterations", "converged", "fcm_iterations",
          "fcm_converged", "history_m", "labels")


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


def classify(a, b):
    """(class, gaps) of one run's records a and b; gaps maps each name in
    GAPS to its gap, or is None when the outcome moved."""
    if a is None or b is None or a.keys() != b.keys():
        return "outcome moved", None
    if all(_bits(a[k]) == _bits(b[k]) for k in a):
        return "bit-equal", dict.fromkeys(GAPS, 0.0)
    if "theta" not in a or any(_bits(a[k]) != _bits(b[k]) for k in _EXACT) \
            or a["theta"].shape != b["theta"].shape:
        return "outcome moved", None
    metrics = [json.loads(str(r["metrics"])) or {} for r in (a, b)]
    md = [m.pop("md", None) for m in metrics]
    if metrics[0] != metrics[1] or (None in md and md[0] != md[1]):
        return "outcome moved", None
    unit = np.where(a["scale"] > 0.0, a["scale"], 1.0)
    gaps = {
        "theta": float((np.abs(a["theta"] - b["theta"]) / unit).max(initial=0.0)),
        "memberships": float(np.abs(a["memberships"] - b["memberships"]).max(initial=0.0)),
        "gamma": _rel(a["gamma"], b["gamma"]),
        "lam": _rel(a["lam"], b["lam"]),
        "md": 0.0 if md[0] is None else _rel(md[0], md[1]),
    }
    bounds = {"theta": THETA_BOUND, "memberships": U_BOUND}
    if all(gap <= bounds.get(name, REL_BOUND) for name, gap in gaps.items()):
        return "rounding", gaps
    return "outcome moved", None


def compare(dir_a, dir_b):
    """{run name: (class, gaps)} over every run named in either directory."""
    a, b = load(dir_a), load(dir_b)
    return {name: classify(a.get(name), b.get(name)) for name in sorted(a.keys() | b.keys())}


def summary(result):
    """The lines the script prints for compare's result."""
    counts = {c: sum(cls == c for cls, _ in result.values()) for c in CLASSES}
    lines = [f"{len(result)} runs: " + ", ".join(f"{counts[c]} {c}" for c in CLASSES)]
    for name in GAPS:
        worst = max(((gaps[name], run) for run, (_, gaps) in result.items() if gaps),
                    default=None)
        if worst is not None:
            lines.append(f"worst {name} gap {worst[0]:.3g}"
                         + (f" ({worst[1]})" if worst[0] else ""))
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
