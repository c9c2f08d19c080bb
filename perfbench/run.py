"""Benchmark of sparsepcm: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (no install step; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload fixtures-sparse --seed 0 --seconds 36 --trace 0

Workloads (see workloads.py): fixtures-sparse, fixtures-classic, small-n;
``--workload all`` runs the three one after another, each in its own
process, and exits with the worst of their exit codes.

The load is a closed loop: one caller in this process runs the cases of
a round one after another, each starting when the previous one returns.
BLAS is pinned to one thread, which is at or below the core count of any
machine.  The number of rounds follows from --seconds and the workload's
nominal round time, so two commits measured with the same arguments run
the same inputs; a deadline of 1.5 x --seconds stops a run early.

End-to-end metrics (--trace 0):
  setup_s      import, plus the median of three fixture builds and warm-ups
  wall_s       median over rounds of one round's run time
  run_ms_p50   per (fixture, algorithm) median run time, geometric mean
  run_ms_p90   90th percentile of all run times of the measurement
  sr_mean      mean success rate (%) of the runs
  peak_rss_mb  peak resident memory of the process
Runs that raise ClusteringError or fail the output check are counted in
"failed"; failed / attempted is the failed fraction.

--trace 1 runs half the rounds untraced and then the same rounds traced,
and prints the per-layer split with the tracing overhead.  Every run is
checked; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Exit codes: 0 outputs correct, 1 an output check failed, 2 bad arguments
or no package sources, 3 the trace is inconsistent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

WORKLOADS = ("fixtures-sparse", "fixtures-classic", "small-n")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
DEADLINE_FACTOR = 1.5
BOOKKEEPING = ("assign_labels", "eliminate_clusters", "adapt_eta", "remove_duplicates")
OUTER_LOOPS = ("run", "run_pcm", "run_spcm", "run_sapcm")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "sparsepcm" / "__init__.py").is_file():
        print(f"error: no sparsepcm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy
    import scipy
    import sparsepcm.cli  # noqa: F401  (imports the whole package)
    import_s = time.perf_counter() - t0

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    rounds = wl.rounds_for(args.seconds)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(), "load": "closed loop, 1 caller",
    }
    print("env " + json.dumps(env))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            plan = wl.build(args.seed, rounds)
            wl.warm_up(tmp)
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)
        deadline = DEADLINE_FACTOR * args.seconds
        try:
            if args.trace:
                done, traced_rounds, metrics = traced(wl, args.seed, rounds, tmp, deadline)
            else:
                done, traced_rounds = measure(plan, tmp, deadline), []
                metrics = end_to_end(done, setup_s)
        except tracing.TraceError as exc:
            print(f"error: inconsistent trace: {exc}", file=sys.stderr)
            return 3

    untraced = [o for round_ in done for o in round_]
    for o in untraced:
        print("run " + json.dumps(o.record()))
    print_table(untraced)
    outcomes = untraced + [o for round_ in traced_rounds for o in round_]
    bad = [o for o in outcomes if not o.ok]
    for o in bad:
        print("failed-run " + json.dumps(o.record()))
    print(f"failed_frac {len(bad)}/{len(outcomes)} = {len(bad) / len(outcomes):.4f}")
    if metrics is None:
        print("error: no run passed its check, so there are no metrics", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    correct = not any(o.problems for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def measure(plan, tmp, deadline):
    """Run the rounds in order; returns the outcomes of each round."""
    import workloads

    done = []
    start = time.perf_counter()
    for cases in plan:
        if done and time.perf_counter() - start > deadline:
            print(f"warning: deadline reached after {len(done)} of {len(plan)} rounds",
                  file=sys.stderr)
            break
        done.append([workloads.execute(c, tmp) for c in cases])
    return done


def round_wall(outcomes):
    return sum(o.seconds for o in outcomes)


def end_to_end(done, setup_s):
    ok = [o for round_ in done for o in round_ if o.ok]
    if not ok:
        return None
    by_group = defaultdict(list)
    for o in ok:
        by_group[o.case.group].append(o.seconds * 1e3)
    latencies = [ms for group in by_group.values() for ms in group]
    srs = [o.sr for o in ok]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(round_wall(r) for r in done), "s"),
        # A round mixes runs of very different sizes, so a pooled median
        # lands between size classes and jumps with the draw; the median
        # is taken per (fixture, algorithm) and averaged geometrically.
        "run_ms_p50": (math.exp(statistics.fmean(
            math.log(statistics.median(g)) for g in by_group.values())), "ms"),
        "run_ms_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[-1], "ms"),
        "sr_mean": (statistics.fmean(srs), "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(wl, seed, rounds, tmp, deadline):
    """Untraced then traced passes over the same rounds; per-layer metrics."""
    import tracing
    import workloads

    half = max(1, rounds // 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        t = time.perf_counter()
        plan = wl.build(seed, rounds)
        setup_busy, _, _, _ = tracer.fold(time.perf_counter() - t)
    plan = plan[:half]
    base = measure(plan, tmp, deadline / 2)
    plan = plan[:len(base)]
    busy, self_time, counts = defaultdict(float), defaultdict(float), defaultdict(float)
    remainder = 0.0
    traced_rounds = []
    with tracer.installed():
        for cases in plan:
            tracer.reset()
            outcomes = [workloads.execute(c, tmp) for c in cases]
            b, s, rem, c = tracer.fold(round_wall(outcomes))
            for acc, part in ((busy, b), (self_time, s), (counts, c)):
                for key, value in part.items():
                    acc[key] += value
            remainder += rem
            traced_rounds.append(outcomes)

    called = {k.split(".")[0] for k, v in counts.items() if k.endswith(".calls") and v > 0}
    if called != set(wl.pass_layers):
        raise tracing.TraceError(
            f"layers called in traced passes {sorted(called)} != expected "
            f"{sorted(wl.pass_layers)}"
        )
    if setup_busy["datagen"] <= 0.0:
        raise tracing.TraceError("set-up made no datagen call")

    n = len(traced_rounds)
    wall = sum(round_wall(r) for r in traced_rounds) / n
    base_wall = sum(round_wall(r) for r in base) / n

    def fn_sum(table, layer, names):
        return sum(table[f"{layer}.{name}"] for name in names) / n

    entries = counts["solver.entries"]
    m = {
        "solver.update_memberships.busy_s": (fn_sum(busy, "solver", ["update_memberships"]), "s"),
        "solver.update_memberships.calls": (counts["solver.update_memberships.calls"] / n, "count"),
        "solver.entries": (entries / n, "count"),
        "solver.zero_frac": (counts["solver.zeros"] / entries if entries else 0.0, "fraction"),
        "core.squared_distances.busy_s": (fn_sum(busy, "core", ["squared_distances"]), "s"),
        "core.squared_distances.calls": (counts["core.squared_distances.calls"] / n, "count"),
        "core.squared_distances.bytes": (counts["core.squared_distances.bytes"] / n, "B"),
        "fcm.run_fcm.self_s": (fn_sum(self_time, "fcm", ["run_fcm"]), "s"),
        "fcm.iterations": (counts["fcm.iterations"] / n, "count"),
        "fcm.max_iter_hits": (counts["fcm.max_iter_hits"] / n, "count"),
        "fcm.init.busy_s": (fn_sum(busy, "fcm", ["gamma_init_pcm", "eta_init_sapcm"]), "s"),
        "algorithms.bookkeeping.busy_s": (fn_sum(busy, "algorithms", BOOKKEEPING), "s"),
        "algorithms.update_theta.busy_s": (fn_sum(busy, "algorithms", ["update_theta"]), "s"),
        "algorithms.run.self_s": (fn_sum(self_time, "algorithms", OUTER_LOOPS), "s"),
        "algorithms.iterations": (counts["algorithms.iterations"] / n, "count"),
        "algorithms.max_iter_hits": (counts["algorithms.max_iter_hits"] / n, "count"),
        "algorithms.clusters_eliminated": (counts["algorithms.clusters_eliminated"] / n, "count"),
        "metrics.busy_s": (busy["metrics"] / n, "s"),
        "cli.run_experiment.self_s": (fn_sum(self_time, "cli", ["run_experiment"]), "s"),
        "cli.bytes_written": (
            sum(o.bytes_written for r in traced_rounds for o in r) / n, "B"),
        "datagen.generate.busy_s": (setup_busy["datagen.generate"], "s"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (self_time[layer] / n, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.remainder_s"] = (remainder / n, "s")
    m["trace.overhead_s"] = (wall - base_wall, "s")
    print_design_check(wl.name, {layer: self_time[layer] / n for layer in tracing.LAYERS}, wall)
    return base, traced_rounds, m


def print_design_check(workload, layer_self, wall):
    """Which layer dominates; reported, never used to fail a run."""
    shares = ", ".join(f"{k} {v / wall:.1%}" for k, v in
                       sorted(layer_self.items(), key=lambda kv: -kv[1]))
    largest = max(layer_self, key=layer_self.get)
    if workload == "fixtures-classic":
        dist_fcm = layer_self["core"] + layer_self["fcm"]
        others = max(v for k, v in layer_self.items() if k not in ("core", "fcm"))
        holds = dist_fcm > others and layer_self["solver"] < 0.1 * wall
        claim = "core+fcm is the largest and solver is under 10%"
    else:
        holds = largest == "solver"
        claim = "solver is the largest layer"
    print(f"design {'holds' if holds else 'DOES NOT HOLD'} ({claim}): self-time shares {shares}")


def print_table(outcomes):
    """Time, iterations and time per iteration for each (fixture, algorithm)."""
    by_group = defaultdict(list)
    for o in outcomes:
        if o.ok:
            by_group[o.case.group].append(o)
    for group, runs in by_group.items():
        ms = [o.seconds * 1e3 for o in runs]
        its = [o.iterations for o in runs]
        hits = sum(o.iterations >= o.case.config.max_iter for o in runs)
        print(
            f"table {group} runs={len(runs)} ms_median={statistics.median(ms):.1f} "
            f"iterations_median={statistics.median(its):g} "
            f"ms_per_iteration={sum(ms) / max(1, sum(its)):.2f} max_iter_hits={hits}"
        )


if __name__ == "__main__":
    sys.exit(main())
