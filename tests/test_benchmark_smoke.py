"""The benchmark's traced mode still binds to the package.

perfbench's tracer wraps the package's public functions by name and
checks that every wrapped layer is called, so a refactor of src/ that
renames or drops a function the benchmark reads breaks it. One short
traced run per workload catches that. The bookkeeping and outer-loop
names are only summed, so a missing one would read as zero time; a
second check looks them up in the package.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sparsepcm import algorithms

import run

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["small-n", "fixtures-classic"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_traced_algorithm_names_are_public_functions():
    for name in run.BOOKKEEPING:
        assert not name.startswith("_"), name
        assert inspect.isfunction(getattr(algorithms, name, None)), name
    assert "run" in run.OUTER_LOOPS
