"""perfbench/workloads.py, loaded by path for the tests that reuse its cases."""

import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # where dataclasses look their module up
_spec.loader.exec_module(workloads)
small_n_case = workloads.small_n_case
