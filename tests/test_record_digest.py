"""The record digest script prints the same line for the same run, and the
record comparer tells equal bits, rounding, moved paths and moved outcomes
apart."""

import argparse
import sys
from pathlib import Path

import pytest

import numpy as np

import record_compare
import record_digest
import workloads
from sparsepcm import DataSet
from sparsepcm.algorithms import AlgoConfig


def test_two_calls_on_one_case_print_the_same_line():
    lines = [next(record_digest.fixture_lines("fixtures-classic", range(1))) for _ in range(2)]
    assert lines[0] == lines[1]
    assert all(f" {key}=" in lines[0] for key in ("record", "memberships", "plot.svg")), lines[0]


def test_the_digest_and_the_tests_share_one_workloads_module():
    # perfbench is on the tests' path, so the digest's own path insert finds
    # the module the tests import by name instead of loading a second copy
    assert record_digest.small_n_case is workloads.small_n_case
    source = Path(workloads.__file__).resolve()
    copies = [mod for mod in list(sys.modules.values())
              if getattr(mod, "__file__", None) and Path(mod.__file__).resolve() == source]
    assert copies == [workloads]


def _saved_runs(tmp_path):
    """Directories a and b, each holding the records of two small-n runs and
    of one run that raises, saved by separate runs."""
    tiny = DataSet(points=np.array([[0.0, 0.0], [1e-3, 0.0], [5.0, 5.0]]))
    runs = [run for run in record_digest.small_n_runs(range(1))
            if run[2].algorithm in ("pcm", "sapcm")]
    runs.append(("tiny/sapcm", tiny, AlgoConfig("sapcm", 3, alpha=1e-3)))
    directories = tmp_path / "a", tmp_path / "b"
    for directory in directories:
        directory.mkdir()
        for run in runs:
            record_digest.digest_line(*run, save=directory)
    return directories


def _edit(directory, name, field, change):
    """Replace the first entry x of one field of a saved record by change(x)."""
    record = record_compare.load(directory)[name]
    record[field].flat[0] = change(record[field].flat[0])
    np.savez(directory / (name.replace("/", "__") + ".npz"), **record)


def test_record_compare_classifies_bits_rounding_and_outcomes(tmp_path):
    a, b = _saved_runs(tmp_path)
    same = record_compare.compare(a, b)
    assert {cls for cls, _ in same.values()} == {"bit-equal"}
    assert "error=" in str(record_compare.load(a)["tiny/sapcm"]["error"])
    assert record_compare.summary(same)[0] == \
        "3 runs: 3 bit-equal, 0 rounding, 0 path moved, 0 outcome moved"

    _edit(b, "small-n/0/pcm", "theta", lambda x: np.nextafter(x, np.inf))
    _edit(b, "small-n/0/sapcm", "labels", lambda x: x + 1)
    (b / "tiny__sapcm.npz").unlink()
    result = record_compare.compare(a, b)
    assert result["small-n/0/pcm"][0] == "rounding"
    assert 0.0 < result["small-n/0/pcm"][1]["theta"] < 1e-15
    assert result["small-n/0/sapcm"] == ("outcome moved", None)
    assert result["tiny/sapcm"] == ("outcome moved", None)
    lines = record_compare.summary(result)
    assert lines[0] == "3 runs: 0 bit-equal, 1 rounding, 0 path moved, 2 outcome moved"
    assert lines[-2:] == ["outcome moved: small-n/0/sapcm", "outcome moved: tiny/sapcm"]
    # a gap past THETA_BOUND with the same labels is no rounding: one
    # theta_tol away, it is the same answer by another path
    _edit(b, "small-n/0/pcm", "theta", lambda x: x + 1e-6)
    cls, gaps = record_compare.compare(a, b)["small-n/0/pcm"]
    assert cls == "path moved" and gaps["theta"] == pytest.approx(1.0, rel=1e-6)
    # past PATH_BOUND theta_tol it is another answer
    _edit(b, "small-n/0/pcm", "theta", lambda x: x + 1e-2)
    assert record_compare.compare(a, b)["small-n/0/pcm"] == ("outcome moved", None)


def test_record_compare_reads_a_shifted_path_as_path_moved(tmp_path):
    a, b = _saved_runs(tmp_path)
    # equal labels, another iteration count: the path moved, not the outcome
    _edit(b, "small-n/0/pcm", "iterations", lambda x: x + 1)
    _edit(b, "small-n/0/sapcm", "fcm_iterations", lambda x: x + 1)
    _edit(b, "small-n/0/sapcm", "converged", np.logical_not)
    result = record_compare.compare(a, b)
    assert [result[run][0] for run in sorted(result)] == \
        ["path moved", "path moved", "bit-equal"]
    assert result["small-n/0/pcm"][1]["theta"] == 0.0
    lines = record_compare.summary(result)
    assert lines[0] == "3 runs: 1 bit-equal, 0 rounding, 2 path moved, 0 outcome moved"
    assert any(line.startswith("worst path theta gap 0 theta_tol, bound 1000 (")
               for line in lines), lines
    # the converged flag changed, so the run is listed on its own line
    (cap,) = [line for line in lines if line.startswith("path moved at the cap:")]
    saved = record_compare.load(a)["small-n/0/sapcm"]
    converged, iterations = bool(saved["converged"]), int(saved["iterations"])
    assert cap == (f"path moved at the cap: small-n/0/sapcm: converged {converged} -> "
                   f"{not converged} at {iterations} -> {iterations} iterations")
    # a flipped label with the same iteration count still moves the outcome
    _edit(b, "small-n/0/pcm", "labels", lambda x: x + 1)
    assert record_compare.compare(a, b)["small-n/0/pcm"] == ("outcome moved", None)


def test_record_compare_matches_clusters_that_come_out_in_another_order(tmp_path):
    a, b = _saved_runs(tmp_path)
    name = "small-n/0/sapcm"
    saved = record_compare.load(a)[name]
    order = np.array([2, 0, 1])  # b's cluster k + 1 is a's cluster order[k] + 1
    relabel = np.r_[0, np.argsort(order) + 1]
    permuted = dict(saved, theta=saved["theta"][order], gamma=saved["gamma"][order],
                    memberships=saved["memberships"][:, order],
                    labels=relabel[saved["labels"]])
    np.savez(b / (name.replace("/", "__") + ".npz"), **permuted)
    # by index, the same clustering reads as another outcome
    assert record_compare._by_index(saved, permuted) == ("outcome moved", None)
    result = record_compare.compare(a, b)
    assert result[name] == ("bit-equal", {**dict.fromkeys(record_compare.GAPS, 0.0),
                                          "permuted": "b's clusters 2 3 1 as a's 1 to 3"})
    lines = record_compare.summary(result)
    assert lines[0] == "3 runs: 3 bit-equal, 0 rounding, 0 path moved, 0 outcome moved"
    assert lines[-1] == f"permuted: {name}: b's clusters 2 3 1 as a's 1 to 3"
    # after the matching, a last-bit move of theta is rounding, still listed
    _edit(b, name, "theta", lambda x: np.nextafter(x, np.inf))
    cls, gaps = record_compare.compare(a, b)[name]
    assert (cls, gaps["permuted"]) == ("rounding", "b's clusters 2 3 1 as a's 1 to 3")


def test_record_digest_reads_seed_ranges():
    assert record_digest.seed_range("0:20") == range(20)
    assert record_digest.seed_range("60:260") == range(60, 260)
    assert record_digest.seed_range("5:5") == range(5, 5)
    for text in ("3", "2:1", "-1:2", "a:b", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            record_digest.seed_range(text)


def test_record_digest_runs_the_seeds_it_is_given(capsys):
    record_digest.main(["--fixture-seeds", "0:0", "--small-n-draws", "7:8"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == \
        [f"small-n/7/{algorithm}" for algorithm in ("pcm", "spcm", "sapcm", "apcm")]
