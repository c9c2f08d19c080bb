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
from sparsepcm import DataSet, make_fixture
from sparsepcm.algorithms import AlgoConfig


def test_two_calls_on_one_case_print_the_same_line():
    data = make_fixture("example4", seed=0)
    config = AlgoConfig(algorithm="apcm", m_ini=5, alpha=1.5, seed=0)
    lines = [record_digest.digest_line("example4/apcm/0", data, config,
                                       fixture="example4", fixture_seed=0)
             for _ in range(2)]
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


def _saved_runs(directory):
    """Two small-n runs and one run that raises, saved to directory."""
    case = record_digest.small_n_case(0)
    for algorithm in ("pcm", "sapcm"):
        config = AlgoConfig(algorithm=algorithm, m_ini=case.config.m_ini, max_iter=50,
                            alpha=case.config.alpha if algorithm == "sapcm" else None)
        record_digest.digest_line(f"small-n/0/{algorithm}", case.data, config, save=directory)
    tiny = DataSet(points=np.array([[0.0, 0.0], [1e-3, 0.0], [5.0, 5.0]]))
    record_digest.digest_line("tiny/sapcm", tiny, AlgoConfig("sapcm", 3, alpha=1e-3),
                              save=directory)


def _edit(directory, name, field, change):
    """Apply change to one field of a saved record, in place."""
    record = record_compare.load(directory)[name]
    change(record[field])
    np.savez(directory / (name.replace("/", "__") + ".npz"), **record)


def _next_float(theta):
    theta[0, 0] = np.nextafter(theta[0, 0], np.inf)


def _shift(theta):
    theta[0, 0] += 1e-6


def _far_shift(theta):
    theta[0, 0] += 1e-2


def _one_more(count):
    count += 1


def _flag(converged):
    converged[...] = not converged


def _flip(labels):
    labels[0] += 1


def test_record_compare_classifies_bits_rounding_and_outcomes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for directory in (a, b):
        directory.mkdir()
        _saved_runs(directory)
    same = record_compare.compare(a, b)
    assert {cls for cls, _ in same.values()} == {"bit-equal"}
    assert "error=" in str(record_compare.load(a)["tiny/sapcm"]["error"])
    assert record_compare.summary(same)[0] == \
        "3 runs: 3 bit-equal, 0 rounding, 0 path moved, 0 outcome moved"

    _edit(b, "small-n/0/pcm", "theta", _next_float)
    _edit(b, "small-n/0/sapcm", "labels", _flip)
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
    _edit(b, "small-n/0/pcm", "theta", _shift)
    cls, gaps = record_compare.compare(a, b)["small-n/0/pcm"]
    assert cls == "path moved" and gaps["theta"] == pytest.approx(1.0, rel=1e-6)
    # past PATH_BOUND theta_tol it is another answer
    _edit(b, "small-n/0/pcm", "theta", _far_shift)
    assert record_compare.compare(a, b)["small-n/0/pcm"] == ("outcome moved", None)


def test_record_compare_reads_a_shifted_path_as_path_moved(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for directory in (a, b):
        directory.mkdir()
        _saved_runs(directory)
    # equal labels, another iteration count: the path moved, not the outcome
    _edit(b, "small-n/0/pcm", "iterations", _one_more)
    _edit(b, "small-n/0/sapcm", "fcm_iterations", _one_more)
    _edit(b, "small-n/0/sapcm", "converged", _flag)
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
    _edit(b, "small-n/0/pcm", "labels", _flip)
    assert record_compare.compare(a, b)["small-n/0/pcm"] == ("outcome moved", None)


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
