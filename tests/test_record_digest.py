"""The record digest script prints the same line for the same run, and the
record comparer tells equal bits, rounding and moved outcomes apart."""

import numpy as np

import record_compare
import record_digest
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
    assert record_compare.summary(same)[0] == "3 runs: 3 bit-equal, 0 rounding, 0 outcome moved"

    _edit(b, "small-n/0/pcm", "theta", _next_float)
    _edit(b, "small-n/0/sapcm", "labels", _flip)
    (b / "tiny__sapcm.npz").unlink()
    result = record_compare.compare(a, b)
    assert result["small-n/0/pcm"][0] == "rounding"
    assert 0.0 < result["small-n/0/pcm"][1]["theta"] < 1e-15
    assert result["small-n/0/sapcm"] == ("outcome moved", None)
    assert result["tiny/sapcm"] == ("outcome moved", None)
    lines = record_compare.summary(result)
    assert lines[0] == "3 runs: 0 bit-equal, 1 rounding, 2 outcome moved"
    assert lines[-2:] == ["outcome moved: small-n/0/sapcm", "outcome moved: tiny/sapcm"]
    # a gap past THETA_BOUND with the same labels is no rounding either
    _edit(b, "small-n/0/pcm", "theta", _shift)
    assert record_compare.compare(a, b)["small-n/0/pcm"] == ("outcome moved", None)
