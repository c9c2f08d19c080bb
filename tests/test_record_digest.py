"""The record digest script prints the same line for the same run."""

import record_digest
from sparsepcm import make_fixture
from sparsepcm.algorithms import AlgoConfig


def test_two_calls_on_one_case_print_the_same_line():
    data = make_fixture("example4", seed=0)
    config = AlgoConfig(algorithm="apcm", m_ini=5, alpha=1.5, seed=0)
    lines = [record_digest.digest_line("example4/apcm/0", data, config,
                                       fixture="example4", fixture_seed=0)
             for _ in range(2)]
    assert lines[0] == lines[1]
    assert all(f" {key}=" in lines[0] for key in ("record", "memberships", "plot.svg")), lines[0]
