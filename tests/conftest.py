"""Shared fixtures and the acceptance-summary terminal hook."""

import pytest

from sparsepcm import make_fixture

_ACCEPTANCE_LINES = []


def _record(line: str):
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # one pass/fail line per acceptance criterion, visible even though
    # pytest captures stdout of passing tests
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    return _record


@pytest.fixture(scope="session")
def iris_data():
    return make_fixture("iris")


@pytest.fixture(scope="session")
def tiny_two_cluster_set():
    """The hard-coded 17-point set with two axis-aligned groups."""
    return make_fixture("experiment1")


@pytest.fixture(scope="session")
def two_blobs():
    return make_fixture("example1", seed=0)
