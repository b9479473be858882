import dataclasses

import pytest

from icohsim.config import ExperimentConfig

_acceptance_outcomes = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _acceptance_outcomes.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    from test_acceptance import CRITERIA

    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _acceptance_outcomes:
        label = CRITERIA.get(name, name)
        terminalreporter.write_line(f"{label}: {outcome.upper()}")


@pytest.fixture
def config():
    return ExperimentConfig()


def config_with(**overrides):
    """Default config with the given fields replaced."""
    return dataclasses.replace(ExperimentConfig(), **overrides)
