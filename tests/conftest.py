import dataclasses

import numpy as np
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


def dense(x, u_p=1.0, u_s=1.0):
    """The (2, 4) coefficient array of channel x at one delay setting, phasors u_p and u_s."""
    out = np.zeros((2, 4), dtype=complex)
    for row, mode, n_p, n_s, c in x:
        out[row, mode] += c * u_p**n_p * u_s**n_s
    return out
