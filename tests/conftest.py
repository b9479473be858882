import dataclasses

import numpy as np
import pytest

from icohsim.config import ExperimentConfig
from icohsim.scan import ScanRecord

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


def near_nyquist_record():
    """16 counts at 10 nm steps of a 21.25 nm fringe of unit visibility.

    Its lowest points hold a few counts, so their Poisson weights outweigh
    the peaks' by hundreds, and the pinned fit's columns have a
    variance-inflation sum of 34631.6: the data do not determine the fringe.
    """
    x = 10e-9 * np.arange(16)
    mean = 1000.0 * (1.0 + np.cos(2.0 * np.pi * x / 21.25e-9 + 0.3))
    counts = np.random.Generator(np.random.Philox(key=1)).poisson(mean)
    return ScanRecord(x, np.vstack([mean] * 3), np.vstack([counts] * 3))


def dense(x, u_p=1.0, u_s=1.0):
    """The (2, 4) coefficient array of channel x at one delay setting, phasors u_p and u_s."""
    out = np.zeros((2, 4), dtype=complex)
    for row, mode, n_p, n_s, c in x:
        out[row, mode] += c * u_p**n_p * u_s**n_s
    return out
