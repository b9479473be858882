import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import icohsim
from icohsim.config import ExperimentConfig
from icohsim.scan import ScanRecord

# simulate's seed when --seed is not given
DEFAULT_SEED = 20260810

# Bounds on the engine-oracle deviation, in units of K^2 of the larger gain.
# The oracle keeps double-pair terms the low-gain engine drops, so the two sit
# at twice the K^2 scale, and at once that scale with a dark crystal or a
# blocked idler.  Over random configs MAX_GAIN's comment states the law: 1.98
# at splitter ratios in [0.05, 0.95] and 2.99 within 1e-6 of 0 or 1.
ORACLE_K2_BOUND = 2.05
PRUNED_K2_BOUND = 1.05
INNER_RATIOS_K2_BOUND = 1.98
EDGE_RATIOS_K2_BOUND = 2.99

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


def fresh_import(module):
    """The output lines of a fresh interpreter, on the icohsim this suite imported
    (from src/ or installed), that imports ``module``: the sorted icohsim modules
    it loaded, then whether numpy is loaded."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(icohsim.__file__))}
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'icohsim')); "
        "print('numpy' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          encoding="utf-8", timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def near_nyquist_record():
    """16 counts at 10 nm steps of a 21.25 nm fringe of unit visibility.

    Its lowest points hold a few counts, so their Poisson weights outweigh
    the peaks' by hundreds, and at the fit's first step in (k, b1, b2) its
    columns have a variance-inflation sum of 61057.1: the data do not
    determine the fringe.
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
