import dataclasses

import pytest

from icohsim.config import default_config

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
    return default_config()


def config_with(**overrides):
    """Default config with top-level and detector/scan overrides applied."""
    cfg = default_config()
    detector_keys = {"rate_a_cal", "rate_b_cal", "window", "seed"}
    scan_keys = {"axis", "start", "stop", "step", "dwell"}
    det = {k: overrides.pop(k) for k in list(overrides) if k in detector_keys}
    scn = {k: overrides.pop(k) for k in list(overrides) if k in scan_keys}
    if det:
        cfg = dataclasses.replace(cfg, detectors=dataclasses.replace(cfg.detectors, **det))
    if scn:
        cfg = dataclasses.replace(cfg, scan=dataclasses.replace(cfg.scan, **scn))
    return dataclasses.replace(cfg, **overrides)
