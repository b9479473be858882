"""Acceptance gate: one test per release criterion.

Each test pins the tolerance stated for its criterion; the suite as a whole
is the go/no-go check for the simulator.  A pass/fail line per criterion is
printed in the terminal summary (see conftest).
"""

import math
import random

import numpy as np
import pytest

from icohsim.cli import main
from icohsim.counting import (
    accidental_rate,
    count_means,
    detected,
    double_pair_probability,
    sample_scan,
)
from icohsim.fockoracle import build_state, detection_moments
from icohsim.scan import ScanRecord, fit_fringe, run_scan
from icohsim.spectral import compile_model, envelope

from conftest import config_with


CRITERIA = {
    "test_criterion_01_singles_rate_cosine_law": (
        "acceptance 01: singles rate follows C(1+cos(pump-signal phase)) to 1e-12"
    ),
    "test_criterion_02_coincidence_shares_the_fringe_phase": (
        "acceptance 02: singles and coincidence fringe phases agree within 1e-9 rad"
    ),
    "test_criterion_03_signal_scan_period_recovery": (
        "acceptance 03: signal-axis period 808 nm within 1 nm across 20 seeds"
    ),
    "test_criterion_04_pump_scan_period_recovery": (
        "acceptance 04: pump-axis period 355 nm within 1 nm across 20 seeds"
    ),
    "test_criterion_05_visibility_pairing_at_eta_070": (
        "acceptance 05: eta=0.70 gives singles visibility 0.700, coincidence 0.940"
    ),
    "test_criterion_06_pump_envelope_plateau": (
        "acceptance 06: pump envelope at 600 um delay stays above 0.9"
    ),
    "test_criterion_07_signal_envelope_width": (
        "acceptance 07: signal fringe amplitude >50% inside 100 um, <1% beyond 600 um"
    ),
    "test_criterion_08_oracle_equivalence_on_randomized_configs": (
        "acceptance 08: engine matches the brute-force state check within |K|^2"
    ),
    "test_criterion_09_double_pair_bound_and_report_flag": (
        "acceptance 09: double-pair probability < 1e-2 up to 5e7 pairs/s; report flags"
    ),
    "test_criterion_10_counting_statistics": (
        "acceptance 10: Poisson sampler mean/variance at 5 sigma; accidentals exact"
    ),
    "test_criterion_11_simulate_is_byte_deterministic": (
        "acceptance 11: identical config and seed give byte-identical CSV"
    ),
}


def wrapped_difference(a, b):
    return abs(math.remainder(a - b, 2 * math.pi))


def noiseless_record(config, pump_offset=0.0, span=2e-6, points=401):
    """Signal-axis scan of envelope-modulated rates at a fixed pump delay."""
    grid = np.linspace(-span, span, points)
    model = compile_model(config)
    rates = detected(model.rates(pump_offset, grid), model.baseline, config.rate_a_cal, config.rate_b_cal)
    return ScanRecord(delays=grid, rates=rates)


def test_criterion_01_singles_rate_cosine_law():
    k = 1e-3
    cfg = config_with(gain1=k, gain2=k)
    lam_p, lam_s = cfg.pump_wavelength, cfg.signal_filter_center
    phases_p = np.linspace(0.0, 2 * math.pi, 10, endpoint=False)
    phases_s = np.linspace(0.0, 2 * math.pi, 10, endpoint=False)
    delta_x_p, delta_x_s = [], []
    shapes = []
    for pp in phases_p:
        for ps in phases_s:
            delta_x_p.append(pp * lam_p / (2 * math.pi))
            delta_x_s.append(ps * lam_s / (2 * math.pi))
            shapes.append(1.0 + math.cos(pp - ps))
    rates = compile_model(cfg).monochromatic(np.array(delta_x_p), np.array(delta_x_s))[0]
    shapes = np.array(shapes)
    scale = float(np.sum(rates * shapes) / np.sum(shapes * shapes))
    worst = float(np.max(np.abs(rates - scale * shapes)) / (2.0 * scale))
    assert worst <= 1e-12


def test_criterion_02_coincidence_shares_the_fringe_phase():
    cfg = config_with(gain1=1e-3, gain2=1e-3, eta=0.7)
    record = noiseless_record(cfg, pump_offset=cfg.pump_wavelength / 4)
    fit_singles = fit_fringe(record, channel="singles", source="rates")
    fit_coinc = fit_fringe(record, channel="coincidence", source="rates")
    assert wrapped_difference(fit_singles.phase_rad, fit_coinc.phase_rad) <= 1e-9


def test_criterion_03_signal_scan_period_recovery():
    cfg = config_with()
    for seed in range(20):
        fit = fit_fringe(run_scan(cfg, seed), dwell=cfg.dwell)
        assert abs(fit.period_m - 808e-9) <= 1e-9, f"seed {seed}: {fit.period_m}"


def test_criterion_04_pump_scan_period_recovery():
    cfg = config_with(axis="pump", start=-1e-6, stop=1e-6)
    for seed in range(20):
        fit = fit_fringe(run_scan(cfg, seed), dwell=cfg.dwell)
        assert abs(fit.period_m - 355e-9) <= 1e-9, f"seed {seed}: {fit.period_m}"


def test_criterion_05_visibility_pairing_at_eta_070():
    cfg = config_with(gain1=1e-3, gain2=1e-3, eta=0.70)
    record = noiseless_record(cfg)
    fit_singles = fit_fringe(record, channel="singles", source="rates")
    fit_coinc = fit_fringe(record, channel="coincidence", source="rates")
    assert abs(fit_singles.visibility - 0.700) <= 0.005
    assert abs(fit_coinc.visibility - 0.940) <= 0.005
    assert fit_coinc.visibility == pytest.approx(2 * 0.7 / (1 + 0.49), abs=1e-3)


def test_criterion_06_pump_envelope_plateau():
    assert envelope(45e9, 600e-6) >= 0.9


def test_criterion_07_signal_envelope_width():
    cfg = config_with(gain1=1e-3, gain2=1e-3)
    lam_s = cfg.signal_filter_center

    def window_amplitude(center):
        xs = center + np.linspace(0.0, 2 * lam_s, 64)
        values = compile_model(cfg).rates(delta_x_s=xs)[0]
        return (max(values) - min(values)) / 2.0

    peak = window_amplitude(0.0)
    assert window_amplitude(90e-6) > 0.5 * peak
    for far in (601e-6, 700e-6, 900e-6):
        assert window_amplitude(far) < 0.01 * peak


def test_criterion_08_oracle_equivalence_on_randomized_configs():
    rng = random.Random(20260810)
    low_gain_bound = 1e-3
    worst = 0.0
    for _ in range(100):
        k = 10 ** rng.uniform(-4.0, math.log10(6e-4))
        assert k <= low_gain_bound
        cfg = config_with(
            gain1=k,
            gain2=k,
            eta=rng.uniform(0.0, 1.0),
            splitter_ratio=rng.uniform(0.25, 0.75),
        )
        delta_x_p = rng.uniform(-2 * cfg.pump_wavelength, 2 * cfg.pump_wavelength)
        delta_x_s = rng.uniform(-1.6e-6, 1.6e-6)
        engine = compile_model(cfg).monochromatic(delta_x_p, delta_x_s)[:, 0].tolist()
        oracle = detection_moments(build_state(cfg, delta_x_p, delta_x_s))[:, 0].tolist()
        for e, o in zip(engine, oracle):
            scale = max(abs(e), abs(o), compile_model(cfg).baseline[0])
            worst = max(worst, abs(e - o) / scale)
    assert worst <= low_gain_bound**2


def test_criterion_09_double_pair_bound_and_report_flag(tmp_path, capsys):
    for rate in np.linspace(0.0, 5e7, 101):
        assert double_pair_probability(rate, 2e-9) < 1e-2

    good = tmp_path / "good.ini"
    good.write_text("[scan]\n", encoding="utf-8")
    main(["report", "--config", str(good)])
    assert "OK: below the 1e-2 low-gain bound" in capsys.readouterr().out

    hot = tmp_path / "hot.ini"
    hot.write_text("[detectors]\nrate_b_hz = 1e8\n[scan]\n", encoding="utf-8")
    main(["report", "--config", str(hot)])
    assert "exceeds the 1e-2 low-gain bound" in capsys.readouterr().out


def test_criterion_10_counting_statistics():
    assert accidental_rate(42e3, 110e3, 2e-9) == 42000.0 * 110000.0 * 2e-9
    assert accidental_rate(42e3, 110e3, 2e-9) == pytest.approx(9.24, rel=1e-12)

    cfg = config_with(rate_a_cal=2000.0)
    # one 10 000-point scan with a 0.5 s dwell, drawn in one call
    rates = detected(np.ones((3, 10_000)), np.ones(3), cfg.rate_a_cal, cfg.rate_b_cal)
    draws = sample_scan(count_means(rates, cfg.window, 0.5), 424242)[0]
    mu = 1000.0
    n = len(draws)
    assert abs(draws.mean() - mu) < 5 * math.sqrt(mu / n)
    assert abs(draws.var(ddof=1) - mu) < 5 * math.sqrt((mu + 2 * mu * mu) / n)


def test_criterion_11_simulate_is_byte_deterministic(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text("[scan]\n", encoding="utf-8")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(config), "--out", str(a), "--quiet"]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(b), "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()
