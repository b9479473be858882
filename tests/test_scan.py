import math

import numpy as np
import pytest

from icohsim.counting import CountSample
from icohsim.expectation import RatePrediction
from icohsim.scan import (
    NoFringeError,
    ScanRecord,
    estimate_period,
    fit_fringe,
    run_scan,
    scan_grid,
)

from conftest import config_with

SIGMA_SIGNAL = 1.2234e-4  # envelope sigma of the 2 nm / 808 nm filter


def synthetic_record(
    baseline=21000.0,
    visibility=0.7,
    period=808e-9,
    center=0.0,
    sigma=None,
    phase=0.3,
    span=2e-6,
    points=401,
    noise_seed=None,
):
    """Counts record generated directly from the fit's model family."""
    x = np.linspace(-span, span, points)
    envelope = 1.0 if sigma is None else np.exp(-((x - center) ** 2) / (2 * sigma**2))
    model = baseline * (1 + visibility * envelope * np.cos(2 * np.pi * x / period + phase))
    if noise_seed is None:
        counts = model
    else:
        counts = np.random.default_rng(noise_seed).poisson(model)
    samples = [CountSample(int(c), 0, int(c), 0.0) for c in counts]
    predicted = [RatePrediction(m, m, m) for m in model]
    return ScanRecord(axis="signal", delays=x, predicted=predicted, samples=samples)


def test_run_scan_grid_and_record_shape(config):
    record = run_scan(config)
    assert len(record.delays) == 401
    assert record.delays[0] == pytest.approx(-2e-6)
    assert record.delays[-1] == pytest.approx(2e-6)
    assert len(record.predicted) == 401
    assert len(record.samples) == 401
    assert record.warnings == []
    assert record.axis == "signal"


def test_run_scan_without_sampling(config):
    record = run_scan(config, sample=False)
    assert record.samples is None
    # rates are calibrated: baseline averages to the configured detector rate
    mids = [p.p_a for p in record.predicted]
    assert np.mean(mids) == pytest.approx(42_000.0, rel=0.05)


def test_run_scan_warns_on_coarse_grid(config):
    record = run_scan(config, grid=np.linspace(-2e-6, 2e-6, 12), sample=False)
    assert any("8 points" in w for w in record.warnings)


def test_run_scan_rejects_bad_axis(config):
    with pytest.raises(ValueError, match="axis"):
        run_scan(config, axis="diagonal")


def test_scan_record_requires_monotone_grid():
    with pytest.raises(ValueError, match="increasing"):
        ScanRecord(
            axis="signal",
            delays=np.array([0.0, -1e-9, 1e-9]),
            predicted=[RatePrediction(1, 1, 1)] * 3,
        )


def test_estimate_period_noiseless_round_trips():
    for period in (808e-9, 355e-9):
        record = synthetic_record(period=period, visibility=1.0, phase=0.0)
        estimate = estimate_period(record)
        assert abs(estimate - period) / period < 0.05


def test_estimate_period_flat_record_raises():
    record = synthetic_record(visibility=0.0)
    with pytest.raises(NoFringeError):
        estimate_period(record)


def test_estimate_period_needs_uniform_grid():
    x = np.array([0.0, 1e-9, 3e-9, 7e-9, 15e-9, 31e-9, 63e-9, 127e-9])
    record = ScanRecord(
        axis="signal",
        delays=x,
        predicted=[RatePrediction(1, 1, 1)] * len(x),
    )
    with pytest.raises(ValueError, match="uniform"):
        estimate_period(record, source="rates")


def test_fit_noiseless_exact_round_trip():
    record = synthetic_record(visibility=0.7, period=808e-9, sigma=SIGMA_SIGNAL)
    fit = fit_fringe(record, source="rates")
    assert abs(fit.period - 808e-9) / 808e-9 < 1e-4  # 0.01 %
    assert abs(fit.visibility - 0.7) < 1e-4
    assert fit.reduced_residual < 1e-12
    assert fit.converged
    assert fit.iterations <= 200
    for vis in (0.25, 0.6, 0.95):
        record = synthetic_record(visibility=vis, sigma=SIGMA_SIGNAL)
        assert fit_fringe(record, source="rates").visibility == pytest.approx(vis, abs=1e-4)


def test_fit_recovers_phase_and_center():
    record = synthetic_record(
        visibility=0.6, phase=-1.2, center=0.4e-6, sigma=1.5e-6, span=4e-6
    )
    fit = fit_fringe(record, source="rates")
    assert fit.phase == pytest.approx(-1.2, abs=1e-6)
    assert fit.envelope_center == pytest.approx(0.4e-6, rel=1e-3)
    assert fit.envelope_fwhm == pytest.approx(
        2 * math.sqrt(2 * math.log(2)) * 1.5e-6, rel=1e-3
    )
    assert fit.envelope_resolved


def test_fit_poisson_noisy_recovery():
    record = synthetic_record(visibility=0.7, sigma=SIGMA_SIGNAL, noise_seed=42)
    fit = fit_fringe(record, dwell=0.5)
    assert abs(fit.period - 808e-9) < 1e-9
    assert abs(fit.visibility - 0.7) < 0.02
    assert 0.5 < fit.reduced_residual < 2.0
    assert fit.baseline == pytest.approx(21000.0 / 0.5, rel=0.02)


def test_fit_monte_carlo_signal_periods(config):
    errors = []
    for seed in range(5):
        record = run_scan(config_with(seed=seed))
        fit = fit_fringe(record)
        errors.append(abs(fit.period - 808e-9))
        assert fit.period_sigma > 0
    assert max(errors) < 1e-9


def test_fit_monte_carlo_pump_periods():
    base = config_with(axis="pump", start=-1e-6, stop=1e-6)
    for seed in range(5):
        record = run_scan(config_with(axis="pump", start=-1e-6, stop=1e-6, seed=seed))
        fit = fit_fringe(record)
        assert abs(fit.period - 355e-9) < 1e-9
        # scan range is far inside the pump coherence length: the envelope
        # is reported as a lower bound only
        assert not fit.envelope_resolved


def test_fit_is_scale_free():
    record = synthetic_record(visibility=0.55, sigma=SIGMA_SIGNAL, noise_seed=3)
    fit = fit_fringe(record, dwell=0.5)
    scaled_samples = [
        CountSample(s.counts_a * 7, s.counts_b * 7, s.coincidences * 7, 0.0)
        for s in record.samples
    ]
    scaled = ScanRecord(
        axis="signal",
        delays=record.delays,
        predicted=record.predicted,
        samples=scaled_samples,
    )
    refit = fit_fringe(scaled, dwell=0.5)
    assert refit.period == pytest.approx(fit.period, rel=1e-6)
    assert refit.visibility == pytest.approx(fit.visibility, abs=1e-3)
    assert refit.baseline == pytest.approx(7 * fit.baseline, rel=1e-3)


def test_fit_never_aliases_on_clean_scans():
    for seed in range(8):
        record = synthetic_record(visibility=0.9, sigma=None, noise_seed=seed)
        fit = fit_fringe(record, dwell=0.5)
        ratio = fit.period / 808e-9
        assert 0.99 < ratio < 1.01  # never 0.5x or 2x


def test_fit_on_counts_requires_dwell():
    record = synthetic_record(noise_seed=1)
    with pytest.raises(ValueError, match="dwell"):
        fit_fringe(record)


def test_fit_flat_record_raises_no_fringe():
    record = synthetic_record(visibility=0.0, noise_seed=None)
    with pytest.raises(NoFringeError):
        fit_fringe(record, source="rates")


def test_fit_coincidence_channel(config):
    cfg = config_with(eta=0.7, seed=11)
    record = run_scan(cfg)
    fit = fit_fringe(record, channel="coincidence")
    assert abs(fit.period - 808e-9) < 1e-9
    assert fit.visibility == pytest.approx(0.9395973, abs=0.01)


def test_visibility_convergence_with_dwell():
    # visibility error shrinks as dwell (counts) grows
    config_dwells = [0.02, 0.5, 12.5]
    mean_errors = []
    for dwell in config_dwells:
        errors = []
        for seed in range(4):
            record = synthetic_record(
                baseline=42000 * dwell,
                visibility=0.7,
                sigma=SIGMA_SIGNAL,
                noise_seed=1000 + seed,
            )
            fit = fit_fringe(record, dwell=dwell)
            errors.append(abs(fit.visibility - 0.7))
        mean_errors.append(np.mean(errors))
    assert mean_errors[0] > mean_errors[1] > mean_errors[2]


def test_uncertainties_are_nonnegative():
    record = synthetic_record(visibility=0.7, sigma=SIGMA_SIGNAL, noise_seed=9)
    fit = fit_fringe(record, dwell=0.5)
    for name in (
        "period_sigma",
        "visibility_sigma",
        "envelope_center_sigma",
        "envelope_fwhm_sigma",
        "phase_sigma",
        "baseline_sigma",
    ):
        assert getattr(fit, name) >= 0


def test_scan_grid_matches_settings(config):
    grid = scan_grid(config)
    assert len(grid) == 401
    assert np.allclose(np.diff(grid), 10e-9)
