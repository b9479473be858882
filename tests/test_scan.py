import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icohsim.scan import (
    ENVELOPE_THRESHOLD,
    FWHM_FACTOR,
    FitNonConvergenceError,
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
    counts = np.array([counts, np.zeros_like(counts), counts], dtype=np.int64)
    rates = np.array([model, model, model])
    return ScanRecord(axis="signal", delays=x, rates=rates, counts=counts)


def test_run_scan_grid_and_record_shape(config):
    record = run_scan(config)
    assert len(record.delays) == 401
    assert record.delays[0] == pytest.approx(-2e-6)
    assert record.delays[-1] == pytest.approx(2e-6)
    assert record.rates.shape == (3, 401)
    assert record.counts.shape == (3, 401)
    assert record.warnings == []
    assert record.axis == "signal"


def test_run_scan_without_sampling(config):
    record = run_scan(config, sample=False)
    assert record.counts is None
    # rates are calibrated: baseline averages to the configured detector rate
    mids = record.rates[0]
    assert np.mean(mids) == pytest.approx(42_000.0, rel=0.05)


def test_fit_divides_counts_by_the_dwell_they_were_sampled_with():
    # one dwell setting: the scan's, read by both the sampler and the fit
    fit = fit_fringe(run_scan(config_with(dwell=2.0)))
    assert fit.baseline == pytest.approx(42_000.0, rel=0.01)


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
            rates=np.ones((3, 3)),
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
        rates=np.ones((3, len(x))),
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
    scaled = ScanRecord(
        axis="signal",
        delays=record.delays,
        rates=record.rates,
        counts=record.counts * 7,
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


# Fits recorded from the variable-projection fitter: (axis, seed, channel,
# iterations, period, visibility, phase, baseline).  All four keep the
# envelope pinned; both signal fits report a visibility above 1.
RECORDED_FITS = [
    ("signal", 2, "singles", 7,
     8.079768877808419e-07, 1.0000348720557146, 0.00015371374981681049, 41977.03783316524),
    ("signal", 1, "coincidence", 8,
     8.080345589870285e-07, 1.0000685941502279, 0.00010239843389725185, 42001.02023750094),
    ("pump", 0, "singles", 6,
     3.550187902212367e-07, 0.9999312583860829, -0.00015056349727594993, 42024.37023366968),
    ("pump", 0, "coincidence", 6,
     3.5501015010882744e-07, 0.9998975738054152, 8.989845830490206e-05, 42004.308056514885),
]


@pytest.mark.parametrize("recorded", RECORDED_FITS, ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_fit_decisions_match_recorded_fits(recorded):
    axis, seed, channel, iterations, period, visibility, phase, baseline = recorded
    scan = {} if axis == "signal" else dict(axis="pump", start=-1e-6, stop=1e-6)
    fit = fit_fringe(run_scan(config_with(seed=seed, **scan)), channel=channel)
    assert fit.iterations == iterations
    for got, expected in (
        (fit.period, period),
        (fit.visibility, visibility),
        (fit.phase, phase),
        (fit.baseline, baseline),
    ):
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert not fit.envelope_resolved


def two_channel_record(noise_seed, visibility, fwhm=None):
    """Counts drawn by numpy's default generator, independent of icohsim's sampler.

    Singles (baseline 21000, ``visibility``) and coincidences (baseline 2000,
    visibility 0.94) share one fringe and, unless ``fwhm`` is None, one
    Gaussian envelope centered 0.2 um off the middle of the 4 um scan; detector
    B is flat.  The rates rows are the counts per 0.5 s dwell.
    """
    x = np.linspace(-2e-6, 2e-6, 401)
    envelope = 1.0 if fwhm is None else np.exp(-((x - 0.2e-6) ** 2) / (2 * (fwhm / FWHM_FACTOR) ** 2))
    fringe = envelope * np.cos(2 * np.pi * x / 808e-9 + 0.3)
    means = [21000.0 * (1 + visibility * fringe), np.full(401, 55000.0), 2000.0 * (1 + 0.94 * fringe)]
    counts = np.random.default_rng(noise_seed).poisson(means)
    return ScanRecord(axis="signal", delays=x, rates=counts / 0.5, counts=counts)


# Fits of two_channel_record: (noise seed, visibility, envelope FWHM, channel,
# source, iterations, period, visibility, phase, baseline, envelope_delta_chi2).
# The first two keep the envelope pinned, the last two resolve it.
SYNTHETIC_FITS = [
    (20, 1.0, None, "singles", "counts", 12,
     8.080300421794489e-07, 0.9999986509017582, 0.30009881303026975, 41977.992194166945, 4.85543482941442),
    (12, 0.7, None, "coincidence", "counts", 5,
     8.081397441349677e-07, 0.9394054288546518, 0.3002455003311168, 3990.038364613773, 1.454188673728477),
    (13, 0.7, 1.6e-06, "singles", "counts", 37,
     8.080697951794232e-07, 0.699850704656935, 0.2990129098887726, 42013.22072983939, 210817.79660716586),
    (14, 0.7, 2e-06, "coincidence", "rates", 31,
     8.073216356535816e-07, 0.938118075595891, 0.2952346426571507, 4000.605801814321, 3026.025512696482),
]


@pytest.mark.parametrize("recorded", SYNTHETIC_FITS, ids=lambda r: f"{r[0]}-{r[3]}-{r[4]}")
def test_fit_matches_recorded_fits_of_synthetic_records(recorded):
    noise_seed, true_visibility, fwhm, channel, source, iterations, *expected = recorded
    fit = fit_fringe(two_channel_record(noise_seed, true_visibility, fwhm), channel, source, dwell=0.5)
    assert fit.iterations == iterations
    assert fit.envelope_resolved == (fwhm is not None)
    got = (fit.period, fit.visibility, fit.phase, fit.baseline, fit.envelope_delta_chi2)
    for value, recorded_value in zip(got, expected):
        assert value == pytest.approx(recorded_value, rel=1e-12, abs=0.0)

# A record of arbitrary finite values, or a Poisson-noisy fringe of arbitrary
# shape (visibility above 1 clips the rate at zero; the envelope may be far
# narrower or wider than the scan, and centered off it).
_ARBITRARY = st.lists(st.floats(0.0, 1e9), min_size=8, max_size=120)
_FRINGE = st.tuples(
    st.integers(8, 300),
    st.floats(1e-3, 1e9),  # baseline
    st.floats(0.0, 1.5),  # visibility
    st.floats(2.0, 100.0),  # points per period
    st.floats(1e-3, 100.0),  # envelope width, in half spans
    st.floats(-3.0, 3.0),  # envelope center, in half spans
    st.floats(-4.0, 4.0),  # phase
    st.integers(0, 2**32 - 1),  # noise seed
)


def _fringe_values(shape):
    n, baseline, visibility, points, width, center, phase, noise_seed = shape
    t = np.linspace(-1.0, 1.0, n)
    envelope = np.exp(-((t - center) ** 2) / (2 * width**2))
    rate = baseline * (1 + visibility * envelope * np.cos(2 * np.pi * np.arange(n) / points + phase))
    return np.random.default_rng(noise_seed).poisson(np.maximum(rate, 0.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    values=st.one_of(_ARBITRARY, _FRINGE.map(_fringe_values)),
    source=st.sampled_from(["counts", "rates"]),
    start=st.floats(-1e-5, 1e-5),
    step=st.floats(1e-9, 1e-7),
)
def test_fit_fails_only_with_fit_errors(values, source, start, step):
    # Anything but NoFringeError or FitNonConvergenceError would reach the
    # command line's catch-all exit 1 (numeric warnings are errors here).
    y = np.asarray(values, dtype=float)
    if source == "counts":
        y = np.floor(y)
    rows = np.vstack([y, y, y])
    record = ScanRecord(
        axis="signal",
        delays=start + step * np.arange(len(y)),
        rates=rows,
        counts=rows.astype(np.int64) if source == "counts" else None,
    )
    try:
        fit = fit_fringe(record, source=source, dwell=0.5)
    except (NoFringeError, FitNonConvergenceError):
        return
    for value in (fit.period, fit.visibility, fit.phase, fit.baseline):
        assert math.isfinite(value)


# The two scan shapes of the benchmark's campaign: axis -> (period, overrides).
CAMPAIGN_SCANS = {
    "signal": (808e-9, {}),
    "pump": (355e-9, dict(axis="pump", start=-1e-6, stop=1e-6)),
}


@pytest.mark.parametrize("axis", CAMPAIGN_SCANS)
@pytest.mark.parametrize("channel", ["singles", "coincidence"])
def test_pulls_cover_truth_at_eta_070(axis, channel):
    # Over N seeds, pulls (estimate - truth) / quoted sigma must have a mean
    # within 3/sqrt(N) of 0 and a standard deviation within
    # 3/sqrt(2(N-1)) of 1: three times their sampling spread.
    period, scan = CAMPAIGN_SCANS[axis]
    seeds = range(2000, 2060)
    n = len(seeds)
    truth = fit_fringe(run_scan(config_with(eta=0.7, **scan), sample=False), channel, "rates")
    fits = [fit_fringe(run_scan(config_with(eta=0.7, seed=s, **scan)), channel) for s in seeds]
    for pulls in (
        [(f.visibility - truth.visibility) / f.visibility_sigma for f in fits],
        [(f.period - period) / f.period_sigma for f in fits],
    ):
        assert abs(np.mean(pulls)) <= 3 / math.sqrt(n)
        assert abs(np.std(pulls, ddof=1) - 1) <= 3 / math.sqrt(2 * (n - 1))


@pytest.mark.parametrize("axis", CAMPAIGN_SCANS)
def test_envelope_stays_pinned_on_campaign_scans(axis):
    # ±2 um signal and ±1 um pump scans sit far inside both coherence lengths.
    _, scan = CAMPAIGN_SCANS[axis]
    for seed in range(1000, 1020):
        record = run_scan(config_with(seed=seed, **scan))
        for channel in ("singles", "coincidence"):
            fit = fit_fringe(record, channel)
            assert fit.envelope_delta_chi2 <= ENVELOPE_THRESHOLD
            assert not fit.envelope_resolved
            assert fit.envelope_fwhm_sigma == math.inf


@pytest.mark.parametrize("fraction", [0.3, 0.4, 0.5, 0.6])
def test_envelope_resolved_when_narrower_than_the_scan(fraction):
    fwhm = fraction * 4e-6  # of the 4 um span
    for seed in range(5):
        record = synthetic_record(sigma=fwhm / FWHM_FACTOR, center=0.2e-6, noise_seed=seed)
        fit = fit_fringe(record, dwell=0.5)
        assert fit.envelope_delta_chi2 > ENVELOPE_THRESHOLD
        assert fit.envelope_resolved
        assert abs(fit.envelope_fwhm - fwhm) <= 3 * fit.envelope_fwhm_sigma
        assert abs(fit.envelope_center - 0.2e-6) <= 3 * fit.envelope_center_sigma
