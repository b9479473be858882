import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icohsim.cli import build_report
from icohsim.scan import (
    COLUMN_FLOOR,
    ENVELOPE_THRESHOLD,
    FWHM_FACTOR,
    GridError,
    NoFringeError,
    ScanRecord,
    _basis,
    _covariance,
    _median,
    _solve,
    _step,
    estimate_period,
    fit_fringe,
    run_scan,
    scan_grid,
    undersampling_warning,
)

from conftest import config_with, near_nyquist_record

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
    middle=0.0,
):
    """Counts record generated directly from the fit's model family, on a grid about ``middle``."""
    x = middle + np.linspace(-span, span, points)
    envelope = 1.0 if sigma is None else np.exp(-((x - center) ** 2) / (2 * sigma**2))
    model = baseline * (1 + visibility * envelope * np.cos(2 * np.pi * x / period + phase))
    if noise_seed is None:
        counts = model
    else:
        counts = np.random.default_rng(noise_seed).poisson(model)
    counts = np.array([counts, np.zeros_like(counts), counts], dtype=np.int64)
    rates = np.array([model, model, model])
    return ScanRecord(delays=x, rates=rates, counts=counts)


def test_run_scan_grid_and_record_shape(config):
    record = run_scan(config)
    assert len(record.delays) == 401
    assert record.delays[0] == pytest.approx(-2e-6)
    assert record.delays[-1] == pytest.approx(2e-6)
    assert record.rates.shape == (3, 401)
    assert record.counts.shape == (3, 401)
    assert undersampling_warning(config, record) is None


def test_run_scan_without_sampling(config):
    record = run_scan(config, sample=False)
    assert record.counts.dtype == np.int64 and record.counts.shape == (3, 401)
    assert not record.counts.any()
    # rates are calibrated: baseline averages to the configured detector rate
    mids = record.rates[0]
    assert np.mean(mids) == pytest.approx(42_000.0, rel=0.05)


def test_run_scan_warns_on_coarse_grid(config):
    record = run_scan(config, grid=np.linspace(-2e-6, 2e-6, 12), sample=False)
    assert "8 points" in undersampling_warning(config, record)


def test_scan_record_requires_monotone_grid():
    with pytest.raises(GridError, match="delay -1e-09 m is not greater than the previous delay 0 m") as error:
        ScanRecord(delays=np.array([0.0, -1e-9, 1e-9]), rates=np.ones((3, 3)))
    assert error.value.row == 1


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 8, 255, 256, 1000, 1001])
def test_median_is_np_median_bit_for_bit(length):
    rng = np.random.default_rng(length)
    for values in (
        rng.standard_normal(length),
        rng.integers(0, 4, length).astype(float),  # ties
        np.exp(rng.uniform(-700.0, 700.0, length)),  # middle pairs that overflow or are subnormal
    ):
        assert np.float64(_median(values)).tobytes() == np.float64(np.median(values)).tobytes()


def test_scan_record_step_is_the_median_step():
    rng = np.random.default_rng(7)
    grids = [
        np.linspace(-2e-6, 2e-6, 401),
        np.linspace(-1e-6, 1e-6, 201),
        np.array([0.0, 1e-8]),
        # an odd and an even number of steps, each within the grid tolerance of 1 nm
        np.cumsum(1.0 + rng.uniform(-5e-7, 5e-7, 100)) * 1e-9,
        np.cumsum(1.0 + rng.uniform(-5e-7, 5e-7, 101)) * 1e-9,
    ]
    for delays in grids:
        record = ScanRecord(delays=delays, rates=np.ones((3, len(delays))))
        assert record.step == float(np.median(np.diff(delays)))


def test_estimate_period_noiseless_round_trips():
    for period in (808e-9, 355e-9):
        record = synthetic_record(period=period, visibility=1.0, phase=0.0)
        estimate = estimate_period(record.counts[0].astype(float), record.step)
        assert abs(estimate - period) / period < 0.05


def test_estimate_period_flat_record_raises():
    record = synthetic_record(visibility=0.0)
    with pytest.raises(NoFringeError):
        estimate_period(record.counts[0].astype(float), record.step)


def test_scan_record_rejects_a_non_uniform_grid():
    geometric = np.array([0.0, 1e-9, 3e-9, 7e-9, 15e-9, 31e-9, 63e-9, 127e-9])
    # 16 delays 1 nm apart but for one step of 1.5 nm: first, in the middle or last.
    steps = [np.where(np.arange(15) == off, 1.5e-9, 1e-9) for off in (0, 7, 14)]
    grids = [geometric] + [np.concatenate([[0.0], np.cumsum(dx)]) for dx in steps]
    for x, off in zip(grids, (0, 0, 7, 14)):
        with pytest.raises(GridError, match="is off the grid's median step; delays must be uniformly spaced") as error:
            ScanRecord(delays=x, rates=np.ones((3, len(x))))
        assert error.value.row == off + 1


def refit_shaped_records(count=48):
    """Seeded count records shaped like the benchmark's refit workload, with their periods.

    201 to 4001 points 10 nm apart; periods within 2 % of 808 or 355 nm; an
    envelope 0.3-0.6 spans wide (resolved) or 20-100 spans (unresolved); 5 s
    dwell at 42 kHz.  Every row holds the same series.
    """
    rng = np.random.default_rng(2014)
    for i in range(count):
        points = 201 + 3800 * (i // 4) // ((count - 1) // 4)
        period = (808e-9, 355e-9)[i % 2] * rng.uniform(0.98, 1.02)
        x = (np.arange(points) - (points - 1) // 2) * 10e-9
        span = float(x[-1] - x[0])
        fwhm = span * rng.uniform(*((0.3, 0.6) if i % 4 < 2 else (20.0, 100.0)))
        center = span * rng.uniform(-0.1, 0.1)
        envelope = np.exp(-4.0 * math.log(2.0) * ((x - center) / fwhm) ** 2)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        rate = 42e3 * (1.0 + rng.uniform(0.5, 0.95) * envelope * np.cos(2 * np.pi * x / period + phase))
        counts = rng.poisson(5.0 * rate)
        rows = dict(rates=np.array([rate] * 3), counts=np.array([counts] * 3))
        yield period, ScanRecord(delays=x, **rows)


def test_estimate_period_is_within_three_percent_of_the_fit():
    # The largest error is 2.3e-2, on a 201-point scan of 2.5 periods near 808 nm.
    errors = []
    for _, record in refit_shaped_records():
        fit = fit_fringe(record, dwell=5.0)
        errors.append(abs(estimate_period(record.counts[0].astype(float), record.step) / fit.period_m - 1.0))
    assert len(errors) == 48
    assert max(errors) < 0.03


def test_fit_noiseless_exact_round_trip():
    record = synthetic_record(visibility=0.7, period=808e-9, sigma=SIGMA_SIGNAL)
    fit = fit_fringe(record, source="rates")
    assert abs(fit.period_m - 808e-9) / 808e-9 < 1e-4  # 0.01 %
    assert abs(fit.visibility - 0.7) < 1e-4
    assert fit.reduced_residual < 1e-12
    assert fit.converged
    assert fit.iterations <= 200
    for vis in (0.25, 0.6, 0.95):
        record = synthetic_record(visibility=vis, sigma=SIGMA_SIGNAL)
        assert fit_fringe(record, source="rates").visibility == pytest.approx(vis, abs=1e-4)


def test_fit_recovers_phase_and_center():
    # The phase is reported at the scan's middle delay, on a grid about zero
    # delay and on one 250 um out.
    for middle in (0.0, 250e-6):
        record = synthetic_record(
            visibility=0.6, phase=-1.2, center=middle + 0.4e-6, sigma=1.5e-6, span=4e-6, middle=middle
        )
        fit = fit_fringe(record, source="rates")
        assert fit.phase_reference_m == pytest.approx(middle, abs=1e-18)
        truth = 2 * math.pi * fit.phase_reference_m / 808e-9 - 1.2
        assert abs(math.remainder(fit.phase_rad - truth, 2 * math.pi)) < 1e-6
        assert fit.envelope_center_m - middle == pytest.approx(0.4e-6, rel=1e-3)
        assert fit.envelope_fwhm_m == pytest.approx(
            2 * math.sqrt(2 * math.log(2)) * 1.5e-6, rel=1e-3
        )
        assert fit.envelope_resolved


def test_fit_poisson_noisy_recovery():
    record = synthetic_record(visibility=0.7, sigma=SIGMA_SIGNAL, noise_seed=42)
    fit = fit_fringe(record, dwell=0.5)
    assert abs(fit.period_m - 808e-9) < 1e-9
    assert abs(fit.visibility - 0.7) < 0.02
    assert 0.5 < fit.reduced_residual < 2.0
    assert fit.baseline_hz == pytest.approx(21000.0 / 0.5, rel=0.02)


def test_fit_monte_carlo_signal_periods(config):
    errors = []
    for seed in range(5):
        record = run_scan(config_with(seed=seed))
        fit = fit_fringe(record, dwell=0.5)
        errors.append(abs(fit.period_m - 808e-9))
        assert fit.period_sigma_m > 0
    assert max(errors) < 1e-9


def test_fit_monte_carlo_pump_periods():
    base = config_with(axis="pump", start=-1e-6, stop=1e-6)
    for seed in range(5):
        record = run_scan(config_with(axis="pump", start=-1e-6, stop=1e-6, seed=seed))
        fit = fit_fringe(record, dwell=0.5)
        assert abs(fit.period_m - 355e-9) < 1e-9
        # scan range is far inside the pump coherence length: the envelope
        # is reported as a lower bound only
        assert not fit.envelope_resolved


def test_fit_is_scale_free():
    record = synthetic_record(visibility=0.55, sigma=SIGMA_SIGNAL, noise_seed=3)
    fit = fit_fringe(record, dwell=0.5)
    scaled = ScanRecord(
        delays=record.delays,
        rates=record.rates,
        counts=record.counts * 7,
    )
    refit = fit_fringe(scaled, dwell=0.5)
    assert refit.period_m == pytest.approx(fit.period_m, rel=1e-6)
    assert refit.visibility == pytest.approx(fit.visibility, abs=1e-3)
    assert refit.baseline_hz == pytest.approx(7 * fit.baseline_hz, rel=1e-3)


def test_fit_never_aliases_on_clean_scans():
    for seed in range(8):
        record = synthetic_record(visibility=0.9, sigma=None, noise_seed=seed)
        fit = fit_fringe(record, dwell=0.5)
        ratio = fit.period_m / 808e-9
        assert 0.99 < ratio < 1.01  # never 0.5x or 2x


def test_fit_on_counts_requires_dwell():
    # Before any other check of the record: a flat one and one too short to
    # fit raise the same ValueError.
    for record in (
        synthetic_record(noise_seed=1),
        values_record([100] * 16, "counts", 0.0, 10e-9),
        values_record([1, 2, 3, 4, 5], "counts", 0.0, 10e-9),
    ):
        with pytest.raises(ValueError, match="dwell"):
            fit_fringe(record)


def test_fit_takes_counts_or_rates_and_nothing_else():
    record = synthetic_record(noise_seed=1)
    with pytest.raises(ValueError, match=r"^source must be one of \('counts', 'rates'\), got 'auto'$"):
        fit_fringe(record, source="auto", dwell=0.5)
    assert fit_fringe(record, dwell=0.5) == fit_fringe(record, source="counts", dwell=0.5)


def test_fit_flat_record_raises_no_fringe():
    record = synthetic_record(visibility=0.0, noise_seed=None)
    with pytest.raises(NoFringeError):
        fit_fringe(record, source="rates")


def test_fit_coincidence_channel(config):
    cfg = config_with(eta=0.7, seed=11)
    record = run_scan(cfg)
    fit = fit_fringe(record, channel="coincidence", dwell=cfg.dwell)
    assert abs(fit.period_m - 808e-9) < 1e-9
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
        "period_sigma_m",
        "visibility_sigma",
        "envelope_center_sigma_m",
        "envelope_fwhm_sigma_m",
        "phase_sigma_rad",
        "baseline_sigma_hz",
    ):
        assert getattr(fit, name) >= 0


def test_scan_grid_matches_settings(config):
    grid = scan_grid(config)
    assert len(grid) == 401
    assert np.allclose(np.diff(grid), 10e-9)


@pytest.mark.parametrize(
    "start, stop, step, points, spacing",
    # 333.3 nm and 3.00075 nm steps
    [(0.0, 1e-6, 300e-9, 4, 1e-6 / 3), (-2e-6, 2e-6, 3e-9, 1334, 4e-6 / 1333)],
    ids=["300nm_over_1um", "3nm_over_4um"],
)
def test_scan_grid_spans_start_to_stop_and_rounds_the_step(start, stop, step, points, spacing):
    """A step that does not divide the span is rounded: the grid runs from start
    to stop exactly in round(span / step) + 1 points, and the report states the
    configured step."""
    cfg = config_with(start=start, stop=stop, step=step)
    grid = scan_grid(cfg)
    assert len(grid) == points == round((stop - start) / step) + 1
    assert grid[0] == start and grid[-1] == stop
    assert np.allclose(np.diff(grid), spacing, rtol=1e-12, atol=0.0)
    assert f"um in {step * 1e9:.3g} nm steps\n" in build_report(cfg)


# Fits recorded from the variable-projection fitter: (axis, seed, channel,
# iterations, period, visibility, phase, baseline).  All four keep the
# envelope pinned; both signal fits report a visibility above 1.
RECORDED_FITS = [
    ("signal", 2, "singles", 5,
     8.079768877844508e-07, 1.0000348720603511, 0.00015371375478024263, 41977.03783297916),
    ("signal", 1, "coincidence", 5,
     8.080345589524143e-07, 1.0000685941431233, 0.00010239843618842828, 42001.0202392868),
    ("pump", 0, "singles", 5,
     3.550187902230581e-07, 0.9999312583847109, -0.0001505634963817679, 42024.37023378761),
    ("pump", 0, "coincidence", 5,
     3.550101501094258e-07, 0.9998975738048126, 8.989845826747049e-05, 42004.30805655606),
]


@pytest.mark.parametrize("recorded", RECORDED_FITS, ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_fit_decisions_match_recorded_fits(recorded):
    axis, seed, channel, iterations, period, visibility, phase, baseline = recorded
    scan = {} if axis == "signal" else dict(axis="pump", start=-1e-6, stop=1e-6)
    fit = fit_fringe(run_scan(config_with(seed=seed, **scan)), channel=channel, dwell=0.5)
    assert fit.iterations == iterations
    for got, expected in (
        (fit.period_m, period),
        (fit.visibility, visibility),
        (fit.phase_rad, phase),
        (fit.baseline_hz, baseline),
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
    return ScanRecord(delays=x, rates=counts / 0.5, counts=counts)


# Fits of two_channel_record: (noise seed, visibility, envelope FWHM, channel,
# source, iterations, period, visibility, phase, baseline, envelope_delta_chi2).
# The first two keep the envelope pinned, the last two resolve it.
SYNTHETIC_FITS = [
    (20, 1.0, None, "singles", "counts", 6,
     8.080300421838495e-07, 0.9999986508948394, 0.30009881301411284, 41977.99219395049, 4.855435672851146),
    (12, 0.7, None, "coincidence", "counts", 5,
     8.081397441351442e-07, 0.9394054288547607, 0.30024550033108277, 3990.0383646129812, 1.4541886737366867),
    (13, 0.7, 1.6e-06, "singles", "counts", 37,
     8.080697951785704e-07, 0.6998507046518118, 0.2990129098873249, 42013.2207298385, 210817.79658728288),
    (14, 0.7, 2e-06, "coincidence", "rates", 32,
     8.073216356535816e-07, 0.9381180755958897, 0.29523464265715077, 4000.605801814323, 3026.0255152200684),
]


@pytest.mark.parametrize("recorded", SYNTHETIC_FITS, ids=lambda r: f"{r[0]}-{r[3]}-{r[4]}")
def test_fit_matches_recorded_fits_of_synthetic_records(recorded):
    noise_seed, true_visibility, fwhm, channel, source, iterations, *expected = recorded
    fit = fit_fringe(two_channel_record(noise_seed, true_visibility, fwhm), channel, source, dwell=0.5)
    assert fit.iterations == iterations
    assert fit.envelope_resolved == (fwhm is not None)
    got = (fit.period_m, fit.visibility, fit.phase_rad, fit.baseline_hz, fit.envelope_delta_chi2)
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


def values_record(values, source, start, step):
    """A record holding ``values`` in every channel, as counts or as noiseless rates."""
    y = np.asarray(values, dtype=float)
    if source == "counts":
        y = np.floor(y)
    rows = np.vstack([y, y, y])
    return ScanRecord(
        delays=start + step * np.arange(len(y)),
        rates=rows,
        counts=rows.astype(np.int64) if source == "counts" else None,
    )


# 8 counts at 2 grid steps per period, where the model's cos and sin columns
# nearly coincide on the grid.
NYQUIST_RECORD = dict(values=[1, 1, 2, 0, 2, 0, 2, 0], source="counts", start=0.0, step=5.960464477539063e-08)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    values=st.one_of(_ARBITRARY, _FRINGE.map(_fringe_values)),
    source=st.sampled_from(["counts", "rates"]),
    start=st.floats(-1e-5, 1e-5),
    step=st.floats(1e-9, 1e-7),
)
@example(**NYQUIST_RECORD)
def test_fit_fails_only_with_fit_errors(values, source, start, step):
    # Anything but NoFringeError would reach the command line's catch-all
    # exit 1 (numeric warnings are errors here).  A fit that does not converge
    # is returned, and its JSON written, like any other.
    record = values_record(values, source, start, step)
    try:
        fit = fit_fringe(record, source=source, dwell=0.5)
    except NoFringeError:
        return
    for value in (fit.period_m, fit.visibility, fit.phase_rad, fit.baseline_hz):
        assert math.isfinite(value)


# 16 Poisson counts of a rising ramp, 10 nm apart: no fringe, yet the fit
# converges at a period of about 1.8 scan spans.
RAMP_COUNTS = [110, 107, 90, 117, 132, 131, 158, 143, 160, 162, 184, 180, 198, 195, 193, 187]


def test_fitted_period_longer_than_the_span_is_no_fringe():
    record = values_record(RAMP_COUNTS, "counts", 0.0, 10e-9)
    message = r"fitted period 2\.\d+e-07 m is longer than the scan's span of 1\.5e-07 m"
    with pytest.raises(NoFringeError, match=message):
        fit_fringe(record, dwell=0.5)


def two_step_fringe(phase):
    """64 counts of a fringe at exactly 2 grid steps per period: cos(pi i + phase) = cos(phase) (-1)^i."""
    values = np.round(1000 * (1 + 0.5 * np.cos(np.pi * np.arange(64) + phase)))
    return dict(values=values, source="counts", start=0.0, step=10e-9)


@pytest.mark.parametrize(
    "record",
    [two_step_fringe(0.0), two_step_fringe(0.3), NYQUIST_RECORD],
    ids=["phase-0", "phase-0.3", "eight-points"],
)
def test_fringe_at_two_grid_steps_is_no_fringe(record):
    # The visibility and the phase are not separable on the grid, so no fit is reported.
    message = f"Nyquist limit, a period of 2 grid steps of {record['step']:.6g} m"
    with pytest.raises(NoFringeError, match=message):
        fit_fringe(values_record(**record), dwell=0.5)


# The refusal of a fit whose columns fail the rule at COLUMN_FLOOR and
# INFLATION_LIMIT, naming a sum at or above the limit as %.6g writes it.
REFUSAL = (
    r"^no fringe determined: the fit's columns have a variance-inflation sum of "
    r"(inf|[1-9]\d{4,5}(\.\d+)?|[1-9](\.\d+)?e\+\d+), not below 10000$"
)

_COLUMN_EXPONENTS = st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6)


def _matrix(rows, columns, exponents, seed):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** np.array(exponents[:columns])
    return rng.standard_normal((rows, columns)) * scales, rng.standard_normal(rows), scales


def _scaled_lstsq(matrix, target, scales):
    """lstsq's solution in units of each column's scale, and the chi^2 it explains.

    lstsq of the column-scaled matrix: that of the unscaled one errs by up to
    7.6e-9 in these units at column scales of 1e-3 and 1e3.
    """
    scaled = matrix / scales
    solution = np.linalg.lstsq(scaled, target, rcond=None)[0]
    explained = scaled @ solution
    return solution, float(explained @ explained)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.integers(8, 4001),
    exponents=_COLUMN_EXPONENTS,
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_matches_lstsq_on_full_rank_matrices(rows, exponents, seed):
    # Column scales 1e-3 to 1e3 stay above COLUMN_FLOOR.  Compared in units of
    # each column's scale, _solve's closed form agrees with lstsq to 1e-11
    # (1.9e-14 is the largest seen).
    matrix, target, scales = _matrix(rows, 3, exponents, seed)
    expected, _ = _scaled_lstsq(matrix, target, scales)
    a, _, _, inverse = _solve(matrix.T, target)
    assert inverse is not None
    assert np.linalg.norm(a * scales - expected) <= 1e-11 * np.linalg.norm(expected)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    rows=st.integers(8, 4001),
    exponents=_COLUMN_EXPONENTS,
    seed=st.integers(0, 2**32 - 1),
    defect=st.sampled_from(["duplicate", "zero", "tiny", "half-floor"]),
)
def test_least_squares_refuses_rank_deficient_matrices(rows, exponents, seed, defect):
    matrix, target, scales = _matrix(rows, 3, exponents, seed)
    if defect == "duplicate":
        matrix[:, -1] = matrix[:, 0]
    elif defect == "half-floor":
        # A column at half the floor, COLUMN_FLOOR * rows times the longest other one.
        norms = np.linalg.norm(matrix, axis=0)
        matrix[:, -1] *= 0.5 * COLUMN_FLOOR * rows * norms[:-1].max() / norms[-1]
    else:
        # A zero column, or one at 1e-18 of the largest column's scale.
        matrix[:, -1] *= {"zero": 0.0, "tiny": 1e-18}[defect] * scales.max() / scales[-1]
    # Every defect costs lstsq's rank cut a singular value, and the fit is refused.
    assert np.linalg.lstsq(matrix, target, rcond=None)[2] < 3
    with pytest.raises(NoFringeError, match=REFUSAL):
        _solve(matrix.T, target)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.integers(8, 4001),
    free=st.booleans(),
    exponents=_COLUMN_EXPONENTS,
    seed=st.integers(0, 2**32 - 1),
)
def test_step_is_the_joint_least_squares_step(rows, free, exponents, seed):
    # 3 amplitude columns, then 1 (pinned) or 3 (free) step columns, and a
    # target that is not orthogonal to the amplitude columns.  The
    # Schur-complement step is the p part of lstsq on the joint matrix to
    # 1e-11 in units of each column's scale (1.0e-14 is the largest seen), and
    # its drop is lstsq's explained chi^2 to 1e-11 relative (1.9e-14 seen).
    matrix, target, scales = _matrix(rows, 6 if free else 4, exponents, seed)
    weighted = matrix[:, :3].T
    _, _, gram, inverse = _solve(weighted, target)
    step, drop, _ = _step(weighted, gram, inverse, np.vstack([matrix[:, 3:].T, target]))
    expected, explained = _scaled_lstsq(matrix, target, scales)
    assert np.linalg.norm(np.array(step) * scales[3:] - expected[3:]) <= 1e-11 * np.linalg.norm(expected)
    assert drop == pytest.approx(explained, rel=1e-11, abs=0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.integers(8, 4001),
    free=st.booleans(),
    exponents=_COLUMN_EXPONENTS,
    seed=st.integers(0, 2**32 - 1),
)
def test_covariance_is_the_inverse_of_the_joint_gram_matrix(rows, free, exponents, seed):
    # From the blocks of a pinned (1 column) or free (3 columns) step, the
    # covariance of (a, the first q step columns) is pinv of the
    # column-scaled Gram matrix of those columns, in units of each column's
    # scale, to 1e-11 of its largest entry (9.1e-15 is the largest seen).
    matrix, target, scales = _matrix(rows, 6 if free else 4, exponents, seed)
    weighted = matrix[:, :3].T
    _, _, gram, inverse = _solve(weighted, target)
    _, _, blocks = _step(weighted, gram, inverse, np.vstack([matrix[:, 3:].T, target]))
    for q in (1, 3) if free else (1,):
        covariance = np.array(_covariance(inverse, blocks, q)) * np.outer(scales[: 3 + q], scales[: 3 + q])
        scaled = matrix[:, : 3 + q] / scales[: 3 + q]
        expected = np.linalg.pinv(scaled.T @ scaled)
        assert np.abs(covariance - expected).max() <= 1e-11 * np.abs(expected).max()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    rows=st.integers(8, 4001),
    free=st.booleans(),
    exponents=_COLUMN_EXPONENTS,
    seed=st.integers(0, 2**32 - 1),
    defect=st.sampled_from(["near-duplicate", "zero", "half-floor", "singular-basis"]),
)
def test_step_refuses_where_the_joint_rule_fails(rows, free, exponents, seed, defect):
    # 3 amplitude columns, then 1 (pinned) or 3 (free) step columns.  A
    # singular basis is refused by _solve, every other defect by _step.
    matrix, target, scales = _matrix(rows, 6 if free else 4, exponents, seed)
    if defect == "near-duplicate":
        # A step column within 1e-9 of a basis column, relative, point by point.
        wobble = np.random.default_rng(seed).standard_normal(rows)
        matrix[:, 3] = matrix[:, 0] * (1.0 + 1e-9 * wobble)
    elif defect == "singular-basis":
        matrix[:, 2] = matrix[:, 1]
    else:
        # A zero last step column, or one at half the floor beside the longest other column.
        norms = np.linalg.norm(matrix, axis=0)
        factor = 0.0 if defect == "zero" else 0.5 * COLUMN_FLOOR * rows * norms[:-1].max() / norms[-1]
        matrix[:, -1] *= factor
    weighted = matrix[:, :3].T
    if defect == "singular-basis":
        with pytest.raises(NoFringeError, match=REFUSAL):
            _solve(weighted, target)
        return
    _, _, gram, inverse = _solve(weighted, target)
    with pytest.raises(NoFringeError, match=REFUSAL):
        _step(weighted, gram, inverse, np.vstack([matrix[:, 3:].T, target]))


def test_campaign_steps_are_not_halved_below_the_tolerance(monkeypatch):
    # Each Gauss-Newton step of these fits is tried whole, the last one too,
    # though it moves no parameter by more than PARAM_TOLERANCE; no halved
    # step that small is tried.  So there is one trial basis per step.
    calls = []
    monkeypatch.setattr("icohsim.scan._basis", lambda *args: calls.append(args) or _basis(*args))
    for seed in (1001, 1006, 1009):
        record = run_scan(config_with(seed=seed))
        for channel in ("singles", "coincidence"):
            calls.clear()
            fit = fit_fringe(record, channel, dwell=0.5)
            assert len(calls) == fit.iterations + 1


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
    fits = [fit_fringe(run_scan(config_with(eta=0.7, seed=s, **scan)), channel, dwell=0.5) for s in seeds]
    for pulls in (
        [(f.visibility - truth.visibility) / f.visibility_sigma for f in fits],
        [(f.period_m - period) / f.period_sigma_m for f in fits],
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
            fit = fit_fringe(record, channel, dwell=0.5)
            assert fit.envelope_delta_chi2 <= ENVELOPE_THRESHOLD
            assert not fit.envelope_resolved
            assert fit.envelope_fwhm_sigma_m == math.inf


@pytest.mark.parametrize("fraction", [0.3, 0.4, 0.5, 0.6])
def test_envelope_resolved_when_narrower_than_the_scan(fraction):
    fwhm = fraction * 4e-6  # of the 4 um span
    for seed in range(5):
        record = synthetic_record(sigma=fwhm / FWHM_FACTOR, center=0.2e-6, noise_seed=seed)
        fit = fit_fringe(record, dwell=0.5)
        assert fit.envelope_delta_chi2 > ENVELOPE_THRESHOLD
        assert fit.envelope_resolved
        assert abs(fit.envelope_fwhm_m - fwhm) <= 3 * fit.envelope_fwhm_sigma_m
        assert abs(fit.envelope_center_m - 0.2e-6) <= 3 * fit.envelope_center_sigma_m


def poisson_score(fit, record, row, dwell):
    """The Poisson score at a reported counts fit, each component over its largest term.

    The fit's parameters theta, (a0, a1, a2, k) for a pinned envelope and
    (a0, a1, a2, k, b1, b2) for a free one, are rebuilt from the reported
    values, with the phase at the reported reference delay, the scan's
    middle; component j is |sum (y - mu) / max(mu, 1) dmu/dtheta_j| over the
    largest |term| of that sum.
    """
    x = record.delays
    y = record.counts[row].astype(float)
    a0 = fit.baseline_hz * dwell
    k = 2.0 * math.pi / fit.period_m
    free = math.isfinite(fit.envelope_fwhm_sigma_m)
    if free:
        middle, half_span = 0.5 * (x[0] + x[-1]), 0.5 * (x[-1] - x[0])
        t = (x - middle) / half_span
        center = (fit.envelope_center_m - middle) / half_span
        width = fit.envelope_fwhm_m / (FWHM_FACTOR * half_span)
        beta2 = -0.5 / (width * width)
        beta1 = -2.0 * beta2 * center
        envelope = np.exp(t * (beta1 + beta2 * t))
        amplitude = fit.visibility * a0 * math.exp(-0.5 * beta1 * center)
    else:
        envelope = np.ones_like(x)
        amplitude = fit.visibility * a0
    a1, a2 = amplitude * math.cos(fit.phase_rad), -amplitude * math.sin(fit.phase_rad)
    centred = x - fit.phase_reference_m
    cos, sin = np.cos(k * centred), np.sin(k * centred)
    oscillation = envelope * (a1 * cos + a2 * sin)
    mu = a0 + oscillation
    partials = [np.ones_like(x), envelope * cos, envelope * sin, envelope * centred * (a2 * cos - a1 * sin)]
    if free:
        partials += [t * oscillation, t * t * oscillation]
    weighted_residual = (y - mu) / np.maximum(mu, 1.0)
    return [abs(terms.sum()) / np.abs(terms).max() for terms in (weighted_residual * d for d in partials)]


# Largest score component, relative to its largest term, at a returned
# counts fit.  The largest seen is 7.9e-6 on campaign shapes and 7.3e-5 on
# refit shapes, the k component of unresolved 3310-point fits, where a step
# of PARAM_TOLERANCE in k is 3e-4 of its sigma.
SCORE_TOLERANCE = 1e-4


@pytest.mark.parametrize("axis", CAMPAIGN_SCANS)
def test_counts_fits_are_at_the_poisson_maximum_likelihood_point(axis):
    # Whatever steps the fit takes, it stops where the Poisson score vanishes.
    _, scan = CAMPAIGN_SCANS[axis]
    for seed in range(3000, 3010):
        record = run_scan(config_with(seed=seed, **scan))
        for channel, row in (("singles", 0), ("coincidence", 2)):
            fit = fit_fringe(record, channel, dwell=0.5)
            assert max(poisson_score(fit, record, row, 0.5)) <= SCORE_TOLERANCE


def test_refit_shaped_fits_are_at_the_poisson_maximum_likelihood_point():
    components = []
    for _, record in refit_shaped_records():
        fit = fit_fringe(record, dwell=5.0)
        score = poisson_score(fit, record, 0, 5.0)
        assert max(score) <= SCORE_TOLERANCE
        components.append(len(score))
    # Both kinds of fit are covered: pinned (4 components) and free (6).
    assert set(components) == {4, 6}


def count_linalg_calls(monkeypatch) -> list[str]:
    """The list that, from now on, gets the name of each np.linalg routine called."""
    calls = []

    def counted(name, routine):
        return lambda *args, **kwargs: calls.append(name) or routine(*args, **kwargs)

    for name in np.linalg.__all__:
        routine = getattr(np.linalg, name)
        if callable(routine) and not isinstance(routine, type):
            monkeypatch.setattr(np.linalg, name, counted(name, routine))
    return calls


def test_campaign_fits_make_no_linalg_call(monkeypatch):
    # Every solve of these fits is closed form, and the covariance comes from
    # the Schur blocks, so no lstsq, pinv or other np.linalg routine runs.
    # The same holds 600 um out on the pump axis, where the fit's coordinate,
    # centred on the scan, keeps the k column apart from the phase columns,
    # and on records whose fit is refused.
    far_pump = dict(axis="pump", start=599e-6, stop=601e-6, step=5e-9)
    scans = [scan for _, scan in CAMPAIGN_SCANS.values()] + [far_pump]
    records = [run_scan(config_with(seed=seed, **scan)) for scan in scans for seed in (1001, 1006)]
    ramp = values_record(RAMP_COUNTS, "counts", 0.0, 10e-9)
    refused = [near_nyquist_record(), ramp, values_record(**NYQUIST_RECORD)]
    calls = count_linalg_calls(monkeypatch)
    for record in records:
        for channel in ("singles", "coincidence"):
            fit_fringe(record, channel, dwell=0.5)
    for record in refused:
        with pytest.raises(NoFringeError):
            fit_fringe(record, dwell=0.5)
    assert calls == []

