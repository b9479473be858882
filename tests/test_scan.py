import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icohsim.cli import build_report
from icohsim.config import MAX_SCAN_DELAY, MIN_SCAN_STEP, MIN_STEP_FRACTION, ConfigError
from icohsim.counting import count_means, detected
from icohsim.scan import (
    COLUMN_FLOOR,
    FWHM_FACTOR,
    MAX_EXPONENT,
    GridError,
    NoFringeError,
    ScanRecord,
    _basis,
    _gauss_newton,
    _linearize,
    _refine_seed,
    _solve,
    _wrap_phase,
    estimate_period,
    fit_fringe,
    run_scan,
    scan_grid,
    undersampling_warning,
)
from icohsim.spectral import FringeModel, coherence_length, compile_model

from conftest import DEFAULT_SEED, config_with, near_nyquist_record

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
    record = run_scan(config, DEFAULT_SEED)
    assert len(record.delays) == 401
    assert record.delays[0] == pytest.approx(-2e-6)
    assert record.delays[-1] == pytest.approx(2e-6)
    assert record.rates.shape == (3, 401)
    assert record.counts.shape == (3, 401)
    assert undersampling_warning(config, record) is None


def test_run_scan_without_sampling(config):
    record = run_scan(config)
    assert record.counts.dtype == np.int64 and record.counts.shape == (3, 401)
    assert not record.counts.any()
    # rates are calibrated: baseline averages to the configured detector rate
    mids = record.rates[0]
    assert np.mean(mids) == pytest.approx(42_000.0, rel=0.05)


def test_run_scan_warns_on_coarse_grid(config):
    # 400 nm steps: about 2 points per 808 nm fringe period
    record = run_scan(config_with(step=400e-9))
    assert "8 points" in undersampling_warning(config, record)


def test_scan_record_requires_monotone_grid():
    with pytest.raises(GridError, match="delay -1e-09 m is not greater than the previous delay 0 m") as error:
        ScanRecord(delays=np.array([0.0, -1e-9, 1e-9]), rates=np.ones((3, 3)))
    assert error.value.row == 1


def test_scan_record_requires_three_channel_rows_of_the_grid():
    delays = np.array([0.0, 1e-9, 2e-9])
    with pytest.raises(ValueError, match=r"^rates must have shape \(3, number of delays\)$"):
        ScanRecord(delays=delays, rates=np.ones((3, 2)))
    with pytest.raises(ValueError, match=r"^counts must have shape \(3, number of delays\)$"):
        ScanRecord(delays=delays, rates=np.ones((3, 3)), counts=np.ones((2, 3), dtype=np.int64))


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
        record = run_scan(config_with(), seed)
        fit = fit_fringe(record, dwell=0.5)
        errors.append(abs(fit.period_m - 808e-9))
        assert fit.period_sigma_m > 0
    assert max(errors) < 1e-9


def test_fit_monte_carlo_pump_periods():
    base = config_with(axis="pump", start=-1e-6, stop=1e-6)
    for seed in range(5):
        record = run_scan(config_with(axis="pump", start=-1e-6, stop=1e-6), seed)
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


def test_fit_takes_a_known_channel_and_nothing_else():
    record = synthetic_record(noise_seed=1)
    with pytest.raises(ValueError, match=r"^channel must be one of \('singles', 'coincidence', 'idler'\), got 'camera'$"):
        fit_fringe(record, "camera", dwell=0.5)


def test_fit_of_negative_rates_has_no_positive_baseline():
    x = np.linspace(-2e-6, 2e-6, 401)
    rates = -1000.0 * (1.0 + 0.5 * np.cos(2.0 * np.pi * x / 808e-9))
    with pytest.raises(NoFringeError, match=r"^no fringe detected: fitted baseline or amplitude is not positive$"):
        fit_fringe(ScanRecord(x, np.vstack([rates] * 3)), source="rates")


def test_wrapped_phase_lies_in_the_half_open_interval():
    # math.remainder rounds the tie -pi / (2 pi) to even, giving -pi
    assert _wrap_phase(-math.pi) == math.pi
    assert _wrap_phase(math.pi) == math.pi
    assert _wrap_phase(3.0 * math.pi) == math.pi


def test_basis_is_none_outside_the_model_domain():
    ts = np.linspace(-1.0, 1.0, 11)
    assert _basis([0.0], ts) is None
    assert _basis([-1.0], ts) is None
    assert _basis([1.0, 0.0, 0.0], ts) is not None
    assert _basis([1.0, 0.0, MAX_EXPONENT], ts) is not None
    assert _basis([1.0, 0.0, 2.0 * MAX_EXPONENT], ts) is None
    assert _basis([1.0, 2.0 * MAX_EXPONENT, 0.0], ts) is None


@pytest.mark.parametrize("noise_seed", [1, 32])
def test_fit_halves_past_a_step_to_a_negative_wavenumber(monkeypatch, noise_seed):
    # The first Gauss-Newton step in (k, b1, b2) is stretched along itself
    # until it takes k to -2 k; the trials at -2 k and -k/2 are outside the
    # model's domain and are skipped, and the fit still converges to the
    # unpatched optimum.  On seed 32 a shorter trial's envelope is so steep
    # that its amplitudes fail the column rule; it is skipped too.
    record = synthetic_record(noise_seed=noise_seed)
    plain = fit_fringe(record, dwell=0.5)
    trials = []
    calls = []

    def basis(p, ts):
        trials.append(list(p))
        return _basis(p, ts)

    def linearize(*args):
        a, residual, step, inverse = _linearize(*args)
        if len(step) == 3:
            calls.append(args)
            if len(calls) == 1:
                stretch = -3.0 * trials[-1][0] / step[0]
                step = [s * stretch for s in step]
        return a, residual, step, inverse

    monkeypatch.setattr("icohsim.scan._basis", basis)
    monkeypatch.setattr("icohsim.scan._linearize", linearize)
    patched = fit_fringe(record, dwell=0.5)
    assert sum(not p[0] > 0 for p in trials) == 2
    assert patched.converged
    assert patched.period_m == pytest.approx(plain.period_m, rel=1e-9)
    assert patched.phase_rad == pytest.approx(plain.phase_rad, abs=1e-9)


@pytest.mark.parametrize(
    "source, negated",
    [("counts", {1}), ("rates", {1}), ("counts", {3}), ("rates", {2}), ("counts", {3, 4})],
    ids=["counts-seed", "rates-seed", "counts-second", "rates-first", "counts-second-third"],
)
def test_fit_exits_past_a_step_that_raises_chi2(monkeypatch, source, negated):
    # _linearize's first call gives the seed's step in k alone, each later one a
    # joint Gauss-Newton step; the steps of the calls in ``negated`` are
    # reversed, so no size of them lowers chi^2 and halving stops at the step
    # floor.
    record = synthetic_record(sigma=1.5e-6, noise_seed=3 if source == "counts" else None)
    plain = fit_fringe(record, source=source, dwell=0.5)
    calls, seeds, starts = [], [], []

    def linearize(*args):
        a, residual, step, inverse = _linearize(*args)
        calls.append(1)
        return a, residual, ([-s for s in step] if len(calls) in negated else step), inverse

    def refine_seed(k, *args):
        seeds.append((k, _refine_seed(k, *args)))
        return seeds[-1][1]

    def gauss_newton(p, *args):
        starts.append((list(p), _gauss_newton(p, *args)))
        return starts[-1][1]

    monkeypatch.setattr("icohsim.scan._linearize", linearize)
    monkeypatch.setattr("icohsim.scan._refine_seed", refine_seed)
    monkeypatch.setattr("icohsim.scan._gauss_newton", gauss_newton)
    patched = fit_fringe(record, source=source, dwell=0.5)
    assert patched.converged
    if negated == {1}:
        # the seed is kept, and the fit still reaches the unpatched optimum
        (k, (refined, _, _)), = seeds
        assert refined == k
        assert patched.period_m == pytest.approx(plain.period_m, rel=1e-9)
    elif negated == {3}:
        # one failed step refreshes the counts weights, and the next step succeeds
        assert patched.iterations == plain.iterations + 1
        assert patched.period_m == pytest.approx(plain.period_m, rel=1e-9)
    elif source == "rates":
        # a rates fit whose step fails has converged where it started
        (p, solution), = starts
        assert patched.iterations == 1
        assert solution.p == p
    else:
        # a counts fit whose next step fails too has converged, short of the optimum
        assert patched.iterations == 3
        assert 0.5 * plain.period_sigma_m < abs(patched.period_m - plain.period_m) < plain.period_sigma_m


def test_fit_coincidence_channel(config):
    cfg = config_with(eta=0.7)
    record = run_scan(cfg, 11)
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    reach=st.floats(-12.0, 0.0).map(lambda exponent: min(10.0**exponent, MAX_SCAN_DELAY)),
    points=st.integers(2, 4000),
    rounding=st.floats(-0.49, 0.49),
    side=st.sampled_from([-1.0, 1.0]),
)
# half a metre out, where 0.1 nm steps are too fine; and a long grid at 1 m
@example(reach=0.50001, points=4000, rounding=0.0, side=1.0)
@example(reach=MAX_SCAN_DELAY, points=100_001, rounding=0.3, side=-1.0)
def test_a_grid_at_the_finest_step_the_config_allows_passes_the_record_checks(reach, points, rounding, side):
    """At the step rule's bound, MIN_STEP_FRACTION of the largest |delay| (or 1 pm,
    the finest step, where that is finer), with delays from 1 pm to 1 m and steps
    that do not divide the span, scan_grid gives a grid ScanRecord takes."""
    step = max(MIN_STEP_FRACTION * reach, MIN_SCAN_STEP)
    span = (points - 1 + rounding) * step
    near = max(reach - span, -reach)  # the grid's end nearer zero, within the reach
    start, stop = (near, reach) if side > 0 else (-reach, -near)
    cfg = config_with(start=start, stop=stop, step=step)
    grid = scan_grid(cfg)
    ScanRecord(grid, np.zeros((3, len(grid))))
    if step > MIN_SCAN_STEP:
        # at the bound: a step one ulp finer is refused
        with pytest.raises(ConfigError, match=r"^scan\.step_nm is too fine for float64 delays"):
            config_with(start=start, stop=stop, step=math.nextafter(step, 0.0))


# Fits recorded from the variable-projection fitter: (axis, seed, channel,
# iterations, period, visibility, phase, baseline).  None of the four
# resolves the envelope; both signal fits report a visibility above 1.
RECORDED_FITS = [
    ("signal", 2, "singles", 3,
     8.079707650853991e-07, 1.0000989532296694, 0.0001376709356547846, 41977.32667107175),
    ("signal", 1, "coincidence", 4,
     8.080205405275811e-07, 1.0002164106404945, 9.737665311256485e-05, 42001.68293461103),
    ("pump", 0, "singles", 3,
     3.550180647629458e-07, 0.9999006313921042, -0.00014658503469421857, 42024.423252910354),
    ("pump", 0, "coincidence", 3,
     3.5500949462863256e-07, 0.9998713840851101, 0.00010374365485606794, 42004.34613948319),
]


@pytest.mark.parametrize("recorded", RECORDED_FITS, ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_fit_decisions_match_recorded_fits(recorded):
    axis, seed, channel, iterations, period, visibility, phase, baseline = recorded
    scan = {} if axis == "signal" else dict(axis="pump", start=-1e-6, stop=1e-6)
    fit = fit_fringe(run_scan(config_with(**scan), seed), channel=channel, dwell=0.5)
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
# source, iterations, period, visibility, phase, baseline).  The first two
# leave the envelope unresolved, the last two resolve it; their visibility is
# the contrast at mid-scan, 0.2 um off the envelope's peak.
SYNTHETIC_FITS = [
    (20, 1.0, None, "singles", "counts", 4,
     8.080245891940861e-07, 1.000109003176746, 0.30014955154780326, 41978.2196729238),
    (12, 0.7, None, "coincidence", "counts", 3,
     8.081203708456254e-07, 0.9400362826818955, 0.3003776886796915, 3990.0222769287643),
    (13, 0.7, 1.6e-06, "singles", "counts", 6,
     8.08069795176729e-07, 0.6705525802926429, 0.29901290988415463, 42013.22072983691),
    (14, 0.7, 2e-06, "coincidence", "rates", 5,
     8.073216331501898e-07, 0.9131055104431376, 0.29523463784837695, 4000.6058018404897),
]


@pytest.mark.parametrize("recorded", SYNTHETIC_FITS, ids=lambda r: f"{r[0]}-{r[3]}-{r[4]}")
def test_fit_matches_recorded_fits_of_synthetic_records(recorded):
    noise_seed, true_visibility, fwhm, channel, source, iterations, *expected = recorded
    fit = fit_fringe(two_channel_record(noise_seed, true_visibility, fwhm), channel, source, dwell=0.5)
    assert fit.iterations == iterations
    assert fit.envelope_resolved == (fwhm is not None)
    got = (fit.period_m, fit.visibility, fit.phase_rad, fit.baseline_hz)
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
# converges at a period of about 1.1 scan spans.
RAMP_COUNTS = [110, 107, 90, 117, 132, 131, 158, 143, 160, 162, 184, 180, 198, 195, 193, 187]


def test_fitted_period_longer_than_the_span_is_no_fringe():
    record = values_record(RAMP_COUNTS, "counts", 0.0, 10e-9)
    message = r"fitted period 1\.6\d+e-07 m is longer than the scan's span of 1\.5e-07 m"
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
    """lstsq's solution in units of each column's scale.

    lstsq of the column-scaled matrix: that of the unscaled one errs by up to
    7.6e-9 in these units at column scales of 1e-3 and 1e3.
    """
    return np.linalg.lstsq(matrix / scales, target, rcond=None)[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.integers(8, 4001),
    exponents=_COLUMN_EXPONENTS,
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_matches_lstsq_on_full_rank_matrices(rows, exponents, seed):
    # Column scales 1e-3 to 1e3 stay above COLUMN_FLOOR.  Compared in units of
    # each column's scale, _solve's LU of the unit-diagonal Gram matrix agrees
    # with lstsq to 1e-11 (5.4e-15 is the largest seen).
    matrix, target, scales = _matrix(rows, 3, exponents, seed)
    expected = _scaled_lstsq(matrix, target, scales)
    a, _ = _solve(matrix.T, target)
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
    # 3 amplitude columns, then 1 (k alone) or 3 (k, b1, b2) step columns, and a
    # target that is not orthogonal to the amplitude columns.  The step is
    # the p part of lstsq on the joint matrix to 1e-11 in units of each
    # column's scale (4.9e-15 is the largest seen).
    matrix, target, scales = _matrix(rows, 6 if free else 4, exponents, seed)
    solution, _ = _solve(matrix.T, target)
    expected = _scaled_lstsq(matrix, target, scales)
    assert np.linalg.norm(solution[3:] * scales[3:] - expected[3:]) <= 1e-11 * np.linalg.norm(expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.integers(8, 4001),
    free=st.booleans(),
    exponents=_COLUMN_EXPONENTS,
    seed=st.integers(0, 2**32 - 1),
)
def test_covariance_is_the_inverse_of_the_joint_gram_matrix(rows, free, exponents, seed):
    # For a 1-column or a 3-column step, the covariance of (a, the step
    # columns) is pinv of the column-scaled Gram matrix of those columns, in
    # units of each column's scale, to 1e-11 of its largest entry (at most
    # 2.7e-14 seen).
    matrix, target, scales = _matrix(rows, 6 if free else 4, exponents, seed)
    _, covariance = _solve(matrix.T, target)
    covariance = covariance * np.outer(scales, scales)
    scaled = matrix / scales
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
    # 3 amplitude columns, then 1 (k alone) or 3 (k, b1, b2) step columns.  A
    # singular basis is refused by the amplitudes' solve, every other defect by
    # the joint one.
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
    _solve(weighted, target)
    with pytest.raises(NoFringeError, match=REFUSAL):
        _solve(matrix.T, target)


def test_campaign_steps_are_not_halved_below_the_tolerance(monkeypatch):
    # Each Gauss-Newton step of these fits is taken whole, and the step that
    # would move no parameter by STEP_SIGMAS of its sigma is not tried.  So
    # there is one trial basis per step, after the seed's and its k step's.
    calls = []
    monkeypatch.setattr("icohsim.scan._basis", lambda *args: calls.append(args) or _basis(*args))
    for seed in (1001, 1006, 1009):
        record = run_scan(config_with(), seed)
        for channel in ("singles", "coincidence"):
            calls.clear()
            fit = fit_fringe(record, channel, dwell=0.5)
            assert len(calls) == fit.iterations + 2


# The two scan shapes of the benchmark's campaign: axis -> (period, overrides).
CAMPAIGN_SCANS = {
    "signal": (808e-9, {}),
    "pump": (355e-9, dict(axis="pump", start=-1e-6, stop=1e-6)),
}


def test_campaign_fits_take_observed_information_steps_after_the_first():
    # 80 counts fits of the campaign's scans, seeds 1-20, both channels, take
    # 263 Gauss-Newton steps in all.  Fisher weights until a step explains
    # less than one unit of chi^2, then observed information, took 281.
    total = 0
    for _, scan in CAMPAIGN_SCANS.values():
        for seed in range(1, 21):
            record = run_scan(config_with(**scan), seed)
            total += sum(fit_fringe(record, channel, dwell=0.5).iterations for channel in ("singles", "coincidence"))
    assert total <= 263


# Step in each of (k, b1, b2) of the central difference below: its truncation
# and rounding errors both stay near 1e-10 of the derivative.
DIFFERENCE_STEP = 1e-5


@pytest.mark.parametrize("axis", CAMPAIGN_SCANS)
def test_jacobian_rows_are_the_derivatives_of_the_weighted_model(axis, monkeypatch):
    # At the first Gauss-Newton linearization of these counts fits, with its
    # Fisher weights, and at the same k with an envelope across the scan, the
    # step solves the joint rows [W; D_fd], D_fd the central difference of the
    # weighted model in (k, b1, b2) at the linearization's amplitudes.  In
    # units of each column's scale the step is the p part of lstsq on them to
    # 1e-8 of its norm (2.1e-10 is the largest seen; D's b2 row scaled by 1.1
    # moves it by 7.6e-3 to 8.8e-2), so a scale error in D, which leaves the
    # optimum in place, still fails.
    calls = []
    monkeypatch.setattr("icohsim.scan._linearize", lambda *args: calls.append(args) or _linearize(*args))
    record = run_scan(config_with(**CAMPAIGN_SCANS[axis][1]), 1001)
    for channel in ("singles", "coincidence"):
        calls.clear()
        fit_fringe(record, channel, dwell=0.5)
        first, _, ts, sqrt_w, target = next(call for call in calls if len(call[0]) == 3)
        for p in (first, [first[0], 0.3, -0.4]):
            a, residual, step, _ = _linearize(p, _basis(p, ts), ts, sqrt_w, target)
            columns = [_basis(p, ts) * sqrt_w]
            for j in range(3):
                up, down = list(p), list(p)
                up[j] += DIFFERENCE_STEP
                down[j] -= DIFFERENCE_STEP
                columns.append([(a @ _basis(up, ts) - a @ _basis(down, ts)) * sqrt_w / (2 * DIFFERENCE_STEP)])
            matrix = np.vstack(columns).T
            scales = np.linalg.norm(matrix, axis=0)
            expected = _scaled_lstsq(matrix, residual, scales)[3:]
            assert np.linalg.norm(np.array(step) * scales[3:] - expected) <= 1e-8 * np.linalg.norm(expected)


@pytest.mark.parametrize("axis", CAMPAIGN_SCANS)
@pytest.mark.parametrize("channel", ["singles", "coincidence"])
def test_pulls_cover_truth_at_eta_070(axis, channel):
    # Over N seeds, pulls (estimate - truth) / quoted sigma must have a mean
    # within 3/sqrt(N) of 0 and a standard deviation within
    # 3/sqrt(2(N-1)) of 1: three times their sampling spread.
    period, scan = CAMPAIGN_SCANS[axis]
    seeds = range(2000, 2060)
    n = len(seeds)
    cfg = config_with(eta=0.7, **scan)
    truth = fit_fringe(run_scan(cfg), channel, "rates")
    fits = [fit_fringe(run_scan(cfg, s), channel, dwell=0.5) for s in seeds]
    for pulls in (
        [(f.visibility - truth.visibility) / f.visibility_sigma for f in fits],
        [(f.period_m - period) / f.period_sigma_m for f in fits],
    ):
        assert abs(np.mean(pulls)) <= 3 / math.sqrt(n)
        assert abs(np.std(pulls, ddof=1) - 1) <= 3 / math.sqrt(2 * (n - 1))


def test_far_pump_scan_visibility_covers_truth_at_500_s_dwell():
    # The paper's pump scan 600 um out (599-601 um, 5 nm steps) at a dwell of
    # 500 s, where sigma is about 8.8e-6: every seed's singles and coincidence
    # visibility lies within 3 sigma of the contrast of the expected counts at
    # mid-scan, accidentals included.  Both channels' zero-delay visibility is
    # 1 and the accidentals carry the singles fringe, so on both that is the
    # pump envelope there, 0.9715393.
    scan = dict(axis="pump", start=599e-6, stop=601e-6, step=5e-9, dwell=500.0)
    truth = mid_scan_contrast(config_with(**scan), 600e-6)
    assert truth == pytest.approx([0.9715393] * 2, abs=5e-8)
    for seed in range(1, 21):
        record = run_scan(config_with(**scan), seed)
        for channel, contrast in zip(("singles", "coincidence"), truth):
            fit = fit_fringe(record, channel, dwell=500.0)
            assert fit.visibility_sigma < 1e-5, (seed, channel)
            assert abs(fit.visibility - contrast) <= 3 * fit.visibility_sigma, (seed, channel)


def draw_config(rng, axis):
    """A random scan config and seed: 41-1200 points at 8-40 per fringe period, centred
    at 0, within 1 um, or up to 30 um (signal) or 600 um (pump) out; eta
    0.2-1, gains 1e-4 to 1e-2, splitter ratio 0.2-0.8, dwell 0.03-5 s and
    detector rates 3e3-1e5 and 1e4-2e5 Hz."""
    wavelength = 808e-9 if axis == "signal" else 355e-9
    points = rng.randint(41, 1200)
    step = wavelength / rng.uniform(8.0, 40.0)
    far = 30e-6 if axis == "signal" else 600e-6
    centre = rng.choice((0.0, rng.uniform(-1e-6, 1e-6), rng.uniform(-far, far)))
    half_span = 0.5 * (points - 1) * step
    return config_with(
        axis=axis,
        start=centre - half_span,
        stop=centre + half_span,
        step=step,
        eta=rng.uniform(0.2, 1.0),
        gain1=10 ** rng.uniform(-4.0, -2.0),
        gain2=10 ** rng.uniform(-4.0, -2.0),
        splitter_ratio=rng.uniform(0.2, 0.8),
        dwell=rng.uniform(0.03, 5.0),
        rate_a_cal=rng.uniform(3e3, 1e5),
        rate_b_cal=rng.uniform(1e4, 2e5),
    ), rng.randrange(2**32)


def mid_scan_contrast(cfg, middle):
    """Contrast of the expected singles and coincidence counts, accidentals
    included, at the delay ``middle`` on the config's axis.

    The expected counts there are taken through the scan's own calibration
    and count means, from the compiled model with its fringe amplitudes
    turned by 0 and by pi/2, and set to 0 for the baseline; the idler rate
    has no fringe, so the accidentals are linear in the amplitudes too.
    """
    model = compile_model(cfg)
    delay = {"delta_x_p" if cfg.axis == "pump" else "delta_x_s": middle}

    def counts(amplitude):
        rates = FringeModel(model.baseline, amplitude, cfg).rates(**delay).reshape(3, 1)
        means = count_means(detected(rates, model.baseline, cfg.rate_a_cal, cfg.rate_b_cal), cfg.window, cfg.dwell)
        return np.array([means[0, 0], means[2, 0] + means[3, 0]])

    flat = counts(0.0 * model.amplitude)
    return np.hypot(counts(model.amplitude) - flat, counts(1j * model.amplitude) - flat) / flat


@pytest.fixture(scope="module")
def config_range_pulls():
    """Pulls of counts fits, (axis, channel, parameter) -> list, over 160
    drawn configs per axis; the unresolved fits' envelope FWHM bounds over
    the true FWHM; and the fit errors raised on the way.

    The truth is the compiled model's: the period is the axis wavelength;
    the phase is that of B + Re(A e^{i dphi}) at the scan's middle delay,
    where fit_fringe reports it; the visibility is the contrast of the
    expected counts there (mid_scan_contrast); and the FWHM is twice the
    coherence length of the axis's spectrum.  About 1.1 s of CPU on a 2-vCPU
    Xeon.
    """
    rng = random.Random(0)
    pulls = {}
    bounds = []
    errors = []
    for n in range(320):
        axis = ("signal", "pump")[n % 2]
        cfg, seed = draw_config(rng, axis)
        record = run_scan(cfg, seed)
        amplitude = compile_model(cfg).amplitude
        wavelength = cfg.signal_filter_center if axis == "signal" else cfg.pump_wavelength
        fwhm = 2.0 * coherence_length(cfg.signal_filter_fwhm() if axis == "signal" else cfg.pump_bandwidth)
        # dphi runs with the pump delay and against the signal delay
        sign = 1.0 if axis == "pump" else -1.0
        middle = 0.5 * float(record.delays[0]) + 0.5 * float(record.delays[-1])
        contrast = mid_scan_contrast(cfg, middle)
        for k, (channel, row) in enumerate((("singles", 0), ("coincidence", 2))):
            try:
                fit = fit_fringe(record, channel, dwell=cfg.dwell)
            except NoFringeError as exc:
                errors.append(f"{axis} {channel} config {n}: {exc}")
                continue
            phase = _wrap_phase(sign * cmath.phase(amplitude[row]) + 2.0 * math.pi * middle / wavelength)
            pulls.setdefault((axis, channel, "period"), []).append((fit.period_m - wavelength) / fit.period_sigma_m)
            pulls.setdefault((axis, channel, "phase"), []).append(
                _wrap_phase(fit.phase_rad - phase) / fit.phase_sigma_rad
            )
            pulls.setdefault((axis, channel, "visibility"), []).append(
                (fit.visibility - contrast[k]) / fit.visibility_sigma
            )
            if not fit.envelope_resolved:
                bounds.append(fit.envelope_fwhm_m / fwhm)
    return pulls, bounds, errors


def beyond_three_sigma_bound(n, p=0.0027, tail=0.00135):
    """The fewest pulls beyond 3 sigma, of n, that a binomial(n, p) count exceeds
    with probability at most ``tail``."""
    k = 0
    cdf = (1 - p) ** n
    while 1 - cdf > tail:
        k += 1
        cdf += math.comb(n, k) * p**k * (1 - p) ** (n - k)
    return k


@pytest.mark.parametrize("parameter", ["period", "phase", "visibility"])
@pytest.mark.parametrize("channel", ["singles", "coincidence"])
@pytest.mark.parametrize("axis", ["signal", "pump"])
def test_pulls_cover_truth_over_the_config_ranges(config_range_pulls, axis, channel, parameter):
    # The rule of test_pulls_cover_truth_at_eta_070 in each cell of a sweep
    # over the config ranges, and at most a binomial count beyond 3 sigma.
    pulls, _, errors = config_range_pulls
    cell = np.array(pulls[axis, channel, parameter])
    n = len(cell)
    assert n >= 150, errors
    assert abs(np.mean(cell)) <= 3 / math.sqrt(n), errors
    assert abs(np.std(cell, ddof=1) - 1) <= 3 / math.sqrt(2 * (n - 1)), errors
    assert np.sum(np.abs(cell) > 3) <= beyond_three_sigma_bound(n), errors


def test_width_bounds_lie_below_the_true_fwhm_over_the_config_ranges(config_range_pulls):
    # An unresolved fit's FWHM bound lies above the true FWHM only where b2's
    # estimate falls BOUND_SIGMAS sigma short of it, one-sided 1.35e-3 each:
    # over the sweep's unresolved fits on both axes, at most a binomial count
    # of them do.
    _, bounds, errors = config_range_pulls
    ratios = np.array(bounds)
    assert len(ratios) >= 300, errors
    assert np.sum(ratios > 1) <= beyond_three_sigma_bound(len(ratios), p=0.00135), (errors, np.sort(ratios)[-5:])


@pytest.mark.parametrize("axis", CAMPAIGN_SCANS)
def test_envelope_is_a_lower_bound_on_campaign_scans(axis):
    # +-2 um signal and +-1 um pump scans sit far inside both coherence
    # lengths: no fit resolves the envelope, and each reports a FWHM bound
    # below the true envelope FWHM, with no centre and no sigmas.
    cfg = config_with(**CAMPAIGN_SCANS[axis][1])
    fwhm = 2.0 * coherence_length(cfg.signal_filter_fwhm() if axis == "signal" else cfg.pump_bandwidth)
    for seed in range(1000, 1020):
        record = run_scan(config_with(**CAMPAIGN_SCANS[axis][1]), seed)
        for channel in ("singles", "coincidence"):
            fit = fit_fringe(record, channel, dwell=0.5)
            assert not fit.envelope_resolved
            assert math.isnan(fit.envelope_center_m)
            assert fit.envelope_center_sigma_m == fit.envelope_fwhm_sigma_m == math.inf
            assert fit.envelope_fwhm_m < fwhm


@pytest.mark.parametrize("fraction", [0.3, 0.4, 0.5, 0.6])
def test_envelope_resolved_when_narrower_than_the_scan(fraction):
    fwhm = fraction * 4e-6  # of the 4 um span
    for seed in range(5):
        record = synthetic_record(sigma=fwhm / FWHM_FACTOR, center=0.2e-6, noise_seed=seed)
        fit = fit_fringe(record, dwell=0.5)
        assert fit.envelope_resolved
        assert abs(fit.envelope_fwhm_m - fwhm) <= 3 * fit.envelope_fwhm_sigma_m
        assert abs(fit.envelope_center_m - 0.2e-6) <= 3 * fit.envelope_center_sigma_m


def fit_and_exponents(monkeypatch, record, channel, dwell):
    """fit_fringe's counts fit of the record's channel, and the envelope
    exponents (b1, b2) it reached, which the fit reports only through a
    resolved envelope; a resolved one must report them."""
    solutions = []

    def recorded(*args):
        solutions.append(_gauss_newton(*args))
        return solutions[-1]

    monkeypatch.setattr("icohsim.scan._gauss_newton", recorded)
    fit = fit_fringe(record, channel, dwell=dwell)
    (solution,) = solutions
    beta1, beta2 = solution.p[1:]
    if fit.envelope_resolved:
        x = record.delays
        half_span = 0.5 * (x[-1] - x[0])
        assert (fit.envelope_center_m - fit.phase_reference_m) / half_span == pytest.approx(
            -beta1 / (2.0 * beta2), rel=1e-12
        )
        assert fit.envelope_fwhm_m / (FWHM_FACTOR * half_span) == pytest.approx(
            (-2.0 * beta2) ** -0.5, rel=1e-12
        )
    return fit, (beta1, beta2)


def poisson_score(fit, record, row, dwell, exponents):
    """The Poisson score at a reported counts fit, each component over its largest term.

    The fit's parameters theta, (a0, a1, a2, k, b1, b2), are rebuilt from
    the reported values, with the visibility and the phase at the reported
    reference delay, the scan's middle, and from the envelope ``exponents``
    (b1, b2); component j is |sum (y - mu) / max(mu, 1) dmu/dtheta_j| over
    the largest |term| of that sum.
    """
    x = record.delays
    y = record.counts[row].astype(float)
    a0 = fit.baseline_hz * dwell
    k = 2.0 * math.pi / fit.period_m
    half_span = 0.5 * (x[-1] - x[0])
    centred = x - fit.phase_reference_m
    t = centred / half_span
    beta1, beta2 = exponents
    envelope = np.exp(t * (beta1 + beta2 * t))
    amplitude = fit.visibility * a0
    a1, a2 = amplitude * math.cos(fit.phase_rad), -amplitude * math.sin(fit.phase_rad)
    cos, sin = np.cos(k * centred), np.sin(k * centred)
    oscillation = envelope * (a1 * cos + a2 * sin)
    mu = a0 + oscillation
    partials = [
        np.ones_like(x),
        envelope * cos,
        envelope * sin,
        envelope * centred * (a2 * cos - a1 * sin),
        t * oscillation,
        t * t * oscillation,
    ]
    weighted_residual = (y - mu) / np.maximum(mu, 1.0)
    return [abs(terms.sum()) / np.abs(terms).max() for terms in (weighted_residual * d for d in partials)]


# Largest score component, relative to its largest term, at a returned
# counts fit.  The largest seen is 8.3e-6 on campaign shapes and 6.9e-5 on
# refit shapes, where the fit stops within STEP_SIGMAS of its optimum.
SCORE_TOLERANCE = 1e-4


@pytest.mark.parametrize("axis", CAMPAIGN_SCANS)
def test_counts_fits_are_at_the_poisson_maximum_likelihood_point(axis, monkeypatch):
    # Whatever steps the fit takes, it stops where the Poisson score vanishes.
    _, scan = CAMPAIGN_SCANS[axis]
    for seed in range(3000, 3010):
        record = run_scan(config_with(**scan), seed)
        for channel, row in (("singles", 0), ("coincidence", 2)):
            fit, exponents = fit_and_exponents(monkeypatch, record, channel, 0.5)
            assert max(poisson_score(fit, record, row, 0.5, exponents)) <= SCORE_TOLERANCE


def test_refit_shaped_fits_are_at_the_poisson_maximum_likelihood_point(monkeypatch):
    resolved = []
    for _, record in refit_shaped_records():
        fit, exponents = fit_and_exponents(monkeypatch, record, "singles", 5.0)
        assert max(poisson_score(fit, record, 0, 5.0, exponents)) <= SCORE_TOLERANCE
        resolved.append(fit.envelope_resolved)
    # Both kinds of fit are covered: a resolved envelope and a lower bound.
    assert set(resolved) == {True, False}


def test_flank_record_reports_the_fit_the_data_do_not_reject(monkeypatch):
    # The default signal envelope's flank, 26.4 to 35.2 um out in 20 nm
    # steps: the envelope falls across the scan, with no peak in it.  The
    # free fit is reported at its Poisson maximum-likelihood point, its
    # reduced chi^2 within 3 sqrt(2 / dof) of 1 (a fit with a flat envelope
    # gives 6.85), and its FWHM bound below the true 288 um.
    cfg = config_with(start=26.3907e-6, stop=35.1907e-6, step=20e-9, dwell=1.6025)
    record = run_scan(cfg, 104)
    fit, exponents = fit_and_exponents(monkeypatch, record, "coincidence", cfg.dwell)
    assert fit.converged
    assert max(poisson_score(fit, record, 2, cfg.dwell, exponents)) <= SCORE_TOLERANCE
    assert abs(fit.reduced_residual - 1) <= 3 * math.sqrt(2 / (len(record.delays) - 6))
    assert not fit.envelope_resolved
    assert fit.envelope_fwhm_m <= 2 * coherence_length(cfg.signal_filter_fwhm())


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


def test_campaign_fits_call_no_linalg_routine_but_inv(monkeypatch):
    # Every solve of these fits inverts its unit-diagonal Gram matrix by
    # np.linalg.inv, and the covariance is such an inverse, so no lstsq, pinv
    # or other fallback np.linalg routine runs.  The same holds 600 um out on
    # the pump axis, where the fit's coordinate, centred on the scan, keeps
    # the k column apart from the phase columns, and on records whose fit is
    # refused.
    far_pump = dict(axis="pump", start=599e-6, stop=601e-6, step=5e-9)
    scans = [scan for _, scan in CAMPAIGN_SCANS.values()] + [far_pump]
    records = [run_scan(config_with(**scan), seed) for scan in scans for seed in (1001, 1006)]
    ramp = values_record(RAMP_COUNTS, "counts", 0.0, 10e-9)
    refused = [near_nyquist_record(), ramp, values_record(**NYQUIST_RECORD)]
    calls = count_linalg_calls(monkeypatch)
    for record in records:
        for channel in ("singles", "coincidence"):
            fit_fringe(record, channel, dwell=0.5)
    for record in refused:
        with pytest.raises(NoFringeError):
            fit_fringe(record, dwell=0.5)
    assert set(calls) == {"inv"}

