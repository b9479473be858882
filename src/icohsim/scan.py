"""Delay scans and fringe fitting.

A scan walks one delay axis (signal or pump), records envelope-modulated
rate predictions plus Poisson-sampled counts, and the fitter recovers
period, visibility, envelope, phase and baseline from either series with
the separable model

    R(x) = a0 + exp(b1 t + b2 t^2) * (a1 cos(k x) + a2 sin(k x)),

where k = 2 pi / L and t runs from -1 to 1 across the scan.  The model is
linear in the amplitudes (a0, a1, a2), so every Gauss-Newton step solves
them by weighted linear least squares and iterates on k (and the envelope
exponents b1, b2) alone: variable projection (Golub & Pereyra, SIAM J.
Numer. Anal. 10, 413, 1973; Kaufman, BIT 15, 49, 1975).  The fit starts
from a zero-padded periodogram peak with the envelope pinned flat
(b1 = b2 = 0) and frees it only when a score test says the data resolve it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .counting import calibrate, count_means, sample_scan
from .expectation import check_rates
from .spectral import compile_model

if TYPE_CHECKING:  # pragma: no cover
    from .config import ExperimentConfig

CHANNELS = ("singles", "coincidence", "idler")
SOURCES = ("auto", "counts", "rates")

# Gauss-Newton steps allowed to each of the pinned and the free fit.
MAX_ITERATIONS = 200
PARAM_TOLERANCE = 1e-10
# Halvings of a Gauss-Newton step before it is given up as not improving.
MAX_HALVINGS = 30
# The envelope is freed when one step into it drops chi^2 by more than this
# (chi^2 with 2 degrees of freedom exceeds 25 with probability 4e-6).
ENVELOPE_THRESHOLD = 25.0
# Largest envelope exponent b1 t + b2 t^2 a fit may reach on the grid or at
# its peak, so the envelope, the visibility and their sigmas stay finite.
MAX_EXPONENT = 100.0
# A pinned envelope is reported this many scan spans wide, as a lower bound.
PINNED_SPANS = 50.0
FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))
# Largest relative deviation of a delay step from the median step on a uniform grid.
GRID_TOLERANCE = 1e-6


class NoFringeError(RuntimeError):
    """Raised when no significant fringe is found in a record."""


class FitNonConvergenceError(RuntimeError):
    """Fit did not converge; carries the fit at its last step."""

    def __init__(self, message: str, fit: "FringeFit"):
        super().__init__(message)
        self.fit = fit


@dataclass
class ScanRecord:
    """One delay scan: grid, calibrated rates, sampled counts.

    ``rates`` holds counts/s rows (detector A, detector B, true
    coincidences) and ``counts`` the sampled count rows (detector A,
    detector B, coincidences including accidentals), each of shape (3, n);
    ``counts`` is None for a noiseless record.
    """

    axis: str
    delays: np.ndarray
    rates: np.ndarray
    counts: np.ndarray | None = None
    config: "ExperimentConfig | None" = None
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        if self.rates.shape != (3, len(self.delays)):
            raise ValueError("rates must have shape (3, number of delays)")
        if self.counts is not None:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != self.rates.shape:
                raise ValueError("counts must have shape (3, number of delays)")
        if len(self.delays) >= 2 and not np.all(np.diff(self.delays) > 0):
            raise ValueError("delay grid must be strictly increasing")


@dataclass(frozen=True)
class FringeFit:
    """Fitted fringe parameters with per-parameter uncertainties."""

    period: float
    period_sigma: float
    visibility: float
    visibility_sigma: float
    envelope_center: float
    envelope_center_sigma: float
    envelope_fwhm: float
    envelope_fwhm_sigma: float
    phase: float
    phase_sigma: float
    baseline: float
    baseline_sigma: float
    reduced_residual: float
    converged: bool
    iterations: int
    envelope_resolved: bool
    channel: str = "singles"
    source: str = "counts"
    envelope_delta_chi2: float = math.nan


def off_grid_step(delays: np.ndarray) -> int | None:
    """Index i of the first step delays[i] -> delays[i+1] off the median step, or None."""
    dx = np.diff(delays)
    step = float(np.median(dx))
    off = np.flatnonzero(np.abs(dx - step) > GRID_TOLERANCE * step)
    return int(off[0]) if len(off) else None


def scan_grid(config: "ExperimentConfig") -> np.ndarray:
    scan = config.scan
    n = int(round((scan.stop - scan.start) / scan.step)) + 1
    return np.linspace(scan.start, scan.stop, n)


def undersampling_warning(config: "ExperimentConfig", axis: str, delays: np.ndarray) -> str | None:
    """Warning text when the grid has fewer than 8 points per expected fringe period."""
    if len(delays) < 2:
        return None
    step = float(np.median(np.diff(delays)))
    wavelength = config.scan_wavelength(axis)
    if step <= wavelength / 8.0:
        return None
    return (
        f"grid step {step:.3g} m gives fewer than 8 points per expected "
        f"{wavelength:.3g} m fringe period; fits may be unreliable"
    )


def run_scan(
    config: "ExperimentConfig",
    axis: str | None = None,
    grid: np.ndarray | None = None,
    sample: bool = True,
) -> ScanRecord:
    """Evaluate the scan: calibrated envelope-modulated rates, then counts.

    The config is compiled once into its closed-form fringe model, which
    gives the whole grid's rates in one pass and the calibration baseline;
    the grid is calibrated as one array and sampled by one
    :func:`~icohsim.counting.sample_scan` call.
    The non-scanned delay axis is held at zero.  A warning (not an error)
    is recorded when the grid undersamples the expected fringe period.
    """
    axis = axis or config.scan.axis
    if axis not in ("signal", "pump"):
        raise ValueError(f"scan axis must be 'signal' or 'pump', got {axis!r}")
    delays = scan_grid(config) if grid is None else np.asarray(grid, dtype=float)
    warning = undersampling_warning(config, axis, delays)

    model = compile_model(config)
    cc = calibrate(config.detectors, model.baseline)
    rates = model.rates(delta_x_p=delays) if axis == "pump" else model.rates(delta_x_s=delays)
    check_rates(rates)
    with np.errstate(over="ignore"):
        detected = cc.detected(rates)
    if not np.all(np.isfinite(detected)):
        raise OverflowError("calibrated rates exceed the float range")
    counts = sample_scan(count_means(detected, cc, config.scan.dwell), cc.seed) if sample else None
    return ScanRecord(
        axis=axis,
        delays=delays,
        rates=detected,
        counts=counts,
        config=config,
        warnings=[warning] if warning else [],
    )


def _series(record: ScanRecord, channel: str, source: str) -> tuple[np.ndarray, str]:
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}, got {channel!r}")
    if source not in SOURCES:
        raise ValueError(f"source must be one of {SOURCES}, got {source!r}")
    if source == "auto":
        source = "counts" if record.counts is not None else "rates"
    # Row of each channel in both arrays: detector A, detector B, coincidences.
    row = {"singles": 0, "idler": 1, "coincidence": 2}[channel]
    if source == "counts":
        if record.counts is None:
            raise ValueError("record has no sampled counts; use source='rates'")
        return record.counts[row].astype(float), source
    return record.rates[row], source


def estimate_period(
    record: ScanRecord, channel: str = "singles", source: str = "auto"
) -> float:
    """Seed period from the zero-padded periodogram peak of the chosen series.

    Accurate to a few percent, which is all the fitter needs.  Raises
    NoFringeError when no peak stands out of the background (flat data).
    """
    y, _ = _series(record, channel, source)
    x = record.delays
    if len(x) < 8:
        raise NoFringeError("record too short for period estimation")
    if off_grid_step(x) is not None:
        raise ValueError("period estimation requires a uniform delay grid")
    step = float(np.median(np.diff(x)))

    centered = y - y.mean()
    if not np.any(np.abs(centered) > 0):
        raise NoFringeError("no fringe detected: record is flat")

    nfft = 1 << max(8, int(math.ceil(math.log2(16 * len(x)))))
    power = np.abs(np.fft.rfft(centered, nfft)) ** 2
    freqs = np.fft.rfftfreq(nfft, d=step)

    power[0] = 0.0
    peak = int(np.argmax(power))
    background = float(np.median(power[1:]))
    if peak == 0 or power[peak] < 20.0 * max(background, 1e-300):
        raise NoFringeError("no fringe detected: periodogram peak not significant")

    # Parabolic refinement of the peak bin.
    if 1 <= peak < len(power) - 1:
        p_lo, p_mid, p_hi = power[peak - 1], power[peak], power[peak + 1]
        denom = p_lo - 2.0 * p_mid + p_hi
        shift = 0.5 * (p_lo - p_hi) / denom if denom != 0 else 0.0
    else:
        shift = 0.0
    frequency = (peak + shift) * (freqs[1] - freqs[0])
    return 1.0 / frequency


class _Solution(NamedTuple):
    """A Gauss-Newton fit at nonlinear parameters p = (k,) or (k, b1, b2).

    ``basis`` holds the model columns at p; ``residual`` and ``jacobian`` are
    weighted by ``sqrt_w``, and the Jacobian columns are (a0, a1, a2, k[, b1, b2]).
    """

    p: np.ndarray
    a: np.ndarray
    sqrt_w: np.ndarray
    basis: np.ndarray
    residual: np.ndarray
    jacobian: np.ndarray
    iterations: int
    converged: bool


def _basis(p: np.ndarray, xs: np.ndarray, ts: np.ndarray) -> np.ndarray | None:
    """Columns (1, env cos kx, env sin kx) of the model at p.

    None when p lies outside the model's domain: k not positive, or an
    envelope exponent b1 t + b2 t^2 above MAX_EXPONENT on the grid.
    """
    if not p[0] > 0:
        return None
    arg = p[0] * xs
    basis = np.column_stack([np.ones_like(xs), np.cos(arg), np.sin(arg)])
    if len(p) == 3:
        exponent = ts * (p[1] + p[2] * ts)
        if not exponent.max() <= MAX_EXPONENT:
            return None
        basis[:, 1:] *= np.exp(exponent)[:, None]
    return basis


def _solve(basis: np.ndarray, ys: np.ndarray, sqrt_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes (a0, a1, a2) by weighted linear least squares, and the weighted residual."""
    weighted = basis * sqrt_w[:, None]
    target = ys * sqrt_w
    a = np.linalg.lstsq(weighted, target, rcond=None)[0]
    return a, target - weighted @ a


def _envelope_columns(basis: np.ndarray, a: np.ndarray, ts: np.ndarray) -> list[np.ndarray]:
    """Unweighted Jacobian columns of the envelope exponents (b1, b2)."""
    osc = basis[:, 1:] @ a[1:]
    return [ts * osc, ts * ts * osc]


def _linearize(
    p: np.ndarray,
    basis: np.ndarray,
    xs: np.ndarray,
    ts: np.ndarray,
    ys: np.ndarray,
    sqrt_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Model, amplitudes, weighted residual and weighted Jacobian at p, whose basis is given."""
    a, residual = _solve(basis, ys, sqrt_w)
    columns = [basis, xs * (a[2] * basis[:, 1] - a[1] * basis[:, 2])]
    if len(p) == 3:
        columns += _envelope_columns(basis, a, ts)
    return basis @ a, a, residual, np.column_stack(columns) * sqrt_w[:, None]


def _gauss_newton(p, basis, xs, ts, ys, weights_for, sqrt_w) -> _Solution:
    """Gauss-Newton on the nonlinear parameters p alone (variable projection).

    ``basis`` is the model's basis at the starting p.  Each step solves the
    amplitudes by weighted linear least squares at the current p, takes the
    joint Gauss-Newton step in (a, p) and keeps its p part, halved until the
    weighted chi^2 falls, then refreshes the weights from the model.  With
    Poisson weights this is Fisher scoring, whose fixed point is the Poisson
    maximum-likelihood fit.  Converged once a whole step moves no parameter
    by more than PARAM_TOLERANCE (relative, or absolute below one).
    """
    previous = None
    steps = 0
    while True:
        model, a, residual, jacobian = _linearize(p, basis, xs, ts, ys, sqrt_w)
        theta = np.concatenate([a, p])
        converged = previous is not None and bool(
            np.max(np.abs(theta - previous) / np.maximum(np.abs(previous), 1.0)) < PARAM_TOLERANCE
        )
        if converged or steps == MAX_ITERATIONS:
            return _Solution(p, a, sqrt_w, basis, residual, jacobian, steps, converged)
        previous = theta
        steps += 1
        step = np.linalg.lstsq(jacobian, residual, rcond=None)[0][3:]
        ssr = float(residual @ residual)
        for halving in range(MAX_HALVINGS):
            trial = p + step * 0.5**halving
            trial_basis = _basis(trial, xs, ts)
            if trial_basis is None:
                continue
            trial_a, trial_residual = _solve(trial_basis, ys, sqrt_w)
            if float(trial_residual @ trial_residual) < ssr:
                p, basis, model = trial, trial_basis, trial_basis @ trial_a
                break
        sqrt_w = np.sqrt(weights_for(model))


def _envelope_statistic(pinned: _Solution, ts: np.ndarray, use_poisson: bool) -> float:
    """chi^2 drop of one Gauss-Newton step from the pinned fit into the free envelope.

    The step's Jacobian is the pinned fit's, at its weights, with the two
    envelope columns at b1 = b2 = 0 appended.  At the pinned optimum the
    residual is orthogonal to the pinned columns, so this is the score test
    of b1 = b2 = 0: chi^2 with 2 degrees of freedom under a flat envelope.
    Noiseless rates carry no count variance, so their drop is divided by the
    residual variance left after the step.
    """
    envelope = np.column_stack(_envelope_columns(pinned.basis, pinned.a, ts))
    jacobian = np.hstack([pinned.jacobian, envelope * pinned.sqrt_w[:, None]])
    residual = pinned.residual
    explained = jacobian @ np.linalg.lstsq(jacobian, residual, rcond=None)[0]
    drop = float(explained @ explained)
    if use_poisson:
        return drop
    rest = float(residual @ residual) - drop
    if rest > 0:
        return drop * (len(ts) - jacobian.shape[1]) / rest
    return math.inf if drop > 0 else 0.0


def _wrap_phase(phi: float) -> float:
    wrapped = math.remainder(phi, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def fit_fringe(
    record: ScanRecord,
    channel: str = "singles",
    source: str = "auto",
    dwell: float | None = None,
) -> FringeFit:
    """Fit the separable fringe model, freeing the envelope only when it is resolved.

    Counts are weighted by Poisson variances (the model value, floored at
    one count) and refit to the Poisson maximum-likelihood point; noiseless
    rate fits are unweighted.  The fit starts from the periodogram period
    with the envelope pinned flat.  The envelope is freed when the chi^2 drop
    of one step into it (``envelope_delta_chi2``) exceeds ENVELOPE_THRESHOLD,
    and the free fit is reported when it converges to a peaked envelope
    (b2 < 0) whose peak stays within exp(MAX_EXPONENT) of the mid-scan
    value.  Otherwise the envelope stays pinned: its reported width is a
    lower bound of PINNED_SPANS scan spans, and ``envelope_resolved`` is
    False.

    The visibility is taken at the envelope peak and is not clipped, so it
    may exceed 1 within its uncertainty.  Every uncertainty comes by the
    delta method from the covariance of the reported fit.  A fit that does
    not converge in MAX_ITERATIONS Gauss-Newton steps raises
    FitNonConvergenceError, carrying the last parameters.
    """
    y_raw, source = _series(record, channel, source)
    x_raw = record.delays
    period_seed = estimate_period(record, channel=channel, source=source)

    if dwell is None and record.config is not None:
        dwell = record.config.scan.dwell
    if source == "counts" and dwell is None:
        raise ValueError("counts fits need the dwell time to report rate units")

    x_scale = max(abs(float(x_raw[0])), abs(float(x_raw[-1])), 1e-30)
    y_scale = float(np.max(np.abs(y_raw)))
    if y_scale <= 0:
        raise NoFringeError("no fringe detected: record is empty")
    xs = x_raw / x_scale
    ys = y_raw / y_scale
    # The envelope's coordinate t runs from -1 to 1 across the scan.
    middle = 0.5 * float(x_raw[0] + x_raw[-1])
    half_span = 0.5 * float(x_raw[-1] - x_raw[0])
    ts = (x_raw - middle) / half_span
    use_poisson = source == "counts"

    def weights_for(model_scaled: np.ndarray) -> np.ndarray:
        if not use_poisson:
            return np.ones_like(model_scaled)
        variance = np.maximum(model_scaled * y_scale, 1.0)
        return y_scale * y_scale / variance

    k_seed = np.array([2.0 * math.pi * x_scale / period_seed])
    solution = _gauss_newton(
        k_seed, _basis(k_seed, xs, ts), xs, ts, ys, weights_for, np.sqrt(weights_for(ys))
    )
    iterations = solution.iterations
    statistic = _envelope_statistic(solution, ts, use_poisson)
    if statistic > ENVELOPE_THRESHOLD:
        # A flat envelope leaves the pinned basis as it is.
        flat = np.array([solution.p[0], 0.0, 0.0])
        free = _gauss_newton(flat, solution.basis, xs, ts, ys, weights_for, solution.sqrt_w)
        iterations += free.iterations
        beta1, beta2 = float(free.p[1]), float(free.p[2])
        if free.converged and beta2 < 0 and -beta1 * beta1 / (4.0 * beta2) <= MAX_EXPONENT:
            solution = free

    a0, a1, a2 = (float(v) for v in solution.a)
    amplitude = math.hypot(a1, a2)
    if not (a0 > 0 and amplitude > 0):
        raise NoFringeError("no fringe detected: fitted baseline or amplitude is not positive")
    k = float(solution.p[0])
    ssr = float(solution.residual @ solution.residual)
    dof = len(xs) - solution.jacobian.shape[1]
    covariance = np.linalg.pinv(solution.jacobian.T @ solution.jacobian)
    if not use_poisson:
        covariance *= ssr / dof
    cov = covariance.tolist()

    def sigma(*gradient: float) -> float:
        """Delta-method sigma from partials in (a0, a1, a2, k, b1, b2) order."""
        n = min(len(gradient), len(cov))
        variance = sum(gradient[i] * cov[i][j] * gradient[j] for i in range(n) for j in range(n))
        return math.sqrt(max(variance, 0.0))

    # Envelope peak relative to mid-scan: exponent log_peak at t = center.
    span = 2.0 * half_span
    if len(solution.p) == 3:
        beta1, beta2 = float(solution.p[1]), float(solution.p[2])
        center = -beta1 / (2.0 * beta2)
        width = 1.0 / math.sqrt(-2.0 * beta2)
        log_peak = 0.5 * beta1 * center
        envelope_center = middle + half_span * center
        envelope_center_sigma = half_span * sigma(0, 0, 0, 0, -0.5 / beta2, -center / beta2)
        envelope_fwhm = FWHM_FACTOR * half_span * width
        envelope_fwhm_sigma = FWHM_FACTOR * half_span * sigma(0, 0, 0, 0, 0, width * width * width)
        resolved = half_span * width < span
    else:
        center = log_peak = 0.0
        resolved = False
        envelope_center, envelope_center_sigma = middle, math.inf
        envelope_fwhm, envelope_fwhm_sigma = FWHM_FACTOR * PINNED_SPANS * span, math.inf
    visibility = amplitude / a0 * math.exp(log_peak)
    if not math.isfinite(visibility):
        raise NoFringeError("no fringe detected: fitted visibility is not finite")
    # d|a|/da1 / |a| and d|a|/da2 / |a|, ordered to neither overflow nor underflow.
    da1, da2 = (a1 / amplitude) / amplitude, (a2 / amplitude) / amplitude
    period = 2.0 * math.pi * x_scale / k

    rate_scale = y_scale / dwell if use_poisson else y_scale
    reduced_residual = ssr / dof if use_poisson else math.sqrt(ssr / dof)
    fit = FringeFit(
        period=period,
        period_sigma=sigma(0, 0, 0, period / k),
        visibility=visibility,
        visibility_sigma=visibility * sigma(-1.0 / a0, da1, da2, 0, center, center * center),
        envelope_center=envelope_center,
        envelope_center_sigma=envelope_center_sigma,
        envelope_fwhm=envelope_fwhm,
        envelope_fwhm_sigma=envelope_fwhm_sigma,
        phase=_wrap_phase(math.atan2(-a2, a1)),
        phase_sigma=sigma(0, da2, -da1),
        baseline=a0 * rate_scale,
        baseline_sigma=sigma(1.0) * rate_scale,
        reduced_residual=reduced_residual,
        converged=solution.converged,
        iterations=iterations,
        envelope_resolved=resolved,
        channel=channel,
        source=source,
        envelope_delta_chi2=statistic,
    )
    if not solution.converged:
        raise FitNonConvergenceError(
            f"fit did not converge in {iterations} Gauss-Newton steps "
            f"(reduced residual {reduced_residual:.3g})",
            fit,
        )
    return fit
