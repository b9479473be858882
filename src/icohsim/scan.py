"""Delay scans and fringe fitting.

A scan walks one delay axis (signal or pump), records envelope-modulated
rate predictions plus Poisson-sampled counts, and the fitter recovers
period, visibility, envelope, phase and baseline from either series by
weighted damped least squares on the model

    R(x) = B * (1 + V * exp(-(x - x0)^2 / (2 sigma^2)) * cos(2 pi x / L + phi)).

Visibility is kept inside [0, 1] by fitting V = sin^2(u); the envelope is
fit through its inverse squared width (zero meaning exactly flat) and the
period in log space, so both stay in range by construction.  The period
seed comes from a zero-padded periodogram peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .counting import CountSample, calibrate, sample_counts
from .expectation import RatePrediction, phase_averaged_rates
from .operators import DelaySetting
from .spectral import modulated_rates

if TYPE_CHECKING:  # pragma: no cover
    from .config import ExperimentConfig

CHANNELS = ("singles", "coincidence", "idler")
SOURCES = ("auto", "counts", "rates")

MAX_ITERATIONS = 200
MAX_REWEIGHT_ROUNDS = 8
MAX_WEIGHT_REFRESHES = 3
PARAM_TOLERANCE = 1e-10


class NoFringeError(RuntimeError):
    """Raised when no significant fringe is found in a record."""


class FitNonConvergenceError(RuntimeError):
    """Fit did not converge; carries the best parameters found so far."""

    def __init__(self, message: str, fit: "FringeFit"):
        super().__init__(message)
        self.fit = fit


@dataclass
class ScanRecord:
    """One delay scan: grid, calibrated rate predictions, sampled counts."""

    axis: str
    delays: np.ndarray
    predicted: list[RatePrediction]
    samples: list[CountSample] | None = None
    config: "ExperimentConfig | None" = None
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        if len(self.delays) != len(self.predicted):
            raise ValueError("delays and predictions must have equal length")
        if self.samples is not None and len(self.samples) != len(self.delays):
            raise ValueError("delays and samples must have equal length")
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


def scan_grid(config: "ExperimentConfig") -> np.ndarray:
    scan = config.scan
    n = int(round((scan.stop - scan.start) / scan.step)) + 1
    return np.linspace(scan.start, scan.stop, n)


def run_scan(
    config: "ExperimentConfig",
    axis: str | None = None,
    grid: np.ndarray | None = None,
    sample: bool = True,
) -> ScanRecord:
    """Evaluate the scan: envelope-modulated rates, then counts per point.

    The non-scanned delay axis is held at zero.  A warning (not an error)
    is recorded when the grid undersamples the expected fringe period.
    """
    axis = axis or config.scan.axis
    if axis not in ("signal", "pump"):
        raise ValueError(f"scan axis must be 'signal' or 'pump', got {axis!r}")
    delays = scan_grid(config) if grid is None else np.asarray(grid, dtype=float)

    warnings: list[str] = []
    if len(delays) >= 2:
        step = float(np.median(np.diff(delays)))
        wavelength = config.scan_wavelength(axis)
        if step > wavelength / 8.0:
            warnings.append(
                f"grid step {step:.3g} m gives fewer than 8 points per expected "
                f"{wavelength:.3g} m fringe period; fits may be unreliable"
            )

    cc = calibrate(config.detectors, phase_averaged_rates(config))
    predicted: list[RatePrediction] = []
    samples: list[CountSample] | None = [] if sample else None
    for index, x in enumerate(delays):
        setting = DelaySetting(delta_x_p=x) if axis == "pump" else DelaySetting(delta_x_s=x)
        model = modulated_rates(config, setting)
        r_a, r_b, r_ab = cc.detected_rates(model)
        predicted.append(RatePrediction(p_a=r_a, p_b=r_b, p_ab=r_ab))
        if samples is not None:
            samples.append(sample_counts(model, cc, index))
    return ScanRecord(
        axis=axis,
        delays=delays,
        predicted=predicted,
        samples=samples,
        config=config,
        warnings=warnings,
    )


def _series(record: ScanRecord, channel: str, source: str) -> tuple[np.ndarray, str]:
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}, got {channel!r}")
    if source not in SOURCES:
        raise ValueError(f"source must be one of {SOURCES}, got {source!r}")
    if source == "auto":
        source = "counts" if record.samples else "rates"
    if source == "counts":
        if not record.samples:
            raise ValueError("record has no sampled counts; use source='rates'")
        picks = {
            "singles": lambda s: s.counts_a,
            "coincidence": lambda s: s.coincidences,
            "idler": lambda s: s.counts_b,
        }
        y = np.array([picks[channel](s) for s in record.samples], dtype=float)
    else:
        picks = {
            "singles": lambda p: p.p_a,
            "coincidence": lambda p: p.p_ab,
            "idler": lambda p: p.p_b,
        }
        y = np.array([picks[channel](p) for p in record.predicted], dtype=float)
    return y, source


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
    dx = np.diff(x)
    step = float(np.median(dx))
    if np.max(np.abs(dx - step)) > 1e-6 * step:
        raise ValueError("period estimation requires a uniform delay grid")

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


def _model_and_jacobian(theta: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fringe model and analytic Jacobian in internal parameters.

    theta = (b, u, c, q, log_l, phi): baseline, visibility angle
    (V = sin^2 u), envelope center, inverse squared envelope width
    (q = 1/sigma^2, q = 0 meaning exactly flat), log period, phase.
    """
    b, u, c, q, log_l, phi = theta
    lam = math.exp(log_l)
    v = math.sin(u) ** 2
    offset = xs - c
    envelope = np.exp(-0.5 * q * offset**2)
    arg = 2.0 * math.pi * xs / lam + phi
    cosine = np.cos(arg)
    sine = np.sin(arg)
    osc = envelope * cosine
    model = b * (1.0 + v * osc)

    jac = np.empty((len(xs), 6))
    jac[:, 0] = 1.0 + v * osc
    jac[:, 1] = b * osc * math.sin(2.0 * u)
    jac[:, 2] = b * v * osc * q * offset
    jac[:, 3] = -0.5 * b * v * osc * offset**2
    jac[:, 4] = b * v * envelope * sine * 2.0 * math.pi * xs / lam
    jac[:, 5] = -b * v * envelope * sine
    return model, jac


@dataclass
class _LMState:
    theta: np.ndarray
    converged: bool
    iterations: int
    ssr: float
    jacobian_weighted: np.ndarray
    free: np.ndarray
    damping: float


def _lm_rounds(
    theta0: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    weights_for,
    bounds: np.ndarray,
    free: np.ndarray,
    use_poisson: bool,
    budget: int,
) -> _LMState:
    """Damped least squares over the unmasked parameters, within box bounds.

    Model-based Poisson weights would make the objective drift under the
    iteration, so minimization runs in rounds: weights are frozen (seeded
    from the data on the first round), the damped iteration converges
    against them, then weights are refreshed from the fitted model.  Full
    convergence requires a whole reweighting round to move the parameters
    by less than the tolerance.

    Bound handling is active-set style: a parameter resting on a bound with
    its descent direction pointing outward is dropped from the solve, so a
    saturated direction (visibility at 1, flat envelope) cannot distort the
    steps of the remaining parameters.
    """

    def project(params: np.ndarray) -> np.ndarray:
        return np.clip(params, bounds[:, 0], bounds[:, 1])

    theta = project(np.asarray(theta0, dtype=float).copy())
    model, jac = _model_and_jacobian(theta, xs)
    weights = weights_for(ys)
    damping = 1e-3
    iterations = 0
    converged = False
    ssr = math.inf
    for _round in range(MAX_REWEIGHT_ROUNDS):
        round_start = theta.copy()
        residual = (model - ys) * np.sqrt(weights)
        ssr = float(residual @ residual)
        inner_done = False
        while iterations < budget and not inner_done:
            iterations += 1
            jac_w = jac * np.sqrt(weights)[:, None]
            gradient = jac_w.T @ residual
            active = free.copy()
            for k in range(6):
                if not active[k]:
                    continue
                span_k = max(abs(theta[k]), 1.0)
                if theta[k] >= bounds[k, 1] - 1e-14 * span_k and gradient[k] < 0:
                    active[k] = False
                elif theta[k] <= bounds[k, 0] + 1e-14 * span_k and gradient[k] > 0:
                    active[k] = False
            if not np.any(active):
                inner_done = True
                break

            jw = jac_w[:, active]
            col_norms = np.linalg.norm(jw, axis=0)
            # Flat directions must stay damped, so the scaling diagonal
            # never drops far below the leading column.
            floor = 1e-6 * float(col_norms.max())
            col_norms = np.maximum(col_norms, floor if floor > 0 else 1.0)
            augmented = np.vstack([jw, math.sqrt(damping) * np.diag(col_norms)])
            rhs = np.concatenate([-residual, np.zeros(int(np.sum(active)))])
            step_active, *_ = np.linalg.lstsq(augmented, rhs, rcond=None)
            step = np.zeros(6)
            step[active] = step_active

            trial = project(theta + step)
            effective = trial - theta
            trial_model, trial_jac = _model_and_jacobian(trial, xs)
            trial_residual = (trial_model - ys) * np.sqrt(weights)
            trial_ssr = float(trial_residual @ trial_residual)
            relative = float(np.max(np.abs(effective) / np.maximum(np.abs(theta), 1.0)))

            if trial_ssr < ssr:
                theta = trial
                model, jac = trial_model, trial_jac
                residual = trial_residual
                ssr = trial_ssr
                damping = max(damping / 3.0, 1e-14)
                if relative < PARAM_TOLERANCE:
                    inner_done = True
            elif relative < PARAM_TOLERANCE and trial_ssr <= ssr * (1.0 + 1e-9):
                # Residual at its roundoff floor and parameters not moving.
                inner_done = True
            else:
                damping *= 10.0
                if damping > 1e14:
                    break
        if not inner_done:
            break
        round_shift = float(
            np.max(np.abs(theta - round_start) / np.maximum(np.abs(round_start), 1.0))
        )
        if not use_poisson or round_shift < PARAM_TOLERANCE:
            converged = True
            break
        # Three model-based refreshes pin the weights to well below any
        # quoted uncertainty; afterwards they stay frozen so the iteration
        # has a fixed objective to settle on.
        if _round < MAX_WEIGHT_REFRESHES:
            weights = weights_for(model)
    return _LMState(
        theta=theta,
        converged=converged,
        iterations=iterations,
        ssr=ssr,
        jacobian_weighted=jac * np.sqrt(weights)[:, None],
        free=free,
        damping=damping,
    )


def _initial_guess(xs: np.ndarray, ys: np.ndarray, lam0: float) -> np.ndarray:
    baseline = float(np.mean(ys))
    deviation = ys - baseline
    amp = math.sqrt(2.0) * float(np.std(deviation))
    vis = min(max(amp / baseline if baseline > 0 else 0.5, 0.02), 0.98)
    u0 = math.asin(math.sqrt(vis))

    weights = np.abs(deviation)
    cut = 0.2 * weights.max() if weights.max() > 0 else 0.0
    weights = np.where(weights > cut, weights - cut, 0.0)
    total = weights.sum()
    span = xs[-1] - xs[0]
    if total > 0:
        center = float(np.sum(weights * xs) / total)
        spread = math.sqrt(float(np.sum(weights * (xs - center) ** 2) / total))
    else:
        center = float(xs.mean())
        spread = span / 4.0
    spread = min(max(spread, span / 50.0), 3.0 * span)

    phase = 0.0
    if baseline > 0:
        z = np.sum(deviation * np.exp(-2j * math.pi * xs / lam0))
        if abs(z) > 0:
            phase = float(np.angle(z))
    return np.array([baseline, u0, center, 1.0 / spread**2, math.log(lam0), phase])


def _wrap_phase(phi: float) -> float:
    wrapped = math.remainder(phi, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def fit_fringe(
    record: ScanRecord,
    channel: str = "singles",
    source: str = "auto",
    period_seed: float | None = None,
    dwell: float | None = None,
) -> FringeFit:
    """Weighted damped least-squares fit of the fringe model.

    Counts are weighted by Poisson variances (the model value, floored at
    one count); noiseless rate fits are unweighted.  The damping factor is
    raised whenever a step increases the residual and lowered on acceptance;
    convergence requires the relative parameter change to drop below 1e-10
    within 200 iterations, otherwise FitNonConvergenceError carries the best
    parameters found.

    When the data cannot resolve the envelope (fitted width beyond the scan
    span, typical for pump scans far inside the pump coherence length), the
    envelope is pinned flat and refit; the reported width is then a lower
    bound and ``envelope_resolved`` is False.  Parameter uncertainties come
    from the local quadratic model of the weighted residual surface.
    """
    y_raw, source = _series(record, channel, source)
    x_raw = record.delays
    if period_seed is None:
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

    # Box bounds keep degenerate directions from stalling the iteration.
    # q = 1/sigma^2 may reach exactly 0 (a flat envelope, where the center
    # column vanishes and freezes on its own) but not an envelope narrower
    # than one grid step; the center may not wander further than one span
    # beyond the data; and the visibility angle u stops a hair inside its
    # boundaries, where V = sin^2(u) saturates with zero slope (noise can
    # push the unconstrained optimum onto V = 1, which would otherwise be
    # approached by an endless crawl).
    span_scaled = float(xs[-1] - xs[0])
    step_scaled = span_scaled / max(len(xs) - 1, 1)
    inf = math.inf
    bounds = np.array(
        [
            [-inf, inf],
            [1e-7, math.pi / 2.0 - 1e-7],
            [float(xs[0]) - span_scaled, float(xs[-1]) + span_scaled],
            [0.0, 1.0 / step_scaled**2],
            [-inf, inf],
            [-inf, inf],
        ]
    )

    theta = np.clip(_initial_guess(xs, ys, period_seed / x_scale), bounds[:, 0], bounds[:, 1])
    use_poisson = source == "counts"

    def weights_for(model_scaled: np.ndarray) -> np.ndarray:
        if not use_poisson:
            return np.ones_like(model_scaled)
        variance = np.maximum(model_scaled * y_scale, 1.0)
        return y_scale * y_scale / variance

    # First attempt: all six parameters free.  If that stalls because the
    # envelope is wider than the scan can resolve (its two parameters then
    # span a noise-dominated flat valley), pin the envelope flat and fit
    # the remaining four, which is the documented lower-bound behaviour.
    free_all = np.ones(6, dtype=bool)
    budget_full = (2 * MAX_ITERATIONS) // 5
    state = _lm_rounds(
        theta, xs, ys, weights_for, bounds, free_all, use_poisson, budget_full
    )
    iterations = state.iterations
    envelope_pinned = False
    if not state.converged and state.theta[3] < 1.0 / span_scaled**2:
        envelope_pinned = True
        pinned = state.theta.copy()
        pinned[3] = 0.0
        pinned[2] = float(xs.mean())
        free_envelope = np.array([True, True, False, False, True, True])
        state = _lm_rounds(
            pinned,
            xs,
            ys,
            weights_for,
            bounds,
            free_envelope,
            use_poisson,
            MAX_ITERATIONS - iterations,
        )
        iterations += state.iterations
    theta = state.theta
    converged = state.converged
    ssr = state.ssr

    dof = max(len(xs) - int(np.sum(state.free)), 1)
    jw = state.jacobian_weighted[:, state.free]
    covariance_free = np.linalg.pinv(jw.T @ jw)
    if not use_poisson:
        covariance_free = covariance_free * (ssr / dof)
    sigmas = np.full(6, math.inf)
    sigmas[state.free] = np.sqrt(np.maximum(np.diag(covariance_free), 0.0))

    b, u, c, q, log_l, phi = theta
    period = math.exp(log_l) * x_scale
    fwhm_factor = 2.0 * math.sqrt(2.0 * math.log(2.0))
    span = float(x_raw[-1] - x_raw[0])

    # A width beyond fifty spans is indistinguishable from flat; report the
    # bound itself as a lower limit on the true width.
    q_resolved = 1.0 / (50.0 * span_scaled) ** 2
    if q > q_resolved:
        sigma_env = x_scale / math.sqrt(q)
        fwhm_sigma = fwhm_factor * sigma_env * sigmas[3] / (2.0 * q)
    else:
        sigma_env = x_scale * 50.0 * span_scaled
        fwhm_sigma = math.inf

    if source == "counts":
        baseline = b * y_scale / dwell
        baseline_sigma = sigmas[0] * y_scale / dwell
        reduced_residual = ssr / dof
    else:
        baseline = b * y_scale
        baseline_sigma = sigmas[0] * y_scale
        reduced_residual = math.sqrt(ssr / dof)

    fit = FringeFit(
        period=period,
        period_sigma=period * sigmas[4],
        visibility=math.sin(u) ** 2,
        visibility_sigma=abs(math.sin(2.0 * u)) * sigmas[1],
        envelope_center=c * x_scale,
        envelope_center_sigma=sigmas[2] * x_scale,
        envelope_fwhm=fwhm_factor * sigma_env,
        envelope_fwhm_sigma=fwhm_sigma,
        phase=_wrap_phase(phi),
        phase_sigma=sigmas[5],
        baseline=baseline,
        baseline_sigma=baseline_sigma,
        reduced_residual=reduced_residual,
        converged=converged,
        iterations=iterations,
        envelope_resolved=not envelope_pinned and sigma_env < span,
        channel=channel,
        source=source,
    )
    if not converged:
        raise FitNonConvergenceError(
            f"fit did not converge in {iterations} iterations "
            f"(damping {state.damping:.2g}, reduced residual {reduced_residual:.3g})",
            fit,
        )
    return fit
