"""Delay scans and fringe fitting.

A scan walks one delay axis (signal or pump), records envelope-modulated
rate predictions plus Poisson-sampled counts, and the fitter recovers
period, visibility, envelope, phase and baseline from either series with
the separable model

    R(t) = a0 + exp(b1 t + b2 t^2) * (a1 cos(k t) + a2 sin(k t)),

where t = (x - m) / h runs from -1 to 1 across the scan, m being its middle
delay and h its half span: k = 2 pi h / L, and the phase and the visibility
are those at m.  The model is linear in the amplitudes (a0, a1, a2), so
every Gauss-Newton step solves them by weighted linear least squares and
iterates on p = (k, b1, b2) alone: variable projection (Golub & Pereyra,
SIAM J. Numer. Anal. 10, 413, 1973; Kaufman, BIT 15, 49, 1975).  There is
one model and one fit: it starts from the peak of a periodogram zero-padded
to 4 times the record's length (at least 256 bins), refined by one step in k
alone, with a flat envelope (b1 = b2 = 0), and the envelope is free from its
first step on.  Where the scan holds no envelope peak it does not resolve,
the fit reports a lower bound on the envelope's FWHM (BOUND_SIGMAS).

Every least-squares system of the fit is solved by one function (_solve)
from its Gram matrix A^T A, scaled to a unit diagonal and inverted by LU
(np.linalg.inv): the amplitudes' 3x3 system, for each linearization and
each trial step, and the joint system of the weighted rows [W; D] of the
amplitudes and of p (6x6, or 4x4 for the seed's step in k), which each
linearization forms once (_linearize) and whose p part is the Gauss-Newton
step.  The joint inverse at the returned fit is the covariance.  Where a
Gram matrix is singular, a column is so short beside the longest one that
numpy's lstsq rank cut (COLUMN_FLOOR, its default rcond) would drop a
singular value, or the columns' variance inflation factors sum to
INFLATION_LIMIT or more, the data do not determine the fringe, and the fit
is refused with NoFringeError.  Each Gauss-Newton step is tried whole,
then halved until chi^2 falls, skipping a trial outside the model's domain
or failing the rule (_trial), and the fit stops once a step would move no
parameter by STEP_SIGMAS of its sigma.

Counts fits reach the Poisson maximum-likelihood point by one Fisher-scoring
step, then observed-information steps (McCullagh & Nelder, Generalized
Linear Models, 1989).  Every uncertainty is taken from the inverse of the
expected (Fisher) information at the returned fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import GRID_TOLERANCE, MIN_SCAN_STEP, ExperimentConfig
from .counting import count_means, detected, sample_scan
from .spectral import compile_model

# Row of each channel in a record's rates and counts: detector A, detector B, coincidences.
CHANNEL_ROWS = {"singles": 0, "coincidence": 2, "idler": 1}
CHANNELS = tuple(CHANNEL_ROWS)
SOURCES = ("counts", "rates")

# Gauss-Newton steps allowed to a fit.
MAX_ITERATIONS = 200
# A fit has converged once the Gauss-Newton step it has just computed would
# move each nonlinear parameter (k, b1, b2) by less than STEP_SIGMAS of that
# parameter's sigma; that step is not taken.  Each sigma^2 is p's diagonal
# entry of the step's own joint Gram inverse (_linearize), times the residual
# variance for a rates fit.
# Near the optimum the steps shrink quadratically, so a tenfold tighter rule
# costs at most one more step (0.35 on average over 80 campaign fits, from
# 1e-4 to 1e-5); at 1e-5 the Poisson score left at a counts fit of the tests'
# campaign- and refit-shaped scans is at most 7e-5 of its largest term (8e-4
# at 1e-4).  A rates fit that the model matches to rounding has a
# residual variance of rounding alone, against which rounding's steps never
# look small, so its variance is taken as at least RATES_RESOLUTION^2: the
# resolution of the nine significant digits a scan CSV holds, relative to the
# largest rate.
STEP_SIGMAS = 1e-5
RATES_RESOLUTION = 5e-9
# Halvings of a Gauss-Newton step before it is given up as not improving.
MAX_HALVINGS = 30
# Least-squares systems are solved from their Gram matrix G = A^T A (_solve):
# G is divided by the outer product of the column norms, which scales it to a
# unit diagonal, and inverted by LU.  The fit is refused with NoFringeError
# when:
# - a column's norm is at or below COLUMN_FLOOR * max(M, N) times the largest
#   column norm of the M x N matrix, judged on G's diagonal before any
#   division.  COLUMN_FLOOR is numpy's lstsq default rcond: it cuts singular
#   values below COLUMN_FLOOR * max(M, N) * sigma_max, and sigma_min <= |a_j|
#   while sigma_max >= max |a_i|, so such a column always costs lstsq a
#   singular value (a squared-norm ratio of 7.9e-27 at 401 rows, 7.9e-25 at
#   4001);
# - the scaled matrix is singular: LU raises LinAlgError;
# - the columns' variance inflation factors sum to INFLATION_LIMIT or more.
#   Each factor is the inverse of the share of a column's squared norm outside
#   the span of the others, g_jj (G^-1)_jj, which is the diagonal of the scaled
#   inverse, so their sum is its trace.  That sum bounds the condition number
#   of the scaled Gram matrix; for its solve it gives an error estimate of
#   6 * INFLATION_LIMIT * 2.2e-16 = 1.3e-11.  The tests measure the error in
#   units of each column's scale against lstsq of the column-scaled matrix, on
#   random full-rank matrices of 8 to 4001 rows with column scales 1e-3 to
#   1e3: at most 5.4e-15 for a 3-column solve, 4.9e-15 for the step and
#   2.7e-14 of its largest entry for the joint inverse.  lstsq of the unscaled
#   matrix errs by up to 7.6e-9 on such matrices, so the tests compare against
#   the column-scaled one.
COLUMN_FLOOR = float(np.finfo(float).eps)
INFLATION_LIMIT = 1e4
# Largest envelope exponent b1 t + b2 t^2 a fit may reach on the grid, so the
# envelope and the fit's sigmas stay finite.
MAX_EXPONENT = 100.0
FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))
# The envelope is resolved when its curvature -b2 exceeds BOUND_SIGMAS times
# its sigma and its peak lies within the scan.  Otherwise the fit reports as
# the envelope's FWHM a lower bound: the FWHM of the curvature
# max(0, -b2) + BOUND_SIGMAS * sigma_b2.  The true curvature lies above that
# only where b2's estimate falls more than BOUND_SIGMAS sigma short of it,
# with a one-sided normal probability of 1.35e-3; a flat envelope's b2 falls
# below -BOUND_SIGMAS sigma with that probability too.
BOUND_SIGMAS = 3.0
# Finest grid step a record takes: scan_grid rounds a config's step to at least half of it.
MIN_GRID_STEP = 0.5 * MIN_SCAN_STEP
# Fewest delays a fit takes: the periodogram needs a few periods' worth.
MIN_FIT_POINTS = 8


class GridError(ValueError):
    """A delay grid not strictly increasing in uniform steps; ``row`` is its first bad delay's index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class NoFringeError(RuntimeError):
    """Raised when no significant fringe is found in a record, or the data do not determine one."""


@dataclass
class ScanRecord:
    """One delay scan on a uniform grid: delays, calibrated rates, sampled counts.

    ``rates`` holds counts/s rows (detector A, detector B, true
    coincidences) and ``counts`` the sampled count rows (detector A,
    detector B, coincidences including accidentals), each of shape (3, n).
    A record built without counts, a noiseless one, holds zero counts, as its
    CSV does.  ``step`` is the median delay step (nan below two delays).
    The delays are strictly increasing, the median step is at least
    MIN_GRID_STEP, and no step is off it by more than GRID_TOLERANCE of it;
    a grid that breaks a rule raises GridError at its first bad delay, the
    second one for a median step too fine.  The scan axis and the dwell come
    from the config.
    """

    delays: np.ndarray
    rates: np.ndarray
    counts: np.ndarray | None = None
    step: float = field(init=False)

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        if self.rates.shape != (3, len(self.delays)):
            raise ValueError("rates must have shape (3, number of delays)")
        counts = np.zeros(self.rates.shape, dtype=np.int64) if self.counts is None else self.counts
        self.counts = np.asarray(counts, dtype=np.int64)
        if self.counts.shape != self.rates.shape:
            raise ValueError("counts must have shape (3, number of delays)")
        dx = np.diff(self.delays)
        bad = np.flatnonzero(~(dx > 0))
        if len(bad):
            k = int(bad[0]) + 1
            previous, delay = self.delays[k - 1 : k + 1]
            raise GridError(f"delay {delay:.9g} m is not greater than the previous delay {previous:.9g} m", k)
        self.step = float(np.median(dx)) if len(dx) else math.nan
        if self.step < MIN_GRID_STEP:
            raise GridError(f"delay step {self.step:.6g} m is below the finest grid step {MIN_GRID_STEP:g} m", 1)
        off = np.flatnonzero(np.abs(dx - self.step) > GRID_TOLERANCE * self.step)
        if len(off):
            raise GridError(
                f"delay step {dx[off[0]]:.6g} m is off the grid's median step; "
                f"delays must be uniformly spaced",
                int(off[0]) + 1,
            )


@dataclass(frozen=True)
class FringeFit:
    """Fitted fringe parameters with per-parameter uncertainties.

    The fields are the fit JSON's keys, in its order, with their units in
    their names: metres, radians and counts/s.  ``phase_rad`` and
    ``visibility`` are the fringe's phase and contrast at the delay
    ``phase_reference_m``, the scan's middle.  ``envelope_center_m`` is nan
    unless ``envelope_resolved``.
    """

    period_m: float
    period_sigma_m: float
    visibility: float
    visibility_sigma: float
    envelope_center_m: float
    envelope_fwhm_m: float
    phase_rad: float
    baseline_hz: float
    reduced_residual: float
    converged: bool
    iterations: int
    envelope_resolved: bool
    envelope_center_sigma_m: float
    envelope_fwhm_sigma_m: float
    phase_sigma_rad: float
    baseline_sigma_hz: float
    channel: str
    source: str
    phase_reference_m: float


def scan_grid(config: ExperimentConfig) -> np.ndarray:
    """The scan's delays: ``round((stop - start) / step) + 1`` points spanning
    ``start`` to ``stop`` exactly.

    A step that does not divide the span is rounded to one that does: 300 nm
    over 0 to 1 um gives 4 points 333.3 nm apart, and 3 nm over -2 to 2 um
    gives 1334 points 3.00075 nm apart.  The report states the configured
    step.
    """
    n = int(round((config.stop - config.start) / config.step)) + 1
    return np.linspace(config.start, config.stop, n)


def undersampling_warning(config: ExperimentConfig, record: ScanRecord) -> str | None:
    """Warning text when the record's step gives fewer than 8 points per fringe period of the config's axis."""
    wavelength = config.scan_wavelength()
    # A record of fewer than two delays has a nan step, and no warning.
    if not record.step > wavelength / 8.0:
        return None
    return (
        f"grid step {record.step:.3g} m gives fewer than 8 points per expected "
        f"{wavelength:.3g} m fringe period; fits may be unreliable"
    )


def run_scan(config: ExperimentConfig, seed: int | None = None) -> ScanRecord:
    """Evaluate the scan along ``config.axis``: calibrated envelope-modulated rates,
    then, given a ``seed``, counts drawn from its stream; without one the counts are zero.

    The config is compiled once into its closed-form fringe model, which
    gives the whole grid's rates in one pass and the calibration baseline;
    the grid is calibrated as one array and sampled by one
    :func:`~icohsim.counting.sample_scan` call.  The non-scanned delay axis
    is held at zero; the grid is the config's (scan_grid), which the
    config's step rule keeps uniform in float64, and the config's window rule
    keeps every expected count below 2**62, in the sampler's range, so it
    refuses no built config.
    """
    delays = scan_grid(config)
    model = compile_model(config)
    rates = model.rates(delta_x_p=delays) if config.axis == "pump" else model.rates(delta_x_s=delays)
    calibrated = detected(rates, model.baseline, config.rate_a_cal, config.rate_b_cal)
    counts = None if seed is None else sample_scan(count_means(calibrated, config.window, config.dwell), seed)
    return ScanRecord(delays, calibrated, counts)


def estimate_period(y: np.ndarray, step: float) -> float:
    """Seed period from the zero-padded periodogram peak of the series ``y``, ``step`` apart.

    The series is zero-padded to the power of two at or above 4 times its
    length, and at least 256 bins.  A bin is then at most a quarter of the
    record's frequency resolution 1 / span, so the peak bin is within an
    eighth of it of the true peak, well inside the fit's main lobe of
    half-width 1 / span; a parabola through the peak bin and its neighbours
    refines it.  Raises NoFringeError below MIN_FIT_POINTS values, when no
    peak stands out of the background (flat data), or when the peak sits in
    the last bin, at a period of 2 grid steps (there the model's cos and sin
    columns coincide on the grid).  fit_fringe passes the record's median
    step: a record's grid is uniform (see ScanRecord), so that is the step of
    the whole series, and at least MIN_GRID_STEP.
    """
    if len(y) < MIN_FIT_POINTS:
        raise NoFringeError("record too short for period estimation")

    # A power of two scales every sum and product exactly, so the seed does not
    # move, and with the largest magnitude in [0.5, 1) no square under- or
    # overflows: a rate series has no floor, and 1e-200 counts/s square to 0.
    y = np.ldexp(y, -math.frexp(float(np.max(np.abs(y))))[1])
    centered = y - y.mean()
    if not np.any(np.abs(centered) > 0):
        raise NoFringeError("no fringe detected: record is flat")

    nfft = 1 << max(8, int(math.ceil(math.log2(4 * len(y)))))
    power = np.abs(np.fft.rfft(centered, nfft)) ** 2

    power[0] = 0.0
    peak = int(np.argmax(power))
    background = float(np.median(power[1:]))
    if peak == 0 or power[peak] < 20.0 * max(background, 1e-300):
        raise NoFringeError("no fringe detected: periodogram peak not significant")
    if peak == len(power) - 1:
        raise NoFringeError(
            f"no fringe detected: periodogram peak at the Nyquist limit, "
            f"a period of 2 grid steps of {step:.6g} m"
        )

    # Parabolic refinement of the peak bin, which is neither the first nor the last.
    p_lo, p_mid, p_hi = power[peak - 1], power[peak], power[peak + 1]
    denom = p_lo - 2.0 * p_mid + p_hi
    shift = 0.5 * (p_lo - p_hi) / denom if denom != 0 else 0.0
    return float(1.0 / ((peak + shift) * (1.0 / (nfft * step))))


class _Solution(NamedTuple):
    """A Gauss-Newton fit at nonlinear parameters p = [k, b1, b2].

    ``a`` holds the amplitudes and ``residual`` the weighted residual at p,
    under the weights of the expected information there: for counts, the
    Poisson (Fisher) weights of the model.  ``covariance`` is _linearize's
    inverse of the Gram matrix of the weighted rows [W; D] at p, over
    (a0, a1, a2) and p.
    """

    p: list[float]
    a: np.ndarray
    residual: np.ndarray
    covariance: np.ndarray
    iterations: int
    converged: bool


def _basis(p: list[float], ts: np.ndarray) -> np.ndarray | None:
    """Basis rows (1, env cos kt, env sin kt) of the model at p, shape (3, n).

    Rows, not columns, so that weighting the basis point by point and its
    Gram products run along contiguous memory.

    None when p lies outside the model's domain: k not positive, or an
    envelope exponent b1 t + b2 t^2 above MAX_EXPONENT on the grid.
    """
    if not p[0] > 0:
        return None
    arg = p[0] * ts
    basis = np.empty((3, len(ts)))
    basis[0] = 1.0
    np.cos(arg, out=basis[1])
    np.sin(arg, out=basis[2])
    if len(p) == 3:
        exponent = ts * (p[1] + p[2] * ts)
        if not exponent.max() <= MAX_EXPONENT:
            return None
        basis[1:] *= np.exp(exponent)
    return basis


def _solve(rows: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of target on the rows of ``rows``, and the inverse of their Gram matrix.

    The Gram matrix G is divided by the outer product of the rows' norms,
    which scales it to a unit diagonal, and inverted by LU (np.linalg.inv);
    G^-1 is that inverse divided by the same product.  Where the rule at
    COLUMN_FLOOR and INFLATION_LIMIT fails, NoFringeError is raised: the
    floor is judged on G's diagonal before any division, and the
    variance-inflation sum is the scaled inverse's trace.  Rounding can give
    a nearly singular G an inverse with a huge negative trace, so a sum not
    above 0 is named as inf, as a singular one is.
    """
    gram = rows @ rows.T
    diagonal = gram.diagonal()
    norms = diagonal.tolist()
    inflation = math.inf
    if min(norms) > (COLUMN_FLOOR * max(rows.shape)) ** 2 * max(norms):
        roots = np.sqrt(diagonal)
        outer = np.multiply.outer(roots, roots)
        try:
            inverse = np.linalg.inv(gram / outer)
        except np.linalg.LinAlgError:
            pass
        else:
            inflation = sum(inverse.diagonal().tolist())
    if not 0.0 < inflation < INFLATION_LIMIT:
        raise NoFringeError(
            f"no fringe determined: the fit's columns have a variance-inflation sum of "
            f"{inflation if inflation > 0 else math.inf:.6g}, not below {INFLATION_LIMIT:.6g}"
        )
    inverse /= outer
    return inverse @ (rows @ target), inverse


def _linearize(p, basis, ts, sqrt_w, target):
    """Amplitudes, residual, Gauss-Newton step and joint Gram inverse at p = [k] or [k, b1, b2].

    The joint rows [W; D] are formed once: the rows W of the weighted basis,
    on which the amplitudes solve the weighted least squares of ``target``,
    then the q weighted Jacobian rows D of p.  The step is the p part of the
    least squares of [W; D] on the residual r: solving over W too takes D's
    part along W out of the step, as variable projection's step does.  The
    inverse is _solve's, over (a0, a1, a2) and the q parameters of p.
    """
    joint = np.empty((3 + len(p), len(ts)))
    weighted = np.multiply(basis, sqrt_w, out=joint[:3])
    a, _ = _solve(weighted, target)
    joint[3] = ts * ((a[2], -a[1]) @ weighted[1:])
    if len(p) == 3:
        # The envelope exponents' rows: t and t^2 times the oscillation.
        joint[4] = ts * (a[1:] @ weighted[1:])
        joint[5] = ts * joint[4]
    residual = target - a @ weighted
    step, inverse = _solve(joint, residual)
    return a, residual, step[3:].tolist(), inverse


def _trial(p, ts, sqrt_w, target) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Basis, model (in the target's units) and weighted chi^2 at a trial p, or None to skip it.

    A trial is skipped outside the model's domain (_basis) or where its
    amplitudes fail the rule at COLUMN_FLOOR and INFLATION_LIMIT: a shorter
    step may avoid either, and the rule judges the data at the current p.
    """
    basis = _basis(p, ts)
    if basis is None:
        return None
    weighted = basis * sqrt_w
    try:
        a, _ = _solve(weighted, target)
    except NoFringeError:
        return None
    residual = target - a @ weighted
    return basis, a @ basis, float(residual @ residual)


def _refine_seed(
    k: float, ts: np.ndarray, sqrt_w: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """The seed wavenumber after one Gauss-Newton step in k alone with a flat envelope, the basis and the model there.

    The periodogram's peak is pulled off the fringe's k by the leakage of
    its negative frequency, by about 0.6% on a campaign scan, and a free fit
    started there overshoots the envelope curvature on its first step.  The
    step is kept if it lowers chi^2 (_trial), else the seed is.  With
    b1 = b2 = 0 the flat basis returned is the free model's; the model's
    values, in units of the target's, give a counts fit its first weights.
    """
    basis = _basis([k], ts)
    a, residual, (step,), _ = _linearize([k], basis, ts, sqrt_w, target)
    trial = _trial([k + step], ts, sqrt_w, target)
    if trial is not None and trial[2] < float(residual @ residual):
        trial_basis, model, _ = trial
        return k + step, trial_basis, model
    return k, basis, a @ basis


def _gauss_newton(p, basis, ts, sqrt_w, target, reweight) -> _Solution:
    """Gauss-Newton on the nonlinear parameters p = [k, b1, b2] alone (variable projection).

    ``basis`` is the model's basis at the starting p, and ``sqrt_w`` and
    ``target`` the roots of the starting weights and the weighted data.
    Each step solves the amplitudes by weighted linear least squares at the
    current p, takes the p part of the joint Gauss-Newton step in (a, p)
    (_linearize), halved until the weighted chi^2 falls, then refreshes the
    weights from the model.  ``reweight(model, observed)`` gives the new
    roots and target of a counts fit; rates fits (None) keep unit weights.

    A counts fit takes its first step by Fisher scoring: Poisson weights 1/mu
    of the model mu, floored at one count, safe where the model still misses
    the data.  Every later step is an observed-information step: weights
    y/mu^2 and the working response of the Poisson likelihood's Newton step
    (see fit_fringe), which near the optimum converges faster than Fisher
    weights one step behind the model.  Both stop where the Poisson score
    sum (y - mu)/max(mu, 1) dmu/dtheta vanishes: the Poisson
    maximum-likelihood fit.  ``iterations`` counts the steps of both kinds.

    The fit has converged, and stops without taking the step it has just
    computed, once that step would move every parameter by less than
    STEP_SIGMAS of its sigma (see STEP_SIGMAS).  Halving stops at the same
    size, and a step that lowers chi^2 at no size down to it (a skipped trial
    does not) leaves p where it is.  A rates fit has converged there, since
    its next step would be the same.  A counts fit refreshes its weights and
    has converged there when its next step fails too: the step descends the
    weighted chi^2, so it is one that chi^2, summed in floats, cannot resolve
    (on a few-thousand-point scan a step of 1e-5 sigma can be one).  A
    counts fit that took a step is solved once more with the Fisher weights
    of its model, so the returned amplitudes, residual and covariance are
    those of the expected information at the returned p.
    """
    failed = False
    steps = 0
    dof = len(ts) - 6
    while True:
        a, residual, step, covariance = _linearize(p, basis, ts, sqrt_w, target)
        ssr = float(residual @ residual)
        variance = 1.0 if reweight is not None else max(ssr / dof, RATES_RESOLUTION * RATES_RESOLUTION)
        # The squares of STEP_SIGMAS of each parameter's sigma.
        floors = [STEP_SIGMAS * STEP_SIGMAS * variance * v for v in covariance.diagonal()[3:].tolist()]

        def below(scale: float) -> bool:
            return all((s * scale) ** 2 < floor for s, floor in zip(step, floors))

        converged = below(1.0)
        if converged or steps == MAX_ITERATIONS:
            break
        steps += 1
        model = None
        for halving in range(MAX_HALVINGS):
            scale = 0.5**halving
            if halving and below(scale):
                break
            trial = [q + s * scale for q, s in zip(p, step)]
            solved = _trial(trial, ts, sqrt_w, target)
            if solved is not None and solved[2] < ssr:
                p, (basis, model, _) = trial, solved
                break
        if model is None and (reweight is None or failed):
            converged = True
            break
        failed = model is None
        if reweight is not None:
            sqrt_w, target = reweight(a @ basis if failed else model, True)
    if steps and reweight is not None:
        sqrt_w, target = reweight(a @ basis, False)
        a, residual, _, covariance = _linearize(p, basis, ts, sqrt_w, target)
    return _Solution(p, a, residual, covariance, steps, converged)


def _wrap_phase(phi: float) -> float:
    wrapped = math.remainder(phi, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def fit_fringe(
    record: ScanRecord,
    channel: str = "singles",
    source: str = "counts",
    dwell: float | None = None,
) -> FringeFit:
    """Fit the separable fringe model, its envelope free, to one series of the record.

    ``channel`` picks the record's row (CHANNEL_ROWS) and ``source`` its
    sampled counts or noiseless rates (SOURCES); anything else raises
    ValueError.  The series is picked once, and its periodogram
    (estimate_period), refined by one Gauss-Newton step in k alone
    (_refine_seed), seeds the fit with a flat envelope, b1 = b2 = 0.

    Counts are fitted to the Poisson maximum-likelihood point, by one
    Fisher-scoring step (weights 1/max(mu, 1)) and then observed-information
    steps (weights y/max(mu, 1)^2, y floored at one count; see
    _gauss_newton); noiseless rate fits are unweighted.

    A fitted period longer than the scan's span, less than one full fringe
    in the record, is a trend rather than a fringe and raises NoFringeError.
    So does a fit whose columns fail the rule at COLUMN_FLOOR and
    INFLATION_LIMIT: the data do not determine its fringe.

    The visibility is the fringe contrast at the scan's middle,
    hypot(a1, a2) / a0, wherever the envelope peaks; it is not clipped, so
    it may exceed 1 within its uncertainty.  The phase is taken there too,
    at ``phase_reference_m``.  ``envelope_resolved`` is True when the
    envelope's curvature -b2 exceeds BOUND_SIGMAS of its sigma and its peak,
    at t = -b1 / (2 b2), lies within the scan; only then are the envelope's
    centre and FWHM reported, with sigmas.  Otherwise the centre is nan and
    the FWHM is a lower bound (BOUND_SIGMAS), both with infinite sigmas.
    Every uncertainty comes by the delta method from the covariance of the
    fit: the inverse of the expected information there (Poisson weights
    1/max(mu, 1) for counts; for rates scaled by the residual variance).
    ``iterations`` counts the fit's Gauss-Newton steps, of both kinds, after
    the seed's step in k.  A fit that does not converge in MAX_ITERATIONS
    Gauss-Newton steps is returned at its last parameters with ``converged``
    False.  A counts fit needs ``dwell``, the config's seconds per point, to
    report counts/s; without it it raises ValueError.
    """
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}, got {channel!r}")
    if source not in SOURCES:
        raise ValueError(f"source must be one of {SOURCES}, got {source!r}")
    if source == "counts" and dwell is None:
        raise ValueError("counts fits need the dwell time to report rate units")
    row = CHANNEL_ROWS[channel]
    y_raw = record.counts[row].astype(float) if source == "counts" else record.rates[row]
    x_raw = record.delays
    period_seed = estimate_period(y_raw, record.step)
    y_scale = float(np.max(np.abs(y_raw)))  # positive: estimate_period rejects a flat series
    ys = y_raw / y_scale
    # The model's one coordinate t runs from -1 to 1 across the scan.
    first, last = float(x_raw[0]), float(x_raw[-1])
    middle = 0.5 * (first + last)
    half_span = 0.5 * (last - first)
    ts = (x_raw - middle) / half_span
    use_poisson = source == "counts"

    if use_poisson:
        # Counts weights and targets are in count units: Fisher's sqrt_w * ys is y / sqrt(max(mu, 1)).
        root_y = np.sqrt(np.maximum(y_raw, 1.0))
        scaled_root_y = y_scale * root_y

    def reweight(model: np.ndarray, observed: bool) -> tuple[np.ndarray, np.ndarray]:
        """Roots of the Poisson weights at the model values, and the weighted target.

        Fisher scoring weighs by 1/max(mu, 1) and targets the data.  Observed
        information weighs by y/max(mu, 1)^2, with y floored at one count too,
        and targets the working response sqrt(y) mu/max(mu, 1) + (y - mu)/sqrt(y),
        whose residual times the weighted Jacobian is the Poisson score.
        """
        mean = model * y_scale
        if observed:
            sqrt_w = scaled_root_y / np.maximum(mean, 1.0)
            return sqrt_w, sqrt_w * model + (y_raw - mean) / root_y
        sqrt_w = np.sqrt(y_scale * y_scale / np.maximum(mean, 1.0))
        return sqrt_w, ys * sqrt_w

    sqrt_w, target = reweight(ys, False) if use_poisson else (np.ones_like(ys), ys)
    k, basis, model = _refine_seed(2.0 * math.pi * half_span / period_seed, ts, sqrt_w, target)
    if use_poisson:
        sqrt_w, target = reweight(model, False)
    solution = _gauss_newton([k, 0.0, 0.0], basis, ts, sqrt_w, target, reweight if use_poisson else None)

    a0, a1, a2 = (float(v) for v in solution.a)
    amplitude = math.hypot(a1, a2)
    if not (a0 > 0 and amplitude > 0):
        raise NoFringeError("no fringe detected: fitted baseline or amplitude is not positive")
    k, beta1, beta2 = (float(v) for v in solution.p)
    period = 2.0 * math.pi * half_span / k
    span = 2.0 * half_span
    if period > span:
        raise NoFringeError(
            f"no fringe detected: fitted period {period:.6g} m is longer than "
            f"the scan's span of {span:.6g} m"
        )
    ssr = float(solution.residual @ solution.residual)
    dof = len(ts) - 6
    cov = solution.covariance.tolist()
    scale = 1.0 if use_poisson else ssr / dof

    def sigma(*gradient: float) -> float:
        """Delta-method sigma from partials in (a0, a1, a2, k, b1, b2) order."""
        # The partials that are not zero, with their indices.
        terms = [(i, g) for i, g in enumerate(gradient) if g]
        variance = sum(g * cov[i][j] * h for i, g in terms for j, h in terms)
        return math.sqrt(max(variance * scale, 0.0))

    visibility = amplitude / a0
    if not math.isfinite(visibility):
        raise NoFringeError("no fringe detected: fitted visibility is not finite")
    # d|a|/da1 / |a| and d|a|/da2 / |a|, ordered to neither overflow nor underflow.
    da1, da2 = (a1 / amplitude) / amplitude, (a2 / amplitude) / amplitude
    # The envelope's curvature -b2, detected at BOUND_SIGMAS, and its peak in t.
    curvature_sigma = sigma(0, 0, 0, 0, 0, 1.0)
    center = -beta1 / (2.0 * beta2) if beta2 < 0 else math.nan
    resolved = -beta2 > BOUND_SIGMAS * curvature_sigma and abs(center) <= 1.0
    if resolved:
        width = 1.0 / math.sqrt(-2.0 * beta2)
        envelope_center = middle + half_span * center
        envelope_center_sigma = half_span * sigma(0, 0, 0, 0, -0.5 / beta2, -center / beta2)
        envelope_fwhm = FWHM_FACTOR * half_span * width
        envelope_fwhm_sigma = FWHM_FACTOR * half_span * sigma(0, 0, 0, 0, 0, width * width * width)
    else:
        envelope_center, envelope_center_sigma, envelope_fwhm_sigma = math.nan, math.inf, math.inf
        curvature = max(0.0, -beta2) + BOUND_SIGMAS * curvature_sigma
        envelope_fwhm = FWHM_FACTOR * half_span / math.sqrt(2.0 * curvature) if curvature > 0 else math.inf

    rate_scale = y_scale / dwell if use_poisson else y_scale
    return FringeFit(
        period_m=period,
        period_sigma_m=sigma(0, 0, 0, period / k),
        visibility=visibility,
        visibility_sigma=visibility * sigma(-1.0 / a0, da1, da2),
        envelope_center_m=envelope_center,
        envelope_fwhm_m=envelope_fwhm,
        phase_rad=_wrap_phase(math.atan2(-a2, a1)),
        baseline_hz=a0 * rate_scale,
        reduced_residual=ssr / dof if use_poisson else math.sqrt(ssr / dof),
        converged=solution.converged,
        iterations=solution.iterations,
        envelope_resolved=resolved,
        envelope_center_sigma_m=envelope_center_sigma,
        envelope_fwhm_sigma_m=envelope_fwhm_sigma,
        phase_sigma_rad=sigma(0, da2, -da1),
        baseline_sigma_hz=sigma(1.0) * rate_scale,
        channel=channel,
        source=source,
        phase_reference_m=middle,
    )
