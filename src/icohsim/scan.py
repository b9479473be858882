"""Delay scans and fringe fitting.

A scan walks one delay axis (signal or pump), records envelope-modulated
rate predictions plus Poisson-sampled counts, and the fitter recovers
period, visibility, envelope, phase and baseline from either series with
the separable model

    R(t) = a0 + exp(b1 t + b2 t^2) * (a1 cos(k t) + a2 sin(k t)),

where t = (x - m) / h runs from -1 to 1 across the scan, m being its middle
delay and h its half span: k = 2 pi h / L, and the phase is that at m.  The
model is linear in the amplitudes (a0, a1, a2), so every Gauss-Newton step
solves them by weighted linear least squares and iterates on k (and the
envelope exponents b1, b2) alone: variable projection (Golub & Pereyra, SIAM
J. Numer. Anal. 10, 413, 1973; Kaufman, BIT 15, 49, 1975).  The fit starts
from the peak of a periodogram zero-padded to 4 times the record's length
(at least 256 bins) with the envelope pinned flat (b1 = b2 = 0) and frees it
only when a score test says the data resolve it.

Every least-squares system of the fit is solved from its Gram matrix A^T A.
The amplitudes' 3x3 Gram matrix G is inverted in closed form, from its
cofactors in Python floats, for each linearization and each trial step.
The Gauss-Newton step in the nonlinear parameters comes from that inverse
by the Schur complement of G in the Gram matrix of the joint (a, p)
Jacobian: a scalar for the pinned fit and a 3x3 matrix, inverted by the
same closed form, for the free fit.  The envelope's score test is the free
fit's first such step, taken from the pinned fit.  The covariance is the
inverse of the joint Gram matrix, put together from the blocks of a Schur
step (G^-1, E = G^-1 U and S^-1): for a pinned fit those of its score test,
for a free fit those of one step at its returned linearization.  No fit
builds the joint Jacobian as one matrix.  Where a Gram matrix is singular, a
column is so short beside the longest one that numpy's lstsq rank cut
(COLUMN_FLOOR, its default rcond) would drop a singular value, or the
columns' variance inflation factors sum to INFLATION_LIMIT or more, the data
do not determine the fringe, and the fit is refused with NoFringeError; for
the step this rule is judged on the joint Gram matrix, from its blocks.
Each Gauss-Newton step is tried whole, then halved until chi^2 falls, but
never below PARAM_TOLERANCE.

Counts fits reach the Poisson maximum-likelihood point by Fisher-scoring
steps, then, from the first step that explains less than OBSERVED_DROP of
chi^2, by observed-information steps (McCullagh & Nelder, Generalized Linear
Models, 1989).  Every uncertainty is taken from the inverse of the expected
(Fisher) information at the returned fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ExperimentConfig
from .counting import MAX_MEAN, count_means, detected, sample_scan
from .expectation import check_rates
from .spectral import compile_model

# Row of each channel in a record's rates and counts: detector A, detector B, coincidences.
CHANNEL_ROWS = {"singles": 0, "coincidence": 2, "idler": 1}
CHANNELS = tuple(CHANNEL_ROWS)
SOURCES = ("counts", "rates")

# Gauss-Newton steps allowed to each of the pinned and the free fit.
MAX_ITERATIONS = 200
PARAM_TOLERANCE = 1e-10
# Halvings of a Gauss-Newton step before it is given up as not improving.
MAX_HALVINGS = 30
# Least-squares systems are solved from their Gram matrix A^T A: the 3x3 one
# of the amplitudes, and the Schur complement of the step, in closed form
# (_inverse).  The fit is refused with NoFringeError (_require_determined)
# when:
# - the Gram matrix is singular: a closed-form block has a zero or non-finite
#   determinant;
# - a column's norm is at or below COLUMN_FLOOR * max(M, N) times the largest
#   column norm of the M x N matrix.  COLUMN_FLOOR is numpy's lstsq default
#   rcond: it cuts singular values below COLUMN_FLOOR * max(M, N) * sigma_max,
#   and sigma_min <= |a_j| while sigma_max >= max |a_i|, so such a column
#   always costs lstsq a singular value (a squared-norm ratio of 7.9e-27 at
#   401 rows, 7.9e-25 at 4001);
# - the columns' variance inflation factors (each the inverse of the share of
#   a column's squared norm outside the span of the others) sum to
#   INFLATION_LIMIT or more.  That sum bounds the condition number of the
#   column-normalized Gram matrix; for a solve of that column-scaled system it
#   gives an error estimate of 6 * INFLATION_LIMIT * 2.2e-16 = 1.3e-11.  The
#   cofactor formulas scale consistently per column, so their error is that of
#   the column-scaled system.  Measured in units of each column's scale
#   against lstsq of the column-scaled matrix, on 6000 random full-rank
#   matrices of 8 to 4001 rows with column scales 1e-3 to 1e3, weighted to
#   the extremes: at most 1.9e-14 for a 3-column solve, 1.0e-14 for the Schur
#   step and 1.9e-14 relative for its chi^2 drop.  lstsq of the unscaled
#   matrix errs by up to 7.6e-9 on the same matrices, so the tests compare
#   against the column-scaled one.  Fitted values are within 1.7e-6 of their
#   sigma of an lstsq fitter's on 496 campaign- and refit-shaped scans of the
#   benchmark.
COLUMN_FLOOR = float(np.finfo(float).eps)
INFLATION_LIMIT = 1e4
# The envelope is freed when one step into it drops chi^2 by more than this
# (chi^2 with 2 degrees of freedom exceeds 25 with probability 4e-6).
ENVELOPE_THRESHOLD = 25.0
# A counts fit takes Fisher-scoring steps until one step explains less than
# this much chi^2, and observed-information steps from then on.  Fisher
# weights 1/mu are positive and smooth wherever the model is, so its steps
# are safe far from the optimum, but each step leaves the weights one step
# behind the model, and near the optimum that makes convergence linear.
# Observed-information weights y/mu^2 give the Gauss-Newton form of the
# Poisson likelihood's Newton step, which converges faster near the optimum
# but misjudges the curvature where the model still misses the data.  A step
# that explains less than one unit of chi^2 moves no parameter by more than
# its sigma, so from then on y differs from mu by little more than counting
# noise.
OBSERVED_DROP = 1.0
# Largest envelope exponent b1 t + b2 t^2 a fit may reach on the grid or at
# its peak, so the envelope, the visibility and their sigmas stay finite.
MAX_EXPONENT = 100.0
# A pinned envelope's reported FWHM is FWHM_FACTOR * PINNED_SPANS scan spans,
# about 117.7, as a lower bound.  Nothing in the data sets this bound.
PINNED_SPANS = 50.0
FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))
# Largest relative deviation of a delay step from the median step on a uniform grid.
GRID_TOLERANCE = 1e-6


class GridError(ValueError):
    """A delay grid not strictly increasing in uniform steps; ``row`` is its first bad delay's index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class NoFringeError(RuntimeError):
    """Raised when no significant fringe is found in a record, or the data do not determine one."""


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty array without nan, from one np.partition.

    The middle value, or for an even count the two middle values summed and
    halved, as np.median takes them; the two agree bit for bit.
    """
    half = len(values) // 2
    if len(values) % 2:
        return float(np.partition(values, half)[half])
    low, high = np.partition(values, (half - 1, half))[half - 1 : half + 1].tolist()
    return (low + high) / 2.0


@dataclass
class ScanRecord:
    """One delay scan on a uniform grid: delays, calibrated rates, sampled counts.

    ``rates`` holds counts/s rows (detector A, detector B, true
    coincidences) and ``counts`` the sampled count rows (detector A,
    detector B, coincidences including accidentals), each of shape (3, n).
    A record built without counts, a noiseless one, holds zero counts, as its
    CSV does.  ``step`` is the median delay step (nan below two delays).
    The delays are strictly increasing, and no step is off the median step
    by more than GRID_TOLERANCE of it; a grid that breaks either rule raises
    GridError at its first bad delay.  The scan axis and the dwell come from
    the config.
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
        self.step = _median(dx) if len(dx) else math.nan
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
    their names: metres, radians and counts/s.  ``phase_rad`` is the
    fringe's phase at the delay ``phase_reference_m``, the scan's middle.
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
    envelope_delta_chi2: float
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


# What a user can lower when a scan's rates or counts leave the number range.
_LOWER_RATES = "; lower detectors.rate_a_hz, detectors.rate_b_hz or scan.dwell_s"


def run_scan(
    config: ExperimentConfig,
    grid: np.ndarray | None = None,
    sample: bool = True,
) -> ScanRecord:
    """Evaluate the scan along ``config.axis``: calibrated envelope-modulated rates, then counts.

    The config is compiled once into its closed-form fringe model, which
    gives the whole grid's rates in one pass and the calibration baseline;
    the grid is calibrated as one array and sampled by one
    :func:`~icohsim.counting.sample_scan` call.  The non-scanned delay axis
    is held at zero.  The grid is ``grid`` if given, else the config's
    (scan_grid).  A grid that float64 cannot hold uniform, a step too fine
    for the size of its delays, raises a ConfigError naming scan.step_nm;
    calibrated rates beyond the float range, or when sampling an expected
    count above :data:`~icohsim.counting.MAX_MEAN`, raise one naming the
    keys that set them.
    """
    delays = scan_grid(config) if grid is None else np.asarray(grid, dtype=float)

    model = compile_model(config)
    rates = model.rates(delta_x_p=delays) if config.axis == "pump" else model.rates(delta_x_s=delays)
    check_rates(rates)
    with np.errstate(over="ignore"):
        calibrated = detected(rates, model.baseline, config.rate_a_cal, config.rate_b_cal)
    if not np.all(np.isfinite(calibrated)):
        raise ConfigError(f"calibrated rates exceed the float range{_LOWER_RATES}")
    counts = None
    if sample:
        means = count_means(calibrated, config.window, config.dwell)
        over = np.flatnonzero(np.any(means > MAX_MEAN, axis=0))
        if len(over):
            raise ConfigError(
                f"expected counts {max(means[:, over[0]].tolist()):.3g} "
                f"exceed representable integers{_LOWER_RATES}"
            )
        counts = sample_scan(means, config.seed)
    try:
        return ScanRecord(delays, calibrated, counts)
    except GridError as exc:
        raise ConfigError(f"scan.step_nm is too fine for float64 delays on this scan: {exc}") from None


def estimate_period(y: np.ndarray, step: float) -> float:
    """Seed period from the zero-padded periodogram peak of the series ``y``, ``step`` apart.

    The series is zero-padded to the power of two at or above 4 times its
    length, and at least 256 bins.  A bin is then at most a quarter of the
    record's frequency resolution 1 / span, so the peak bin is within an
    eighth of it of the true peak, well inside the fit's main lobe of
    half-width 1 / span; a parabola through the peak bin and its neighbours
    refines it.  Raises NoFringeError when no peak stands out of the
    background (flat data), when the peak sits in the last bin, at a period
    of 2 grid steps (there the model's cos and sin columns coincide on the
    grid), or when the seed is no finite positive length (a period beyond the
    float range).  fit_fringe passes the record's median step: a record's
    grid is uniform (see ScanRecord), so that is the step of the whole
    series.
    """
    if len(y) < 8:
        raise NoFringeError("record too short for period estimation")

    # A power of two scales every sum and product exactly, so the seed does not
    # move, and with the largest magnitude in [0.5, 1) no square overflows.
    y = np.ldexp(y, -math.frexp(float(np.max(np.abs(y))))[1])
    centered = y - y.mean()
    if not np.any(np.abs(centered) > 0):
        raise NoFringeError("no fringe detected: record is flat")

    nfft = 1 << max(8, int(math.ceil(math.log2(4 * len(y)))))
    power = np.abs(np.fft.rfft(centered, nfft)) ** 2

    power[0] = 0.0
    peak = int(np.argmax(power))
    background = _median(power[1:])
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
    # In units of step's power of two, so no product over- or underflows; scaling
    # by a power of two commutes with rounding, so the seed is what the same
    # arithmetic in metres gives wherever that stays in range.
    mantissa, exponent = math.frexp(step)
    bin_width = 1.0 / (nfft * mantissa)
    frequency = (peak + shift) * bin_width
    try:
        period = math.ldexp(1.0 / frequency, exponent)
    except OverflowError:
        period = math.inf
    if not (math.isfinite(period) and period > 0):
        raise NoFringeError(f"no fringe detected: period seed {period:.6g} m is not a finite positive length")
    return period


class _Solution(NamedTuple):
    """A Gauss-Newton fit at nonlinear parameters p = [k] or [k, b1, b2].

    ``basis`` holds the model's basis rows at p and ``sqrt_w`` the roots of
    the weights at the returned fit: for counts, the Poisson (Fisher) weights
    of the model there.  ``weighted`` holds the basis rows times ``sqrt_w``,
    and ``extended``, as rows, the weighted Jacobian columns of p, then the
    weighted residual.  ``gram`` and ``inverse`` are _solve's Gram matrix of
    the weighted basis rows and its inverse.
    """

    p: list[float]
    a: np.ndarray
    sqrt_w: np.ndarray
    basis: np.ndarray
    weighted: np.ndarray
    extended: np.ndarray
    gram: list[list[float]]
    inverse: list[list[float]]
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


def _inverse(gram: list[list[float]]) -> list[list[float]] | None:
    """Inverse of the leading 1x1 or 3x3 block of a symmetric matrix, from its cofactors.

    The block is as wide as ``gram`` has rows, and only its upper triangle is
    read.  None if its determinant is 0 or not finite.  Scaling row and
    column j by s_j scales every product in cofactor (i, j) and in the
    determinant alike, so entry (i, j) of the inverse scales by
    1 / (s_i s_j) and its rounding depends on the column-scaled matrix alone.
    """
    if len(gram) == 1:
        g = gram[0][0]
        return [[1.0 / g]] if g != 0 and math.isfinite(g) else None
    (g00, g01, g02), (g11, g12), g22 = gram[0][:3], gram[1][1:3], gram[2][2]
    c00, c01, c02 = g11 * g22 - g12 * g12, g02 * g12 - g01 * g22, g01 * g12 - g02 * g11
    c11, c12, c22 = g00 * g22 - g02 * g02, g01 * g02 - g00 * g12, g00 * g11 - g01 * g01
    det = g00 * c00 + g01 * c01 + g02 * c02
    if not (det != 0 and math.isfinite(det)):
        return None
    return [
        [c00 / det, c01 / det, c02 / det],
        [c01 / det, c11 / det, c12 / det],
        [c02 / det, c12 / det, c22 / det],
    ]


def _floor_holds(norms: list[float], rows: int) -> bool:
    """No squared column norm is at or below (COLUMN_FLOOR * rows)^2 times the largest."""
    return min(norms) > (COLUMN_FLOOR * rows) ** 2 * max(norms)


def _require_determined(inflation: float) -> None:
    """Raise NoFringeError unless the variance-inflation sum is positive and below INFLATION_LIMIT.

    Rounding can give a nearly singular Gram matrix an inverse with a huge
    negative trace, so a sum not above 0 is named as inf, as a singular one is.
    """
    if not 0.0 < inflation < INFLATION_LIMIT:
        raise NoFringeError(
            f"no fringe determined: the fit's columns have a variance-inflation sum of "
            f"{inflation if inflation > 0 else math.inf:.6g}, not below {INFLATION_LIMIT:.6g}"
        )


def _solve(
    weighted: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[list[float]], list[list[float]]]:
    """Least squares of target on the rows of the 3 x n matrix ``weighted``.

    Returns the solution, the residual, the rows' Gram matrix G and G^-1.  G
    is inverted in closed form; where the rule at COLUMN_FLOOR and
    INFLATION_LIMIT fails, NoFringeError is raised.
    """
    gram = (weighted @ weighted.T).tolist()
    g0, g1, g2 = gram[0][0], gram[1][1], gram[2][2]
    inverse = _inverse(gram) if _floor_holds([g0, g1, g2], max(weighted.shape)) else None
    inflation = math.inf if inverse is None else g0 * inverse[0][0] + g1 * inverse[1][1] + g2 * inverse[2][2]
    _require_determined(inflation)
    b0, b1, b2 = (weighted @ target).tolist()
    a = np.array([i0 * b0 + i1 * b1 + i2 * b2 for i0, i1, i2 in inverse])
    return a, target - a @ weighted, gram, inverse


def _step(
    weighted: np.ndarray,
    gram: list[list[float]],
    inverse: list[list[float]],
    extended: np.ndarray,
) -> tuple[list[float], float, tuple]:
    """p part of the least-squares solution of the joint matrix [W, D] on r, its chi^2 drop, and its blocks.

    ``weighted`` holds the columns of W as rows, and ``extended`` those of
    [D, r]: the q weighted Jacobian columns D of p, then the residual r.
    ``gram`` and ``inverse`` are W's Gram matrix G and its inverse from
    _solve.  With U = W^T D and E = G^-1 U, the Schur complement of G in the
    Gram matrix of [W, D, r] holds S = D^T D - U^T E beside
    D^T r - E^T W^T r, and S^-1 times the latter is the step.  S is 1x1 or
    3x3, inverted in closed form.  The drop is the squared norm of r's
    projection on [W, D]: r^T W G^-1 W^T r, plus the step's dot product with
    D^T r - E^T W^T r.  The rule at COLUMN_FLOOR and INFLATION_LIMIT is evaluated on the
    joint Gram matrix of [W, D] from these blocks: its diagonal is G's and
    D^T D's, and its inverse's diagonal is that of G^-1 + E S^-1 E^T and of
    S^-1.  The blocks returned are E and S, as rows with G^-1 W^T r and
    D^T r - E^T W^T r as their last column, and S^-1, for _covariance.
    Where S has no closed-form inverse or the rule fails, NoFringeError is
    raised.
    """
    q = len(extended) - 1
    c0, c1, c2 = (weighted @ extended.T).tolist()
    # G^-1 W^T [D, r] by rows: E, then G^-1 W^T r.
    e0, e1, e2 = [[i0 * u0 + i1 * u1 + i2 * u2 for u0, u1, u2 in zip(c0, c1, c2)] for i0, i1, i2 in inverse]
    own = (extended[:q] @ extended.T).tolist()
    # q rows of the Schur complement: S, then D^T r - E^T W^T r.
    schur = [
        [v - (c0[k] * e0[l] + c1[k] * e1[l] + c2[k] * e2[l]) for l, v in enumerate(row)]
        for k, row in enumerate(own)
    ]
    schur_inverse = _inverse(schur)
    g0, g1, g2 = gram[0][0], gram[1][1], gram[2][2]
    norms = [g0, g1, g2] + [own[k][k] for k in range(q)]
    if schur_inverse is None or not _floor_holds(norms, max(extended.shape[1], 3 + q)):
        _require_determined(math.inf)
    inflation = g0 * inverse[0][0] + g1 * inverse[1][1] + g2 * inverse[2][2]
    for k, row in enumerate(schur_inverse):
        inflation += own[k][k] * row[k]
        for l, s in enumerate(row):
            inflation += s * (g0 * e0[k] * e0[l] + g1 * e1[k] * e1[l] + g2 * e2[k] * e2[l])
    _require_determined(inflation)
    rhs = [row[q] for row in schur]
    step = [sum(s * d for s, d in zip(row, rhs)) for row in schur_inverse]
    drop = c0[q] * e0[q] + c1[q] * e1[q] + c2[q] * e2[q]
    blocks = ([e0, e1, e2], schur, schur_inverse)
    return step, drop + sum(s * d for s, d in zip(step, rhs)), blocks


def _covariance(inverse: list[list[float]], blocks: tuple, q: int) -> list[list[float]]:
    """Inverse of the Gram matrix of the joint Jacobian [W, D] over (a0, a1, a2) and the first q columns of D.

    From _step's blocks E and S^-1 and W's Gram inverse G^-1, by the block
    form [[G^-1 + E S^-1 E^T, -E S^-1], [-S^-1 E^T, S^-1]].  Below the
    step's width, q = 1 of 3, E is cut to its first column and S^-1 is 1 / S_00,
    the Schur complement of G for that column alone: _step's rule keeps S_00
    above the column's squared norm over INFLATION_LIMIT.
    """
    e, schur, schur_inverse = blocks
    if q < len(schur):
        schur_inverse = [[1.0 / schur[0][0]]]
    # E S^-1, by rows.
    es = [[sum(row[m] * schur_inverse[m][l] for m in range(q)) for l in range(q)] for row in e]
    top = [
        [g + sum(es[i][l] * e[j][l] for l in range(q)) for j, g in enumerate(row)] + [-v for v in es[i]]
        for i, row in enumerate(inverse)
    ]
    return top + [[-es[i][l] for i in range(3)] + schur_inverse[l][:q] for l in range(q)]


def _envelope_columns(basis: np.ndarray, a: np.ndarray, ts: np.ndarray) -> list[np.ndarray]:
    """Jacobian columns of the envelope exponents (b1, b2), weighted as the basis rows are."""
    osc = a[1:] @ basis[1:]
    return [ts * osc, ts * ts * osc]


def _linearize(p, basis, ts, sqrt_w, target):
    """Weighted basis rows, amplitudes, [D, r] rows and _solve's Gram blocks at p.

    The amplitudes solve the weighted least squares of ``target`` on the
    weighted basis; the rows are the weighted Jacobian columns D of p, then
    the residual r.
    """
    weighted = basis * sqrt_w
    a, residual, gram, inverse = _solve(weighted, target)
    extended = np.empty((len(p) + 1, len(ts)))
    extended[0] = ts * ((a[2], -a[1]) @ weighted[1:])
    if len(p) == 3:
        extended[1], extended[2] = _envelope_columns(weighted, a, ts)
    extended[-1] = residual
    return weighted, a, extended, gram, inverse


def _gauss_newton(p, basis, ts, sqrt_w, target, reweight) -> _Solution:
    """Gauss-Newton on the nonlinear parameters p alone (variable projection).

    ``basis`` is the model's basis at the starting p, and ``sqrt_w`` and
    ``target`` the roots of the starting weights and the weighted data.
    Each step solves the amplitudes by weighted linear least squares at the
    current p, takes the p part of the joint Gauss-Newton step in (a, p) from
    the amplitudes' Gram inverse (_step), halved until the weighted chi^2
    falls, then refreshes the weights from the model.  ``reweight(model,
    observed)`` gives the new roots and target of a counts fit; rates fits
    (None) keep unit weights.

    A counts fit starts with Fisher scoring: Poisson weights 1/mu of the
    model mu, floored at one count.  From the first step that explains less
    than OBSERVED_DROP of chi^2 it takes observed-information steps: weights
    y/mu^2 and the working response of the Poisson likelihood's Newton step
    (see fit_fringe).  Both kinds stop at the same point, where the Poisson
    score sum (y - mu)/max(mu, 1) dmu/dtheta vanishes: the Poisson
    maximum-likelihood fit.  ``iterations`` counts both kinds.  A fit that
    ends on observed weights is solved once more with the Fisher weights of
    its model, so the returned amplitudes, residual and Gram blocks are
    those of the expected information at the returned p.

    Converged once a whole step moves no parameter by more than
    PARAM_TOLERANCE (relative, or absolute below one).  Halving stops, and p
    stays where it is, once a halved trial would move no parameter by more
    than PARAM_TOLERANCE; the weights are then refreshed as after any step.
    The whole step is always tried: the last one of a converging fit is below
    PARAM_TOLERANCE, and skipping it would leave the reported p up to
    PARAM_TOLERANCE short of the optimum, 1e-4 of its sigma on a 4001-point
    scan.
    """
    observed = False
    previous = None
    steps = 0
    while True:
        weighted, a, extended, gram, inverse = _linearize(p, basis, ts, sqrt_w, target)
        theta = a.tolist() + p
        converged = previous is not None and all(
            abs(t - q) / max(abs(q), 1.0) < PARAM_TOLERANCE for t, q in zip(theta, previous)
        )
        if converged or steps == MAX_ITERATIONS:
            if observed:
                sqrt_w, target = reweight(a @ basis, False)
                weighted, a, extended, gram, inverse = _linearize(p, basis, ts, sqrt_w, target)
            return _Solution(p, a, sqrt_w, basis, weighted, extended, gram, inverse, steps, converged)
        previous = theta
        steps += 1
        step, drop, _ = _step(weighted, gram, inverse, extended)
        observed = reweight is not None and (observed or drop < OBSERVED_DROP)
        residual = extended[-1]
        ssr = float(residual @ residual)
        # A nan step gives trials that _basis rejects, whatever size it gives.
        size = max(abs(s) / max(abs(q), 1.0) for s, q in zip(step, p))
        model = None
        for halving in range(MAX_HALVINGS):
            scale = 0.5**halving
            if halving and size * scale <= PARAM_TOLERANCE:
                break
            trial = [q + s * scale for q, s in zip(p, step)]
            trial_basis = _basis(trial, ts)
            if trial_basis is None:
                continue
            trial_a, trial_residual, _, _ = _solve(trial_basis * sqrt_w, target)
            if float(trial_residual @ trial_residual) < ssr:
                p, basis, model = trial, trial_basis, trial_a @ trial_basis
                break
        if reweight is not None:
            sqrt_w, target = reweight(a @ basis if model is None else model, observed)


def _envelope_statistic(pinned: _Solution, ts: np.ndarray, use_poisson: bool) -> tuple[float, tuple]:
    """chi^2 drop of one Gauss-Newton step from the pinned fit into the free envelope, and the step's blocks.

    The step is the free fit's first Schur step (_step): the pinned fit's
    weighted basis and Gram inverse, with the k column, the two envelope
    columns at b1 = b2 = 0 and the residual that the free fit's first
    iteration builds, and the statistic is the chi^2 that step explains.  At
    the pinned optimum the residual is orthogonal to the pinned columns, so
    this is the score test of b1 = b2 = 0: chi^2 with 2 degrees of freedom
    under a flat envelope.  Noiseless rates carry no count variance, so their
    drop is divided by the residual variance left after the step.  The
    blocks are _step's, for the pinned fit's covariance (_covariance).

    Precision, against the exact statistic of the same float columns on 88
    fits each of counts and of noiseless rates (20 campaign-shaped and 48
    refit-shaped scans): a counts statistic is good to 1.1e-13 relative.  A
    rates statistic takes its residual variance as ssr - drop, a difference
    of nearly equal sums, so its relative error grows with its value: at
    most 1.6e-17 times the statistic (2e-15 at 1e3, 5.5e-6 at 1e12).  Above
    about 1e16, where the free model fits the rates to rounding, as on a
    pump-axis campaign scan, no digit of it is significant; only that it is
    far above ENVELOPE_THRESHOLD.
    """
    extended = np.empty((4, len(ts)))
    extended[0], extended[3] = pinned.extended
    extended[1], extended[2] = _envelope_columns(pinned.weighted, pinned.a, ts)
    _, drop, blocks = _step(pinned.weighted, pinned.gram, pinned.inverse, extended)
    if use_poisson:
        return drop, blocks
    rest = float(extended[3] @ extended[3]) - drop
    if rest > 0:
        return drop * (len(ts) - 6) / rest, blocks
    return (math.inf if drop > 0 else 0.0), blocks


def _period_wavenumber(half_span: float, value: float) -> float:
    """2 pi half_span / value: the fit's wavenumber in t of a period, or the period
    of a wavenumber.  Ordered so it cannot overflow where 2 pi half_span does, above
    2.9e307 m; scaling by powers of two is exact, so it is the same float as that
    expression wherever the expression is finite.
    """
    return 8.0 * (math.pi * (0.25 * half_span) / value)


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
    """Fit the separable fringe model, freeing the envelope only when it is resolved.

    ``channel`` picks the record's row (CHANNEL_ROWS) and ``source`` its
    sampled counts or noiseless rates (SOURCES); anything else raises
    ValueError.  The series is picked once, and its periodogram
    (estimate_period) seeds the fit.

    Counts are fitted to the Poisson maximum-likelihood point, by
    Fisher-scoring steps (weights 1/max(mu, 1)) and then observed-information
    steps (weights y/max(mu, 1)^2, y floored at one count; see OBSERVED_DROP);
    noiseless rate fits are unweighted.  The fit starts from the periodogram period
    with the envelope pinned flat.  The envelope is freed when the chi^2 drop
    of one step into it (``envelope_delta_chi2``) exceeds ENVELOPE_THRESHOLD,
    and the free fit is reported when it converges to a peaked envelope
    (b2 < 0) whose peak stays within exp(MAX_EXPONENT) of the mid-scan
    value.  Otherwise the envelope stays pinned: its reported FWHM is a
    lower bound of FWHM_FACTOR * PINNED_SPANS, about 117.7, scan spans, which
    nothing in the data sets, and ``envelope_resolved`` is False.

    A fitted period longer than the scan's span, less than one full fringe
    in the record, is a trend rather than a fringe and raises NoFringeError.
    So does a fit whose columns fail the rule at COLUMN_FLOOR and
    INFLATION_LIMIT: the data do not determine its fringe.

    The visibility is taken at the envelope peak and is not clipped, so it
    may exceed 1 within its uncertainty.  A pinned fit's envelope peak is 1,
    so its visibility is the flat-envelope contrast over the scan; a weak
    envelope curvature that stays pinned biases it low.  The phase is taken
    at the scan's middle delay, ``phase_reference_m``.  Every uncertainty
    comes by the delta method from the covariance of the reported fit: the
    inverse of the expected information there (Poisson weights 1/max(mu, 1)
    for counts; for rates scaled by the residual variance).  ``iterations`` counts the
    Gauss-Newton steps of both fits, of both kinds.  A fit that does
    not converge in MAX_ITERATIONS Gauss-Newton steps is returned at its
    last parameters with ``converged`` False.
    A counts fit needs ``dwell``, the config's seconds per point, to report
    counts/s; without it it raises ValueError.
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
    # From halves of the end delays, which cannot overflow; the same floats otherwise.
    middle = 0.5 * float(x_raw[0]) + 0.5 * float(x_raw[-1])
    half_span = 0.5 * float(x_raw[-1]) - 0.5 * float(x_raw[0])
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

    rule = reweight if use_poisson else None
    sqrt_w, target = reweight(ys, False) if use_poisson else (np.ones_like(ys), ys)
    k_seed = [_period_wavenumber(half_span, period_seed)]
    solution = _gauss_newton(k_seed, _basis(k_seed, ts), ts, sqrt_w, target, rule)
    iterations = solution.iterations
    statistic, blocks = _envelope_statistic(solution, ts, use_poisson)
    if statistic > ENVELOPE_THRESHOLD:
        # A flat envelope leaves the pinned basis and weights as they are.
        flat = [solution.p[0], 0.0, 0.0]
        sqrt_w = solution.sqrt_w
        free = _gauss_newton(flat, solution.basis, ts, sqrt_w, ys * sqrt_w, rule)
        iterations += free.iterations
        beta1, beta2 = float(free.p[1]), float(free.p[2])
        if free.converged and beta2 < 0 and -beta1 * beta1 / (4.0 * beta2) <= MAX_EXPONENT:
            solution = free
            _, _, blocks = _step(free.weighted, free.gram, free.inverse, free.extended)

    a0, a1, a2 = (float(v) for v in solution.a)
    amplitude = math.hypot(a1, a2)
    if not (a0 > 0 and amplitude > 0):
        raise NoFringeError("no fringe detected: fitted baseline or amplitude is not positive")
    k = float(solution.p[0])
    period = _period_wavenumber(half_span, k)
    span = 2.0 * half_span
    if period > span:
        raise NoFringeError(
            f"no fringe detected: fitted period {period:.6g} m is longer than "
            f"the scan's span of {span:.6g} m"
        )
    q = len(solution.p)
    residual = solution.extended[-1]
    ssr = float(residual @ residual)
    dof = len(ts) - 3 - q
    # The inverse of the joint (a, p) Gram matrix, from the blocks of the
    # reported fit's Schur step.
    cov = _covariance(solution.inverse, blocks, q)
    scale = 1.0 if use_poisson else ssr / dof

    def sigma(*gradient: float) -> float:
        """Delta-method sigma from partials in (a0, a1, a2, k, b1, b2) order.

        The partials are scaled by the power of two of the largest before the
        quadratic form, and its root scaled back, so a sigma within the float
        range is not lost to an overflowing square.  A power of two scales
        exactly short of the subnormal range, so a sigma that is finite
        unscaled is the same float.
        """
        n = min(len(gradient), len(cov))
        exponent = math.frexp(max(abs(g) for g in gradient[:n]))[1]
        scaled = [math.ldexp(g, -exponent) for g in gradient[:n]]
        variance = sum(scaled[i] * cov[i][j] * scaled[j] for i in range(n) for j in range(n))
        try:
            return math.ldexp(math.sqrt(max(variance * scale, 0.0)), exponent)
        except OverflowError:
            return math.inf

    # Envelope peak relative to mid-scan: exponent log_peak at t = center.
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

    rate_scale = y_scale / dwell if use_poisson else y_scale
    return FringeFit(
        period_m=period,
        period_sigma_m=sigma(0, 0, 0, period / k),
        visibility=visibility,
        visibility_sigma=visibility * sigma(-1.0 / a0, da1, da2, 0, center, center * center),
        envelope_center_m=envelope_center,
        envelope_fwhm_m=envelope_fwhm,
        phase_rad=_wrap_phase(math.atan2(-a2, a1)),
        baseline_hz=a0 * rate_scale,
        reduced_residual=ssr / dof if use_poisson else math.sqrt(ssr / dof),
        converged=solution.converged,
        iterations=iterations,
        envelope_resolved=resolved,
        envelope_center_sigma_m=envelope_center_sigma,
        envelope_fwhm_sigma_m=envelope_fwhm_sigma,
        phase_sigma_rad=sigma(0, da2, -da1),
        baseline_sigma_hz=sigma(1.0) * rate_scale,
        channel=channel,
        source=source,
        envelope_delta_chi2=statistic,
        phase_reference_m=middle,
    )
