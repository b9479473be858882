"""Photon counting: calibration, Poisson sampling, coincidence accidentals.

Model rates come out of the expectation engine in arbitrary |K|^2 units;
calibration pins the fringe-baseline singles rates of both detectors to
configured counts/s and everything else scales along.  Sampling is
counter-based: each scan point draws from its own Philox stream keyed by
(seed, point index), so results are bit-identical no matter how points are
scheduled.  A scan reuses one Philox generator and resets its key at each
point, which gives the same draws as a fresh stream per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .expectation import RatePrediction

_U64 = 0xFFFFFFFFFFFFFFFF
_MAX_MEAN = float(2**62)


@dataclass(frozen=True)
class CountingConfig:
    """Detector calibration rates, coincidence window, dwell time, RNG seed.

    ``baseline_a``/``baseline_b`` hold the model-unit fringe baselines once
    :func:`calibrate` has run; sampling requires them.
    """

    rate_a_cal: float = 42_000.0
    rate_b_cal: float = 110_000.0
    window: float = 2e-9
    dwell: float = 0.5
    seed: int = 20260810
    baseline_a: float | None = None
    baseline_b: float | None = None

    def __post_init__(self) -> None:
        if self.rate_a_cal <= 0 or self.rate_b_cal <= 0:
            raise ValueError("calibration rates must be positive")
        if self.window <= 0 or self.dwell <= 0:
            raise ValueError("window and dwell must be positive")

    @property
    def calibrated(self) -> bool:
        return self.baseline_a is not None and self.baseline_b is not None

    def detected_rates(self, rates: RatePrediction) -> tuple[float, float, float]:
        """Counts/s at detector A, detector B, and true coincidences for one point."""
        r_a, r_b, r_ab = self.detected(_column(rates))[:, 0].tolist()
        return r_a, r_b, r_ab

    def detected(self, rates: np.ndarray) -> np.ndarray:
        """Counts/s rows (detector A, detector B, true coincidences) for model
        rate rows (p_a, p_b, p_ab) of shape (3, n).

        Coincidences share detector A's scale: every detected signal photon
        belongs to a pair whose idler feeds the detected-idler pool, so the
        coincidence baseline is the A rate reduced by the model's own
        coincidence-to-singles ratio.  A zero model baseline (zero gain)
        degenerates to flat calibrated singles with no true coincidences.
        """
        if not self.calibrated:
            raise ValueError("counting config not calibrated; call calibrate() first")
        assert self.baseline_a is not None and self.baseline_b is not None
        out = np.empty_like(rates, dtype=float)
        if self.baseline_a > 0:
            out[0] = self.rate_a_cal * rates[0] / self.baseline_a
            out[2] = self.rate_a_cal * rates[2] / self.baseline_a
        else:
            out[0], out[2] = self.rate_a_cal, 0.0
        if self.baseline_b > 0:
            out[1] = self.rate_b_cal * rates[1] / self.baseline_b
        else:
            out[1] = self.rate_b_cal
        return out


def _column(rates: RatePrediction) -> np.ndarray:
    """One point's rates as a (3, 1) column."""
    return np.array([[rates.p_a], [rates.p_b], [rates.p_ab]])


def calibrate(cc: CountingConfig, baseline: RatePrediction) -> CountingConfig:
    """Record the model-unit fringe baselines the calibration rates map to."""
    return replace(cc, baseline_a=baseline.p_a, baseline_b=baseline.p_b)


@dataclass(frozen=True)
class CountSample:
    """Counts collected at one scan point; coincidences include accidentals."""

    counts_a: int
    counts_b: int
    coincidences: int
    accidentals_expected: float


def accidental_rate(r_a: float, r_b: float, window: float) -> float:
    """Uncorrelated coincidence rate r_a * r_b * window."""
    if r_a < 0 or r_b < 0 or window < 0:
        raise ValueError("rates and window must be non-negative")
    return r_a * r_b * window


def double_pair_probability(pair_rate: float, window: float) -> float:
    """P(two or more pairs in one window) for Poisson pair generation.

    With mu = pair_rate * window this is 1 - exp(-mu)(1 + mu).
    """
    if pair_rate < 0 or window < 0:
        raise ValueError("pair rate and window must be non-negative")
    mu = pair_rate * window
    return -math.expm1(-mu) - mu * math.exp(-mu)


def point_rng(seed: int, point_index: int) -> np.random.Generator:
    """Independent counter-based stream for one scan point."""
    if point_index < 0:
        raise ValueError("point_index must be >= 0")
    key = np.array([seed & _U64, point_index & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def count_means(detected: np.ndarray, cc: CountingConfig) -> np.ndarray:
    """Expected counts per dwell, rows (A, B, true coincidences, accidentals).

    ``detected`` holds the (3, n) counts/s rows of :meth:`CountingConfig.detected`;
    accidentals follow :func:`accidental_rate`.
    """
    r_a, r_b, _ = detected
    if np.any(r_a < 0) or np.any(r_b < 0):
        raise ValueError("rates and window must be non-negative")
    return np.vstack([detected * cc.dwell, r_a * r_b * cc.window * cc.dwell])


def sample_scan(means: np.ndarray, seed: int, first_index: int = 0) -> np.ndarray:
    """Counts rows (A, B, coincidences including accidentals) for (4, n) means.

    Detector counts, true coincidences and accidentals are independent
    Poisson variates, drawn in that order from point k's stream
    ``point_rng(seed, first_index + k)``.  One generator serves the whole
    scan: before each point its state is reset to that of a fresh stream
    with the point's key.
    """
    over = np.flatnonzero(np.any(means > _MAX_MEAN, axis=0))
    if len(over):
        raise OverflowError(
            f"expected counts {max(means[:, over[0]].tolist()):.3g} exceed representable integers"
        )
    rng = point_rng(seed, first_index)
    bits = rng.bit_generator
    fresh = bits.state
    key = fresh["state"]["key"]
    poisson = rng.poisson
    counts = []
    for index, (m_a, m_b, m_true, m_acc) in enumerate(zip(*means.tolist()), first_index):
        key[1] = index & _U64
        bits.state = fresh
        counts.append((poisson(m_a), poisson(m_b), poisson(m_true) + poisson(m_acc)))
    return np.array(counts, dtype=np.int64).reshape(-1, 3).T


def sample_counts(rates: RatePrediction, cc: CountingConfig, point_index: int) -> CountSample:
    """Draw one scan point's counts: :func:`sample_scan` on a single point.

    Deterministic in (seed, point_index) regardless of evaluation order.
    """
    means = count_means(cc.detected(_column(rates)), cc)
    counts_a, counts_b, coincidences = sample_scan(means, cc.seed, point_index)[:, 0].tolist()
    return CountSample(
        counts_a=counts_a,
        counts_b=counts_b,
        coincidences=coincidences,
        accidentals_expected=float(means[3, 0]),
    )
