"""Photon counting: calibration, Poisson sampling, coincidence accidentals.

Model rates come out of the expectation engine in arbitrary |K|^2 units;
calibration pins the fringe-baseline singles rates of both detectors to
configured counts/s and everything else scales along.  A scan's counts are
drawn in one vectorized call from one Philox stream keyed by the seed, so
identical means and seed give identical counts.  Poisson draws consume a
variable number of uniforms, so a change in one mean can shift every later
draw of the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF
_MAX_MEAN = float(2**62)


@dataclass(frozen=True)
class CountingConfig:
    """Detector calibration rates, coincidence window, RNG seed.

    ``baseline_a``/``baseline_b`` hold the model-unit fringe baselines once
    :func:`calibrate` has run; sampling requires them.
    """

    rate_a_cal: float = 42_000.0
    rate_b_cal: float = 110_000.0
    window: float = 2e-9
    seed: int = 20260810
    baseline_a: float | None = None
    baseline_b: float | None = None

    def __post_init__(self) -> None:
        if self.rate_a_cal <= 0 or self.rate_b_cal <= 0:
            raise ValueError("calibration rates must be positive")
        if self.window <= 0:
            raise ValueError("window must be positive")

    @property
    def calibrated(self) -> bool:
        return self.baseline_a is not None and self.baseline_b is not None

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


def calibrate(cc: CountingConfig, baseline: np.ndarray) -> CountingConfig:
    """Record the model-unit fringe baselines (p_a, p_b, p_ab) the calibration rates map to."""
    return replace(cc, baseline_a=float(baseline[0]), baseline_b=float(baseline[1]))


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


def count_means(detected: np.ndarray, cc: CountingConfig, dwell: float) -> np.ndarray:
    """Expected counts per dwell (seconds), rows (A, B, true coincidences, accidentals).

    ``detected`` holds the (3, n) counts/s rows of :meth:`CountingConfig.detected`;
    accidentals follow :func:`accidental_rate`.  A mean beyond the float range
    comes out inf, which :func:`sample_scan` rejects.
    """
    r_a, r_b, _ = detected
    if np.any(r_a < 0) or np.any(r_b < 0):
        raise ValueError("rates and window must be non-negative")
    with np.errstate(over="ignore"):
        return np.vstack([detected * dwell, r_a * r_b * cc.window * dwell])


def sample_scan(means: np.ndarray, seed: int) -> np.ndarray:
    """Counts rows (A, B, coincidences including accidentals) for (4, n) means.

    Detector counts, true coincidences and accidentals are independent
    Poisson variates, drawn by one ``poisson`` call on the whole (4, n)
    array (row by row, each row in point order) from one Philox stream
    keyed by the seed.
    """
    over = np.flatnonzero(np.any(means > _MAX_MEAN, axis=0))
    if len(over):
        raise OverflowError(
            f"expected counts {max(means[:, over[0]].tolist()):.3g} exceed representable integers"
        )
    rng = np.random.Generator(np.random.Philox(key=seed & _U64))
    draws = rng.poisson(means)
    draws[2] += draws[3]
    return draws[:3]
