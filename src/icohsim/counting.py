"""Photon counting: calibration, Poisson sampling, coincidence accidentals.

Model rates come out of the expectation engine in arbitrary |K|^2 units;
calibration pins the fringe-baseline singles rates of both detectors, which
the scan passes in as the model's (3,) baseline, to configured counts/s and
everything else scales along.  A scan's counts are drawn in one vectorized
call from one Philox stream keyed by the seed, so identical means and seed
give identical counts.  Poisson draws consume a variable number of uniforms,
so a change in one mean can shift every later draw of the stream.
"""

from __future__ import annotations

import math

import numpy as np

# Largest expected count per point the sampler takes: its int64 draws stay
# representable.  The scan checks its means against it before sampling.
MAX_MEAN = float(2**62)


def detected(rates: np.ndarray, baseline: np.ndarray, rate_a: float, rate_b: float) -> np.ndarray:
    """Counts/s rows (detector A, detector B, true coincidences) for model
    rate rows (p_a, p_b, p_ab) of shape (3, n), calibrated so that the model's
    (3,) fringe baseline (p_a, p_b, p_ab) gives the singles rates ``rate_a``
    and ``rate_b``.

    Coincidences share detector A's scale: every detected signal photon
    belongs to a pair whose idler feeds the detected-idler pool, so the
    coincidence baseline is the A rate reduced by the model's own
    coincidence-to-singles ratio.  A zero model baseline (zero gain)
    degenerates to flat calibrated singles with no true coincidences.
    """
    base_a, base_b, _ = baseline
    out = np.empty_like(rates, dtype=float)
    if base_a > 0:
        out[0] = rate_a * rates[0] / base_a
        out[2] = rate_a * rates[2] / base_a
    else:
        out[0], out[2] = rate_a, 0.0
    if base_b > 0:
        out[1] = rate_b * rates[1] / base_b
    else:
        out[1] = rate_b
    return out


def accidental_rate(r_a: float, r_b: float, window: float) -> float:
    """Uncorrelated coincidence rate r_a * r_b * window."""
    return r_a * r_b * window


def double_pair_probability(pair_rate: float, window: float) -> float:
    """P(two or more pairs in one window) for Poisson pair generation.

    With mu = pair_rate * window this is 1 - exp(-mu)(1 + mu).
    """
    mu = pair_rate * window
    return -math.expm1(-mu) - mu * math.exp(-mu)


def count_means(detected: np.ndarray, window: float, dwell: float) -> np.ndarray:
    """Expected counts per dwell (seconds), rows (A, B, true coincidences, accidentals).

    ``detected`` holds the (3, n) counts/s rows of :func:`detected`;
    accidentals follow :func:`accidental_rate` in the coincidence ``window``.
    A config's rates, window and dwell keep every mean below 1e37, finite;
    the scan checks them against :data:`MAX_MEAN`.
    """
    r_a, r_b, _ = detected
    return np.vstack([detected * dwell, accidental_rate(r_a, r_b, window) * dwell])


def sample_scan(means: np.ndarray, seed: int) -> np.ndarray:
    """Counts rows (A, B, coincidences including accidentals) for (4, n) means.

    Detector counts, true coincidences and accidentals are independent
    Poisson variates, drawn by one ``poisson`` call on the whole (4, n)
    array (row by row, each row in point order) from one Philox stream
    keyed by the seed.  Every mean must lie at or below :data:`MAX_MEAN`.
    """
    # The config keeps seeds below config.SEED_LIMIT, so each is one 64-bit
    # word of the Philox key and no two seeds share a stream.
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.poisson(means)
    draws[2] += draws[3]
    return draws[:3]
