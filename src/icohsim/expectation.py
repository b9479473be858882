"""Vacuum expectation values for the two-crystal interferometer.

Signal singles <a_s^+ a_s>, idler singles, and coincidences
<a_s^+ a_i^+ a_i a_s>, exact on the vacuum for the channels of ``operators``,
in units of |K|^2; calibration to count rates is the counting module's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

# Imported by name so a tracer can wrap them in this namespace (benchmarks/tracing.py).
from .operators import IO1, SO1, SO2, BeamSplitterParams, Channel, DelaySetting
from .operators import attenuate, beam_splitter, free_mode, phase_delay, spdc

if TYPE_CHECKING:  # pragma: no cover
    from .config import ExperimentConfig

# Rates below zero by more than roundoff are an error.
RATE_FLOOR = -1e-15


@dataclass(frozen=True)
class RatePrediction:
    """Signal singles, idler singles, and coincidence rate for one setting."""

    p_a: float
    p_b: float
    p_ab: float

    def __post_init__(self) -> None:
        for name in ("p_a", "p_b", "p_ab"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < RATE_FLOOR:
                raise ValueError(f"rate {name}={v!r} must be finite and non-negative")


def singles_rate(x: Channel) -> np.ndarray:
    """<0| x^+ x |0>: the squared norm of x's creation row, per batch entry."""
    return np.sum(np.abs(x[..., 1, :]) ** 2, axis=-1)


def coincidence_rate(s: Channel, i: Channel) -> np.ndarray:
    """|| i s |0> ||^2 by exact contraction, per batch entry.

    s|0> is the photon in s's creation row.  i leaves a vacuum part (its
    annihilation row dotted into it: the usual coincidence rate) and the
    two-photon part M = outer(i's creation row, s's creation row), of norm^2
    ||M + M^T||^2 / 2 (the O(K^4) double-pair contribution).
    """
    vacuum_amp = np.sum(i[..., 0, :] * s[..., 1, :], axis=-1)
    pairs = i[..., 1, :, None] * s[..., 1, None, :]
    symmetric = (pairs + np.swapaxes(pairs, -1, -2)).reshape(pairs.shape[:-2] + (-1,))
    return np.abs(vacuum_amp) ** 2 + 0.5 * np.sum(np.abs(symmetric) ** 2, axis=-1)


def setup_operators(
    config: "ExperimentConfig", delays: Sequence[DelaySetting]
) -> tuple[Channel, Channel]:
    """Heisenberg channels (detected signal port, idler after both crystals),
    each (m, 2, 4) for the m delay settings.

    SPDC in crystal 1, the idler link (amplitude eta), SPDC in crystal 2 with
    the pump phase on its gain, the signal delay on arm 1, and the output
    splitter.  Crystal 1 and the link do not depend on the delays and are
    built once for the whole batch.
    """
    pump_phase = np.array([d.pump_phase(config.pump_wavelength) for d in delays])
    delta_x_s = np.array([d.delta_x_s for d in delays])
    gain2 = complex(config.gain2) * np.exp(1j * pump_phase)
    s1, i1 = spdc(free_mode(SO1), free_mode(IO1), complex(config.gain1))
    link = attenuate(i1, config.eta)
    s2, i2 = spdc(free_mode(SO2), link, gain2)
    s1_delayed = phase_delay(s1, delta_x_s, config.signal_filter.center_wavelength)
    bs = BeamSplitterParams.from_transmitted_fraction(config.splitter_ratio)
    out_a, _camera = beam_splitter(s2, s1_delayed, bs)
    return out_a, i2


def setup_rates(config: "ExperimentConfig", delays: Sequence[DelaySetting]) -> np.ndarray:
    """Monochromatic rates of m delay settings in one pass, in |K|^2 units.

    Returns shape (3, m), rows (p_a, p_b, p_ab).  Each column equals the
    one-setting evaluation exactly: every operation acts per batch entry.
    """
    out_a, i2 = setup_operators(config, delays)
    return np.array([singles_rate(out_a), singles_rate(i2), coincidence_rate(out_a, i2)])


def compose_setup(config: "ExperimentConfig", delays: DelaySetting) -> RatePrediction:
    """Monochromatic rates of one delay setting: :func:`setup_rates` on a batch of one."""
    return RatePrediction(*setup_rates(config, [delays])[:, 0].tolist())


def phase_averaged_rates(
    config: "ExperimentConfig", delays: DelaySetting = DelaySetting()
) -> RatePrediction:
    """Fringe baseline: rates averaged over the relative pump/signal phase.

    The rates are sinusoidal in (pump phase - signal phase), so the mean with
    the prediction half a pump wavelength away removes the fringe exactly.
    """
    half = DelaySetting(delays.delta_x_p + config.pump_wavelength / 2.0, delays.delta_x_s)
    here, flipped = setup_rates(config, [delays, half]).T
    return RatePrediction(*((here + flipped) / 2.0).tolist())
