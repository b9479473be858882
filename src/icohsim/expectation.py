"""Vacuum expectation values for the two-crystal interferometer.

Signal singles <a_s^+ a_s>, idler singles, and coincidences
<a_s^+ a_i^+ a_i a_s>, exact on the vacuum for the channels of ``operators``,
in units of |K|^2; calibration to count rates is the counting module's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

# Imported by name so a tracer can wrap them in this namespace (benchmarks/tracing.py).
from .operators import IO1, SO1, SO2, BeamSplitterParams, Channel, DelaySetting
from .operators import attenuate, beam_splitter, free_mode, phase_delay, spdc

if TYPE_CHECKING:  # pragma: no cover
    from .config import ExperimentConfig


@dataclass(frozen=True)
class RatePrediction:
    """Signal singles, idler singles, and coincidence rate for one setting."""

    p_a: float
    p_b: float
    p_ab: float

    def __post_init__(self) -> None:
        for name in ("p_a", "p_b", "p_ab"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < -1e-15:
                raise ValueError(f"rate {name}={v!r} must be finite and non-negative")


def singles_rate(x: Channel) -> float:
    """<0| x^+ x |0>: the squared norm of x's creation row."""
    return float(np.sum(np.abs(x[1]) ** 2))


def coincidence_rate(s: Channel, i: Channel) -> float:
    """|| i s |0> ||^2 by exact contraction.

    s|0> is the photon in s's creation row.  i leaves a vacuum part (its
    annihilation row dotted into it: the usual coincidence rate) and the
    two-photon part M = outer(i's creation row, s's creation row), of norm^2
    ||M + M^T||^2 / 2 (the O(K^4) double-pair contribution).
    """
    vacuum_amp = np.sum(i[0] * s[1])
    pairs = np.outer(i[1], s[1])
    return float(abs(vacuum_amp) ** 2 + 0.5 * np.sum(np.abs(pairs + pairs.T) ** 2))


def setup_operators(config: "ExperimentConfig", delays: DelaySetting) -> tuple[Channel, Channel]:
    """Heisenberg channels (detected signal port, idler after both crystals).

    SPDC in crystal 1, the idler link (amplitude eta), SPDC in crystal 2 with
    the pump phase on its gain, the signal delay on arm 1, and the output
    splitter; exact, except that ``truncation_degree = 0`` zeroes the gains.
    """
    pump_phase = delays.pump_phase(config.pump_wavelength)
    gain1 = complex(config.gain1)
    gain2 = complex(config.gain2) * complex(math.cos(pump_phase), math.sin(pump_phase))
    if config.truncation_degree == 0:
        gain1 = gain2 = 0j
    s1, i1 = spdc(free_mode(SO1), free_mode(IO1), gain1)
    link = attenuate(i1, config.eta)
    s2, i2 = spdc(free_mode(SO2), link, gain2)
    s1_delayed = phase_delay(s1, delays.delta_x_s, config.signal_filter.center_wavelength)
    bs = BeamSplitterParams.from_transmitted_fraction(config.splitter_ratio)
    out_a, _camera = beam_splitter(s2, s1_delayed, bs)
    return out_a, i2


def compose_setup(config: "ExperimentConfig", delays: DelaySetting) -> RatePrediction:
    """Monochromatic rate prediction for one delay setting, in |K|^2 units."""
    out_a, i2 = setup_operators(config, delays)
    return RatePrediction(singles_rate(out_a), singles_rate(i2), coincidence_rate(out_a, i2))


def phase_averaged_rates(
    config: "ExperimentConfig", delays: DelaySetting = DelaySetting()
) -> RatePrediction:
    """Fringe baseline: rates averaged over the relative pump/signal phase.

    The rates are sinusoidal in (pump phase - signal phase), so the mean with
    the prediction half a pump wavelength away removes the fringe exactly.
    """
    half = DelaySetting(delays.delta_x_p + config.pump_wavelength / 2.0, delays.delta_x_s)
    here, flipped = compose_setup(config, delays), compose_setup(config, half)
    return RatePrediction(
        (here.p_a + flipped.p_a) / 2.0,
        (here.p_b + flipped.p_b) / 2.0,
        (here.p_ab + flipped.p_ab) / 2.0,
    )
