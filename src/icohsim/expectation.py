"""Vacuum expectation values for the two-crystal interferometer.

Signal singles <a_s^+ a_s>, idler singles, and coincidences
<a_s^+ a_i^+ a_i a_s>, exact on the vacuum for the channels of ``operators``
as row norms and dot products of their (2, 4) coefficient arrays, in units
of |K|^2; calibration to count rates is the counting module's job.
A batch of m delay settings is a pair of (m,) delay arrays, and its rates
are a (3, m) array with rows (p_a, p_b, p_ab).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

# Imported by name so a tracer can wrap them in this namespace (benchmarks/tracing.py).
from .operators import IO1, SO1, SO2, Channel
from .operators import attenuate, beam_splitter, free_mode, phase_delay, spdc

if TYPE_CHECKING:  # pragma: no cover
    from .config import ExperimentConfig

RATE_NAMES = ("p_a", "p_b", "p_ab")
# Dot product over the last axis, batched over the leading ones.
_DOT = "...j,...j->..."
# Rates below zero by more than roundoff are an error.
RATE_FLOOR = -1e-15


def check_rates(rates: np.ndarray) -> None:
    """Raise ValueError naming the first bad rate, in column order, of (3, m) rate rows."""
    bad = np.argwhere(~(np.isfinite(rates) & (rates >= RATE_FLOOR)).T)
    if len(bad):
        column, row = bad[0]
        value = rates[row, column].item()
        raise ValueError(f"rate {RATE_NAMES[row]}={value!r} must be finite and non-negative")


def singles_rate(x: Channel) -> np.ndarray:
    """<0| x^+ x |0>: the squared norm of x's creation row, per batch entry."""
    return np.sum(np.abs(x[..., 1, :]) ** 2, axis=-1)


def coincidence_rate(s: Channel, i: Channel) -> np.ndarray:
    """|| i s |0> ||^2 by exact contraction, per batch entry.

    s|0> is the photon in s's creation row.  i leaves a vacuum part (its
    annihilation row dotted into it: the usual coincidence rate) and the
    two-photon part M = outer(i's creation row, s's creation row), whose
    norm^2 ||M + M^T||^2 / 2 (the O(K^4) double-pair contribution) equals
    ||i||^2 ||s||^2 + |sum_j i_j conj(s_j)|^2 on those rows, so M is never formed.
    """
    s_row, i_row = s[..., 1, :], i[..., 1, :]
    vacuum_amp = np.einsum(_DOT, i[..., 0, :], s_row)
    overlap = np.einsum(_DOT, i_row, s_row.conj())
    norms = np.einsum(_DOT, i_row, i_row.conj()).real * np.einsum(_DOT, s_row, s_row.conj()).real
    return np.abs(vacuum_amp) ** 2 + norms + np.abs(overlap) ** 2


def setup_operators(
    config: "ExperimentConfig",
    delta_x_p: float | np.ndarray = 0.0,
    delta_x_s: float | np.ndarray = 0.0,
) -> tuple[Channel, Channel]:
    """Heisenberg channels for scalar or (m,) pump and signal delays (meters):
    the detected signal port (m, 2, 4), and the idler after both crystals at
    the pump delays' batch size, (m, 2, 4) or (1, 2, 4) for a scalar.

    SPDC in crystal 1, the idler link (amplitude eta), SPDC in crystal 2 with
    the pump phase on its gain, the signal delay on arm 1, and the output
    splitter.  Crystal 1 and the link do not depend on the delays and are
    built once for the whole batch.
    """
    delta_x_p = np.asarray(delta_x_p, dtype=float).reshape(-1)
    delta_x_s = np.asarray(delta_x_s, dtype=float).reshape(-1)
    pump_phase = 2.0 * math.pi * delta_x_p / config.pump_wavelength
    gain2 = complex(config.gain2) * np.exp(1j * pump_phase)
    s1, i1 = spdc(free_mode(SO1), free_mode(IO1), complex(config.gain1))
    link = attenuate(i1, config.eta)
    s2, i2 = spdc(free_mode(SO2), link, gain2)
    s1_delayed = phase_delay(s1, delta_x_s, config.signal_filter_center)
    out_a, _camera = beam_splitter(s2, s1_delayed, config.splitter_ratio)
    return out_a, i2


def setup_rates(
    config: "ExperimentConfig",
    delta_x_p: float | np.ndarray = 0.0,
    delta_x_s: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Monochromatic rates of m delay settings in one pass, in |K|^2 units.

    Returns shape (3, m), rows (p_a, p_b, p_ab).  Each column equals the
    one-setting evaluation exactly: every operation acts per batch entry, and
    the idler's rows broadcast on assignment.
    """
    out_a, i2 = setup_operators(config, delta_x_p, delta_x_s)
    rates = np.empty((3, len(out_a)))
    rates[0], rates[1], rates[2] = singles_rate(out_a), singles_rate(i2), coincidence_rate(out_a, i2)
    return rates
