"""Vacuum expectation values for the two-crystal interferometer.

Signal singles <a_s^+ a_s>, idler singles, and coincidences
<a_s^+ a_i^+ a_i a_s>, exact on the vacuum for the channels of ``operators``,
in units of |K|^2; calibration to count rates is the counting module's job.
The chain is composed once per config with the delays as the symbols u_p and
u_s, so each detected row is a few fixed 4-vectors times 1, u_p or u_s.  The
phasors of m delay settings make those rows (4, m) arrays, whose norms and
dot products over the modes are the (3, m) rates, rows (p_a, p_b, p_ab).
"""

from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig

# Imported by name so a tracer can wrap them in this namespace (benchmarks/tracing.py).
from .operators import IO1, MODES, PUMP, SIGNAL, SO1, SO2, Channel
from .operators import adjoint, attenuate, beam_splitter, free_mode, phase_delay, spdc

RATE_NAMES = ("p_a", "p_b", "p_ab")
# Rates below zero by more than roundoff are an error.
RATE_FLOOR = -1e-15


def check_rates(rates: np.ndarray) -> None:
    """Raise ValueError naming the first bad rate, in column order, of (3, m) rate rows."""
    bad = np.argwhere(~(np.isfinite(rates) & (rates >= RATE_FLOOR)).T)
    if len(bad):
        column, row = bad[0]
        value = rates[row, column].item()
        raise ValueError(f"rate {RATE_NAMES[row]}={value!r} must be finite and non-negative")


def vacuum_rates(rows: np.ndarray) -> np.ndarray:
    """(3, m) rates (p_a, p_b, p_ab) from the creation rows of s, i, i^+ and s, stacked to (16, m).

    i^+'s creation row conjugates i's annihilation row, so one product summed
    over the modes gives <s, s>, <i, i>, <s, i^+> and <i, s> per setting: the
    singles are the squared norms.  The coincidence rate || i s |0> ||^2 has
    a vacuum part (i's annihilation row dotted into s's creation row: the
    usual coincidence rate) and the two-photon part M = outer(i's creation
    row, s's creation row), whose norm^2 ||M + M^T||^2 / 2 (the O(K^4)
    double-pair contribution) is ||i||^2 ||s||^2 + |<i, s>|^2: M is never formed.
    """
    products = rows[: 2 * len(MODES)] * rows.reshape(2, 2 * len(MODES), -1).conj()
    rates = np.abs(products.reshape(4, len(MODES), -1).sum(axis=1))  # <s, s>, <i, i> are real
    rates[2:] **= 2
    rates[2] += rates[0] * rates[1]
    rates[2] += rates[3]
    return rates[:3]


def setup_operators(config: ExperimentConfig) -> tuple[Channel, Channel]:
    """The detected signal port and the idler after both crystals, composed once for
    ``config`` with the delays as symbols: SPDC in crystal 1, the idler link (amplitude
    eta), SPDC in crystal 2 with u_p (PUMP) on its gain, u_s (SIGNAL) on arm 1, and
    the output splitter; a few dozen complex products, whatever the number of settings.
    """
    s1, i1 = spdc(free_mode(SO1), free_mode(IO1), complex(config.gain1))
    link = attenuate(i1, config.eta)
    s2, i2 = spdc(free_mode(SO2), link, complex(config.gain2), PUMP)
    out_a, _camera = beam_splitter(s2, phase_delay(s1, SIGNAL), config.splitter_ratio)
    return out_a, i2


def setup_rates(
    config: ExperimentConfig,
    delta_x_p: float | np.ndarray = 0.0,
    delta_x_s: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Monochromatic rates of scalar or (m,) pump and signal delays (meters), in |K|^2 units.

    Returns shape (3, m), rows (p_a, p_b, p_ab); delay arrays of unequal
    lengths raise ValueError.  setup_operators composes the chain once; the
    creation rows vacuum_rates reads are gathered into one block of 4-vectors
    per phasor monomial u_p^n_p u_s^n_s, each monomial is evaluated at every
    setting as exp(2 pi i (n_p dx_p / lambda_p + n_s dx_s / lambda_s)), and the
    rows are the blocks times those values, summed over the monomials.  No step
    sums over the settings, so each column equals its one-setting call bit for bit.
    """
    out_a, i2 = setup_operators(config)
    blocks = {}  # phasor monomial (n_p, n_s) -> the creation rows of s, i, i^+ and s, one list
    for slot, x in enumerate((out_a, i2, adjoint(i2), out_a)):
        for row, mode, n_p, n_s, value in x:
            if row:
                blocks.setdefault((n_p, n_s), [0j] * (4 * len(MODES)))[slot * len(MODES) + mode] += value
    wave_p, wave_s = 2j * math.pi / config.pump_wavelength, 2j * math.pi / config.signal_filter_center
    x_p, x_s = np.array(delta_x_p, dtype=complex, ndmin=1), np.array(delta_x_s, dtype=complex, ndmin=1)
    rows = None
    for block, (n_p, n_s) in zip(np.array(list(blocks.values()))[..., None], blocks):
        # u_p^n_p u_s^n_s = exp(n_p wave_p x_p + n_s wave_s x_s), with no work for an absent symbol
        angle = n_p * wave_p * x_p if n_p else None
        if n_s:
            angle = n_s * wave_s * x_s if angle is None else angle + n_s * wave_s * x_s
        term = block if angle is None else block * np.exp(angle)
        rows = term if rows is None else rows + term
    return vacuum_rates(rows)
