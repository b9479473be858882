"""Heisenberg-picture channels over the four vacuum modes of the interferometer.

``MODES`` are the crystals' signal modes so1 and so2, the first idler io1 and
the ancilla anc that takes the idler link's loss.  The delays enter only as
the phasors u_p = exp(2 pi i dx_p / lambda_p) and u_s = exp(2 pi i dx_s / lambda_s),
kept as symbols: a channel is a list of terms (row, mode, n_p, n_s, coefficient),
each the coefficient times u_p^n_p u_s^n_s times the mode's a (row 0) or a^+
(row 1), and terms with the same (row, mode, n_p, n_s) add.  The transforms
(low-gain SPDC, phase delay, adjoint, beam splitter, attenuation) are plain
complex arithmetic on these terms, with no numpy and no truncation in the
gain's degree: one composition serves every setting.
"""

from __future__ import annotations

import math

MODES = ("so1", "so2", "io1", "anc")
SO1, SO2, IO1, ANC = range(len(MODES))
PUMP, SIGNAL = (1, 0), (0, 1)  # the phasors u_p and u_s as exponents (n_p, n_s)
Channel = list  # [(row, mode, n_p, n_s, coefficient)]


def free_mode(index: int) -> Channel:
    """The unperturbed annihilation operator of mode ``MODES[index]``."""
    return [(0, index, 0, 0, 1.0)]


def _scaled(x: Channel, scale: complex, phasor: tuple[int, int] = (0, 0)) -> Channel:
    """scale * phasor * x."""
    d_p, d_s = phasor
    return [(row, mode, n_p + d_p, n_s + d_s, scale * c) for row, mode, n_p, n_s, c in x]


def adjoint(x: Channel, scale: complex = 1.0, phasor: tuple[int, int] = (0, 0)) -> Channel:
    """scale * phasor * x^+: x^+ swaps the rows and conjugates every coefficient,
    and so every phasor, whose conjugate is its inverse."""
    d_p, d_s = phasor
    return [(1 - row, mode, d_p - n_p, d_s - n_s, scale * c.conjugate()) for row, mode, n_p, n_s, c in x]


def phase_delay(x: Channel, phasor: tuple[int, int]) -> Channel:
    """Propagation delay: the whole channel times ``phasor``, PUMP or SIGNAL."""
    return _scaled(x, 1.0, phasor)


def spdc(
    signal_in: Channel, idler_in: Channel, gain: complex, phasor: tuple[int, int] = (0, 0)
) -> tuple[Channel, Channel]:
    """Low-gain SPDC: signal_out = signal_in + i*g*idler_in^+, and vice versa,
    where g is the complex gain times ``phasor``: the pump's phase on this crystal."""
    pump = 1j * gain
    return signal_in + adjoint(idler_in, pump, phasor), idler_in + adjoint(signal_in, pump, phasor)


def beam_splitter(a: Channel, b: Channel, fraction: float) -> tuple[Channel, Channel]:
    """Real splitter with t = sqrt(fraction), r = sqrt(1 - fraction): out1 = t*a + r*b
    is the observed port; out2 = t*b - r*a completes the unitary."""
    t, r = math.sqrt(fraction), math.sqrt(1.0 - fraction)
    return _scaled(a, t) + _scaled(b, r), _scaled(b, t) + _scaled(a, -r)


def attenuate(x: Channel, transmission: float) -> Channel:
    """Link of amplitude transmission T: a beam splitter against the vacuum ancilla anc,
    which ``x`` must not involve yet."""
    return [(0, ANC, 0, 0, math.sqrt(1.0 - transmission * transmission))] + _scaled(x, transmission)
