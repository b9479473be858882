"""Heisenberg-picture channels over the four vacuum modes of the interferometer.

``MODES`` are the crystals' signal modes so1 and so2, the first idler io1 and
the ancilla anc that takes the idler link's loss.  A channel is a (2, 4)
complex array of ladder-operator coefficients: row 0 for a, row 1 for a^+.
A batch of m delay settings stacks its channels into an (m, 2, 4) array;
every transform acts on the last two axes and broadcasts over the leading
ones, so a gain or delay given as an (m,) array yields a batch.
"""

from __future__ import annotations

import math

import numpy as np

MODES = ("so1", "so2", "io1", "anc")
SO1, SO2, IO1, ANC = range(len(MODES))
Channel = np.ndarray  # (..., 2, 4) complex: rows (a, a^+), columns MODES


def free_mode(index: int) -> Channel:
    """The unperturbed annihilation operator of mode ``MODES[index]``."""
    x = np.zeros((2, len(MODES)), dtype=complex)
    x[0, index] = 1.0
    return x


def spdc(
    signal_in: Channel, idler_in: Channel, gain: complex | np.ndarray
) -> tuple[Channel, Channel]:
    """Low-gain SPDC: signal_out = signal_in + i*gain*idler_in^+, and vice versa.

    x^+ is x with its rows swapped and conjugated; the complex gain carries the
    pump phase, and an (m,) array of gains gives a batch.
    """
    pump = 1j * np.asarray(gain)[..., None, None]
    return (
        signal_in + pump * idler_in[..., ::-1, :].conj(),
        idler_in + pump * signal_in[..., ::-1, :].conj(),
    )


def phase_delay(x: Channel, delta_x: float | np.ndarray, wavelength: float) -> Channel:
    """Propagation delay: multiply the whole channel by exp(i*2*pi*delta_x/wavelength).

    An (m,) array of delays gives a batch.
    """
    phase = 2.0 * math.pi * np.asarray(delta_x, dtype=float) / wavelength
    return x * np.exp(1j * phase)[..., None, None]


def beam_splitter(a: Channel, b: Channel, fraction: float) -> tuple[Channel, Channel]:
    """Real splitter with t = sqrt(fraction), r = sqrt(1 - fraction): out1 = t*a + r*b
    is the observed port; out2 = t*b - r*a completes the unitary."""
    t, r = math.sqrt(fraction), math.sqrt(1.0 - fraction)
    return t * a + r * b, t * b - r * a


def attenuate(x: Channel, transmission: float) -> Channel:
    """Link of amplitude transmission T: a beam splitter against the vacuum ancilla anc,
    which ``x`` must not involve yet."""
    out = x * transmission
    out[..., 0, ANC] = math.sqrt(1.0 - transmission * transmission)
    return out
