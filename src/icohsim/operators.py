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
from dataclasses import dataclass

import numpy as np

MAX_GAIN = 0.1
MODES = ("so1", "so2", "io1", "anc")
SO1, SO2, IO1, ANC = range(len(MODES))
Channel = np.ndarray  # (..., 2, 4) complex: rows (a, a^+), columns MODES


def free_mode(index: int) -> Channel:
    """The unperturbed annihilation operator of mode ``MODES[index]``."""
    x = np.zeros((2, len(MODES)), dtype=complex)
    x[0, index] = 1.0
    return x


@dataclass(frozen=True)
class BeamSplitterParams:
    """Transmissivity/reflectivity pair with |t|^2 + |r|^2 = 1."""

    t: complex
    r: complex

    def __post_init__(self) -> None:
        norm = abs(self.t) ** 2 + abs(self.r) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"beam splitter not unitary: |t|^2+|r|^2 = {norm!r}")

    @classmethod
    def from_transmitted_fraction(cls, fraction: float) -> "BeamSplitterParams":
        """Real splitter with |t|^2 = fraction."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("transmitted fraction must lie in [0, 1]")
        return cls(math.sqrt(fraction), math.sqrt(1.0 - fraction))


def spdc(
    signal_in: Channel, idler_in: Channel, gain: complex | np.ndarray
) -> tuple[Channel, Channel]:
    """Low-gain SPDC: signal_out = signal_in + i*gain*idler_in^+, and vice versa.

    x^+ is x with its rows swapped and conjugated; the complex gain carries the
    pump phase, and an (m,) array of gains gives a batch.
    """
    gain = np.asarray(gain)
    largest = float(np.max(np.abs(gain), initial=0.0))
    if largest >= MAX_GAIN:
        raise ValueError(f"parametric gain |K|={largest:.3g} outside perturbative range "
                         f"(< {MAX_GAIN})")
    pump = 1j * gain[..., None, None]
    return (
        signal_in + pump * idler_in[..., ::-1, :].conj(),
        idler_in + pump * signal_in[..., ::-1, :].conj(),
    )


def phase_delay(x: Channel, delta_x: float | np.ndarray, wavelength: float) -> Channel:
    """Propagation delay: multiply the whole channel by exp(i*2*pi*delta_x/wavelength).

    An (m,) array of delays gives a batch.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    phase = 2.0 * math.pi * np.asarray(delta_x, dtype=float) / wavelength
    return x * np.exp(1j * phase)[..., None, None]


def beam_splitter(a: Channel, b: Channel, bs: BeamSplitterParams) -> tuple[Channel, Channel]:
    """out1 = t*a + r*b is the observed port; out2 = t*b - r*a completes the unitary."""
    return bs.t * a + bs.r * b, bs.t * b - bs.r * a


def attenuate(x: Channel, transmission: float) -> Channel:
    """Link of amplitude transmission T: a beam splitter against the vacuum ancilla anc."""
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission T={transmission!r} out of [0, 1]")
    if np.any(x[..., ANC]):
        raise ValueError("ancilla mode 'anc' already present in channel")
    out = x * transmission
    out[..., 0, ANC] = math.sqrt(max(0.0, 1.0 - transmission * transmission))
    return out
