"""Brute-force state-vector check of the interferometer predictions.

This module rebuilds the experiment in the Schrodinger picture: the
perturbative biphoton state is assembled in a truncated Fock basis (at most
2 photons per mode, 4 in total) and detection moments are read off by direct
summation.  It deliberately shares no evaluation code with the
Heisenberg-picture engine; the two implementations cross-check each other.

A state holds a batch of m delay settings: each occupation's amplitude is an
(m,) complex array, one entry per setting, and every step acts on the
entries independently.  No step sums over the settings, so each column of a
batch equals its one-setting call bit for bit.

Each per-term factor stays a Python scalar until it meets an amplitude array:
the pair creation's ``1j * gain * boost``, and a rotation's binomial, matrix
power and factorial weights, which are summed into one real coefficient per
source and destination occupation.  Every term then costs one array multiply
and at most one add.  A term whose coefficient is exactly 0 is never formed,
the camera phase multiplies only occupations that hold camera photons, and one
pass at the end drops the amplitudes that cancel at every setting.
:func:`detection_moments` takes |amplitude|^2 of the whole state in one
stacked pass.

Mode slots, in order: ("sig1", "sig2", "idler", "loss").  After the output
beam splitter is applied, the "sig2" slot holds the monitored detector port
and "sig1" the unused camera port.

The truncation holds at low gain only: :func:`build_state`, the oracle's one
gain guard, refuses a gain above :data:`MAX_ORACLE_GAIN` with a ConfigError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ExperimentConfig

MODES = ("sig1", "sig2", "idler", "loss")
MAX_PER_MODE = 2
MAX_TOTAL = 4
MAX_ORACLE_GAIN = 1e-2

MONITOR_SLOT = MODES.index("sig2")
CAMERA_SLOT = MODES.index("sig1")
IDLER_SLOT = MODES.index("idler")
LOSS_SLOT = MODES.index("loss")

Occupation = tuple[int, int, int, int]


@dataclass
class FockState:
    """Sparse amplitudes over photon-number occupation tuples, each an (m,)
    array over the batch's delay settings."""

    amplitudes: dict[Occupation, np.ndarray]

    def norm_squared(self) -> np.ndarray:
        return sum(np.abs(a) ** 2 for a in self.amplitudes.values())


def _nonzero(amplitudes: dict[Occupation, np.ndarray]) -> FockState:
    """Drop the occupations whose amplitude vanishes at every setting."""
    live = np.array(list(amplitudes.values())).any(axis=1).tolist()
    return FockState({occ: amp for (occ, amp), keep in zip(amplitudes.items(), live) if keep})


def _admissible(occ: Occupation) -> bool:
    return max(occ) <= MAX_PER_MODE and sum(occ) <= MAX_TOTAL


def _add(out: dict[Occupation, np.ndarray], occ: Occupation, term: np.ndarray) -> None:
    """Add ``term`` to the amplitude of ``occ``; never writes into an array in place."""
    out[occ] = out[occ] + term if occ in out else term


def _pair_create(
    amplitudes: dict[Occupation, np.ndarray],
    gain: float,
    slot_a: int,
    slot_b: int,
    phase_factor: np.ndarray | None = None,
) -> dict[Occupation, np.ndarray]:
    """Apply (1 + i*gain*phase_factor*adag_a*adag_b), dropping anything outside
    truncation.  A zero gain creates no term."""
    out = dict(amplitudes)
    if gain == 0:
        return out
    lift = 1j * gain if phase_factor is None else 1j * (gain * phase_factor)
    for occ, amp in amplitudes.items():
        lifted = list(occ)
        lifted[slot_a] += 1
        lifted[slot_b] += 1
        new = tuple(lifted)
        if not _admissible(new):
            continue
        boost = math.sqrt((occ[slot_a] + 1) * (occ[slot_b] + 1))
        _add(out, new, (lift if boost == 1.0 else lift * boost) * amp)
    return out


def _rotation_coefficients(
    na: int, nb: int, m: tuple[tuple[float, float], tuple[float, float]]
) -> list[tuple[int, int, float]]:
    """The destinations (new_a, new_b) of occupations (na, nb) under the
    rotation ``m``, each with its one real coefficient: the binomial (k, l)
    terms landing there, summed, times the factorial weights.  Destinations
    past MAX_PER_MODE and coefficients of exactly 0 are left out; the total
    photon number is conserved, so MAX_TOTAL cannot be exceeded."""
    (m00, m01), (m10, m11) = m
    sums: dict[int, float] = {}
    for k in range(na + 1):
        for l in range(nb + 1):
            coef = math.comb(na, k) * math.comb(nb, l) * m00**k * m10 ** (na - k) * m01**l * m11 ** (nb - l)
            sums[k + l] = sums.get(k + l, 0) + coef
    norm = math.sqrt(math.factorial(na) * math.factorial(nb))
    out = []
    for new_a, total in sums.items():
        new_b = na + nb - new_a
        if max(new_a, new_b) > MAX_PER_MODE:
            continue
        coefficient = total * math.sqrt(math.factorial(new_a) * math.factorial(new_b)) / norm
        if coefficient != 0:
            out.append((new_a, new_b, coefficient))
    return out


def _two_mode_rotation(
    amplitudes: dict[Occupation, np.ndarray],
    slot_a: int,
    slot_b: int,
    heisenberg: tuple[tuple[float, float], tuple[float, float]],
) -> dict[Occupation, np.ndarray]:
    """Passive rotation of two mode slots.

    ``heisenberg`` is the real matrix M of the annihilation-operator map
    (a_a, a_b) -> (M00 a_a + M01 a_b, M10 a_a + M11 a_b).  On states the
    corresponding substitution is adag_k -> sum_j M[j][k] adag_j, expanded
    binomially over the occupations of the two slots.  Each source
    occupation sends one scalar multiple of its amplitude to each destination.
    """
    out: dict[Occupation, np.ndarray] = {}
    for occ, amp in amplitudes.items():
        for new_a, new_b, coefficient in _rotation_coefficients(occ[slot_a], occ[slot_b], heisenberg):
            lifted = list(occ)
            lifted[slot_a] = new_a
            lifted[slot_b] = new_b
            _add(out, tuple(lifted), amp if coefficient == 1.0 else amp * coefficient)
    return out


def _mode_phase(
    amplitudes: dict[Occupation, np.ndarray], slot: int, phase: np.ndarray
) -> dict[Occupation, np.ndarray]:
    """Multiply each amplitude by exp(i * phase * n), n the slot's occupation.
    An empty slot's factor is exactly 1, so its amplitude is kept as it is."""
    factors: dict[int, np.ndarray] = {}
    out = {}
    for occ, amp in amplitudes.items():
        n = occ[slot]
        if n:
            if n not in factors:
                factors[n] = np.exp(1j * phase * n)
            amp = amp * factors[n]
        out[occ] = amp
    return out


def build_state(
    config: "ExperimentConfig",
    delta_x_p: float | np.ndarray = 0.0,
    delta_x_s: float | np.ndarray = 0.0,
) -> FockState:
    """Assemble the output state of the full two-crystal topology for the pump
    and signal delays (meters) broadcast to m settings.

    Steps: pair creation in crystal 1; the idler link as a two-mode rotation
    against a fresh loss mode; pair creation in crystal 2 with the pump
    phase on its gain; signal delay phase on the crystal-1 signal; output
    beam splitter as a rotation of the two signal slots.
    """
    for key, gain in (("crystal1.gain", config.gain1), ("crystal2.gain", config.gain2)):
        if gain > MAX_ORACLE_GAIN:
            raise ConfigError(f"{key} = {gain!r} is above the oracle's truncation limit "
                              f"fockoracle.MAX_ORACLE_GAIN = {MAX_ORACLE_GAIN!r}")

    eta = config.eta
    leak = math.sqrt(1.0 - eta * eta)
    t = math.sqrt(config.splitter_ratio)
    r = math.sqrt(1.0 - config.splitter_ratio)

    delta_x_p, delta_x_s = np.broadcast_arrays(np.atleast_1d(delta_x_p), np.atleast_1d(delta_x_s))
    pump_phase = 2.0 * math.pi * delta_x_p / config.pump_wavelength
    signal_phase = 2.0 * math.pi * delta_x_s / config.signal_filter_center

    amplitudes = {(0, 0, 0, 0): np.ones(len(pump_phase), dtype=complex)}
    amplitudes = _pair_create(amplitudes, config.gain1, CAMERA_SLOT, IDLER_SLOT)
    amplitudes = _two_mode_rotation(amplitudes, IDLER_SLOT, LOSS_SLOT, ((eta, leak), (-leak, eta)))
    amplitudes = _pair_create(amplitudes, config.gain2, MONITOR_SLOT, IDLER_SLOT, np.exp(1j * pump_phase))
    amplitudes = _mode_phase(amplitudes, CAMERA_SLOT, signal_phase)
    # Output splitter: a_monitor <- t*a_sig2 + r*a_sig1, camera gets the rest.
    amplitudes = _two_mode_rotation(amplitudes, MONITOR_SLOT, CAMERA_SLOT, ((t, r), (-r, t)))
    return _nonzero(amplitudes)


def detection_moments(state: FockState) -> np.ndarray:
    """First moments <n_A>, <n_B> and the correlator <n_A n_B> at each setting.

    Returns shape (3, m), rows (p_a, p_b, p_ab).  n_A counts photons at the
    monitored beam-splitter port, n_B photons in the idler channel; photons
    in the loss slot are never detected.
    """
    weights = np.abs(np.array(list(state.amplitudes.values()))) ** 2
    moments = np.zeros((3, weights.shape[1]))
    p_a, p_b, p_ab = moments
    for occ, w in zip(state.amplitudes, weights):
        n_a, n_b = occ[MONITOR_SLOT], occ[IDLER_SLOT]
        if n_a:
            p_a += n_a * w
        if n_b:
            p_b += n_b * w
            if n_a:
                p_ab += n_a * n_b * w
    return moments
