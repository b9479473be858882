"""Brute-force state-vector check of the interferometer predictions.

This module rebuilds the experiment in the Schrodinger picture: the
perturbative biphoton state is assembled as a sparse dict of Fock-state
amplitudes and detection moments are read off by direct summation.  It
deliberately shares no evaluation code with the Heisenberg-picture engine;
the two implementations cross-check each other.

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

The truncation is what construction gives, not a cap: each crystal's pair
creation is applied once, to first order in its gain, and the link and the
splitter conserve photon number.  So the state reaches at most 11
occupations, and in every one sig1 + sig2 = idler + loss <= 2, with
loss <= 1 because only crystal 1's idler crosses the link.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig

MODES = ("sig1", "sig2", "idler", "loss")

MONITOR_SLOT = MODES.index("sig2")
CAMERA_SLOT = MODES.index("sig1")
IDLER_SLOT = MODES.index("idler")
LOSS_SLOT = MODES.index("loss")

Occupation = tuple[int, int, int, int]


def _nonzero(amplitudes: dict[Occupation, np.ndarray]) -> dict[Occupation, np.ndarray]:
    """Drop the occupations whose amplitude vanishes at every setting."""
    live = np.array(list(amplitudes.values())).any(axis=1).tolist()
    return {occ: amp for (occ, amp), keep in zip(amplitudes.items(), live) if keep}


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
    """Apply (1 + i*gain*phase_factor*adag_a*adag_b), first order in the gain.
    A zero gain creates no term."""
    out = dict(amplitudes)
    if gain == 0:
        return out
    lift = 1j * gain if phase_factor is None else 1j * (gain * phase_factor)
    for occ, amp in amplitudes.items():
        lifted = list(occ)
        lifted[slot_a] += 1
        lifted[slot_b] += 1
        boost = math.sqrt((occ[slot_a] + 1) * (occ[slot_b] + 1))
        _add(out, tuple(lifted), (lift if boost == 1.0 else lift * boost) * amp)
    return out


def _rotation_coefficients(
    na: int, nb: int, m: tuple[tuple[float, float], tuple[float, float]]
) -> list[tuple[int, int, float]]:
    """The destinations (new_a, new_b) of occupations (na, nb) under the
    rotation ``m``, each with its one real coefficient: the binomial (k, l)
    terms landing there, summed, times the factorial weights.  Coefficients
    of exactly 0 are left out."""
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
    config: ExperimentConfig,
    delta_x_p: float | np.ndarray = 0.0,
    delta_x_s: float | np.ndarray = 0.0,
) -> dict[Occupation, np.ndarray]:
    """Assemble the output state of the full two-crystal topology for the pump
    and signal delays (meters) broadcast to m settings: a dict from each
    occupation to its (m,) amplitude array, holding only the occupations
    whose amplitude is nonzero at some setting.

    Steps: pair creation in crystal 1; the idler link as a two-mode rotation
    against a fresh loss mode; pair creation in crystal 2 with the pump
    phase on its gain; signal delay phase on the crystal-1 signal; output
    beam splitter as a rotation of the two signal slots.
    """
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


def detection_moments(state: dict[Occupation, np.ndarray]) -> np.ndarray:
    """First moments <n_A>, <n_B> and the correlator <n_A n_B> at each setting.

    Returns shape (3, m), rows (p_a, p_b, p_ab).  n_A counts photons at the
    monitored beam-splitter port, n_B photons in the idler channel; photons
    in the loss slot are never detected.
    """
    weights = np.abs(np.array(list(state.values()))) ** 2
    moments = np.zeros((3, weights.shape[1]))
    p_a, p_b, p_ab = moments
    for occ, w in zip(state, weights):
        n_a, n_b = occ[MONITOR_SLOT], occ[IDLER_SLOT]
        if n_a:
            p_a += n_a * w
        if n_b:
            p_b += n_b * w
            if n_a:
                p_ab += n_a * n_b * w
    return moments
