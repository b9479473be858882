"""Brute-force state-vector check of the interferometer predictions.

This module rebuilds the experiment in the Schrodinger picture: the
perturbative biphoton state is assembled in a truncated Fock basis (at most
2 photons per mode, 4 in total) and detection moments are read off by direct
summation.  It deliberately shares no evaluation code with the
Heisenberg-picture engine; the two implementations cross-check each other.

A state holds a batch of m delay settings: each occupation's amplitude is an
(m,) complex array, one entry per setting, and every step acts on the
entries independently.

Mode slots, in order: ("sig1", "sig2", "idler", "loss").  After the output
beam splitter is applied, the "sig2" slot holds the monitored detector port
and "sig1" the unused camera port.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .config import ExperimentConfig

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
    return FockState({k: v for k, v in amplitudes.items() if np.any(v)})


def _admissible(occ: Occupation) -> bool:
    return max(occ) <= MAX_PER_MODE and sum(occ) <= MAX_TOTAL


def _pair_create(
    state: FockState, gain: complex | np.ndarray, slot_a: int, slot_b: int
) -> FockState:
    """Apply (1 + i*gain*adag_a*adag_b), dropping anything outside truncation."""
    out = dict(state.amplitudes)
    for occ, amp in state.amplitudes.items():
        lifted = list(occ)
        lifted[slot_a] += 1
        lifted[slot_b] += 1
        new = tuple(lifted)
        if not _admissible(new):
            continue
        boost = math.sqrt((occ[slot_a] + 1) * (occ[slot_b] + 1))
        out[new] = out.get(new, 0j) + 1j * gain * boost * amp
    return _nonzero(out)


def _two_mode_rotation(
    state: FockState, slot_a: int, slot_b: int, heisenberg: tuple[tuple[complex, complex], tuple[complex, complex]]
) -> FockState:
    """Passive rotation of two mode slots.

    ``heisenberg`` is the matrix M of the annihilation-operator map
    (a_a, a_b) -> (M00 a_a + M01 a_b, M10 a_a + M11 a_b).  On states the
    corresponding substitution is adag_k -> sum_j M[j][k] adag_j, expanded
    binomially over the occupations of the two slots.
    """
    m = heisenberg
    out: dict[Occupation, np.ndarray] = {}
    for occ, amp in state.amplitudes.items():
        na, nb = occ[slot_a], occ[slot_b]
        base = amp / math.sqrt(math.factorial(na) * math.factorial(nb))
        for k in range(na + 1):
            for l in range(nb + 1):
                coef = (
                    math.comb(na, k)
                    * math.comb(nb, l)
                    * m[0][0] ** k
                    * m[1][0] ** (na - k)
                    * m[0][1] ** l
                    * m[1][1] ** (nb - l)
                )
                if coef == 0:
                    continue
                new_a = k + l
                new_b = na + nb - k - l
                lifted = list(occ)
                lifted[slot_a] = new_a
                lifted[slot_b] = new_b
                new = tuple(lifted)
                if not _admissible(new):
                    continue
                weight = math.sqrt(math.factorial(new_a) * math.factorial(new_b))
                out[new] = out.get(new, 0j) + base * coef * weight
    return _nonzero(out)


def _mode_phase(state: FockState, slot: int, phase: np.ndarray) -> FockState:
    """Multiply each amplitude by exp(i * phase * n), n the slot's occupation."""
    factors = [np.exp(1j * phase * n) for n in range(MAX_PER_MODE + 1)]
    return FockState({occ: amp * factors[occ[slot]] for occ, amp in state.amplitudes.items()})


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
    if abs(config.gain1) > MAX_ORACLE_GAIN or abs(config.gain2) > MAX_ORACLE_GAIN:
        raise ValueError(
            f"oracle truncation requires |K| <= {MAX_ORACLE_GAIN}; "
            f"got {abs(config.gain1):.3g}, {abs(config.gain2):.3g}"
        )

    eta = config.eta
    leak = math.sqrt(max(0.0, 1.0 - eta * eta))
    t = math.sqrt(config.splitter_ratio)
    r = math.sqrt(1.0 - config.splitter_ratio)

    delta_x_p, delta_x_s = np.broadcast_arrays(np.atleast_1d(delta_x_p), np.atleast_1d(delta_x_s))
    pump_phase = 2.0 * math.pi * delta_x_p / config.pump_wavelength
    signal_phase = 2.0 * math.pi * delta_x_s / config.signal_filter.center_wavelength
    gain2 = config.gain2 * np.exp(1j * pump_phase)

    state = FockState({(0, 0, 0, 0): np.ones(len(pump_phase), dtype=complex)})
    state = _pair_create(state, config.gain1, CAMERA_SLOT, IDLER_SLOT)
    state = _two_mode_rotation(state, IDLER_SLOT, LOSS_SLOT, ((eta, leak), (-leak, eta)))
    state = _pair_create(state, gain2, MONITOR_SLOT, IDLER_SLOT)
    state = _mode_phase(state, CAMERA_SLOT, signal_phase)
    # Output splitter: a_monitor <- t*a_sig2 + r*a_sig1, camera gets the rest.
    state = _two_mode_rotation(state, MONITOR_SLOT, CAMERA_SLOT, ((t, r), (-r, t)))
    return state


def detection_moments(state: FockState) -> np.ndarray:
    """First moments <n_A>, <n_B> and the correlator <n_A n_B> at each setting.

    Returns shape (3, m), rows (p_a, p_b, p_ab).  n_A counts photons at the
    monitored beam-splitter port, n_B photons in the idler channel; photons
    in the loss slot are never detected.
    """
    p_a = 0.0
    p_b = 0.0
    p_ab = 0.0
    for occ, amp in state.amplitudes.items():
        w = np.abs(amp) ** 2
        p_a += occ[MONITOR_SLOT] * w
        p_b += occ[IDLER_SLOT] * w
        p_ab += occ[MONITOR_SLOT] * occ[IDLER_SLOT] * w
    return np.array([p_a, p_b, p_ab])
