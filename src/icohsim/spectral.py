"""Finite-bandwidth coherence envelopes on top of the monochromatic model.

Fields are described by Gaussian spectral densities.  The fringe envelope
against a path delay is the normalized magnitude of the Fourier transform of
that density:

    env(dx) = exp(-(pi * dnu * dx / c)^2 / (4 ln 2))

with dnu the frequency FWHM.  Scanning the signal delay probes the detection
filter's envelope; scanning the pump delay probes the pump spectrum's much
wider envelope, which is what makes the pump-axis fringes survive far beyond
the signal coherence scale.

Every rate depends on the two delays only through the fringe phase
dphi = 2 pi (dx_p / lambda_p - dx_s / lambda_s) and follows the
induced-coherence law B + Re(A e^{i dphi}) of Zou, Wang and Mandel (PRL 67,
318, 1991).  :func:`compile_model` reads B and A off one engine
pass over three delay settings, once per config, and
:meth:`FringeModel.rates` damps the fringe term by both envelopes.  The
tests check that law against an independent average of the monochromatic
engine over the pump and signal spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .expectation import setup_rates

if TYPE_CHECKING:  # pragma: no cover
    from .config import ExperimentConfig

SPEED_OF_LIGHT = 299_792_458.0  # m/s
# An envelope argument beyond this gives exactly 0.0 (exp underflows near 45);
# clamping there keeps its square finite and every smaller one bit for bit.
MAX_ENVELOPE_ARG = 1e150


@dataclass(frozen=True)
class SpectralProfile:
    """Gaussian spectral density: center wavelength (m) and frequency FWHM (Hz)."""

    center_wavelength: float
    fwhm_frequency: float

    def __post_init__(self) -> None:
        if self.center_wavelength <= 0:
            raise ValueError("center_wavelength must be positive")
        if self.fwhm_frequency <= 0:
            raise ValueError("fwhm_frequency must be positive")


def envelope(profile: SpectralProfile, delta_x: float | np.ndarray) -> float | np.ndarray:
    """Fringe envelope at path delay ``delta_x`` (meters, scalar or array); 1 at zero delay."""
    arg = np.minimum(
        np.abs(math.pi * profile.fwhm_frequency * delta_x / SPEED_OF_LIGHT), MAX_ENVELOPE_ARG
    )
    return np.exp(-(arg * arg) / (4.0 * math.log(2.0)))


def coherence_length(profile: SpectralProfile) -> float:
    """Delay at which the envelope drops to one half: 2 ln2 c / (pi dnu)."""
    return 2.0 * math.log(2.0) * SPEED_OF_LIGHT / (math.pi * profile.fwhm_frequency)


def profile_for_coherence_length(profile: SpectralProfile, target: float) -> SpectralProfile:
    """Rescale a profile's width so its half-maximum delay equals ``target``."""
    if target <= 0:
        raise ValueError("coherence length must be positive")
    dnu = 2.0 * math.log(2.0) * SPEED_OF_LIGHT / (math.pi * target)
    return replace(profile, fwhm_frequency=dnu)


@dataclass(frozen=True, eq=False)
class FringeModel:
    """Closed-form rates of one config: per channel (p_a, p_b, p_ab) a
    phase-averaged baseline B and a complex fringe amplitude A."""

    baseline: np.ndarray  # (3,) float, channels (p_a, p_b, p_ab)
    amplitude: np.ndarray  # (3,) complex, channels (p_a, p_b, p_ab)
    pump_profile: SpectralProfile
    signal_filter: SpectralProfile

    def rates(
        self, delta_x_p: float | np.ndarray = 0.0, delta_x_s: float | np.ndarray = 0.0
    ) -> np.ndarray:
        """B + env_s(dx_s) env_p(dx_p) Re(A e^{i dphi}) on broadcast delays.

        Returns shape (3, *delays.shape), rows (p_a, p_b, p_ab).
        """
        delta_x_p = np.asarray(delta_x_p, dtype=float)
        delta_x_s = np.asarray(delta_x_s, dtype=float)
        phase = 2.0 * math.pi * (
            delta_x_p / self.pump_profile.center_wavelength
            - delta_x_s / self.signal_filter.center_wavelength
        )
        env = envelope(self.signal_filter, delta_x_s) * envelope(self.pump_profile, delta_x_p)
        channels = (3,) + (1,) * phase.ndim
        fringe = self.amplitude.reshape(channels) * np.exp(1j * phase)
        return self.baseline.reshape(channels) + env * fringe.real


def compile_model(config: "ExperimentConfig") -> FringeModel:
    """B and A of every channel from one engine pass at pump phase 0, pi/2 and pi.

    With R(dphi) = B + Re(A e^{i dphi}): B = (R_0 + R_pi) / 2, the mean over
    the fringe phase, and A = (R_0 - R_pi) / 2 + i (B - R_pi/2).
    """
    lam_p = config.pump_wavelength
    r0, r_quarter, r_pi = setup_rates(config, np.array([0.0, lam_p / 4.0, lam_p / 2.0])).T
    base = (r0 + r_pi) / 2.0
    return FringeModel(
        baseline=base,
        amplitude=(r0 - r_pi) / 2.0 + 1j * (base - r_quarter),
        pump_profile=config.pump_profile(),
        signal_filter=config.signal_filter,
    )
