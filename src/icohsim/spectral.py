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
pass over three delay settings, once per config; :func:`modulated_rates`
stays the per-point reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .expectation import RatePrediction, compose_setup, phase_averaged_rates, setup_rates
from .operators import DelaySetting

if TYPE_CHECKING:  # pragma: no cover
    from .config import ExperimentConfig

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class SpectralProfile:
    """Gaussian spectral density: center wavelength plus a FWHM.

    The width may be given either as a wavelength FWHM (meters) or directly
    as a frequency FWHM (Hz); exactly one must be set.
    """

    center_wavelength: float
    fwhm_wavelength: float | None = None
    fwhm_frequency: float | None = None

    def __post_init__(self) -> None:
        if self.center_wavelength <= 0:
            raise ValueError("center_wavelength must be positive")
        if (self.fwhm_wavelength is None) == (self.fwhm_frequency is None):
            raise ValueError("exactly one of fwhm_wavelength / fwhm_frequency must be set")
        if self.fwhm_wavelength is not None:
            if self.fwhm_wavelength <= 0:
                raise ValueError("fwhm_wavelength must be positive")
            if self.fwhm_wavelength >= self.center_wavelength:
                raise ValueError("profile is not narrowband: FWHM >= center wavelength")
        if self.fwhm_frequency is not None and self.fwhm_frequency <= 0:
            raise ValueError("fwhm_frequency must be positive")


def frequency_fwhm(profile: SpectralProfile) -> float:
    """Frequency FWHM in Hz; converts c*dlambda/lambda^2 when given in wavelength."""
    if profile.fwhm_frequency is not None:
        return profile.fwhm_frequency
    assert profile.fwhm_wavelength is not None
    return SPEED_OF_LIGHT * profile.fwhm_wavelength / profile.center_wavelength**2


def envelope(profile: SpectralProfile, delta_x: float | np.ndarray) -> float | np.ndarray:
    """Fringe envelope at path delay ``delta_x`` (meters, scalar or array); 1 at zero delay."""
    dnu = frequency_fwhm(profile)
    arg = math.pi * dnu * delta_x / SPEED_OF_LIGHT
    return np.exp(-(arg * arg) / (4.0 * math.log(2.0)))


def coherence_length(profile: SpectralProfile) -> float:
    """Delay at which the envelope drops to one half: 2 ln2 c / (pi dnu)."""
    dnu = frequency_fwhm(profile)
    return 2.0 * math.log(2.0) * SPEED_OF_LIGHT / (math.pi * dnu)


def profile_for_coherence_length(profile: SpectralProfile, target: float) -> SpectralProfile:
    """Rescale a profile's width so its half-maximum delay equals ``target``."""
    if target <= 0:
        raise ValueError("coherence length must be positive")
    dnu = 2.0 * math.log(2.0) * SPEED_OF_LIGHT / (math.pi * target)
    return replace(profile, fwhm_wavelength=None, fwhm_frequency=dnu)


def modulated_rates(config: "ExperimentConfig", delays: DelaySetting) -> RatePrediction:
    """Monochromatic rates with the fringe term damped by both envelopes.

    The oscillatory part of each rate (the deviation from its phase-averaged
    baseline) is multiplied by env_signal(dx_s) * env_pump(dx_p); the baseline
    itself, which comes from incoherent pair generation, is left untouched.
    """
    mono = compose_setup(config, delays)
    base = phase_averaged_rates(config, delays)
    env = envelope(config.signal_filter, delays.delta_x_s) * envelope(
        config.pump_profile(), delays.delta_x_p
    )
    return RatePrediction(
        p_a=base.p_a + (mono.p_a - base.p_a) * env,
        p_b=base.p_b + (mono.p_b - base.p_b) * env,
        p_ab=base.p_ab + (mono.p_ab - base.p_ab) * env,
    )


@dataclass(frozen=True, eq=False)
class FringeModel:
    """Closed-form rates of one config: per channel (p_a, p_b, p_ab) a
    phase-averaged baseline B and a complex fringe amplitude A."""

    baseline: RatePrediction
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
        base = np.array([self.baseline.p_a, self.baseline.p_b, self.baseline.p_ab])
        fringe = self.amplitude.reshape(channels) * np.exp(1j * phase)
        return base.reshape(channels) + env * fringe.real


def compile_model(config: "ExperimentConfig") -> FringeModel:
    """B and A of every channel from one engine pass at pump phase 0, pi/2 and pi.

    With R(dphi) = B + Re(A e^{i dphi}): B = (R_0 + R_pi) / 2, the same
    evaluations and arithmetic as ``phase_averaged_rates(config)``, and
    A = (R_0 - R_pi) / 2 + i (B - R_pi/2).
    """
    lam_p = config.pump_wavelength
    r0, r_quarter, r_pi = setup_rates(
        config,
        [DelaySetting(), DelaySetting(delta_x_p=lam_p / 4.0), DelaySetting(delta_x_p=lam_p / 2.0)],
    ).T
    base = (r0 + r_pi) / 2.0
    return FringeModel(
        baseline=RatePrediction(*base.tolist()),
        amplitude=(r0 - r_pi) / 2.0 + 1j * (base - r_quarter),
        pump_profile=config.pump_profile(),
        signal_filter=config.signal_filter,
    )
