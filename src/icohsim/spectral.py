"""Finite-bandwidth coherence envelopes on top of the monochromatic model.

Fields are described by Gaussian spectral densities.  The fringe envelope
against a path delay is the normalized magnitude of the Fourier transform of
that density:

    env(dx) = exp(-(pi * dnu * dx / c)^2 / (4 ln 2))

with dnu the frequency FWHM; it falls to one half at the coherence length
2 ln2 c / (pi dnu) (:func:`coherence_length`).  That width is all an
envelope depends on, so both functions take it in Hz.  The pump's dnu is
the config's ``pump.bandwidth_ghz`` as the file states it, and the signal
filter's is c * bandwidth / center^2 (``ExperimentConfig.signal_filter_fwhm``).
Scanning the signal delay probes the detection filter's envelope; scanning
the pump delay probes the pump spectrum's much wider envelope, which is
what makes the pump-axis fringes survive far beyond the signal coherence
scale.

Every rate depends on the two delays only through the fringe phase
dphi = 2 pi (dx_p / lambda_p - dx_s / lambda_s) and follows the
induced-coherence law B + Re(A e^{i dphi}) of Zou, Wang and Mandel (PRL 67,
318, 1991).  :func:`compile_model` takes B and A once per config from the
engine's contraction of the chain, exact and with no delay setting
evaluated.  :meth:`FringeModel.monochromatic` evaluates that law and
:meth:`FringeModel.rates` damps its fringe term by both envelopes, the one
evaluator of either.  Both clamp it at 0, which roundoff at a dark fringe of
visibility 1 can undercut by a few ulps, so no rate is negative or -0.0 and
every other rate is the law's value bit for bit.  The tests check the
envelope law against an independent average of the monochromatic rates over
the spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, ExperimentConfig
from .expectation import fringe_law, setup_operators


def fringe_phase(config: ExperimentConfig, delta_x_p, delta_x_s):
    """dphi = 2 pi (dx_p / lambda_p - dx_s / lambda_s) of delays in meters: e^{i dphi} = u_p conj(u_s)."""
    return 2.0 * math.pi * (delta_x_p / config.pump_wavelength - delta_x_s / config.signal_filter_center)


def envelope(fwhm: float, delta_x: float | np.ndarray) -> float | np.ndarray:
    """Fringe envelope of a spectrum of frequency FWHM ``fwhm`` (Hz) at path
    delay ``delta_x`` (meters, scalar or array); 1 at zero delay.

    A config's widths stay below c / 10 nm and its delays within 1 m, so the
    argument's square stays below 1e18, far inside the float range.
    """
    arg = math.pi * fwhm * delta_x / SPEED_OF_LIGHT
    return np.exp(-(arg * arg) / (4.0 * math.log(2.0)))


def coherence_length(fwhm: float) -> float:
    """Delay at which the envelope of frequency FWHM ``fwhm`` (Hz) drops to one
    half: 2 ln2 c / (pi dnu)."""
    return 2.0 * math.log(2.0) * SPEED_OF_LIGHT / (math.pi * fwhm)


@dataclass(frozen=True, eq=False)
class FringeModel:
    """Closed-form rates of one config: per channel (p_a, p_b, p_ab) a
    phase-averaged baseline B and a complex fringe amplitude A."""

    baseline: np.ndarray  # (3,) float, channels (p_a, p_b, p_ab)
    amplitude: np.ndarray  # (3,) complex, channels (p_a, p_b, p_ab)
    config: ExperimentConfig  # sets the fringe periods and the envelope widths

    def _law(self, delta_x_p: np.ndarray, delta_x_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B and Re(A e^{i dphi}) on broadcast delay arrays, shaped (3, 1, ...) to add."""
        phase = fringe_phase(self.config, delta_x_p, delta_x_s)
        channels = (3,) + (1,) * phase.ndim
        return self.baseline.reshape(channels), (self.amplitude.reshape(channels) * np.exp(1j * phase)).real

    def monochromatic(
        self, delta_x_p: float | np.ndarray = 0.0, delta_x_s: float | np.ndarray = 0.0
    ) -> np.ndarray:
        """B + Re(A e^{i dphi}), clamped at 0, of scalar or (m,) delays: shape (3, m), (3, 1) for
        scalars; unequal lengths raise ValueError.  Elementwise, so a column is its one-setting call's."""
        base, fringe = self._law(*(np.array(x, dtype=float, ndmin=1) for x in (delta_x_p, delta_x_s)))
        return np.maximum(base + fringe, 0.0)

    def rates(
        self, delta_x_p: float | np.ndarray = 0.0, delta_x_s: float | np.ndarray = 0.0
    ) -> np.ndarray:
        """B + env_s(dx_s) env_p(dx_p) Re(A e^{i dphi}) on broadcast delays, clamped at 0.

        Returns shape (3, *delays.shape), rows (p_a, p_b, p_ab).
        """
        delta_x_p = np.asarray(delta_x_p, dtype=float)
        delta_x_s = np.asarray(delta_x_s, dtype=float)
        config = self.config
        env = envelope(config.signal_filter_fwhm(), delta_x_s) * envelope(config.pump_bandwidth, delta_x_p)
        base, fringe = self._law(delta_x_p, delta_x_s)
        return np.maximum(base + env * fringe, 0.0)


def compile_model(config: ExperimentConfig) -> FringeModel:
    """B and A of every channel, read exactly off fringe_law's contraction of
    setup_operators' channels."""
    base, amplitude = fringe_law(*setup_operators(config))
    return FringeModel(baseline=np.array(base), amplitude=np.array(amplitude), config=config)
