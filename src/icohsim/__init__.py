"""Simulator for two-crystal induced-coherence single-photon interference.

Builds the cascade of two parametric down-converters sharing an idler mode,
predicts singles and coincidence fringes against pump and signal delays,
Monte-Carlo samples photon counts, and fits fringe parameters back out.
"""

from .config import ConfigError, ExperimentConfig, ScanSettings, default_config, parse_config
from .counting import (
    CountingConfig,
    CountSample,
    accidental_rate,
    calibrate,
    double_pair_probability,
    sample_counts,
)
from .expectation import RatePrediction, compose_setup, phase_averaged_rates
from .fockoracle import FockState, build_state, detection_moments
from .operators import DelaySetting
from .scan import (
    FitNonConvergenceError,
    FringeFit,
    NoFringeError,
    ScanRecord,
    estimate_period,
    fit_fringe,
    run_scan,
)
from .spectral import (
    SpectralProfile,
    coherence_length,
    envelope,
    frequency_fwhm,
    modulated_rates,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CountSample",
    "CountingConfig",
    "DelaySetting",
    "ExperimentConfig",
    "FitNonConvergenceError",
    "FockState",
    "FringeFit",
    "NoFringeError",
    "RatePrediction",
    "ScanRecord",
    "ScanSettings",
    "SpectralProfile",
    "accidental_rate",
    "build_state",
    "calibrate",
    "coherence_length",
    "compose_setup",
    "default_config",
    "detection_moments",
    "double_pair_probability",
    "envelope",
    "estimate_period",
    "fit_fringe",
    "frequency_fwhm",
    "modulated_rates",
    "parse_config",
    "phase_averaged_rates",
    "run_scan",
    "sample_counts",
]
