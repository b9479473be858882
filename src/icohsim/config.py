"""Declarative experiment configuration and its text format.

The on-disk format is a diff-friendly sectioned key=value file; keys carry
unit suffixes.  All values default to the reference bench parameters
(355 nm pump with 45 GHz bandwidth, 808 nm / 2 nm signal filter,
632 nm / 3 nm idler filter, 42 kHz and 110 kHz detector rates, 2 ns
coincidence window), so a config file only needs to state what differs.
A ``[scan]`` section must be present.

Sections and keys::

    [pump]          wavelength_nm, bandwidth_ghz, splitter_ratio,
                    stated_coherence_length_mm, coherence_length_override_mm
    [crystal1]      gain
    [crystal2]      gain
    [idler_link]    eta
    [signal_filter] center_nm, bandwidth_nm
    [idler_filter]  center_nm, bandwidth_nm
    [detectors]     rate_a_hz, rate_b_hz, window_ns, seed
    [scan]          axis, start_um, stop_um, step_nm, dwell_s

``splitter_ratio`` is the transmitted intensity fraction of the output
recombination splitter.  ``coherence_length_override_mm``, when set, rescales
the pump bandwidth so the envelope half-maximum matches the given length;
``stated_coherence_length_mm`` is informational only and lets reports compare
a quoted value against the one computed from the bandwidth.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, replace

from .counting import CountingConfig
from .spectral import SpectralProfile, profile_for_coherence_length

SCAN_AXES = ("signal", "pump")
MAX_SCAN_POINTS = 1_000_000


class ConfigError(ValueError):
    """Invalid configuration text or values."""


@dataclass(frozen=True)
class ScanSettings:
    """Delay scan definition: axis plus a uniform grid (meters, seconds)."""

    axis: str = "signal"
    start: float = -2e-6
    stop: float = 2e-6
    step: float = 10e-9
    dwell: float = 0.5

    def __post_init__(self) -> None:
        if self.axis not in SCAN_AXES:
            raise ConfigError(f"scan.axis must be one of {SCAN_AXES}, got {self.axis!r}")
        if not self.step > 0:
            raise ConfigError("scan.step must be positive")
        if not self.stop > self.start:
            raise ConfigError("scan.stop must exceed scan.start")
        if not self.dwell > 0:
            raise ConfigError("scan.dwell must be positive")
        span = (self.stop - self.start) / self.step
        if not span < MAX_SCAN_POINTS or round(span) + 1 > MAX_SCAN_POINTS:
            raise ConfigError(
                f"scan.step_nm gives {span + 1:.3g} grid points; at most {MAX_SCAN_POINTS} allowed"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of the two-crystal setup, in SI units."""

    pump_wavelength: float = 355e-9
    pump_bandwidth: float = 45e9
    splitter_ratio: float = 0.5
    stated_coherence_length: float | None = 1.4e-3
    coherence_length_override: float | None = None
    gain1: float = 1e-3
    gain2: float = 1e-3
    eta: float = 1.0
    signal_filter: SpectralProfile = field(
        default_factory=lambda: SpectralProfile(808e-9, fwhm_wavelength=2e-9)
    )
    idler_filter: SpectralProfile = field(
        default_factory=lambda: SpectralProfile(632e-9, fwhm_wavelength=3e-9)
    )
    detectors: CountingConfig = field(default_factory=CountingConfig)
    scan: ScanSettings = field(default_factory=ScanSettings)

    def __post_init__(self) -> None:
        if self.pump_wavelength <= 0:
            raise ConfigError("pump.wavelength out of range: must be positive")
        if self.pump_bandwidth <= 0:
            raise ConfigError("pump.bandwidth out of range: must be positive")
        if not 0.0 < self.splitter_ratio < 1.0:
            raise ConfigError("pump.splitter_ratio out of (0, 1)")
        if self.coherence_length_override is not None and self.coherence_length_override <= 0:
            raise ConfigError("pump.coherence_length_override out of range: must be positive")
        for name, gain in (("crystal1.gain", self.gain1), ("crystal2.gain", self.gain2)):
            if not 0.0 <= gain < 0.1:
                raise ConfigError(f"{name} out of [0, 0.1)")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError("idler_link.eta out of [0,1]")

    def pump_profile(self) -> SpectralProfile:
        """Pump spectrum; honors the coherence-length override if set."""
        profile = SpectralProfile(self.pump_wavelength, fwhm_frequency=self.pump_bandwidth)
        if self.coherence_length_override is not None:
            profile = profile_for_coherence_length(profile, self.coherence_length_override)
        return profile

    def scan_wavelength(self, axis: str | None = None) -> float:
        axis = axis or self.scan.axis
        if axis == "pump":
            return self.pump_wavelength
        return self.signal_filter.center_wavelength


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


_SCHEMA: dict[str, tuple[str, ...]] = {
    "pump": (
        "wavelength_nm",
        "bandwidth_ghz",
        "splitter_ratio",
        "stated_coherence_length_mm",
        "coherence_length_override_mm",
    ),
    "crystal1": ("gain",),
    "crystal2": ("gain",),
    "idler_link": ("eta",),
    "signal_filter": ("center_nm", "bandwidth_nm"),
    "idler_filter": ("center_nm", "bandwidth_nm"),
    "detectors": ("rate_a_hz", "rate_b_hz", "window_ns", "seed"),
    "scan": ("axis", "start_um", "stop_um", "step_nm", "dwell_s"),
}


def _get_float(
    sections,
    section: str,
    key: str,
    default: float | None,
    mul: float = 1.0,
    div: float = 1.0,
) -> float | None:
    """Fetch a numeric key, converting file units to SI as value * mul / div.

    Defaults are already SI and pass through untouched, so omitting a key
    reproduces the built-in value bit for bit.  Conversions divide by exact
    powers of ten where possible to keep parsed values identical to SI
    literals.
    """
    raw = sections.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return float(raw) * mul / div
    except ValueError:
        raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from None


def _get_int(sections, section: str, key: str, default: int) -> int:
    raw = sections.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not an integer: {raw!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text, filling defaults for absent keys.

    Raises ConfigError for syntax problems (with line numbers), unknown
    sections or keys, a missing [scan] section, and any value outside its
    physical range (named by field).
    """
    parser = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#", ";"),
        interpolation=None,
        strict=True,
    )
    try:
        parser.read_file(io.StringIO(text))
    except configparser.ParsingError as exc:
        lineno = getattr(exc, "lineno", None)
        if lineno is None:
            errors = getattr(exc, "errors", [])
            lines = ", ".join(f"line {n}" for n, _ in errors) or "unknown line"
        else:
            lines = f"line {lineno}"
        raise ConfigError(f"config syntax error at {lines}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    sections: dict[str, dict[str, str]] = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        body = dict(parser.items(name))
        for key in body:
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown key {name}.{key}")
        sections[name] = body

    if "scan" not in sections:
        raise ConfigError("missing section [scan]")

    defaults = default_config()

    stated = _get_float(
        sections, "pump", "stated_coherence_length_mm",
        defaults.stated_coherence_length, div=1e3,
    )
    override = _get_float(sections, "pump", "coherence_length_override_mm", None, div=1e3)

    try:
        signal_filter = SpectralProfile(
            _get_float(sections, "signal_filter", "center_nm", 808e-9, div=1e9),
            fwhm_wavelength=_get_float(sections, "signal_filter", "bandwidth_nm", 2e-9, div=1e9),
        )
    except ValueError as exc:
        raise ConfigError(f"signal_filter: {exc}") from None
    try:
        idler_filter = SpectralProfile(
            _get_float(sections, "idler_filter", "center_nm", 632e-9, div=1e9),
            fwhm_wavelength=_get_float(sections, "idler_filter", "bandwidth_nm", 3e-9, div=1e9),
        )
    except ValueError as exc:
        raise ConfigError(f"idler_filter: {exc}") from None

    scan = ScanSettings(
        axis=sections.get("scan", {}).get("axis", defaults.scan.axis),
        start=_get_float(sections, "scan", "start_um", defaults.scan.start, div=1e6),
        stop=_get_float(sections, "scan", "stop_um", defaults.scan.stop, div=1e6),
        step=_get_float(sections, "scan", "step_nm", defaults.scan.step, div=1e9),
        dwell=_get_float(sections, "scan", "dwell_s", defaults.scan.dwell),
    )

    window = _get_float(sections, "detectors", "window_ns", defaults.detectors.window, div=1e9)
    rate_a = _get_float(sections, "detectors", "rate_a_hz", defaults.detectors.rate_a_cal)
    rate_b = _get_float(sections, "detectors", "rate_b_hz", defaults.detectors.rate_b_cal)
    if not rate_a > 0:
        raise ConfigError("detectors.rate_a_hz out of range: must be positive")
    if not rate_b > 0:
        raise ConfigError("detectors.rate_b_hz out of range: must be positive")
    if not window > 0:
        raise ConfigError("detectors.window_ns out of range: must be positive")
    if not window < scan.dwell:
        raise ConfigError("detectors.window_ns must be far below scan.dwell_s")
    detectors = CountingConfig(
        rate_a_cal=rate_a,
        rate_b_cal=rate_b,
        window=window,
        dwell=scan.dwell,
        seed=_get_int(sections, "detectors", "seed", defaults.detectors.seed),
    )

    try:
        return ExperimentConfig(
            pump_wavelength=_get_float(sections, "pump", "wavelength_nm", 355e-9, div=1e9),
            pump_bandwidth=_get_float(sections, "pump", "bandwidth_ghz", 45e9, mul=1e9),
            splitter_ratio=_get_float(
                sections, "pump", "splitter_ratio", defaults.splitter_ratio
            ),
            stated_coherence_length=stated,
            coherence_length_override=override,
            gain1=_get_float(sections, "crystal1", "gain", defaults.gain1),
            gain2=_get_float(sections, "crystal2", "gain", defaults.gain2),
            eta=_get_float(sections, "idler_link", "eta", defaults.eta),
            signal_filter=signal_filter,
            idler_filter=idler_filter,
            detectors=detectors,
            scan=scan,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def with_overrides(
    config: ExperimentConfig,
    seed: int | None = None,
    axis: str | None = None,
) -> ExperimentConfig:
    """Apply command-line style overrides for the RNG seed and scan axis."""
    if seed is not None:
        config = replace(config, detectors=replace(config.detectors, seed=seed))
    if axis is not None:
        config = replace(config, scan=replace(config.scan, axis=axis))
    return config
