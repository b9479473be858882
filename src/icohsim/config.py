r"""Declarative experiment configuration and its text format.

The on-disk format is a diff-friendly sectioned key=value file; keys carry
unit suffixes.  All values default to the reference bench parameters
(355 nm pump with 45 GHz bandwidth, 808 nm / 2 nm signal filter, 42 kHz
and 110 kHz detector rates, 2 ns coincidence window), so a config file only
needs to state what differs; each default is stated once, on its field.
A ``[scan]`` section must be present.  The config holds no seed, and no
command-line flag reaches it.

:data:`KEYS` has one row per key.  It drives the known-key check, the
conversion from the unit the key's name ends in (:data:`UNITS`) to SI, and
each key's range check.  A load checks each value's range where it reads
it, so the first bad value in file order is the one reported; building the
:class:`ExperimentConfig` then checks the cross-field rules, the scan grid's
first.  Construction checks every range too, for configs built in code.
The modules below trust a built config.  It is one flat dataclass with one
field per key, holding that key's SI value as the file states it.  The
module imports nothing from the package, so every other module imports it
directly.

``splitter_ratio`` is the transmitted intensity fraction of the output
recombination splitter.  ``pump.bandwidth_ghz`` alone sets the pump
spectrum.

Line grammar, read without ``configparser``.  :func:`parse_config` splits
the text at ``\n`` (:func:`load_config` maps a file's ``\r\n`` and lone
``\r`` to ``\n``, so they end its lines too) and reads each line in one
pass.  With surrounding whitespace stripped, a line is one of:

* blank;
* a comment: it starts with ``#`` or ``;``;
* a section header: ``[name]`` as the whole line, the name taken as it
  stands (case and inner spaces count);
* a key line ``key = value``: split at the first ``=``, the key stripped and
  lowercased, the value stripped.  A ``#`` or ``;`` after the ``=`` is part
  of the value.

A key line must follow a section header.  A line indented deeper than the
key line before it in its section is a continuation line, and values do not
span lines, so it is an error; blank and comment lines are exempt.
Unknown sections (``[DEFAULT]`` among them), unknown keys, and a section or
key given twice are errors too.  Every one of these errors names its line.

Numbers are ASCII, without underscores, and a value is what ``float``
reads.  Anything else, ``1_0`` or ``١٠`` among them, is an error naming its
``section.key`` and line, as is a value that is not finite in SI units or
lies outside its key's range.  Every range is finite and physical, so the
modules below need no guard against overflow, and every length the report
derives from a bandwidth is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

SPEED_OF_LIGHT = 299_792_458.0  # m/s
SCAN_AXES = ("signal", "pump")
MAX_SCAN_POINTS = 1_000_000
# The most bytes a config file may hold, far above any config (the shipped
# default holds 464): a load reads no further, so an endless file ends.  A
# read reserves a buffer of the bound's size first: at 1 MB that made each
# load some 30 us slower.
MAX_CONFIG_BYTES = 100_000
# Largest delay a scan may reach, in meters; a bench delay line is far shorter.
MAX_SCAN_DELAY = 1.0
# Physical bounds: wavelengths (m) from the far UV to the far IR, a detector
# rate (counts/s) far above any photon counter's, a window or dwell (s) of
# 11.6 days, and a scan step (m) far below a delay stage's resolution.
MIN_WAVELENGTH, MAX_WAVELENGTH = 1e-8, 1e-4
MAX_RATE = 1e12
MAX_SECONDS = 1e6
MIN_SCAN_STEP = 1e-12
# Narrowest spectra (SI): a 1 Hz pump and a 1 fm filter, far below any laser's or
# filter's width; 1 fm is 1e-06 nm as a file's value reads, so that text is exact.
MIN_PUMP_BANDWIDTH = 1.0
MIN_FILTER_BANDWIDTH = 1e-6 / 1e9
# Largest relative deviation of a delay step from the median step on a uniform grid.
GRID_TOLERANCE = 1e-6
# Finest scan step, as a fraction of the scan's largest |delay| M.  np.linspace
# puts each delay within 1.5 eps M of a uniform grid (eps = 2**-52) and stop
# within 2 eps M, so every step lies within 7 eps M of the median step, which is
# at least half the configured one (scan_grid rounds it no lower): inside
# GRID_TOLERANCE of it from 14 eps M / GRID_TOLERANCE on, and 16 leaves room.
MIN_STEP_FRACTION = 16 * 2.0**-52 / GRID_TOLERANCE
# Key suffix -> (multiply by, divide by) from file units to SI.  Dividing by
# an exact power of ten keeps 355 nm bit-identical to the literal 355e-9.
UNITS = {"nm": (1.0, 1e9), "um": (1.0, 1e6), "mm": (1.0, 1e3), "ns": (1.0, 1e9),
         "ghz": (1e9, 1.0), "hz": (1.0, 1.0), "s": (1.0, 1.0)}


class ConfigError(ValueError):
    """Invalid configuration text or values."""


@dataclass(frozen=True)
class Interval:
    """The numbers from ``low`` to ``high``; an open end excludes its endpoint."""

    low: float
    high: float
    low_open: bool = False
    high_open: bool = False

    def __contains__(self, value) -> bool:
        above = self.low < value if self.low_open else self.low <= value
        return above and (value < self.high if self.high_open else value <= self.high)


# The one gain limit, of the engine and the Fock-state oracle alike: both are
# first order in K, so a gain must stay well below 1.  Below it the two differ
# by one K^2 law: over random configs with splitter ratios in [0.05, 0.95],
# the relative deviation is at most 1.98 max(K1, K2)^2 in every gain decade
# from 1e-6 up to this limit, and at most 2.99 max(K1, K2)^2 at ratios within
# 1e-6 of 0 or 1.
MAX_GAIN = 0.1
# The least nonzero larger gain.  Rates are in units of K^2: below K = 1.5e-154
# K^2 leaves the normal floats and loses digits, and near K = 1e-160 it
# underflows to 0, which the engine reads as no pairs.  1e-150 lies far below
# any crystal's gain (the bench's is 1e-3) and keeps K^2 = 1e-300 a normal
# float.  The smaller gain has no floor: a K^2 that underflows beside the
# other's adds nothing to any rate.
MIN_GAIN = 1e-150
# The least share of either splitter port: the splitter ratio f and 1 - f are
# at least this.  With one crystal dark, detector A's rate goes as f K^2 or
# (1 - f) K^2, which at K = MIN_GAIN stays a normal float for a share of at
# least 2.3e-8; below that it loses digits, and it underflows to 0, which the
# counting layer reads as no pairs, at 1e-320 beside the bench's K = 1e-3.
# 1e-7 lies far below any bench splitter's share.
MIN_SPLITTER_FRACTION = 1e-7
GAIN = Interval(0.0, MAX_GAIN, high_open=True)
WAVELENGTH = Interval(MIN_WAVELENGTH, MAX_WAVELENGTH)
RATE = Interval(0.0, MAX_RATE, low_open=True)
SECONDS = Interval(0.0, MAX_SECONDS, low_open=True)
DELAY = Interval(-MAX_SCAN_DELAY, MAX_SCAN_DELAY)


def _show(bound: float) -> str:
    """``bound`` as ``:g`` prints it, with more digits where six do not read back as ``bound``."""
    return next(text for text in (f"{bound:.{digits}g}" for digits in range(6, 18)) if float(text) == bound)


@dataclass(frozen=True)
class Key:
    """One config key: ``[section]`` ``name`` (as typed, unit suffix included)
    is read as a float in SI units, or as a word if ``allowed`` is a tuple of
    words, must lie in ``allowed``, and goes to the :class:`ExperimentConfig`
    field ``field``.
    """

    section: str
    name: str
    field: str
    allowed: Interval | tuple[str, ...]

    @property
    def label(self) -> str:
        return f"{self.section}.{self.name}"

    def where(self, lineno: int = 0) -> str:
        """``section.key``, and its line if ``lineno`` is given, to start an error message."""
        return f"{self.label} at line {lineno}" if lineno else self.label

    @cached_property
    def unit(self) -> str:
        suffix = self.name.rpartition("_")[2]
        return suffix if suffix in UNITS else ""

    @property
    def allowed_text(self) -> str:
        """The allowed values in the key's file unit, as error messages state them."""
        if isinstance(self.allowed, tuple):
            return "{" + ", ".join(self.allowed) + "}"
        low, high = self.allowed.low, self.allowed.high
        if self.unit:
            mul, div = UNITS[self.unit]
            low, high = low * div / mul, high * div / mul
        return (
            f"{'(' if self.allowed.low_open else '['}{_show(low)}, "
            f"{_show(high)}{')' if self.allowed.high_open else ']'}"
        )

    def check(self, value, name: str = ""):
        """``value`` (SI) if the key allows it, else a ConfigError naming ``name``, by default the key."""
        if value not in self.allowed:
            raise ConfigError(f"{name or self.label} out of range: must lie in {self.allowed_text}")
        return value

    def parse(self, raw: str, name: str = ""):
        """The SI value of ``raw``, else a ConfigError naming ``name``, by default the key;
        its range is not checked here."""
        if isinstance(self.allowed, tuple):
            return raw
        try:
            # float would also take 1_0 and non-ASCII digits
            if "_" in raw or not raw.isascii():
                raise ValueError(raw)
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{name or self.label}: not a number: {raw!r}") from None
        mul, div = UNITS.get(self.unit, (1.0, 1.0))
        value = value * mul / div
        if not math.isfinite(value):
            raise ConfigError(f"{name or self.label}: not a finite number: {raw!r}")
        return value


KEYS = {
    (key.section, key.name): key
    for key in (
        Key("pump", "wavelength_nm", "pump_wavelength", WAVELENGTH),
        # Below the shortest pump's carrier; ExperimentConfig keeps it below the pump's own.
        Key("pump", "bandwidth_ghz", "pump_bandwidth",
            Interval(MIN_PUMP_BANDWIDTH, SPEED_OF_LIGHT / MIN_WAVELENGTH, high_open=True)),
        Key("pump", "splitter_ratio", "splitter_ratio", Interval(MIN_SPLITTER_FRACTION, 1.0 - MIN_SPLITTER_FRACTION)),
        Key("crystal1", "gain", "gain1", GAIN),
        Key("crystal2", "gain", "gain2", GAIN),
        Key("idler_link", "eta", "eta", Interval(0.0, 1.0)),
        Key("signal_filter", "center_nm", "signal_filter_center", WAVELENGTH),
        Key("signal_filter", "bandwidth_nm", "signal_filter_bandwidth", Interval(MIN_FILTER_BANDWIDTH, MAX_WAVELENGTH)),
        Key("detectors", "rate_a_hz", "rate_a_cal", RATE),
        Key("detectors", "rate_b_hz", "rate_b_cal", RATE),
        Key("detectors", "window_ns", "window", SECONDS),
        Key("scan", "axis", "axis", SCAN_AXES),
        Key("scan", "start_um", "start", DELAY),
        Key("scan", "stop_um", "stop", DELAY),
        Key("scan", "step_nm", "step", Interval(MIN_SCAN_STEP, 2.0 * MAX_SCAN_DELAY)),
        Key("scan", "dwell_s", "dwell", SECONDS),
    )
}
_SECTIONS = {section for section, _ in KEYS}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of the two-crystal setup, in SI units."""

    pump_wavelength: float = 355e-9
    pump_bandwidth: float = 45e9
    splitter_ratio: float = 0.5
    gain1: float = 1e-3
    gain2: float = 1e-3
    eta: float = 1.0
    signal_filter_center: float = 808e-9
    signal_filter_bandwidth: float = 2e-9  # wavelength FWHM
    # Detectors: fringe-baseline singles rates and coincidence window.
    rate_a_cal: float = 42_000.0
    rate_b_cal: float = 110_000.0
    window: float = 2e-9
    # Scan: axis, a uniform delay grid (meters) and the dwell per point (seconds).
    axis: str = "signal"
    start: float = -2e-6
    stop: float = 2e-6
    step: float = 10e-9
    dwell: float = 0.5

    def __post_init__(self) -> None:
        values = vars(self)
        for key in KEYS.values():
            key.check(values[key.field])
        if not self.stop > self.start:
            raise ConfigError("scan.stop_um must exceed scan.start_um")
        span = (self.stop - self.start) / self.step
        if not span < MAX_SCAN_POINTS or round(span) + 1 > MAX_SCAN_POINTS:
            raise ConfigError(
                f"scan.step_nm gives {span + 1:.3g} grid points; at most {MAX_SCAN_POINTS} allowed"
            )
        reach = max(abs(self.start), abs(self.stop))
        if not self.step >= MIN_STEP_FRACTION * reach:
            raise ConfigError(f"scan.step_nm is too fine for float64 delays on this scan: it must be at least "
                              f"{MIN_STEP_FRACTION:.3g} of its largest |delay|, {reach * 1e6:.6g} um")
        if not self.window < self.dwell:
            raise ConfigError("detectors.window_ns must be far below scan.dwell_s")
        # Below one count per window, the accidental rate r_a r_b window stays below each singles rate.
        per_window = self.window * max(self.rate_a_cal, self.rate_b_cal)
        if not per_window < 1.0:
            raise ConfigError(f"detectors.window_ns holds {per_window:.3g} counts per window at the larger of "
                              "detectors.rate_a_hz and detectors.rate_b_hz; it must hold below 1")
        if not self.signal_filter_bandwidth < self.signal_filter_center:
            raise ConfigError("signal_filter.bandwidth_nm must lie below signal_filter.center_nm: "
                              "the filter is not narrowband")
        # The pump twin of the signal filter's narrowband rule.
        carrier = SPEED_OF_LIGHT / self.pump_wavelength
        if not self.pump_bandwidth < carrier:
            raise ConfigError(
                f"pump.bandwidth_ghz gives a pump frequency FWHM of {self.pump_bandwidth:.3g} Hz, "
                f"not below the carrier frequency {carrier:.3g} Hz"
            )
        larger = max(self.gain1, self.gain2)
        if 0.0 < larger < MIN_GAIN:
            raise ConfigError(f"the larger of crystal1.gain and crystal2.gain is {larger:.3g}: it must be 0 "
                              f"or at least {MIN_GAIN:g}, so that the rates, in units of K^2, do not underflow")

    def signal_filter_fwhm(self) -> float:
        """The signal filter's frequency FWHM (Hz): c * bandwidth / center^2."""
        return SPEED_OF_LIGHT * self.signal_filter_bandwidth / self.signal_filter_center**2

    def scan_wavelength(self) -> float:
        """The expected fringe period of the scan axis."""
        return self.pump_wavelength if self.axis == "pump" else self.signal_filter_center


def _syntax_error(lineno: int, reason: str) -> ConfigError:
    return ConfigError(f"config syntax error at line {lineno}: {reason}")


def _read_sections(text: str) -> dict[str, dict[str, tuple[int, str]]]:
    """Split config text into {section: {key: (line number, raw value)}} by the line grammar.

    One pass over the lines; the first line that breaks the grammar, names an
    unknown section or key, or repeats a section or key raises ConfigError
    naming it and its line number.
    """
    sections: dict[str, dict[str, tuple[int, str]]] = {}
    name = ""
    body: dict[str, tuple[int, str]] | None = None
    key_indent = -1  # indentation of the section's last key line; -1 before one
    for lineno, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        indent = len(line) - len(line.lstrip())
        if 0 <= key_indent < indent:
            raise _syntax_error(
                lineno, f"continuation line under a {name} key; a value must fit on its key's line"
            )
        if stripped[0] == "[":
            if stripped[-1] != "]":
                raise _syntax_error(lineno, "a section header must be the whole line")
            name = stripped[1:-1]
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}] at line {lineno}")
            if name in sections:
                raise _syntax_error(lineno, f"duplicate section [{name}]")
            body = sections[name] = {}
            key_indent = -1
            continue
        key, equals, value = stripped.partition("=")
        key = key.rstrip().lower()
        if not equals or not key:
            raise _syntax_error(lineno, "expected [section], key = value, a comment or a blank line")
        if body is None:
            raise _syntax_error(lineno, "a key line before any [section] header")
        if (name, key) not in KEYS:
            raise ConfigError(f"unknown key {name}.{key} at line {lineno}")
        if key in body:
            raise _syntax_error(lineno, f"duplicate key {name}.{key}")
        body[key] = (lineno, value.strip())
        key_indent = indent
    return sections


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text, filling defaults for absent keys.

    Raises ConfigError for syntax problems, unknown sections or keys and
    repeated ones, a missing [scan] section, the first value in line order that
    is not a finite number in its key's range (naming its line), then a broken
    cross-field rule.
    """
    return _config_from_sections(_read_sections(text))


def _config_from_sections(sections: dict) -> ExperimentConfig:
    """Convert and range-check raw values in file order, then build the config once.

    Only the keys given reach the constructor, so an absent key takes its dataclass
    default.
    """
    if "scan" not in sections:
        raise ConfigError("missing section [scan]")
    values = {}
    for section, body in sections.items():
        for name, (lineno, raw) in body.items():
            key = KEYS[section, name]
            where = key.where(lineno)
            values[key.field] = key.check(key.parse(raw, where), where)
    return ExperimentConfig(**values)


def utf8_error(path: str, exc: UnicodeDecodeError, offset: int = 0) -> ConfigError:
    """The error for a file that is not UTF-8 text, naming its first bad byte and offset.

    ``offset`` is the file offset of the first byte of ``exc.object``, which is 0
    when ``exc`` comes from decoding the whole file at once.
    """
    return ConfigError(
        f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
        f"at offset {offset + exc.start} ({exc.reason})"
    )


def load_config(path: str) -> ExperimentConfig:
    """Read a config file of at most MAX_CONFIG_BYTES as UTF-8 with universal
    newlines (``\\r\\n`` and a lone ``\\r`` become ``\\n``) and parse it as
    :func:`parse_config` does."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigError(f"{path}: longer than {MAX_CONFIG_BYTES} bytes, the most a config file may hold")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise utf8_error(path, exc) from None
    return parse_config(text.replace("\r\n", "\n").replace("\r", "\n"))
