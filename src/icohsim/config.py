r"""Declarative experiment configuration and its text format.

The on-disk format is a diff-friendly sectioned key=value file; keys carry
unit suffixes.  All values default to the reference bench parameters
(355 nm pump with 45 GHz bandwidth, 808 nm / 2 nm signal filter, 42 kHz
and 110 kHz detector rates, 2 ns coincidence window), so a config file only
needs to state what differs.
A ``[scan]`` section must be present.

:data:`KEYS` has one row per key.  It drives the known-key check, the
conversion from the unit the key's name ends in (:data:`UNITS`) to SI, and
each key's range check.  :meth:`Key.parse` only converts text to SI, and
:class:`ExperimentConfig`'s construction is the one place values are
checked: each key's range, then the cross-field rules, the scan grid's
first.  A load joins ``--seed``, the one flag that replaces a file value,
to the file's values before it, so each value is checked once.  The modules
below trust a built config.  It is one flat dataclass with one field per
key, holding that key's SI value as the file states it.  The module
imports nothing from the package, so every other module imports it
directly.

``splitter_ratio`` is the transmitted intensity fraction of the output
recombination splitter.  ``pump.bandwidth_ghz`` alone sets the pump
spectrum.

Line grammar.  :func:`parse_config` splits the text at ``\n`` (:func:`load_config`
maps a file's ``\r\n`` and lone ``\r`` to ``\n``, so they end its lines
too) and reads each line in one pass.  With surrounding whitespace stripped,
a line is one of:

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

Numbers are ASCII, without underscores.  A float value is what ``float``
reads, and ``detectors.seed`` what ``int(value, 0)`` reads: decimal, or with
a ``0x``, ``0o`` or ``0b`` prefix.  Anything else, ``1_0`` or ``١٠`` among
them, is an error naming its ``section.key`` and line, as is a value that is
not finite in SI units or lies outside its key's range.  Every range is
finite and physical, so the modules below need no guard against overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

SPEED_OF_LIGHT = 299_792_458.0  # m/s
# Seeds are 64-bit words; the sampler's Philox stream is keyed by the seed.
SEED_LIMIT = 2**64
SCAN_AXES = ("signal", "pump")
MAX_SCAN_POINTS = 1_000_000
# Largest delay a scan may reach, in meters; a bench delay line is far shorter.
MAX_SCAN_DELAY = 1.0
# Physical bounds: wavelengths (m) from the far UV to the far IR, a detector
# rate (counts/s) far above any photon counter's, a window or dwell (s) of
# 11.6 days, and a scan step (m) far below a delay stage's resolution.
MIN_WAVELENGTH, MAX_WAVELENGTH = 1e-8, 1e-4
MAX_RATE = 1e12
MAX_SECONDS = 1e6
MIN_SCAN_STEP = 1e-12
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


# The engine is first order in K, so a gain must stay well below 1.
MAX_GAIN = 0.1
GAIN = Interval(0.0, MAX_GAIN, high_open=True)
WAVELENGTH = Interval(MIN_WAVELENGTH, MAX_WAVELENGTH)
RATE = Interval(0.0, MAX_RATE, low_open=True)
SECONDS = Interval(0.0, MAX_SECONDS, low_open=True)
DELAY = Interval(-MAX_SCAN_DELAY, MAX_SCAN_DELAY)


def _show(bound: float) -> str:
    # The seed's bound reads better as a power than as 20 digits.
    return f"2**{bound.bit_length() - 1}" if bound == SEED_LIMIT else f"{bound:g}"


@dataclass(frozen=True)
class Key:
    """One config key: ``[section]`` ``name`` (as typed, unit suffix included)
    is read as ``kind``, converted to SI, must lie in ``allowed``, and goes to
    the :class:`ExperimentConfig` field ``field``.
    """

    section: str
    name: str
    field: str
    allowed: Interval | tuple[str, ...]
    kind: type = float

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
        if self.kind is str:
            return raw
        try:
            # float and int would also take 1_0 and non-ASCII digits
            if "_" in raw or not raw.isascii():
                raise ValueError(raw)
            value = float(raw) if self.kind is float else int(raw, 0)
        except ValueError:
            noun = "a number" if self.kind is float else "an integer"
            raise ConfigError(f"{name or self.label}: not {noun}: {raw!r}") from None
        if self.kind is float:
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
            Interval(0.0, SPEED_OF_LIGHT / MIN_WAVELENGTH, low_open=True, high_open=True)),
        Key("pump", "splitter_ratio", "splitter_ratio", Interval(0.0, 1.0, low_open=True, high_open=True)),
        Key("crystal1", "gain", "gain1", GAIN),
        Key("crystal2", "gain", "gain2", GAIN),
        Key("idler_link", "eta", "eta", Interval(0.0, 1.0)),
        Key("signal_filter", "center_nm", "signal_filter_center", WAVELENGTH),
        Key("signal_filter", "bandwidth_nm", "signal_filter_bandwidth", Interval(0.0, MAX_WAVELENGTH, low_open=True)),
        Key("detectors", "rate_a_hz", "rate_a_cal", RATE),
        Key("detectors", "rate_b_hz", "rate_b_cal", RATE),
        Key("detectors", "window_ns", "window", SECONDS),
        Key("detectors", "seed", "seed", Interval(0, SEED_LIMIT, high_open=True), int),
        Key("scan", "axis", "axis", SCAN_AXES, str),
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
    # Detectors: fringe-baseline singles rates, coincidence window, RNG seed.
    rate_a_cal: float = 42_000.0
    rate_b_cal: float = 110_000.0
    window: float = 2e-9
    seed: int = 20260810
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
        if not self.window < self.dwell:
            raise ConfigError("detectors.window_ns must be far below scan.dwell_s")
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


def parse_config(text: str, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate config text, filling defaults for absent keys; ``seed``,
    if given, replaces the file's ``detectors.seed``, as ``--seed`` does.

    Raises ConfigError for syntax problems, unknown sections or keys and
    repeated ones, a missing [scan] section, the first value in line order that
    is not a finite number in its key's range (naming its line), then a broken
    cross-field rule, and last a ``seed`` out of its key's range.
    """
    return _config_from_sections(_read_sections(text), seed)


def _config_from_sections(sections: dict, seed: int | None = None) -> ExperimentConfig:
    """Convert raw values in file order, join the ``--seed`` value, then build the config once.

    Only the keys given reach the constructor, so an absent key takes its dataclass
    default.  Only a failed load checks again, for the first error in parse_config's order.
    """
    if "scan" not in sections:
        raise ConfigError("missing section [scan]")
    given = []  # (key, line, SI value) in file order
    for section, body in sections.items():
        for name, (lineno, raw) in body.items():
            key = KEYS[section, name]
            try:
                given.append((key, lineno, key.parse(raw, key.where(lineno))))
            except ConfigError:
                _check_in_file_order(given)
                raise
    values = {key.field: value for key, _, value in given}
    try:
        return ExperimentConfig(**(values if seed is None else {**values, "seed": seed}))
    except ConfigError:
        _check_in_file_order(given)
        ExperimentConfig(**values)  # the file's cross-field errors come before the flag's
        KEYS["detectors", "seed"].check(seed, "--seed")
        raise


def _check_in_file_order(given: list) -> None:
    """Raise the range error of the first of the file's values out of range, naming its line."""
    for key, lineno, value in given:
        key.check(value, key.where(lineno))


def utf8_error(path: str, exc: UnicodeDecodeError) -> ConfigError:
    """The error for a file that is not UTF-8 text, naming its first bad byte and offset.

    ``exc`` comes from decoding the whole file at once, so its offsets are the file's.
    """
    return ConfigError(
        f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
        f"at offset {exc.start} ({exc.reason})"
    )


def load_config(path: str, seed: int | None = None) -> ExperimentConfig:
    """Read a config file as UTF-8 with universal newlines (``\\r\\n`` and a
    lone ``\\r`` become ``\\n``) and parse it as :func:`parse_config` does,
    ``seed`` replacing the file's ``detectors.seed`` if given."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise utf8_error(path, exc) from None
    return parse_config(text.replace("\r\n", "\n").replace("\r", "\n"), seed)
