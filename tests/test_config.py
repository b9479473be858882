import configparser
import dataclasses
import inspect
import io
import itertools
import math
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icohsim.cli import build_report, main, oracle_comparison
from icohsim.config import (
    KEYS,
    UNITS,
    _config_from_sections,
    _read_sections,
    MAX_RATE,
    MAX_SCAN_DELAY,
    MAX_SCAN_POINTS,
    MAX_SECONDS,
    MAX_WAVELENGTH,
    MIN_FILTER_BANDWIDTH,
    MIN_PUMP_BANDWIDTH,
    MIN_SCAN_STEP,
    MIN_STEP_FRACTION,
    MIN_WAVELENGTH,
    SCAN_AXES,
    SPEED_OF_LIGHT,
    ConfigError,
    ExperimentConfig,
    Interval,
    load_config,
    Key,
    parse_config,
)
from icohsim.scan import SOURCES, NoFringeError, fit_fringe, run_scan, scan_grid
from icohsim.spectral import compile_model

from conftest import DEFAULT_SEED, config_with, fresh_import

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILE = REPO_ROOT / "configs" / "default.ini"
SECTIONS = list(dict.fromkeys(section for section, _ in KEYS))


def test_config_is_the_bottom_layer():
    # the config imports nothing from the package, and so no numpy either
    assert fresh_import("icohsim.config") == ["['icohsim', 'icohsim.config']", "False"]


def test_shipped_default_file_equals_builtin_defaults():
    assert load_config(str(DEFAULT_FILE)) == ExperimentConfig()


def test_shipped_default_file_states_every_key_in_table_order():
    sections = _read_sections(DEFAULT_FILE.read_text(encoding="utf-8"))
    assert [(section, name) for section, body in sections.items() for name in body] == list(KEYS)


def test_minimal_config_fills_defaults():
    cfg = parse_config("[scan]\n")
    assert cfg == ExperimentConfig()
    assert cfg.pump_wavelength == 355e-9
    assert cfg.rate_a_cal == 42_000.0
    assert cfg.window == 2e-9
    assert cfg.dwell == 0.5


def test_missing_scan_section_is_an_error():
    with pytest.raises(ConfigError, match=r"missing section \[scan\]"):
        parse_config("[pump]\nwavelength_nm = 355\n")


def test_eta_out_of_range_message():
    with pytest.raises(ConfigError) as info:
        parse_config("[idler_link]\neta = 1.3\n[scan]\n")
    assert str(info.value) == "idler_link.eta at line 2 out of range: must lie in [0, 1]"


def test_gain_out_of_range():
    # the bound is config.MAX_GAIN, itself excluded
    for section, gain in [("crystal1", "0.5"), ("crystal2", "-0.1"), ("crystal1", "0.1"), ("crystal2", "0.1")]:
        with pytest.raises(ConfigError) as info:
            parse_config(f"[{section}]\ngain = {gain}\n[scan]\n")
        assert str(info.value) == f"{section}.gain at line 2 out of range: must lie in [0, 0.1)"
    below = math.nextafter(0.1, 0.0)
    cfg = parse_config(f"[crystal1]\ngain = {below!r}\n[crystal2]\ngain = {below!r}\n[scan]\n")
    assert cfg.gain1 == cfg.gain2 == below


def test_unknown_sections_and_keys_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[lens\]"):
        parse_config("[lens]\nfocal_mm = 100\n[scan]\n")
    with pytest.raises(ConfigError, match=r"unknown key scan\.speed"):
        parse_config("[scan]\nspeed = 3\n")
    # removed keys are unknown too
    with pytest.raises(ConfigError, match=r"unknown key pump\.truncation_degree"):
        parse_config("[pump]\ntruncation_degree = 1\n[scan]\n")
    for name in ("coherence_length_override_mm", "stated_coherence_length_mm"):
        with pytest.raises(ConfigError, match=rf"^unknown key pump\.{name} at line 2$"):
            parse_config(f"[pump]\n{name} = 1.4\n[scan]\n")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("what is this\n[scan]\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[scan]\naxis signal\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[scan]\n\n[lens]\nfocal_mm = 100\n", "unknown section [lens] at line 3"),
        ("[scan]\naxis = pump\n# note\nspeed = 3\n", "unknown key scan.speed at line 4"),
        ("[scan]\n[pump]\n[scan]\n", "config syntax error at line 3: duplicate section [scan]"),
        ("[scan]\naxis = pump\nAxis = signal\n", "config syntax error at line 3: duplicate key scan.axis"),
        ("[scan]\naxis = pump\n\naxis = signal\n", "config syntax error at line 4: duplicate key scan.axis"),
        ("gain = 0.001\n[scan]\n", "config syntax error at line 1: a key line before any [section]"),
        ("[scan]\n= 1\n", "config syntax error at line 2: expected [section], key = value"),
    ],
    ids=["unknown_section", "unknown_key", "duplicate_section", "duplicate_key", "duplicate_key_after_blank",
         "no_section", "no_key"],
)
def test_errors_name_their_line(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value).startswith(message)
    # the same line numbers with \r\n line ends
    with pytest.raises(ConfigError) as info:
        parse_config(text.replace("\n", "\r\n"))
    assert str(info.value).startswith(message)


def is_listed_new_rejection(text: str, message: str) -> bool:
    """Whether the line grammar's error on text configparser accepted is a listed new rejection.

    These are a continuation line, text after a header's ``]``, and ``[DEFAULT]``;
    each is checked on the line the message names.
    """
    lineno = int(re.search(r"line (\d+)", message).group(1))
    line = text.split("\n")[lineno - 1].strip()
    if "continuation line" in message:
        # configparser joined this line onto a value
        return any(
            line in value.split("\n")[1:]
            for body in configparser_sections(text).values()
            for value in body.values()
        )
    if "a section header must be the whole line" in message:
        return line.startswith("[") and "]" in line
    return message.startswith("unknown section [DEFAULT]") and line == "[DEFAULT]"


@pytest.mark.parametrize(
    "text",
    [
        "[crystal1]\ngain =\n    0.002\n[scan]\n",
        "[scan]\nstep_nm =\n\n  20\n",
        "[DEFAULT]\n[scan]\n",
        "[DEFAULT]\naxis = pump\n[scan]\n",
        "[scan] axis = pump\n",
        "[scan] ; signal axis\n",
    ],
    ids=["continuation", "continuation_after_blank", "default", "default_key", "trailing_key", "trailing_comment"],
)
def test_new_rejections_name_their_line(text):
    configparser_config(text)  # configparser accepts it
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert is_listed_new_rejection(text, str(info.value)), info.value


def configparser_sections(text: str) -> dict[str, dict[str, str]]:
    """Reference front half: {section: {key: raw value}} as configparser reads it.

    configparser is set up strict, with ``=`` as the only delimiter and
    full-line ``#`` and ``;`` comments.  Raises ConfigError on anything it
    rejects and on unknown sections or keys, as ``config._read_sections`` does.
    """
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#", ";"), interpolation=None, strict=True
    )
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    sections = {}
    for name in parser.sections():
        if name not in SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        body = dict(parser.items(name))
        for key in body:
            if (name, key) not in KEYS:
                raise ConfigError(f"unknown key {name}.{key}")
        sections[name] = body
    return sections


def configparser_config(text: str) -> ExperimentConfig:
    # configparser keeps no line numbers; they only ever appear in messages
    sections = configparser_sections(text)
    return _config_from_sections(
        {name: {key: (0, raw) for key, raw in body.items()} for name, body in sections.items()}
    )


# Raw values, in file units, that pass validation for each key name.
GOOD_VALUES = {
    "wavelength_nm": ["355", "400.5"],
    "bandwidth_ghz": ["45", "1e1"],
    "splitter_ratio": ["0.5", "0.3"],
    "gain": ["0.001", "1e-4"],
    "eta": ["1.0", "0.7"],
    "center_nm": ["808", "810"],
    "bandwidth_nm": ["2", "1"],
    "rate_a_hz": ["42000", "5e3"],
    "rate_b_hz": ["110000", "1e5"],
    "window_ns": ["2", "4"],
    "axis": ["signal", "pump"],
    "start_um": ["-2", "-1"],
    "stop_um": ["2", "1.5"],
    "step_nm": ["10", "20"],
    "dwell_s": ["0.5", "1"],
}


def test_every_key_moves_a_scan_record():
    """No key is informational: each key's second good value changes run_scan's
    delays, rates or counts on the signal or the pump axis.  The scan axis key is
    compared with each config on its own axis."""
    default = ExperimentConfig()
    inert = []
    for key in KEYS.values():
        config = parse_config(
            f"[{key.section}]\n{key.name} = {GOOD_VALUES[key.name][1]}\n"
            + ("" if key.section == "scan" else "[scan]\n")
        )
        pairs = [(default, config)] if key.field == "axis" else [
            (dataclasses.replace(default, axis=axis), dataclasses.replace(config, axis=axis))
            for axis in SCAN_AXES
        ]
        if all(_scan_record(before) == _scan_record(after) for before, after in pairs):
            inert.append(key.label)
    assert inert == []


def _scan_record(config: ExperimentConfig) -> tuple[bytes, bytes, bytes]:
    scan = run_scan(config, DEFAULT_SEED)
    return scan.delays.tobytes(), scan.rates.tobytes(), scan.counts.tobytes()


BAD_VALUES = st.sampled_from(["", "abc", "nan", "-1", "0.001 # note"])
GOOD = {key: st.sampled_from(values) for key, values in GOOD_VALUES.items()}
ODD_SECTIONS = ["DEFAULT", "lens", "Scan", " scan "]
INDENTS = st.sampled_from(["", " ", "\t", "    "])
NOTES = st.sampled_from(["", "  ", "# note", "; note", "#[scan]", ";gain = 1"])
ODD_NOTES = st.sampled_from(["0.001", "what is this", "= 1", "[scan"])
TRAILING = st.sampled_from([" x", " ; note", "]"])
CASES = st.sampled_from([str.lower, str.lower, str.upper, str.title])
EQUALS = st.sampled_from(["=", " = ", " =  ", "\t=\t"])
FLAWS = st.sampled_from([None, "section", "note", "header", "key", "value", "indent", "continuation"])


@st.composite
def config_lines(draw):
    """A config as a list of lines from a small alphabet.

    Each config draws at most one kind of flaw, so that the rest of it is
    well formed, and the flaw strikes at about half of the places it can: an
    odd, repeated or missing section, a line of no kind, trailing text after
    a header, an unknown or repeated key, a bad value, a deeper indent, or an
    empty value continued on the next line.
    """
    flaw = draw(FLAWS)

    def odd(kind: str) -> bool:
        return flaw == kind and draw(st.booleans())

    names = draw(st.lists(st.sampled_from(SECTIONS), unique=True, min_size=1, max_size=5))
    if "scan" not in names and not odd("section"):
        names.append("scan")
    if odd("section"):
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from([*ODD_SECTIONS, *names])))
    lines = []
    for name in names:
        indent = draw(INDENTS)
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(INDENTS) + draw(NOTES))
        if odd("note"):
            lines.append(draw(ODD_NOTES))
        lines.append(f"{indent}[{name}]{draw(TRAILING) if odd('header') else ''}")
        known = [key for section, key in KEYS if section == name] or ["gain", "axis"]
        keys = draw(st.lists(st.sampled_from(known), unique=True, max_size=4))
        if odd("key"):
            keys.append(draw(st.sampled_from([*keys, "speed"])))
        for key in keys:
            value = draw(BAD_VALUES if odd("value") else GOOD.get(key, st.just("3")))
            line = draw(INDENTS) if odd("indent") else indent
            line += draw(CASES)(key) + draw(EQUALS)
            if odd("continuation"):
                lines += [line, f"{line[:len(line) - len(line.lstrip())]}  {value}"]
            else:
                lines.append(line + value)
            if draw(st.integers(0, 4)) == 0:
                lines.append(draw(INDENTS) + draw(NOTES))
    return lines


@settings(max_examples=250, deadline=None, derandomize=True)
@given(config_lines(), st.sampled_from(["\n", "\r\n"]), st.booleans())
@example(["[crystal1]", "gain =", "  0.002", "[scan]"], "\n", True)
@example(["[DEFAULT]", "axis = pump", "[scan]"], "\r\n", True)
@example(["[scan] axis = pump"], "\n", False)
@example(
    ["  [crystal1]", "  gain = 0.002", "\t[scan]", "\taxis = pump", "\t  # note", "\tdwell_s = 1"],
    "\n",
    True,
)
@example(["[pump]", "wavelength_nm = 355", "[scan]", "    axis = pump"], "\n", True)
@example(["[ scan ]", "axis = pump"], "\n", True)
def test_line_grammar_agrees_with_configparser(lines, newline, final_newline):
    text = newline.join(lines) + (newline if final_newline else "")
    try:
        expected = configparser_config(text)
    except ConfigError:
        expected = None
    try:
        got = parse_config(text)
    except ConfigError as exc:
        assert expected is None or is_listed_new_rejection(text, str(exc)), (text, exc)
        return
    assert got == expected, text


def test_number_parse_errors_name_the_key():
    with pytest.raises(ConfigError, match=r"crystal1\.gain"):
        parse_config("[crystal1]\ngain = tiny\n[scan]\n")
    with pytest.raises(ConfigError, match=r"detectors\.window_ns"):
        parse_config("[detectors]\nwindow_ns = 1,5\n[scan]\n")


# float() and int(x, 0) take these: 10, 10 (Arabic-Indic digits), 1e10, 10
# (fullwidth digits); the config grammar, like the CSV grammar, does not.
@pytest.mark.parametrize("value", ["1_0", "١٠", "1e1_0", "１０"])
def test_float_values_are_ascii_without_underscores(value):
    with pytest.raises(ConfigError, match=rf"^detectors\.rate_a_hz at line 2: not a number: '{value}'$"):
        parse_config(f"[detectors]\nrate_a_hz = {value}\n[scan]\n")


FLOAT_KEYS = [(section, name) for (section, name), key in KEYS.items() if not isinstance(key.allowed, tuple)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_non_finite_values_name_the_key(section, key, value):
    text = f"[{section}]\n{key} = {value}\n" + ("" if section == "scan" else "[scan]\n")
    with pytest.raises(ConfigError, match=rf"^{section}\.{key} at line 2: not a finite number: '{value}'$"):
        parse_config(text)


def test_unit_conversion_beyond_the_float_range_names_the_key():
    with pytest.raises(ConfigError, match=r"^pump\.bandwidth_ghz at line 2: not a finite number: '1e300'$"):
        parse_config("[pump]\nbandwidth_ghz = 1e300\n[scan]\n")


def test_scan_validation():
    for text, message in [
        ("[scan]\naxis = diagonal\n", "scan.axis at line 2 out of range: must lie in {signal, pump}"),
        ("[scan]\nstep_nm = 0\n", "scan.step_nm at line 2 out of range: must lie in [0.001, 2e+09]"),
        ("[scan]\nstart_um = 2\nstop_um = -2\n", "scan.stop_um must exceed scan.start_um"),
    ]:
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message


def test_scan_size_is_capped():
    for step_nm in ("1e-30", "1e-6", "0.003"):
        with pytest.raises(ConfigError, match=r"scan\.step_nm"):
            parse_config(f"[scan]\nstep_nm = {step_nm}\n")
    # a step so fine that its grid's size would overflow is below the step's range
    with pytest.raises(ConfigError) as info:
        config_with(start=0.0, stop=1.0, step=5e-324)
    assert str(info.value) == "scan.step_nm out of range: must lie in [0.001, 2e+09]"
    # an infinite stop is out of its own range first
    with pytest.raises(ConfigError) as info:
        config_with(start=0.0, stop=float("inf"), step=1e-9)
    assert str(info.value) == "scan.stop_um out of range: must lie in [-1e+06, 1e+06]"
    # the largest allowed grid still constructs
    largest = config_with(start=0.0, stop=(MAX_SCAN_POINTS - 1) * 1e-9, step=1e-9)
    assert round((largest.stop - largest.start) / largest.step) + 1 == MAX_SCAN_POINTS


def test_scan_delays_are_bounded():
    # the bound itself is allowed on both ends
    config_with(start=-MAX_SCAN_DELAY, stop=MAX_SCAN_DELAY, step=0.01)
    with pytest.raises(ConfigError) as info:
        config_with(start=-1.0000001 * MAX_SCAN_DELAY, stop=0.0, step=0.01)
    assert str(info.value) == "scan.start_um out of range: must lie in [-1e+06, 1e+06]"
    with pytest.raises(ConfigError) as info:
        parse_config("[scan]\nstart_um = 0\nstop_um = 1.0000001e6\nstep_nm = 1e7\n")
    assert str(info.value) == "scan.stop_um at line 3 out of range: must lie in [-1e+06, 1e+06]"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[idler_link]\neta = 1.3\n[scan]\nstep_nm = abc\n", "idler_link.eta at line 2 out of range: must lie in [0, 1]"),
        ("[crystal1]\ngain = 0.5\n[pump]\nwavelength_nm = nan\n[scan]\n", "crystal1.gain at line 2 out of range"),
        ("[scan]\nstep_nm = abc\n[idler_link]\neta = 1.3\n", "scan.step_nm at line 2: not a number: 'abc'"),
        # sections opposite to the table's order: the first line still wins
        ("[scan]\nstep_nm = 0\n[pump]\nwavelength_nm = 0\n", "scan.step_nm at line 2 out of range"),
        ("[scan]\ndwell_s = -1\n[detectors]\nwindow_ns = -1\n[crystal1]\ngain = 1\n", "scan.dwell_s at line 2 out of range"),
        # a range error comes before a cross-field break on an earlier line
        ("[scan]\nstart_um = 1\nstop_um = -1\n[pump]\nwavelength_nm = 0\n", "pump.wavelength_nm at line 5 out of range"),
    ],
)
def test_the_first_bad_line_is_reported(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value).startswith(message)


def test_single_key_bounds_run_before_cross_field_rules():
    # a start beyond the delay bound would also give 2e+08 grid points at the default step
    with pytest.raises(ConfigError) as info:
        parse_config("[scan]\nstart_um = -2e6\n")
    assert str(info.value) == "scan.start_um at line 2 out of range: must lie in [-1e+06, 1e+06]"


@pytest.mark.parametrize("section", ["signal_filter"])
@pytest.mark.parametrize(
    "center, bandwidth",
    [("1e-300", "1e-301"), ("1e300", "1")],
    ids=["center_squared_underflows", "center_squared_overflows"],
)
def test_filter_frequency_width_must_be_finite_and_positive(section, center, bandwidth):
    # centers whose square leaves the float range lie outside the center's range
    text = f"[{section}]\ncenter_nm = {center}\nbandwidth_nm = {bandwidth}\n[scan]\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == f"{section}.center_nm at line 2 out of range: must lie in [10, 100000]"


@pytest.mark.parametrize("key", ["center_nm", "bandwidth_nm"])
def test_signal_filter_keys_must_be_positive(key):
    allowed = {"center_nm": "[10, 100000]", "bandwidth_nm": "[1e-06, 100000]"}[key]
    with pytest.raises(ConfigError) as info:
        parse_config(f"[signal_filter]\n{key} = 0\n[scan]\n")
    assert str(info.value) == f"signal_filter.{key} at line 2 out of range: must lie in {allowed}"


def test_detector_validation():
    with pytest.raises(ConfigError, match=r"detectors\.rate_a_hz"):
        parse_config("[detectors]\nrate_a_hz = 0\n[scan]\n")
    with pytest.raises(ConfigError, match=r"detectors\.window_ns"):
        parse_config("[detectors]\nwindow_ns = -1\n[scan]\n")
    # window must stay far below the dwell
    for window in ("2e9", "1e9"):
        with pytest.raises(ConfigError, match=r"^detectors\.window_ns must be far below scan\.dwell_s$"):
            parse_config(f"[detectors]\nwindow_ns = {window}\n[scan]\ndwell_s = 1\n")


def test_unit_suffixes_convert_to_si():
    cfg = parse_config(
        "[pump]\nwavelength_nm = 400\nbandwidth_ghz = 10\n"
        "[signal_filter]\ncenter_nm = 810\nbandwidth_nm = 1\n"
        "[detectors]\nwindow_ns = 4\n"
        "[scan]\nstart_um = -1\nstop_um = 1\nstep_nm = 20\ndwell_s = 0.25\n"
    )
    assert cfg.pump_wavelength == pytest.approx(400e-9)
    assert cfg.pump_bandwidth == pytest.approx(10e9)
    assert cfg.signal_filter_center == pytest.approx(810e-9)
    assert cfg.window == pytest.approx(4e-9)
    assert cfg.start == pytest.approx(-1e-6)
    assert cfg.step == pytest.approx(20e-9)
    assert cfg.dwell == 0.25


def test_overrides_helper():
    # no flag replaces a file value: a load takes the file alone, which states
    # no seed, and the scan axis is always the file's
    assert list(inspect.signature(load_config).parameters) == ["path"]
    assert list(inspect.signature(parse_config).parameters) == ["text"]
    assert load_config(str(DEFAULT_FILE)) == ExperimentConfig()
    assert parse_config("[scan]\naxis = pump\n") == dataclasses.replace(ExperimentConfig(), axis="pump")
    assert "seed" not in {field.name for field in dataclasses.fields(ExperimentConfig)}
    for value in ("1", "-1", "99999999999999999999999"):
        with pytest.raises(ConfigError) as info:
            parse_config(f"[detectors]\nseed = {value}\n[scan]\n")
        assert str(info.value) == "unknown key detectors.seed at line 2"


def test_load_config_reads_every_line_end_alike(tmp_path):
    # a blank line between two lone \r is one empty line, and \r\r\n is two line ends
    good = DEFAULT_FILE.read_bytes()
    bad = b"# a value out of range\n\n[scan]\nstep_nm = 10\n\nstart_um = -2e6\n"
    loaded, errors = [], []
    for name, newline in [("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r"), ("cr-crlf", b"\r\r\n")]:
        path = tmp_path / f"{name}.ini"
        path.write_bytes(good.replace(b"\n", newline))
        loaded.append(load_config(str(path)))
        path.write_bytes(bad.replace(b"\n", newline))
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        errors.append(str(info.value))
    assert loaded == [ExperimentConfig()] * 4
    assert errors[:3] == ["scan.start_um at line 6 out of range: must lie in [-1e+06, 1e+06]"] * 3
    assert errors[3] == "scan.start_um at line 11 out of range: must lie in [-1e+06, 1e+06]"


@pytest.mark.parametrize("flags", [[], ["--seed", "42"]])
def test_a_load_checks_each_key_once_and_builds_one_config(tmp_path, monkeypatch, flags):
    # the file states every key, on either scan axis; the load checks each value
    # once, where it reads it and names its line, and the one build checks each
    # key's range again, as it does for a config built in code
    checks, builds = [], []
    check, post_init = Key.check, ExperimentConfig.__post_init__
    monkeypatch.setattr(Key, "check", lambda key, *args: checks.append((key.label, *args[1:])) or check(key, *args))
    monkeypatch.setattr(ExperimentConfig, "__post_init__", lambda config: builds.append(config) or post_init(config))
    text = DEFAULT_FILE.read_text(encoding="utf-8")
    for axis in SCAN_AXES:
        config = tmp_path / f"{axis}.ini"
        config.write_text(text.replace("\naxis = signal\n", f"\naxis = {axis}\n"), encoding="utf-8")
        checks.clear()
        builds.clear()
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "scan.csv"), *flags]) == 0
        labels = [key.label for key in KEYS.values()]
        assert [label for label, *_ in checks[:len(KEYS)]] == labels
        assert all(where.startswith(f"{label} at line ") for label, where in checks[:len(KEYS)])
        assert checks[len(KEYS):] == [(label,) for label in labels]
        assert [built.axis for built in builds] == [axis]


def test_direct_construction_validates():
    with pytest.raises(ConfigError):
        ExperimentConfig(eta=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(splitter_ratio=0.0)
    # no field is optional: None is refused for a float and a choice
    for field in ("gain1", "pump_bandwidth", "axis"):
        with pytest.raises((TypeError, ConfigError)):
            ExperimentConfig(**{field: None})


def test_pump_carrier_frequency_must_be_finite():
    # 4.94065646e-315 nm is the smallest subnormal in meters, whose c / wavelength
    # is inf: below the wavelength's range, as is every wavelength with no finite carrier
    message = "pump.wavelength_nm out of range: must lie in [10, 100000]"
    with pytest.raises(ConfigError) as info:
        parse_config("[pump]\nwavelength_nm = 4.94065646e-315\n[scan]\n")
    assert str(info.value) == message.replace(" out of range", " at line 2 out of range")
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(pump_wavelength=5e-324)
    assert str(info.value) == message
    # the shortest pump's carrier is the bandwidth's bound, and finite
    assert SPEED_OF_LIGHT / MIN_WAVELENGTH == KEYS["pump", "bandwidth_ghz"].allowed.high < math.inf


# (center m, wavelength FWHM m, the key the error names) of hand-built signal filters.
BAD_FILTERS = {
    "zero_center": (0.0, 2e-9, "center_nm"),
    "negative_center": (-808e-9, 2e-9, "center_nm"),
    "inf_center": (math.inf, 2e-9, "center_nm"),
    "nan_center": (math.nan, 2e-9, "center_nm"),
    "zero_fwhm": (808e-9, 0.0, "bandwidth_nm"),
    "negative_fwhm": (808e-9, -2e-9, "bandwidth_nm"),
    "inf_fwhm": (808e-9, math.inf, "bandwidth_nm"),
    "nan_fwhm": (808e-9, math.nan, "bandwidth_nm"),
    "broadband": (808e-9, 900e-9, "bandwidth_nm"),
}


@pytest.mark.parametrize("center, bandwidth, key", BAD_FILTERS.values(), ids=BAD_FILTERS)
def test_hand_built_signal_filter_profile_is_checked(center, bandwidth, key):
    with pytest.raises(ConfigError, match=rf"^signal_filter\.{key} "):
        ExperimentConfig(signal_filter_center=center, signal_filter_bandwidth=bandwidth)


def test_file_made_signal_filters_equal_direct_construction():
    # The narrowest and widest filters a file can state near the default center.
    for bandwidth in (1e-06, 807.9):
        cfg = parse_config(f"[signal_filter]\ncenter_nm = 808\nbandwidth_nm = {bandwidth!r}\n[scan]\n")
        assert ExperimentConfig(signal_filter_center=808e-9, signal_filter_bandwidth=bandwidth / 1e9) == cfg


def _filter_decision(center_nm: float, bandwidth_nm: float):
    """The config a file stating the filter (nm) gives, or its error message, checking that
    direct construction from the same SI values decides the same."""
    text = f"[signal_filter]\ncenter_nm = {center_nm!r}\nbandwidth_nm = {bandwidth_nm!r}\n[scan]\n"
    decisions = []
    for build in (
        lambda: parse_config(text),
        lambda: ExperimentConfig(signal_filter_center=center_nm / 1e9, signal_filter_bandwidth=bandwidth_nm / 1e9),
    ):
        try:
            decisions.append(build())
        except ConfigError as exc:
            decisions.append(str(exc))
    assert decisions[0] == decisions[1], text
    return decisions[0]


# Filters (nm) whose bandwidth lies a rounding below the center.  The narrowband rule
# stated on frequencies instead, c * bandwidth / center^2 < c / center, refuses them.
NARROWBAND_EDGE = [
    (1080.8710009051863, 1080.871000905186),
    (1703.329282769045, 1703.3292827690448),
    (516.9551670433184, 516.9551670433183),
    (334.2905947017477, 334.29059470174764),
]


def test_narrowband_rule_is_bandwidth_below_center():
    rng = random.Random(20261019)
    # bandwidths within 1e-15 relative below centers of 300-2000 nm
    draws = []
    for _ in range(300):
        center = rng.uniform(300.0, 2000.0)
        draws.append((center, center * (1.0 - rng.random() * 1e-15)))
    for center in (808.0, 300.0, 2000.0, MIN_WAVELENGTH * 1e9, MAX_WAVELENGTH * 1e9):
        draws += [(center, math.nextafter(center, 0.0)), (center, center)]
    for center, bandwidth in draws + NARROWBAND_EDGE:
        decision = _filter_decision(center, bandwidth)
        narrowband = bandwidth / 1e9 < center / 1e9
        assert isinstance(decision, ExperimentConfig) is narrowband, (center, bandwidth)
        assert narrowband or decision == (
            "signal_filter.bandwidth_nm must lie below signal_filter.center_nm: the filter is not narrowband"
        )
    for center in (808e-9, 300e-9, 2e-6, MIN_WAVELENGTH, MAX_WAVELENGTH):
        ExperimentConfig(signal_filter_center=center, signal_filter_bandwidth=math.nextafter(center, 0.0))
    for center, bandwidth in NARROWBAND_EDGE:
        config = _filter_decision(center, bandwidth)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (None, DEFAULT_SEED):
                run_scan(config, seed)
            build_report(config)
            oracle_comparison(config, 4)


def test_values_built_in_code_must_be_statable_in_the_file_unit():
    # the range's ends in the file unit give the very floats of its ends in SI
    for text, step, stop in [("2e9", 2.0, 1.0), ("0.001", MIN_SCAN_STEP, 5e-7)]:
        cfg = parse_config(f"[scan]\nstart_um = 0\nstop_um = {stop * 1e6:g}\nstep_nm = {text}\n")
        assert cfg.step == step
        assert ExperimentConfig(start=0.0, stop=stop, step=step) == cfg
    # one step beyond either end is out of range, in code as in the file
    for step in (math.nextafter(2.0, math.inf), math.nextafter(MIN_SCAN_STEP, 0.0)):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(step=step)
        assert str(info.value) == "scan.step_nm out of range: must lie in [0.001, 2e+09]"


# Per key: a value it refuses as typed, the same value in SI units, and the
# allowed range the message states.
OUT_OF_RANGE = {
    "pump.wavelength_nm": ("0", 0.0, "[10, 100000]"),
    "pump.bandwidth_ghz": ("-45", -45e9, "[1e-09, 29979245.8)"),
    "pump.splitter_ratio": ("1", 1.0, "(0, 1)"),
    "crystal1.gain": ("0.1", 0.1, "[0, 0.1)"),
    "crystal2.gain": ("-1e-3", -1e-3, "[0, 0.1)"),
    "idler_link.eta": ("1.3", 1.3, "[0, 1]"),
    "signal_filter.center_nm": ("0", 0.0, "[10, 100000]"),
    "signal_filter.bandwidth_nm": ("-2", -2e-9, "[1e-06, 100000]"),
    "detectors.rate_a_hz": ("0", 0.0, "(0, 1e+12]"),
    "detectors.rate_b_hz": ("-1", -1.0, "(0, 1e+12]"),
    "detectors.window_ns": ("0", 0.0, "(0, 1e+15]"),
    "scan.axis": ("diagonal", "diagonal", "{signal, pump}"),
    "scan.start_um": ("-2e6", -2.0, "[-1e+06, 1e+06]"),
    "scan.stop_um": ("1.0000001e6", 1.0000001, "[-1e+06, 1e+06]"),
    "scan.step_nm": ("0", 0.0, "[0.001, 2e+09]"),
    "scan.dwell_s": ("-0.5", -0.5, "(0, 1e+06]"),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("key", KEYS.values(), ids=lambda key: key.label)
def test_each_key_range_is_checked_in_files_and_on_construction(key, newline):
    raw, si, allowed = OUT_OF_RANGE[key.label]
    assert key.allowed_text == allowed
    lines = ["# a value out of range", "", f"[{key.section}]", f"{key.name} = {raw}"]
    if key.section != "scan":
        lines.append("[scan]")
    with pytest.raises(ConfigError) as info:
        parse_config(newline.join(lines) + newline)
    message = f"{key.label} out of range: must lie in {allowed}"
    assert str(info.value) == message.replace(" out of range", " at line 4 out of range", 1)
    with pytest.raises(ConfigError) as info:
        built({key.label: si})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "key", [key for key in KEYS.values() if not isinstance(key.allowed, tuple)], ids=lambda key: key.label
)
def test_each_range_text_states_its_exact_bounds(key):
    # each end reads back as the very bound, in the file unit and, parsed, in SI;
    # it is :g's text unless six digits would not read back
    mul, div = UNITS.get(key.unit, (1.0, 1.0))
    for text, bound in zip(key.allowed_text[1:-1].split(", "), (key.allowed.low, key.allowed.high)):
        assert float(text) == bound * div / mul and key.parse(text) == bound, key.label
        assert text == f"{float(text):g}" or float(f"{float(text):g}") != float(text)


def test_bandwidth_floors_are_the_narrowest_spectra():
    # a 1 Hz pump and a 1 fm filter, as the range texts state them; one ulp below is refused
    cfg = parse_config("[pump]\nbandwidth_ghz = 1e-09\n[signal_filter]\nbandwidth_nm = 1e-06\n[scan]\n")
    assert (cfg.pump_bandwidth, cfg.signal_filter_bandwidth) == (MIN_PUMP_BANDWIDTH, MIN_FILTER_BANDWIDTH)
    assert MIN_PUMP_BANDWIDTH == 1.0 and MIN_FILTER_BANDWIDTH == pytest.approx(1e-15, rel=1e-15)
    for label, field, floor in [("pump.bandwidth_ghz", "pump_bandwidth", MIN_PUMP_BANDWIDTH),
                                ("signal_filter.bandwidth_nm", "signal_filter_bandwidth", MIN_FILTER_BANDWIDTH)]:
        with pytest.raises(ConfigError, match=rf"^{re.escape(label)} out of range"):
            ExperimentConfig(**{field: math.nextafter(floor, 0.0)})
    # the values that made the report print inf mm
    with pytest.raises(ConfigError, match=r"^pump\.bandwidth_ghz at line 2 out of range"):
        parse_config("[pump]\nbandwidth_ghz = 1e-320\n[signal_filter]\nbandwidth_nm = 1e-310\n[scan]\n")


def test_readme_key_table_matches_the_code():
    """README's "Config keys" table lists the table's keys in order, with their
    units, allowed ranges, and defaults that parse to the built-in ones."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    after = readme.split("### Config keys\n", 1)[1]
    table = after[after.index("\n|") + 1 :].split("\n\n", 1)[0].splitlines()
    rows = [[cell.strip(" `") for cell in line.strip("|").split("|")] for line in table]
    assert rows[0] == ["Section", "Key", "Unit", "Default", "Allowed"]
    assert set(rows[1][0]) <= set("-: ")
    listed = {(section, name): (unit, default, allowed) for section, name, unit, default, allowed in rows[2:]}
    assert list(listed) == list(KEYS)
    for (section, name), (unit, default, allowed) in listed.items():
        key = KEYS[section, name]
        assert unit.lower().replace("µ", "u") == key.unit, key.label
        assert allowed == key.allowed_text, key.label
        text = f"[{section}]\n{name} = {default}\n" + ("" if section == "scan" else "[scan]\n")
        assert parse_config(text) == ExperimentConfig(), key.label


def test_comments_and_blank_lines_are_fine():
    cfg = parse_config(
        "# a comment\n\n[scan]\n; another comment style\naxis = pump\n"
    )
    assert cfg.axis == "pump"


BY_LABEL = {key.label: key for key in KEYS.values()}


def test_every_config_field_is_the_target_of_one_key():
    """The config is flat: its fields are the keys' fields, one each, and each
    default passes its key's range check."""
    fields = dataclasses.fields(ExperimentConfig)
    assert sorted(key.field for key in KEYS.values()) == sorted(field.name for field in fields)
    defaults = {field.name: field.default for field in fields}
    for key in KEYS.values():
        default = defaults[key.field]
        assert key.check(default) == default, key.label


def in_range(key, allowed: Interval | None = None):
    """Values of ``key`` (SI) from ``allowed``, by default the key's whole range: its
    ends, 5e-324 when allowed, draws in between, and the bench values of GOOD_VALUES
    that lie in it."""
    if isinstance(key.allowed, tuple):
        return st.sampled_from(key.allowed)
    allowed = allowed or key.allowed
    bench = [key.parse(raw) for raw in GOOD_VALUES[key.name]]
    low, high = allowed.low, allowed.high
    ends = [
        math.nextafter(low, high) if allowed.low_open else low,
        math.nextafter(high, low) if allowed.high_open else high,
        5e-324,
    ]
    between = st.floats(low, high, exclude_min=allowed.low_open, exclude_max=allowed.high_open)
    return st.sampled_from([value for value in dict.fromkeys(bench + ends) if value in allowed]) | between


def built(values: dict) -> ExperimentConfig:
    """The config with the SI ``values`` (by ``section.key``) in place of its defaults."""
    return ExperimentConfig(**{BY_LABEL[label].field: value for label, value in values.items()})


def first_points(config: ExperimentConfig, count: int) -> ExperimentConfig:
    """The config with its scan cut to its first ``count`` grid points, by a stop the config checks."""
    grid = scan_grid(config)
    return config if len(grid) <= count else dataclasses.replace(config, stop=float(grid[count - 1]))


# The largest window at the largest rates: below one count per window.
LARGEST_WINDOW = math.nextafter(1.0 / MAX_RATE, 0.0)
# The corners of the ranges: the largest rates with the largest window the
# rule allows and the largest dwell, a 10 nm pump at its bandwidth bound on a
# +-1 m pump scan, the widest filter, and the finest step.
CORNERS = [
    {"detectors.rate_a_hz": MAX_RATE, "detectors.rate_b_hz": MAX_RATE,
     "detectors.window_ns": LARGEST_WINDOW, "scan.dwell_s": MAX_SECONDS},
    {"pump.wavelength_nm": MIN_WAVELENGTH, "pump.bandwidth_ghz": math.nextafter(SPEED_OF_LIGHT / MIN_WAVELENGTH, 0.0),
     "scan.axis": "pump", "scan.start_um": -MAX_SCAN_DELAY, "scan.stop_um": MAX_SCAN_DELAY, "scan.step_nm": 1e-5},
    {"signal_filter.center_nm": MAX_WAVELENGTH, "signal_filter.bandwidth_nm": math.nextafter(MAX_WAVELENGTH, 0.0)},
    {"scan.step_nm": MIN_SCAN_STEP, "scan.start_um": 0.0, "scan.stop_um": 1e-7},
]


def finest_step(start: float, stop: float) -> float:
    """The finest step the config's rules leave a scan from ``start`` to ``stop``:
    at least MIN_SCAN_STEP and MIN_STEP_FRACTION of the largest |delay|, and at most
    MAX_SCAN_POINTS grid points."""
    step = max(MIN_SCAN_STEP, MIN_STEP_FRACTION * max(abs(start), abs(stop)), (stop - start) / (MAX_SCAN_POINTS - 1))
    while round((stop - start) / step) + 1 > MAX_SCAN_POINTS:
        step = math.nextafter(step, math.inf)
    return step


def largest_window(dwell: float, rate: float) -> float:
    """The largest window the config's rules leave: below ``dwell``, and below one
    count per window at ``rate``, the larger detector rate."""
    window = min(math.nextafter(dwell, 0.0), math.nextafter(1.0 / rate, 0.0))
    while not window * rate < 1.0:
        window = math.nextafter(window, 0.0)
    return window


# Scan spans (m): the bench's, the ends, and draws spread over every decade between.
SPANS = st.sampled_from([4e-6, 2e-6, MIN_SCAN_STEP, 2 * MAX_SCAN_DELAY]) | st.floats(
    math.log10(MIN_SCAN_STEP), math.log10(2 * MAX_SCAN_DELAY)).map(lambda exponent: 10.0**exponent)


@st.composite
def valid_configs(draw) -> dict:
    """SI values of every key, by label, that build a config.  Each key is drawn from
    its own range; a key that a cross-field rule ties to others is drawn from the part
    of its range that the rule leaves.  A rule added to ExperimentConfig that this does
    not mirror fails the test below instead of thinning its examples."""
    keys = {key.label: key for key in KEYS.values()}
    values = {label: draw(in_range(key)) for label, key in keys.items() if label not in {
        "pump.bandwidth_ghz", "signal_filter.bandwidth_nm", "detectors.window_ns",
        "scan.start_um", "scan.stop_um", "scan.step_nm", "scan.dwell_s"}}
    carrier = SPEED_OF_LIGHT / values["pump.wavelength_nm"]
    values["pump.bandwidth_ghz"] = draw(in_range(
        keys["pump.bandwidth_ghz"], Interval(MIN_PUMP_BANDWIDTH, carrier, high_open=True)))
    values["signal_filter.bandwidth_nm"] = draw(in_range(
        keys["signal_filter.bandwidth_nm"],
        Interval(MIN_FILTER_BANDWIDTH, values["signal_filter.center_nm"], high_open=True)))
    # A window must lie below the dwell, so the dwell lies above the least positive float.
    dwell = values["scan.dwell_s"] = draw(in_range(keys["scan.dwell_s"], Interval(5e-324, MAX_SECONDS, low_open=True)))
    rate = max(values["detectors.rate_a_hz"], values["detectors.rate_b_hz"])
    values["detectors.window_ns"] = draw(in_range(
        keys["detectors.window_ns"], Interval(0.0, largest_window(dwell, rate), low_open=True)))
    # The stop is the start plus a span, at most MAX_SCAN_DELAY; a span of at least
    # MIN_SCAN_STEP moves a start of magnitude at most 1 m.
    start = values["scan.start_um"] = draw(in_range(
        keys["scan.start_um"], Interval(-MAX_SCAN_DELAY, MAX_SCAN_DELAY, high_open=True)))
    stop = values["scan.stop_um"] = min(start + draw(SPANS), MAX_SCAN_DELAY)
    finest = finest_step(start, stop)
    values["scan.step_nm"] = draw(
        in_range(keys["scan.step_nm"], Interval(finest, 2 * MAX_SCAN_DELAY))
        | st.integers(1, 10_000).map(lambda intervals: max(finest, (stop - start) / intervals)))
    return values


@settings(max_examples=180, deadline=None, derandomize=True)
@given(valid_configs())
@example(CORNERS[0])
@example(CORNERS[1])
@example(CORNERS[2])
@example(CORNERS[3])
def test_a_built_config_runs_every_stage_without_a_warning(values):
    """What a built config guarantees is all the modules below it need: every config
    of values that keep the config's rules builds, and every stage runs it cleanly.
    A record's rates and sampled counts fit, or the fit says it found no fringe or
    did not converge."""
    config = built(values)
    for label, value in values.items():
        assert repr(getattr(config, BY_LABEL[label].field)) == repr(value), label
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile_model(config)
        for seed in (None, DEFAULT_SEED):
            record = run_scan(first_points(config, 2001), seed)
            for channel, source in itertools.product(("singles", "coincidence"), SOURCES if seed is not None else ["rates"]):
                try:
                    fit_fringe(record, channel, source, dwell=config.dwell)
                except NoFringeError:
                    pass
        build_report(config)
        oracle_comparison(config, 4)
