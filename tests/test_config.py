from pathlib import Path

import pytest

from icohsim.config import (
    _SCHEMA,
    MAX_SCAN_DELAY,
    MAX_SCAN_POINTS,
    ConfigError,
    ExperimentConfig,
    ScanSettings,
    default_config,
    load_config,
    parse_config,
    with_overrides,
)
from icohsim.spectral import coherence_length

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILE = REPO_ROOT / "configs" / "default.ini"


def test_shipped_default_file_equals_builtin_defaults():
    assert load_config(str(DEFAULT_FILE)) == default_config()


def test_minimal_config_fills_defaults():
    cfg = parse_config("[scan]\n")
    assert cfg == default_config()
    assert cfg.pump_wavelength == 355e-9
    assert cfg.detectors.rate_a_cal == 42_000.0
    assert cfg.detectors.window == 2e-9
    assert cfg.scan.dwell == 0.5


def test_missing_scan_section_is_an_error():
    with pytest.raises(ConfigError, match=r"missing section \[scan\]"):
        parse_config("[pump]\nwavelength_nm = 355\n")


def test_eta_out_of_range_message():
    with pytest.raises(ConfigError, match=r"idler_link\.eta out of \[0,1\]"):
        parse_config("[idler_link]\neta = 1.3\n[scan]\n")


def test_gain_out_of_range():
    with pytest.raises(ConfigError, match=r"crystal1\.gain"):
        parse_config("[crystal1]\ngain = 0.5\n[scan]\n")
    with pytest.raises(ConfigError, match=r"crystal2\.gain"):
        parse_config("[crystal2]\ngain = -0.1\n[scan]\n")


def test_unknown_sections_and_keys_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[lens\]"):
        parse_config("[lens]\nfocal_mm = 100\n[scan]\n")
    with pytest.raises(ConfigError, match=r"unknown key scan\.speed"):
        parse_config("[scan]\nspeed = 3\n")
    # a removed key is unknown too
    with pytest.raises(ConfigError, match=r"unknown key pump\.truncation_degree"):
        parse_config("[pump]\ntruncation_degree = 1\n[scan]\n")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("what is this\n[scan]\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[scan]\naxis signal\n")


def test_number_parse_errors_name_the_key():
    with pytest.raises(ConfigError, match=r"crystal1\.gain"):
        parse_config("[crystal1]\ngain = tiny\n[scan]\n")
    with pytest.raises(ConfigError, match=r"detectors\.seed"):
        parse_config("[detectors]\nseed = 1.5\n[scan]\n")


FLOAT_KEYS = [
    (section, key)
    for section, keys in _SCHEMA.items()
    for key in keys
    if (section, key) not in {("detectors", "seed"), ("scan", "axis")}
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_non_finite_values_name_the_key(section, key, value):
    text = f"[{section}]\n{key} = {value}\n" + ("" if section == "scan" else "[scan]\n")
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: not a finite number: '{value}'$"):
        parse_config(text)


def test_unit_conversion_beyond_the_float_range_names_the_key():
    with pytest.raises(ConfigError, match=r"^pump\.bandwidth_ghz: not a finite number: '1e300'$"):
        parse_config("[pump]\nbandwidth_ghz = 1e300\n[scan]\n")


def test_scan_validation():
    with pytest.raises(ConfigError, match=r"scan\.axis"):
        parse_config("[scan]\naxis = diagonal\n")
    with pytest.raises(ConfigError, match=r"scan\.step"):
        parse_config("[scan]\nstep_nm = 0\n")
    with pytest.raises(ConfigError, match=r"scan\.stop"):
        parse_config("[scan]\nstart_um = 2\nstop_um = -2\n")


def test_scan_size_is_capped():
    for step_nm in ("1e-30", "1e-6", "0.003"):
        with pytest.raises(ConfigError, match=r"scan\.step_nm"):
            parse_config(f"[scan]\nstep_nm = {step_nm}\n")
    with pytest.raises(ConfigError, match=r"scan\.step_nm"):
        ScanSettings(start=0.0, stop=float("inf"), step=1e-9)
    # the largest allowed grid still constructs
    largest = ScanSettings(start=0.0, stop=(MAX_SCAN_POINTS - 1) * 1e-9, step=1e-9)
    assert round((largest.stop - largest.start) / largest.step) + 1 == MAX_SCAN_POINTS



def test_scan_delays_are_bounded():
    # the bound itself is allowed on both ends
    ScanSettings(start=-MAX_SCAN_DELAY, stop=MAX_SCAN_DELAY, step=0.01)
    with pytest.raises(ConfigError, match=r"scan\.start_um out of range"):
        ScanSettings(start=-1.0000001 * MAX_SCAN_DELAY, stop=0.0, step=0.01)
    with pytest.raises(ConfigError, match=r"scan\.stop_um out of range"):
        parse_config("[scan]\nstart_um = 0\nstop_um = 1.0000001e6\nstep_nm = 1e7\n")


@pytest.mark.parametrize("section", ["signal_filter"])
@pytest.mark.parametrize(
    "center, bandwidth",
    [("1e-300", "1e-301"), ("1e300", "1")],
    ids=["center_squared_underflows", "center_squared_overflows"],
)
def test_filter_frequency_width_must_be_finite_and_positive(section, center, bandwidth):
    text = f"[{section}]\ncenter_nm = {center}\nbandwidth_nm = {bandwidth}\n[scan]\n"
    with pytest.raises(ConfigError, match=rf"^{section}\.center_nm out of range"):
        parse_config(text)


@pytest.mark.parametrize("key", ["center_nm", "bandwidth_nm"])
def test_signal_filter_keys_must_be_positive(key):
    with pytest.raises(ConfigError, match=rf"^signal_filter\.{key} out of range: must be positive"):
        parse_config(f"[signal_filter]\n{key} = 0\n[scan]\n")


def test_detector_validation():
    with pytest.raises(ConfigError, match=r"detectors\.rate_a_hz"):
        parse_config("[detectors]\nrate_a_hz = 0\n[scan]\n")
    with pytest.raises(ConfigError, match=r"detectors\.window_ns"):
        parse_config("[detectors]\nwindow_ns = -1\n[scan]\n")
    # window must stay far below the dwell
    with pytest.raises(ConfigError, match="below"):
        parse_config("[detectors]\nwindow_ns = 2e9\n[scan]\ndwell_s = 1\n")


def test_unit_suffixes_convert_to_si():
    cfg = parse_config(
        "[pump]\nwavelength_nm = 400\nbandwidth_ghz = 10\n"
        "[signal_filter]\ncenter_nm = 810\nbandwidth_nm = 1\n"
        "[detectors]\nwindow_ns = 4\n"
        "[scan]\nstart_um = -1\nstop_um = 1\nstep_nm = 20\ndwell_s = 0.25\n"
    )
    assert cfg.pump_wavelength == pytest.approx(400e-9)
    assert cfg.pump_bandwidth == pytest.approx(10e9)
    assert cfg.signal_filter.center_wavelength == pytest.approx(810e-9)
    assert cfg.detectors.window == pytest.approx(4e-9)
    assert cfg.scan.start == pytest.approx(-1e-6)
    assert cfg.scan.step == pytest.approx(20e-9)
    assert cfg.scan.dwell == 0.25


def test_coherence_override_rescales_pump_profile():
    cfg = parse_config("[pump]\ncoherence_length_override_mm = 1.4\n[scan]\n")
    assert coherence_length(cfg.pump_profile()) == pytest.approx(1.4e-3, rel=1e-12)
    plain = parse_config("[scan]\n")
    assert coherence_length(plain.pump_profile()) == pytest.approx(2.94e-3, rel=1e-3)


def test_stated_coherence_length_is_informational():
    cfg = parse_config("[scan]\n")
    assert cfg.stated_coherence_length == pytest.approx(1.4e-3)
    # it must not touch the physics
    assert coherence_length(cfg.pump_profile()) == pytest.approx(2.94e-3, rel=1e-3)


def test_overrides_helper():
    cfg = default_config()
    changed = with_overrides(cfg, seed=42, axis="pump")
    assert changed.detectors.seed == 42
    assert changed.scan.axis == "pump"
    assert with_overrides(cfg) == cfg


def test_direct_construction_validates():
    with pytest.raises(ConfigError):
        ExperimentConfig(eta=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(splitter_ratio=0.0)


def test_comments_and_blank_lines_are_fine():
    cfg = parse_config(
        "# a comment\n\n[scan]\n; another comment style\naxis = pump\n"
    )
    assert cfg.scan.axis == "pump"
