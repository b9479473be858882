import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icohsim.scan
from icohsim import cli
from icohsim.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_FIT,
    EXIT_IO,
    EXIT_OK,
    MAX_ORACLE_POINTS,
    main,
    oracle_comparison,
    read_scan_csv,
)
from icohsim.config import MAX_GAIN, ConfigError, load_config
from icohsim.counting import SEED_LIMIT
from icohsim.scan import SOURCES, FringeFit, fit_fringe, run_scan
from icohsim.spectral import coherence_length, compile_model

from conftest import DEFAULT_SEED, config_with, near_nyquist_record
REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = str(REPO_ROOT / "configs" / "default.ini")

FIT_KEYS = [
    "period_m",
    "period_sigma_m",
    "visibility",
    "visibility_sigma",
    "envelope_center_m",
    "envelope_fwhm_m",
    "phase_rad",
    "baseline_hz",
    "reduced_residual",
    "converged",
    "iterations",
    "envelope_resolved",
    "envelope_center_sigma_m",
    "envelope_fwhm_sigma_m",
    "phase_sigma_rad",
    "baseline_sigma_hz",
    "channel",
    "source",
    "phase_reference_m",
]


def write_config(tmp_path, text="[scan]\n", name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_simulate_then_fit_signal_default(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 402

    fit_out = tmp_path / "fit.json"
    assert (
        main(["fit", str(out), "--config", DEFAULT_CONFIG, "--out", str(fit_out), "--quiet"])
        == EXIT_OK
    )
    summary = json.loads(fit_out.read_text(encoding="utf-8"))
    assert list(summary.keys()) == FIT_KEYS
    assert abs(summary["period_m"] - 808e-9) < 1e-9
    assert summary["converged"] is True


def _reject_constant(name):
    raise AssertionError(f"JSON is not strict: non-finite constant {name}")


def read_json(path):
    """The JSON document at path, which must be strict JSON laid out as json.dumps(indent=2) writes it."""
    text = path.read_bytes().decode("utf-8")
    data = json.loads(text, parse_constant=_reject_constant)
    assert text == json.dumps(data, indent=2) + "\n", path
    return data


def test_fit_json_reports_diagnostics_as_strict_json(tmp_path):
    scan = tmp_path / "scan.csv"
    args = ["--config", DEFAULT_CONFIG, "--quiet"]
    assert main(["simulate", *args, "--seed", "3", "--out", str(scan)]) == EXIT_OK
    fit_out = tmp_path / "fit.json"
    assert main(["fit", str(scan), *args, "--out", str(fit_out)]) == EXIT_OK
    summary = json.loads(fit_out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert list(summary.keys()) == FIT_KEYS
    assert summary["iterations"] > 0
    # a 4 um scan does not resolve the 288 um signal envelope: its width is a
    # lower bound, with no centre and no uncertainty
    assert summary["envelope_resolved"] is False
    assert summary["envelope_center_m"] is None
    assert 0 < summary["envelope_fwhm_m"] <= 288e-6
    assert summary["envelope_fwhm_sigma_m"] is None
    assert summary["phase_sigma_rad"] > 0
    assert summary["baseline_sigma_hz"] > 0
    assert summary["channel"] == "singles"
    assert summary["source"] == "counts"


def test_noisy_visibility_above_one_is_reported_unclipped(tmp_path):
    # at eta = 1 noise puts the visibility estimate above 1 on about half the seeds
    scan = tmp_path / "scan.csv"
    args = ["--config", DEFAULT_CONFIG, "--quiet"]
    assert main(["simulate", *args, "--seed", "2", "--out", str(scan)]) == EXIT_OK
    fit_out = tmp_path / "fit.json"
    assert main(["fit", str(scan), *args, "--out", str(fit_out)]) == EXIT_OK
    summary = json.loads(fit_out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert summary["visibility"] > 1
    assert 0 < summary["visibility_sigma"] < 1e-3
    assert summary["visibility"] - 1 < 3 * summary["visibility_sigma"]


# Simulated scans and the channel fitted: the default scan on both axes and
# both channels, a signal scan in 3 nm steps, and a pump scan in 1.5 nm steps
# 600 um out.
FIT_RUNS = [
    ("[scan]\n", "singles"),
    ("[scan]\n", "coincidence"),
    ("[scan]\naxis = pump\n", "singles"),
    ("[scan]\naxis = pump\n", "coincidence"),
    ("[scan]\nstep_nm = 3\n", "singles"),
    ("[scan]\naxis = pump\nstart_um = 599\nstop_um = 601\nstep_nm = 1.5\n", "singles"),
]


def test_fit_is_byte_deterministic(tmp_path):
    # Each scan simulate writes, fitted twice and from a copy with \r\n line
    # ends, gives one JSON file: a converged counts fit of the axis wavelength
    # within 1e-9 m, its phase at mid-scan with a sigma below a milliradian.
    scan, crlf, out = tmp_path / "scan.csv", tmp_path / "crlf.csv", tmp_path / "fit.json"
    for text, channel in FIT_RUNS:
        config = write_config(tmp_path, text)
        assert main(["simulate", "--config", config, "--out", str(scan), "--quiet"]) == EXIT_OK
        crlf.write_bytes(scan.read_bytes().replace(b"\n", b"\r\n"))
        outputs = []
        for source in (scan, scan, crlf):
            assert main(["fit", str(source), "--config", config, "--channel", channel, "--out", str(out),
                         "--quiet"]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs == outputs[:1] * 3, (text, channel)
        summary = read_json(out)
        assert list(summary) == FIT_KEYS
        assert summary["converged"] is True and summary["source"] == "counts", (text, channel)
        cfg = load_config(config)
        assert abs(summary["period_m"] - cfg.scan_wavelength()) <= 1e-9, (text, channel)
        middle = (cfg.start + cfg.stop) / 2
        assert abs(summary["phase_reference_m"] - middle) <= 1e-12 * abs(middle), (text, channel)
        assert summary["phase_sigma_rad"] < 1e-3, (text, channel)


def test_simulate_then_fit_pump_axis(tmp_path):
    config = write_config(
        tmp_path, "[scan]\naxis = pump\nstart_um = -1\nstop_um = 1\nstep_nm = 10\n"
    )
    out = tmp_path / "pump.csv"
    assert main(["simulate", "--config", config, "--out", str(out), "--quiet"]) == EXIT_OK
    fit_out = tmp_path / "pump_fit.json"
    assert (
        main(["fit", str(out), "--config", config, "--out", str(fit_out), "--quiet"])
        == EXIT_OK
    )
    summary = json.loads(fit_out.read_text(encoding="utf-8"))
    assert abs(summary["period_m"] - 355e-9) < 1e-9


# The default pump's fringe envelope at 600 um of pump delay; V0 = 1 at eta = 1.
PUMP_ENVELOPE_AT_600_UM = 0.97154


def test_phase_memory_far_beyond_the_signal_coherence_length(tmp_path):
    # The paper's claim: pump scans centred 600 um out, four signal coherence
    # lengths beyond zero delay, keep a visibility above 0.9 on both channels,
    # equal to the model's pump envelope within 3 sigma.  The fringe's phase
    # there, at the scan's middle, is the model's 2 pi x / lambda_p + arg A
    # within 3 sigma, and sigma is below a milliradian.  About 0.1 s.
    config = write_config(tmp_path, "[scan]\naxis = pump\nstart_um = 599\nstop_um = 601\nstep_nm = 5\n")
    cfg = load_config(config)
    amplitude = compile_model(cfg).amplitude
    scan, fit_out = tmp_path / "scan.csv", tmp_path / "fit.json"
    args = ["--config", config, "--quiet"]
    for seed in range(1, 7):
        assert main(["simulate", *args, "--seed", str(seed), "--out", str(scan)]) == EXIT_OK
        for channel, row in (("singles", 0), ("coincidence", 2)):
            assert main(["fit", str(scan), *args, "--channel", channel, "--out", str(fit_out)]) == EXIT_OK
            summary = json.loads(fit_out.read_text(encoding="utf-8"))
            assert summary["visibility"] > 0.9, (seed, channel)
            pull = (summary["visibility"] - PUMP_ENVELOPE_AT_600_UM) / summary["visibility_sigma"]
            assert abs(pull) < 3, (seed, channel, pull)
            assert summary["phase_sigma_rad"] < 1e-3, (seed, channel)
            truth = 2 * math.pi * summary["phase_reference_m"] / cfg.pump_wavelength + np.angle(amplitude[row])
            miss = math.remainder(summary["phase_rad"] - truth, 2 * math.pi)
            assert abs(miss) <= 3 * summary["phase_sigma_rad"], (seed, channel, miss)


def test_unresolved_envelope_has_no_center_uncertainty(tmp_path):
    # a 4 um pump scan sits far inside the pump coherence length
    config = write_config(
        tmp_path, "[scan]\naxis = pump\nstart_um = -2\nstop_um = 2\nstep_nm = 50\n"
    )
    scan = tmp_path / "pump.csv"
    assert main(["simulate", "--config", config, "--out", str(scan), "--quiet"]) == EXIT_OK
    fit_out = tmp_path / "pump_fit.json"
    assert main(["fit", str(scan), "--config", config, "--out", str(fit_out), "--quiet"]) == EXIT_OK
    summary = json.loads(fit_out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert summary["envelope_resolved"] is False
    assert summary["envelope_fwhm_sigma_m"] is None
    assert summary["envelope_center_sigma_m"] is None
    assert abs(summary["period_m"] - 355e-9) < 1e-9


def test_seed_override_changes_counts(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(a), "--quiet"])
    main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(b), "--seed", "7", "--quiet"])
    assert a.read_bytes() != b.read_bytes()


def test_simulate_without_a_seed_flag_draws_with_the_default_seed(tmp_path, capsys):
    outputs = []
    for flags in ([], ["--seed", str(DEFAULT_SEED)]):
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(out), *flags]) == EXIT_OK
        outputs.append((capsys.readouterr(), out.read_bytes()))
    assert outputs[0] == outputs[1]
    with open(out, encoding="utf-8") as fh:
        assert np.array_equal(read_scan_csv(fh).counts, run_scan(load_config(DEFAULT_CONFIG), DEFAULT_SEED).counts)


@pytest.mark.parametrize("command", ["predict", "simulate", "report", "oracle-check"])
def test_the_seed_is_not_a_config_key(tmp_path, capsys, command):
    # the seed belongs to one simulate run: --seed is its one source
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, "[detectors]\nseed = 1\n[scan]\n"), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown key detectors.seed at line 2\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "0x10000000000000000"])
def test_seed_outside_64_bits_exits_with_config_code(tmp_path, capsys, seed):
    out = tmp_path / "scan.csv"
    argv = ["simulate", "--config", DEFAULT_CONFIG, "--out", str(out), "--seed", seed, "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --seed out of range: must lie in [0, 2**64)\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["1_0", "١٠", "٣", "0x_10", "1e1", " "])
def test_seed_flag_outside_the_seed_keys_grammar_exits_with_config_code(tmp_path, capsys, seed):
    # --seed is read by int(value, 0) on ASCII without underscores, as --points is
    out = tmp_path / "scan.csv"
    argv = ["simulate", "--config", DEFAULT_CONFIG, "--out", str(out), "--seed", seed, "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: --seed: not an integer: {seed!r}\n"
    assert not out.exists()


# Spellings of one seed each, the ends of the seed range among them.
SEED_SPELLINGS = {16: ["0x10", "16", "0o20", "0b10000"], 15: ["0o17", "15"], 5: ["0b101", "5"], 7: ["+7", "7"],
                  0: ["0", "0x0"], SEED_LIMIT - 1: [str(SEED_LIMIT - 1), hex(SEED_LIMIT - 1)]}


def test_seed_flag_takes_base_prefixes_as_the_seed_key_does(tmp_path, capsys):
    # every spelling of a seed writes the same bytes, whose counts are run_scan's with that seed
    config = load_config(DEFAULT_CONFIG)
    for seed, spellings in SEED_SPELLINGS.items():
        outputs = []
        for text in spellings:
            out = tmp_path / f"{text}.csv"
            code = main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(out), "--seed", text])
            outputs.append((code, capsys.readouterr().err.replace(str(out), "OUT"), out.read_bytes()))
        assert outputs[0][0] == EXIT_OK, seed
        assert outputs.count(outputs[0]) == len(outputs), seed
        with open(out, encoding="utf-8") as fh:
            assert np.array_equal(read_scan_csv(fh).counts, run_scan(config, seed).counts), seed


# Config files with an error, and the error a load reports.
FILE_ERRORS = [
    ("[idler_link]\neta = 1.3\n[scan]\n", "idler_link.eta at line 2 out of range: must lie in [0, 1]"),
    ("[detectors]\nseed = -1\n[scan]\n", "unknown key detectors.seed at line 2"),
    ("[scan]\nstart_um = 1\nstop_um = -1\n", "scan.stop_um must exceed scan.start_um"),
    ("[scan]\ndwell_s = 0\n[crystal1]\ngain = nan\n", "scan.dwell_s at line 2 out of range: must lie in (0, 1e+06]"),
    ("[scan]\nstep_nm = tiny\n", "scan.step_nm at line 2: not a number: 'tiny'"),
]


@pytest.mark.parametrize("text, message", FILE_ERRORS)
def test_a_bad_seed_flag_is_reported_after_the_file_errors(tmp_path, capsys, text, message):
    out = tmp_path / "scan.csv"
    argv = ["simulate", "--config", write_config(tmp_path, text), "--out", str(out), "--seed", "-1", "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("points", ["0", "1_6"])
@pytest.mark.parametrize("text, message", FILE_ERRORS)
def test_a_bad_points_flag_is_reported_after_the_file_errors(tmp_path, capsys, text, message, points):
    out = tmp_path / "oracle.json"
    argv = ["oracle-check", "--config", write_config(tmp_path, text), "--out", str(out), "--points", points]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("points", ["1_6", "١٦", "1e1", "1.5", "016", " ", ""])
def test_points_flag_outside_the_integer_flag_grammar_exits_with_config_code(tmp_path, capsys, points):
    # argparse's int would take 1_6, ١٦ (Arabic-Indic digits) and 016 as 16
    out = tmp_path / "oracle.json"
    argv = ["oracle-check", "--config", DEFAULT_CONFIG, "--out", str(out), "--points", points]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: --points: not an integer: {points!r}\n"
    assert not out.exists()


def test_points_flag_takes_base_prefixes_as_the_seed_flag_does(tmp_path, capsys):
    outputs = []
    for points in ("0x4", "4", "0o4", "0b100", "+4"):
        out = tmp_path / "oracle.json"
        code = main(["oracle-check", "--config", DEFAULT_CONFIG, "--out", str(out), "--points", points])
        outputs.append((code, capsys.readouterr(), out.read_bytes()))
    assert outputs[0][0] == EXIT_OK
    assert outputs.count(outputs[0]) == len(outputs)


def test_fit_divides_counts_by_the_dwell_they_were_sampled_with(tmp_path):
    # one dwell setting, scan.dwell_s: the sampler's and the fit's
    config = write_config(tmp_path, "[scan]\ndwell_s = 2\n")
    scan, fit = tmp_path / "scan.csv", tmp_path / "fit.json"
    assert main(["simulate", "--config", config, "--out", str(scan), "--quiet"]) == EXIT_OK
    assert main(["fit", str(scan), "--config", config, "--out", str(fit), "--quiet"]) == EXIT_OK
    assert json.loads(fit.read_text(encoding="utf-8"))["baseline_hz"] == pytest.approx(42_000.0, rel=0.01)


def test_fit_warns_on_undersampled_pump_csv(tmp_path, capsys):
    # fit takes the expected period from its config's scan.axis: 50 nm steps
    # resolve the 808 nm signal period but not the 355 nm pump period
    scan_text = "start_um = -2\nstop_um = 2\nstep_nm = 50\n"
    signal = write_config(tmp_path, f"[scan]\n{scan_text}", "signal.ini")
    pump = write_config(tmp_path, f"[scan]\naxis = pump\n{scan_text}", "pump.ini")
    scan = tmp_path / "scan.csv"
    assert main(["predict", "--config", pump, "--out", str(scan), "--quiet"]) == EXIT_OK
    capsys.readouterr()
    fit = ["fit", str(scan), "--source", "rates", "--quiet", "--config"]
    assert main([*fit, signal]) == EXIT_OK
    assert "warning:" not in capsys.readouterr().err
    assert main([*fit, pump]) == EXIT_OK
    err = capsys.readouterr().err
    assert "warning: grid step 5e-08 m gives fewer than 8 points per expected" in err
    assert "3.55e-07 m fringe period" in err


def test_simulate_and_fit_give_the_same_undersampling_warning(tmp_path, capsys):
    # Both read the grid's step from its ScanRecord: simulate's record, then fit's from the CSV.
    config = write_config(tmp_path, "[scan]\naxis = pump\nstart_um = -2\nstop_um = 2\nstep_nm = 50\n")
    scan = str(tmp_path / "scan.csv")
    assert main(["simulate", "--config", config, "--out", scan, "--quiet"]) == EXIT_OK
    simulated = capsys.readouterr().err
    assert main(["fit", scan, "--config", config, "--quiet"]) == EXIT_OK
    fitted = capsys.readouterr().err
    assert simulated.startswith("warning: grid step 5e-08 m gives fewer than 8 points")
    assert fitted == simulated


def test_csv_floats_have_nine_significant_digits(tmp_path):
    out = tmp_path / "scan.csv"
    main(["predict", "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"])
    row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
    mantissa = row[1].split("e")[0]
    digits = mantissa.replace("-", "").replace(".", "")
    assert len(digits) == 9


def test_predict_writes_zero_counts_and_fit_rates_works(tmp_path):
    out = tmp_path / "pred.csv"
    main(["predict", "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"])
    with open(out, encoding="utf-8") as fh:
        record = read_scan_csv(fh)
    assert all(record.counts[0] == 0)
    fit_out = tmp_path / "fit.json"
    fit = ["fit", str(out), "--source", "rates", "--out", str(fit_out), "--quiet", "--config"]
    assert main([*fit, DEFAULT_CONFIG]) == EXIT_OK
    summary = read_json(fit_out)
    assert summary["visibility"] == pytest.approx(1.0, abs=1e-6)
    # the noiseless pump scan's coincidence fringe: the period is the pump
    # wavelength to 1e-9 of itself, and the fringe lies in the model's family,
    # so its rates resolve the pump envelope, 5.88 mm wide, from a 4 um scan
    default = Path(DEFAULT_CONFIG).read_text(encoding="utf-8")
    pump = write_config(tmp_path, default.replace("\naxis = signal\n", "\naxis = pump\n"), "pump.ini")
    assert main(["predict", "--config", pump, "--out", str(out), "--quiet"]) == EXIT_OK
    assert main([*fit, pump, "--channel", "coincidence"]) == EXIT_OK
    summary = read_json(fit_out)
    assert abs(summary["period_m"] / 355e-9 - 1) <= 1e-9
    assert summary["envelope_resolved"] is True
    fwhm = 2 * coherence_length(load_config(DEFAULT_CONFIG).pump_bandwidth)
    assert abs(summary["envelope_fwhm_m"] - fwhm) <= 3 * summary["envelope_fwhm_sigma_m"]


def test_fit_on_flat_counts_exits_with_fit_code(tmp_path, capsys):
    out = tmp_path / "pred.csv"
    main(["predict", "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"])
    # a CSV always holds counts, so the default source fits predict's zeros too
    for channel, column in [("singles", "counts_a"), ("coincidence", "coinc_counts")]:
        for source in ([], ["--source", "counts"]):
            capsys.readouterr()
            code = main(["fit", str(out), "--config", DEFAULT_CONFIG, "--channel", channel, *source, "--quiet"])
            assert code == EXIT_FIT
            assert capsys.readouterr().err == (
                f"fit error: no fringe detected: every {column} count is zero, as in a predict CSV; "
                "fit its rates with --source rates\n"
            )


def test_fit_refuses_source_auto(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(scan), "--quiet"]) == EXIT_OK
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--source", "auto", "--quiet"])
    assert exit_info.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "argument --source: invalid choice: 'auto'" in err
    assert "counts" in err and "rates" in err


@pytest.mark.parametrize("command", ["predict", "simulate", "fit", "oracle-check", "report"])
def test_no_command_takes_an_axis_flag(tmp_path, capsys, command):
    # scan.axis in the config is the one source of the scanned delay
    out = str(tmp_path / "out")
    argv = [command, *(["s.csv"] if command == "fit" else []), "--config", DEFAULT_CONFIG, "--out", out]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--axis", "pump"])
    assert exit_info.value.code == EXIT_CONFIG
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --axis pump\n")
    assert not os.path.exists(out)


# A balanced pump scan at half-wave steps: eta = 1 and K2 = K1 sqrt((1 - r) / r)
# give visibility 1, and every other point is a dark fringe, where roundoff
# takes the unclamped law to -6.8e-12 counts/s.
DARK_FRINGE_CONFIG = """\
[pump]
bandwidth_ghz = 0.001
splitter_ratio = 0.5866581754247957
[crystal1]
gain = 0.0002224098467762657
[crystal2]
gain = 0.0001866878797677257
[scan]
axis = pump
start_um = -1.775
stop_um = 1.775
step_nm = 44.375
"""


def test_an_exact_dark_fringe_simulates_and_its_rates_fit_back(tmp_path, capsys):
    config = write_config(tmp_path, DARK_FRINGE_CONFIG)
    scan, rates = str(tmp_path / "scan.csv"), tmp_path / "rates.csv"
    assert main(["simulate", "--config", config, "--out", scan, "--quiet"]) == EXIT_OK
    assert main(["predict", "--config", config, "--out", str(rates), "--quiet"]) == EXIT_OK
    rows = [line.split(",") for line in rates.read_text(encoding="utf-8").splitlines()[1:]]
    assert min(float(row[1]) for row in rows) == 0.0
    # the clamp writes no -0.0 either, which the CSV grammar's unsigned rates would refuse
    sampled = [line.split(",") for line in Path(scan).read_text(encoding="utf-8").splitlines()[1:]]
    assert not any(cell.startswith("-") for row in rows + sampled for cell in row[1:])
    for channel in ("singles", "coincidence"):
        fit = ["fit", str(rates), "--config", config, "--source", "rates", "--channel", channel, "--quiet"]
        assert main(fit) == EXIT_OK, capsys.readouterr().err
        assert json.loads(capsys.readouterr().out)["visibility"] == pytest.approx(1.0, abs=1e-6)


# Each command's options, positionals by name: --seed only where counts are
# drawn, and no --axis, since scan.axis in the config is the one source of it.
COMMAND_OPTIONS = {
    "predict": ["-h", "--config", "--out", "--quiet"],
    "simulate": ["-h", "--config", "--out", "--quiet", "--seed"],
    "fit": ["-h", "input", "--channel", "--source", "--config", "--out", "--quiet"],
    "oracle-check": ["-h", "--points", "--config", "--out", "--quiet"],
    "report": ["-h", "--config", "--out", "--quiet"],
}


def test_each_command_parses_only_the_options_it_reads():
    options = {
        name: [(action.option_strings or [action.dest])[0] for action in command._actions]
        for name, command in cli.build_parser().commands.items()
    }
    assert options == COMMAND_OPTIONS


# argv that main parses with a command's subparser alone, or hands to the
# full parser: each must come out as build_parser().parse_args makes it.
PARSE_TABLE = [
    ["predict", "--config", "c.ini", "--out", "p.csv"],
    ["simulate", "--config", "c.ini", "--out", "s.csv", "--seed", "3", "--quiet"],
    ["fit", "s.csv", "--config", "c.ini", "--channel", "coincidence", "--source", "rates", "--out", "f.json"],
    ["oracle-check", "--config", "c.ini", "--points", "4", "--out", "o.json"],
    ["report", "--config", "c.ini"],
    ["oracle-check", "--config=c.ini", "--points=2", "--seed=-0"],
    ["fit", "s.csv", "--conf", "c.ini", "--chan", "idler"],
    ["fit", "--config", "c.ini", "s.csv", "--quiet"],
    ["fit", "--config", "c.ini", "--", "s.csv"],
    ["fit", "--config", "c.ini", "--", "--s.csv"],
    ["fit", "s.csv", "--s", "1", "--config", "c.ini"],
    ["fit", "s.csv", "--c", "x"],
    ["-h"],
    ["--help", "report"],
    ["fit", "-h"],
    ["report", "--config", "c.ini", "--help"],
    [],
    ["frobnicate", "--config", "c.ini"],
    ["--config", "c.ini", "report"],
    ["fit", "s.csv", "--config", "c.ini", "extra"],
    ["report", "--config", "c.ini", "extra", "--bogus=1"],
    ["report", "--config", "c.ini", "--bogus"],
    ["simulate", "--config", "c.ini", "--out", "s.csv", "--seed", "x"],
    ["oracle-check", "--config", "c.ini", "--points", "1.5"],
    ["report", "--config", "c.ini", "--axis", "idler"],
    ["fit", "s.csv", "--config", "c.ini", "--channel", "both"],
    ["fit", "s.csv", "--config", "c.ini", "--source", "auto"],
    ["report"],
    ["fit", "--config", "c.ini"],
    ["simulate", "--config", "c.ini"],
    # --seed only on simulate, and --axis on no command
    ["fit", "s.csv", "--config", "c.ini", "--seed", "1"],
    ["predict", "--config", "c.ini", "--out", "p.csv", "--seed", "1"],
    ["report", "--config", "c.ini", "--seed", "1"],
    ["oracle-check", "--config", "c.ini", "--axis", "pump"],
]


@pytest.mark.parametrize("argv", PARSE_TABLE, ids=lambda argv: " ".join(argv) or "no argv")
def test_main_parses_argv_as_the_full_parser_does(monkeypatch, capsys, argv):
    parsed = []
    monkeypatch.setattr(cli, "_run", lambda args: parsed.append(vars(args)) or EXIT_OK)

    def through_main(tokens):
        assert main(tokens) == EXIT_OK
        return parsed.pop()

    def outcome(parse):
        """The parsed values, or the exit code; then what was printed."""
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    assert outcome(through_main) == outcome(lambda tokens: vars(cli.build_parser().parse_args(tokens)))


def test_main_without_argv_parses_sys_argv(monkeypatch):
    parsed = []
    monkeypatch.setattr(cli, "_run", lambda args: parsed.append(args) or EXIT_OK)
    monkeypatch.setattr("sys.argv", ["icohsim", "report", "--config", "c.ini"])
    assert main() == EXIT_OK
    assert parsed == [cli.build_parser().parse_args(["report", "--config", "c.ini"])]


@pytest.mark.parametrize(
    "command, progress",
    [(["fit", "SCAN"], "fitted singles: period 807.9"), (["oracle-check", "--points", "2"], "max relative deviation ")],
    ids=["fit", "oracle-check"],
)
def test_stdout_holds_only_the_json_and_progress_goes_to_stderr(tmp_path, capsys, command, progress):
    scan = tmp_path / "scan.csv"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(scan), "--quiet"]) == EXIT_OK
    capsys.readouterr()
    argv = [str(scan) if arg == "SCAN" else arg for arg in command]
    assert main([*argv, "--config", DEFAULT_CONFIG]) == EXIT_OK
    out, err = capsys.readouterr()
    assert isinstance(json.loads(out), dict)
    assert err.startswith(progress) and err.endswith("\n") and err.count("\n") == 1


def test_fit_source_defaults_to_counts(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    args = ["--config", DEFAULT_CONFIG, "--quiet"]
    assert main(["simulate", *args, "--seed", "5", "--out", str(scan)]) == EXIT_OK
    # the idler detector sees no fringe: both runs exit 4 and write no file
    for channel, expected in [("singles", EXIT_OK), ("coincidence", EXIT_OK), ("idler", EXIT_FIT)]:
        outputs = []
        for source in ([], ["--source", "counts"]):
            out = tmp_path / f"fit-{channel}-{len(source)}.json"
            code = main(["fit", str(scan), *args, "--channel", channel, *source, "--out", str(out)])
            outputs.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == expected


def test_readme_fit_keys_are_the_fringe_fit_fields():
    """README's "Fit JSON keys" list, FringeFit's fields and fit_summary's keys are one list."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    listed = readme.split("### Fit JSON keys\n", 1)[1].strip().split("\n\n", 1)[0]
    keys = [key.strip() for key in listed.strip("`.").split(",")]
    assert keys == [field.name for field in dataclasses.fields(FringeFit)]
    cfg = load_config(DEFAULT_CONFIG)
    assert list(cli.fit_summary(fit_fringe(run_scan(cfg, DEFAULT_SEED), dwell=cfg.dwell))) == keys


def write_nyquist_csv(tmp_path):
    """A scan whose periodogram peaks at the Nyquist limit, where cos and sin coincide on the grid."""
    rows = [
        f"{5.960464477539063e-08 * i:.16e},{c:.8e},{c:.8e},{c:.8e},{c},{c},{c}\n"
        for i, c in enumerate([1, 1, 2, 0, 2, 0, 2, 0])
    ]
    path = tmp_path / "nyquist.csv"
    path.write_text(",".join(CSV_HEADER) + "\n" + "".join(rows), encoding="utf-8")
    return str(path)


def test_fit_at_two_grid_steps_per_period_exits_with_fit_code(tmp_path, capsys):
    code = main(["fit", write_nyquist_csv(tmp_path), "--config", DEFAULT_CONFIG, "--quiet"])
    assert code == EXIT_FIT
    assert "fit error: no fringe detected: periodogram peak at the Nyquist limit" in capsys.readouterr().err


def test_python_m_icohsim_exits_with_the_code_main_returns(tmp_path):
    # Two processes on the icohsim this suite imported, from src/ or installed;
    # about 0.4 s on 2 Xeon vCPUs.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(icohsim.__file__))}
    runs = [
        (["--config", DEFAULT_CONFIG, "report"], EXIT_CONFIG, "usage: icohsim [-h] "),
        (["fit", write_nyquist_csv(tmp_path), "--config", DEFAULT_CONFIG, "--quiet"], EXIT_FIT, "fit error: "),
    ]
    for argv, code, start in runs:
        done = subprocess.run([sys.executable, "-m", "icohsim", *argv], cwd=tmp_path, env=env,
                              capture_output=True, encoding="utf-8", timeout=60)
        assert done.returncode == code, done.stderr
        assert done.stderr.startswith(start), done.stderr


def test_a_fit_whose_visibility_is_not_finite_exits_with_fit_code(tmp_path, capsys, monkeypatch):
    # a subnormal fitted baseline: amplitude / baseline overflows to inf
    gauss_newton = icohsim.scan._gauss_newton

    def subnormal_baseline(*args):
        solution = gauss_newton(*args)
        return solution._replace(a=np.array([5e-324, *solution.a[1:]]))

    monkeypatch.setattr(icohsim.scan, "_gauss_newton", subnormal_baseline)
    scan, out = tmp_path / "scan.csv", tmp_path / "fit.json"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(scan), "--quiet"]) == EXIT_OK
    assert main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"]) == EXIT_FIT
    assert capsys.readouterr().err == "fit error: no fringe detected: fitted visibility is not finite\n"
    assert not out.exists()


def test_fit_of_a_ramp_without_a_full_fringe_exits_with_fit_code(tmp_path, capsys):
    # 16 Poisson counts of a rising ramp converge at a period of about 1.1 scan spans.
    counts = [110, 107, 90, 117, 132, 131, 158, 143, 160, 162, 184, 180, 198, 195, 193, 187]
    rows = [f"{1e-08 * i:.16e},{c:.8e},{c:.8e},{c:.8e},{c},{c},{c}\n" for i, c in enumerate(counts)]
    path = tmp_path / "ramp.csv"
    path.write_text(",".join(CSV_HEADER) + "\n" + "".join(rows), encoding="utf-8")
    code = main(["fit", str(path), "--config", DEFAULT_CONFIG, "--quiet"])
    assert code == EXIT_FIT
    message = "fit error: no fringe detected: fitted period 1.67269e-07 m is longer than the scan's span"
    assert message in capsys.readouterr().err


def test_fit_of_an_undetermined_near_nyquist_record_exits_with_fit_code(tmp_path, capsys):
    # The fit's columns are too close to dependent for the data to determine
    # the fringe: no JSON is written, and fit exits 4.
    buffer = io.StringIO()
    cli.write_scan_csv(near_nyquist_record(), buffer)
    scan, fit_out = tmp_path / "scan.csv", tmp_path / "fit.json"
    scan.write_text(buffer.getvalue(), encoding="utf-8")
    assert main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--out", str(fit_out), "--quiet"]) == EXIT_FIT
    assert capsys.readouterr().err == (
        "fit error: no fringe determined: the fit's columns have a variance-inflation sum of 61057.1, "
        "not below 10000\n"
    )
    assert not fit_out.exists()


def test_fit_that_does_not_converge_exits_with_fit_code(tmp_path, capsys, monkeypatch):
    scan = tmp_path / "scan.csv"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(scan), "--quiet"]) == EXIT_OK
    monkeypatch.setattr(icohsim.scan, "MAX_ITERATIONS", 1)
    fit_out = tmp_path / "fit.json"
    argv = ["fit", str(scan), "--config", DEFAULT_CONFIG, "--out", str(fit_out), "--quiet"]
    assert main(argv) == EXIT_FIT
    assert capsys.readouterr().err.startswith("error: fit did not converge in 1 Gauss-Newton steps")
    # the last parameters are still written, as strict JSON
    summary = json.loads(fit_out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert summary["converged"] is False


@pytest.mark.parametrize("max_iterations", [None, 1], ids=["converged", "not_converged"])
def test_fit_json_equals_the_reference_encoder(tmp_path, monkeypatch, max_iterations):
    scan = tmp_path / "scan.csv"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(scan), "--quiet"]) == EXIT_OK
    if max_iterations is not None:
        monkeypatch.setattr(icohsim.scan, "MAX_ITERATIONS", max_iterations)
    out = tmp_path / "fit.json"
    code = main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"])
    assert code == (EXIT_OK if max_iterations is None else EXIT_FIT)
    with open(scan, encoding="utf-8", newline="") as fh:
        record = read_scan_csv(fh)
    fit = fit_fringe(record, dwell=load_config(DEFAULT_CONFIG).dwell)
    assert fit.converged is (max_iterations is None)
    summary = cli.fit_summary(fit)
    # the unresolved envelope has no centre and no sigmas: the file holds nulls
    assert summary["envelope_center_m"] is None
    assert summary["envelope_center_sigma_m"] is None and summary["envelope_fwhm_sigma_m"] is None
    assert out.read_text(encoding="utf-8") == json.dumps(summary, indent=2) + "\n"


@pytest.mark.filterwarnings("error")
def test_rates_fit_of_a_scan_at_huge_rates_succeeds(tmp_path):
    # the largest rates a config takes, with a window below one count per window
    config = write_config(tmp_path, "[detectors]\nrate_a_hz = 1e12\nrate_b_hz = 1e12\nwindow_ns = 0.0009\n[scan]\n")
    scan, out = tmp_path / "predict.csv", tmp_path / "fit.json"
    assert main(["predict", "--config", config, "--out", str(scan), "--quiet"]) == EXIT_OK
    for channel in ("singles", "coincidence"):
        argv = ["fit", str(scan), "--config", config, "--source", "rates", "--channel", channel,
                "--out", str(out), "--quiet"]
        assert main(argv) == EXIT_OK
        read_json(out)


@pytest.mark.filterwarnings("error")
def test_rates_fit_of_a_scan_at_tiny_rates_succeeds(tmp_path):
    # Rates have no floor, so the periodogram scales its series by a power of
    # two: unscaled, rates of 1e-200 counts/s square to zero and show no peak.
    config = write_config(tmp_path, "[detectors]\nrate_a_hz = 1e-200\n[scan]\n")
    scan, out = tmp_path / "predict.csv", tmp_path / "fit.json"
    assert main(["predict", "--config", config, "--out", str(scan), "--quiet"]) == EXIT_OK
    for channel in ("singles", "coincidence"):
        argv = ["fit", str(scan), "--config", config, "--source", "rates", "--channel", channel,
                "--out", str(out), "--quiet"]
        assert main(argv) == EXIT_OK
        assert read_json(out)["period_m"] == pytest.approx(808e-9, rel=1e-6)


@pytest.mark.parametrize(
    "first, step", [(-1.0, 2**-10), (1.0 - 99 * 2**-10, 2**-10)], ids=["from_minus_1_m", "to_1_m"]
)
def test_fit_of_delays_at_the_delay_bound_succeeds(tmp_path, capsys, first, step):
    # Grids that start or end at the +-1 m a CSV's delays may reach, each delay
    # exact; a ten-step fringe of visibility 0.8.
    index = np.arange(100)
    counts = np.round(1000 * (1 + 0.8 * np.cos(2 * np.pi * index / 10))).astype(np.int64)
    rows = [f"{first + i * step:.16e},{c / 0.5:.8e},{c / 0.5:.8e},{c / 0.5:.8e},{c},{c},{c}"
            for i, c in zip(index.tolist(), counts.tolist())]
    scan, out = tmp_path / "far.csv", tmp_path / "fit.json"
    scan.write_text("\n".join([",".join(CSV_HEADER), *rows]) + "\n", encoding="utf-8")
    assert main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"]) == EXIT_OK
    assert "error" not in capsys.readouterr().err
    summary = json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert summary["period_m"] == pytest.approx(10 * step, rel=1e-6)
    assert summary["visibility"] == pytest.approx(0.8, abs=0.01)
    assert summary["phase_reference_m"] == first + 49.5 * step
    # the flat envelope's width is reported as its lower bound, 4.23 spans
    assert 0 < summary["period_sigma_m"] < summary["period_m"]
    assert summary["envelope_center_m"] is None
    assert summary["envelope_fwhm_m"] == pytest.approx(418.8 * step, rel=1e-3)


def _csv_of(delays, rates, counts):
    """CSV text of one row per delay: the delay, three equal rates and three equal counts."""
    rows = [f"{x:.16e},{r:.8e},{r:.8e},{r:.8e},{c},{c},{c}\n" for x, r, c in zip(delays, rates, counts)]
    return ",".join(CSV_HEADER) + "\n" + "".join(rows)


def _fringe_csv(delays, scale=1.0):
    """A ten-step fringe of visibility 0.8 at the delays, its rates times ``scale``."""
    counts = np.round(1000 * (1 + 0.8 * np.cos(2 * np.pi * np.arange(len(delays)) / 10))).astype(int)
    return _csv_of(delays, (counts * scale).tolist(), counts.tolist())


@pytest.mark.parametrize(
    "text, message",
    [
        # a delay beyond +-1 m, also by one ulp
        (_fringe_csv(np.arange(20) * 1e-3 - 1.01), "CSV line 2, column delay_m: out of range: must lie in [-1, 1]"),
        (_fringe_csv(np.arange(20) * 2**-10 + (1.0 - 18 * 2**-10)),
         "CSV line 21, column delay_m: out of range: must lie in [-1, 1]: '1.0009765625000000e+00'"),
        (_fringe_csv(np.arange(20) * 1e-8, scale=6e9),
         "CSV line 2, column rate_a_hz: out of range: must lie in [0, 1e+13]: '1.08000000e+13'"),
        # a grid step beyond the finest a config writes, down to subnormal steps
        (_fringe_csv(np.arange(20) * 1e-310), "CSV line 3: delay step 1e-310 m is below the finest grid step 5e-13 m"),
        (_fringe_csv(np.arange(20) * 4e-13), "CSV line 3: delay step 4e-13 m is below the finest grid step 5e-13 m"),
    ],
    ids=["delay_below_minus_1_m", "delay_above_1_m", "rate_1.08e13", "step_1e-310_m", "step_0.4_pm"],
)
def test_csv_values_beyond_what_a_config_writes_exit_with_config_code(tmp_path, capsys, text, message):
    scan = tmp_path / "scan.csv"
    scan.write_text(text, encoding="utf-8")
    for source in SOURCES:
        assert main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--source", source, "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize("rows", [0, 3, 7])
@pytest.mark.parametrize("source", SOURCES)
def test_fit_of_a_record_too_short_to_fit_says_so(tmp_path, capsys, rows, source):
    # a header-only or short CSV of zero counts is too short, not a predict CSV to fit by its rates
    scan = tmp_path / "short.csv"
    scan.write_text(_csv_of(np.arange(rows) * 1e-8, [42e3] * rows, [0] * rows), encoding="utf-8")
    assert main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--source", source, "--quiet"]) == EXIT_FIT
    assert capsys.readouterr().err == "fit error: record too short for period estimation\n"


# The corners of the rate, dwell and step ranges: the largest rates and dwell,
# with a window that keeps the accidentals below the sampler's limit, and the
# finest step, on a 10 nm pump that gives its grid five fringes.
CORNER_CONFIGS = {
    "rates_and_dwell": "[detectors]\nrate_a_hz = 1e12\nrate_b_hz = 1e12\nwindow_ns = 1e-6\n[scan]\ndwell_s = 1e6\n",
    "step": "[pump]\nwavelength_nm = 10\n[scan]\naxis = pump\nstart_um = 0\nstop_um = 0.05\nstep_nm = 0.001\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("corner", CORNER_CONFIGS)
def test_csvs_of_the_range_corners_read_back_and_fit(tmp_path, capsys, corner):
    config = write_config(tmp_path, CORNER_CONFIGS[corner])
    for command in ("predict", "simulate"):
        scan = tmp_path / f"{command}.csv"
        assert main([command, "--config", config, "--out", str(scan), "--quiet"]) == EXIT_OK
        for channel in ("singles", "coincidence"):
            for source in SOURCES if command == "simulate" else ["rates"]:
                argv = ["fit", str(scan), "--config", config, "--channel", channel, "--source", source, "--quiet"]
                assert main(argv) == EXIT_OK, capsys.readouterr().err
                period = json.loads(capsys.readouterr().out)["period_m"]
                assert period == pytest.approx(load_config(config).scan_wavelength(), rel=1e-4)


def test_missing_config_exits_with_io_code(tmp_path):
    assert main(["report", "--config", str(tmp_path / "nope.ini")]) == EXIT_IO


def test_invalid_config_exits_with_config_code(tmp_path):
    config = write_config(tmp_path, "[idler_link]\neta = 2\n[scan]\n")
    assert main(["report", "--config", config]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["simulate", "report", "oracle-check"])
def test_non_finite_config_value_exits_with_config_code(tmp_path, capsys, command):
    config = write_config(tmp_path, "[pump]\nwavelength_nm = nan\n[scan]\n")
    argv = [command, "--config", config, "--out", str(tmp_path / "out"), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: pump.wavelength_nm at line 2: not a finite number: 'nan'\n"


@pytest.mark.parametrize(
    "key, value, message",
    [("rate_a_hz", "1_0", "not a number"), ("window_ns", "٣", "not a number")],
)
def test_non_ascii_or_underscored_number_exits_with_config_code(
    tmp_path, capsys, key, value, message
):
    config = tmp_path / "exp.ini"
    config.write_text(f"[detectors]\n{key} = {value}\n[scan]\n", encoding="utf-8")
    assert main(["report", "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: detectors.{key} at line 2: {message}: {value!r}\n"


_ONE_COUNT = " counts per window at the larger of detectors.rate_a_hz and detectors.rate_b_hz; it must hold below 1"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, text, message",
    [
        # values whose counts would leave the sampler's range lie outside their keys' ranges
        ("simulate", "[detectors]\nrate_a_hz = 1e30\n[scan]\n",
         "detectors.rate_a_hz at line 2 out of range: must lie in (0, 1e+12]"),
        ("simulate", "[scan]\ndwell_s = 1e300\n", "scan.dwell_s at line 2 out of range: must lie in (0, 1e+06]"),
        ("simulate", "[detectors]\nrate_a_hz = 1e200\nrate_b_hz = 1e200\n[scan]\n",
         "detectors.rate_a_hz at line 2 out of range: must lie in (0, 1e+12]"),
        ("simulate", "[detectors]\nrate_a_hz = 1.7e308\n[scan]\n",
         "detectors.rate_a_hz at line 2 out of range: must lie in (0, 1e+12]"),
        ("predict", "[detectors]\nrate_a_hz = 1.7e308\n[scan]\n",
         "detectors.rate_a_hz at line 2 out of range: must lie in (0, 1e+12]"),
        # in range, accidentals, r_a r_b window dwell, would pass the limit, and
        # the window rule refuses them at load
        ("simulate", "[detectors]\nrate_a_hz = 1e12\nrate_b_hz = 1e12\n[scan]\ndwell_s = 1e4\n",
         f"detectors.window_ns holds 2e+03{_ONE_COUNT}"),
        ("simulate", "[detectors]\nrate_a_hz = 1e12\nrate_b_hz = 1e12\nwindow_ns = 9.99999e14\n[scan]\ndwell_s = 1e6\n",
         f"detectors.window_ns holds 1e+18{_ONE_COUNT}"),
    ],
    ids=["rate_a_1e30", "dwell_1e300", "rates_1e200", "simulate_rate_1.7e308", "predict_rate_1.7e308",
         "rates_1e12_dwell_1e4_s", "largest_window_and_dwell"],
)
def test_counts_beyond_the_sampler_limit_exit_with_config_code(tmp_path, capsys, command, text, message):
    out = tmp_path / "scan.csv"
    argv = [command, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_unwritable_output_exits_with_io_code(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main(["predict", "--config", DEFAULT_CONFIG, "--out", str(target), "--quiet"])
    assert code == EXIT_IO


OUTPUT_COMMANDS = {
    "predict": ["predict", "--config", DEFAULT_CONFIG, "--quiet"],
    "simulate": ["simulate", "--config", DEFAULT_CONFIG, "--quiet"],
    "oracle-check": ["oracle-check", "--config", DEFAULT_CONFIG, "--points", "4", "--quiet"],
    "report": ["report", "--config", DEFAULT_CONFIG],
}


def fresh_output(tmp_path, command):
    out = tmp_path / f"fresh-{command}"
    assert main([*OUTPUT_COMMANDS[command], "--out", str(out)]) == EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize("command", list(OUTPUT_COMMANDS))
@pytest.mark.parametrize("old_size", [10, 200_000])
def test_rerun_onto_an_existing_file_writes_a_fresh_output(tmp_path, command, old_size):
    expected = fresh_output(tmp_path, command)
    out = tmp_path / "out"
    out.write_bytes(b"x" * old_size)
    assert main([*OUTPUT_COMMANDS[command], "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == expected


def test_rerun_of_fit_onto_a_longer_file_writes_a_fresh_output(tmp_path):
    scan = tmp_path / "scan.csv"
    assert main([*OUTPUT_COMMANDS["simulate"], "--out", str(scan)]) == EXIT_OK
    fit = ["fit", str(scan), "--config", DEFAULT_CONFIG, "--quiet", "--out"]
    assert main([*fit, str(tmp_path / "fresh.json")]) == EXIT_OK
    out = tmp_path / "fit.json"
    out.write_bytes(b"x" * 100_000)
    assert main([*fit, str(out)]) == EXIT_OK
    assert out.read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_hard_link_to_the_output_sees_the_new_content(tmp_path):
    expected = fresh_output(tmp_path, "simulate")
    out, link = tmp_path / "scan.csv", tmp_path / "link.csv"
    out.write_bytes(b"old\n" * 50_000)
    os.link(out, link)
    assert main([*OUTPUT_COMMANDS["simulate"], "--out", str(out)]) == EXIT_OK
    assert link.read_bytes() == expected


def test_output_to_the_null_device_is_written_through():
    assert main([*OUTPUT_COMMANDS["report"], "--out", os.devnull]) == EXIT_OK


def test_output_to_a_directory_exits_with_io_code(tmp_path, capsys):
    assert main([*OUTPUT_COMMANDS["report"], "--out", str(tmp_path)]) == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_failed_write_leaves_only_the_bytes_written(tmp_path, monkeypatch, capsys):
    expected = fresh_output(tmp_path, "predict")
    out = tmp_path / "scan.csv"
    out.write_bytes(b"x" * 2 * len(expected))
    real_write = os.write
    calls = []

    def write_then_fail(fd, data):
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(28, "No space left on device")
        return real_write(fd, data[:1000])

    monkeypatch.setattr(cli.os, "write", write_then_fail)
    assert main([*OUTPUT_COMMANDS["predict"], "--out", str(out)]) == EXIT_IO
    monkeypatch.undo()
    assert len(calls) == 2
    assert out.read_bytes() == expected[:1000]
    assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"


def test_oracle_check_command(tmp_path):
    # the default of 16 points per axis, the same again stated, and 4 points
    outputs = []
    for flags, points in (([], 16), (["--points", "16"], 16), (["--points", "4"], 4)):
        out = tmp_path / "oracle.json"
        assert main(["oracle-check", "--config", DEFAULT_CONFIG, *flags, "--out", str(out), "--quiet"]) == EXIT_OK
        outputs.append(out.read_bytes())
        data = read_json(out)
        assert list(data) == ["gain_1", "gain_2", "relative_deviation_per_channel", "max_relative_deviation", "points"]
        assert list(data["relative_deviation_per_channel"]) == ["p_a", "p_b", "p_ab"]
        assert len(data["points"]) == 2 * points
        for point in data["points"]:
            assert list(point) == ["delay_xp_m", "delay_xs_m", "engine", "oracle"]
            assert list(point["engine"]) == list(point["oracle"]) == ["p_a", "p_b", "p_ab"]
        assert data["relative_deviation_per_channel"]["p_a"] <= 1e-6
        # the state check keeps double-pair terms the low-gain engine drops,
        # so the other channels sit at twice the |K|^2 scale
        assert data["max_relative_deviation"] <= 2.05e-6
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("points", [0, -3, MAX_ORACLE_POINTS + 1])
def test_oracle_check_rejects_points_out_of_range(tmp_path, capsys, points):
    out = tmp_path / "oracle.json"
    argv = ["oracle-check", "--config", DEFAULT_CONFIG, "--points", str(points), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: --points out of range: must lie in [1, {MAX_ORACLE_POINTS}]\n"
    assert not out.exists()


def reference_oracle_json(comparison) -> str:
    """The oracle-check JSON as json.dumps writes it."""
    rows = zip(
        comparison.delta_x_p.tolist(),
        comparison.delta_x_s.tolist(),
        comparison.engine.T.tolist(),
        comparison.oracle.T.tolist(),
    )
    reference = {
        **comparison.header,
        "points": [
            {
                "delay_xp_m": xp,
                "delay_xs_m": xs,
                "engine": dict(zip(("p_a", "p_b", "p_ab"), engine)),
                "oracle": dict(zip(("p_a", "p_b", "p_ab"), oracle)),
            }
            for xp, xs, engine, oracle in rows
        ],
    }
    return json.dumps(reference, indent=2) + "\n"


def assert_oracle_json_is_the_reference(tmp_path, config, points):
    out = tmp_path / "oracle.json"
    argv = ["oracle-check", "--config", config, "--points", str(points), "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_OK
    comparison = oracle_comparison(load_config(config), points_per_axis=points)
    text, expected = out.read_bytes().decode("utf-8"), reference_oracle_json(comparison)
    # compared without pytest's diff, which is slow on the 2.8 MB files of 4096 points
    same = text == expected
    k = len(os.path.commonprefix([text, expected]))
    assert same, f"first difference at character {k}: {text[max(k - 40, 0):k + 40]!r}"
    data = json.loads(text, parse_constant=_reject_constant)
    assert len(data["points"]) == 2 * points
    return data


@pytest.mark.parametrize("points", [1, 2, 4, 16, MAX_ORACLE_POINTS])
def test_oracle_check_json_equals_the_reference_encoder(tmp_path, points):
    assert_oracle_json_is_the_reference(tmp_path, DEFAULT_CONFIG, points)


@pytest.mark.parametrize("points", [1, 2, 16])
@pytest.mark.parametrize("text", ["[crystal2]\ngain = 0\n[scan]\n", "[idler_link]\neta = 0\n[scan]\n"],
                         ids=["no_crystal2", "blocked_idler"])
def test_oracle_check_json_of_pruned_terms_equals_the_reference_encoder(tmp_path, text, points):
    # most floats repeat here: whole rows of equal rates, zero rates and zero deviations
    data = assert_oracle_json_is_the_reference(tmp_path, write_config(tmp_path, text), points)
    # on the zero-gain and blocked-link paths the two agree at the |K|^2 scale
    assert data["max_relative_deviation"] <= 1.05e-6


def test_oracle_json_tells_signed_zeros_apart():
    # 0.0 and -0.0 are one dict key, but json writes them differently
    rates = np.array([[0.0, -0.0, 0.0], [-0.0, 1.5, -0.0], [2.5, 0.0, 1.5]])
    comparison = cli.OracleComparison(
        {"gain_1": 0.0, "gain_2": -0.0,
         "relative_deviation_per_channel": {"p_a": -0.0, "p_b": 0.0, "p_ab": 1.5},
         "max_relative_deviation": 1.5},
        np.array([0.0, -0.0, 1e-9]), np.array([-0.0, 0.0, -1e-9]), rates, -rates,
    )
    assert cli.oracle_json(comparison) == reference_oracle_json(comparison)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, text, key",
    [
        ("simulate", "[pump]\nbandwidth_ghz = 1e299\n[scan]\n", "pump.bandwidth_ghz"),
        ("simulate", "[pump]\nbandwidth_ghz = 1e299\n[scan]\naxis = pump\n", "pump.bandwidth_ghz"),
        ("report", "[pump]\nwavelength_nm = 4.94065646e-315\n[scan]\n", "pump.wavelength_nm"),
        ("predict", "[pump]\nwavelength_nm = 4.94065646e-315\n[scan]\n", "pump.wavelength_nm"),
    ],
    ids=[
        "bandwidth_1e299",
        "bandwidth_1e299_pump",
        "carrier_inf",
        "carrier_inf_predict",
    ],
)
def test_out_of_range_pump_values_exit_with_config_code(tmp_path, capsys, command, text, key):
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {key} ")
    assert not out.exists()


TOP_GAIN = math.nextafter(MAX_GAIN, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text",
    [
        "[crystal1]\ngain = 0.05\n[scan]\n",
        "[crystal2]\ngain = 0.02\n[scan]\n",
        f"[crystal1]\ngain = {TOP_GAIN!r}\n[crystal2]\ngain = {TOP_GAIN!r}\n[scan]\n",
    ],
    ids=["gain1_0.05", "gain2_0.02", "both_gains_below_max"],
)
def test_oracle_check_runs_up_to_the_config_gain_limit(tmp_path, text):
    # the engine and the oracle are first order in K alike: up to MAX_GAIN they
    # differ by the same 2|K|^2 scale test_oracle_check_command allows
    out = tmp_path / "oracle.json"
    argv = ["oracle-check", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_OK
    data = read_json(out)
    assert data["max_relative_deviation"] <= 2.05 * max(data["gain_1"], data["gain_2"]) ** 2


# The K^2 law MAX_GAIN's comment states, one gain decade at a time: the larger
# gain is drawn in the decade and the other between 1e-6 and it, on splitter
# ratios in [0.05, 0.95] (bound 1.98) or within 1e-6 of 0 or 1 (bound 2.99).
GAIN_DECADES = [(1e-6, 1e-5), (1e-5, 1e-4), (1e-4, 1e-3), (1e-3, 1e-2), (1e-2, TOP_GAIN)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ratios, bound", [("inner", 1.98), ("edge", 2.99)], ids=["inner_ratios", "edge_ratios"])
@pytest.mark.parametrize("decade", GAIN_DECADES, ids=[f"1e{e}" for e in range(-6, -1)])
def test_engine_and_oracle_keep_the_k_squared_law_of_max_gain(decade, ratios, bound):
    rng = np.random.default_rng(GAIN_DECADES.index(decade))
    low, high = np.log(decade)
    for _ in range(50):
        larger = float(np.exp(rng.uniform(low, high)))
        other = float(np.exp(rng.uniform(np.log(1e-6), np.log(larger))))
        gain1, gain2 = (larger, other) if rng.random() < 0.5 else (other, larger)
        if ratios == "inner":
            ratio = rng.uniform(0.05, 0.95)
        else:
            off = rng.uniform(1e-12, 1e-6)
            ratio = off if rng.random() < 0.5 else 1.0 - off
        config = config_with(gain1=gain1, gain2=gain2, eta=rng.uniform(0.0, 1.0), splitter_ratio=ratio,
                             pump_wavelength=rng.uniform(300e-9, 1000e-9),
                             signal_filter_center=rng.uniform(500e-9, 2000e-9))
        deviation = oracle_comparison(config).header["max_relative_deviation"]
        assert deviation <= bound * larger**2, config


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["report", "simulate", "predict"])
@pytest.mark.parametrize("section", ["signal_filter"])
def test_filter_without_a_finite_frequency_width_exits_with_config_code(
    tmp_path, capsys, command, section
):
    # center^2 underflows to zero, so c * bandwidth / center^2 has no value: the
    # center lies below its range
    text = f"[{section}]\ncenter_nm = 1e-300\nbandwidth_nm = 1e-301\n[scan]\n"
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {section}.center_nm at line 2 out of range: must lie in [10, 100000]\n"
    )
    assert not out.exists()


def test_removed_idler_filter_section_exits_with_config_code(tmp_path, capsys):
    config = write_config(tmp_path, "[idler_filter]\ncenter_nm = 632\nbandwidth_nm = 3\n[scan]\n")
    assert main(["report", "--config", config]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: unknown section [idler_filter]")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["report", "simulate", "predict"])
@pytest.mark.parametrize(
    "text",
    [
        "[signal_filter]\ncenter_nm = 10\nbandwidth_nm = 9.999999\n[scan]\n"
        "start_um = -1e6\nstop_um = 1e6\nstep_nm = 1e6\n",
        "[pump]\nwavelength_nm = 10\nbandwidth_ghz = 2.99792e7\n[scan]\naxis = pump\n"
        "start_um = -1e6\nstop_um = 1e6\nstep_nm = 1e6\n",
    ],
    ids=["signal_filter_fwhm_3e16_hz", "pump_fwhm_3e16_hz"],
)
def test_the_widest_spectra_give_zero_envelopes_without_overflow(tmp_path, command, text):
    # the envelope argument reaches 3e8 at 1 m; its square stays far inside the float range
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]) == EXIT_OK


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["simulate", "predict"])
@pytest.mark.parametrize(
    "scan, key",
    [
        ("start_um = 1e200\nstop_um = 1.0000001e200\nstep_nm = 1e196\n", "scan.start_um at line 2"),
        ("start_um = -2\nstop_um = 1e7\nstep_nm = 1e9\n", "scan.stop_um at line 3"),
    ],
    ids=["start_1e200", "stop_10m"],
)
def test_scan_delays_beyond_the_bound_exit_with_config_code(tmp_path, capsys, command, scan, key):
    out = tmp_path / "scan.csv"
    argv = [command, "--config", write_config(tmp_path, "[scan]\n" + scan), "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {key} out of range: must lie in [-1e+06, 1e+06]\n"
    assert not out.exists()

# Engine and oracle (p_a, p_b, p_ab, p_a, p_b, p_ab) of `oracle-check --points 4`,
# recorded from the one-setting-at-a-time implementation: rows 0-3 step the
# signal delay by a quarter signal wavelength, rows 4-7 the pump delay by a
# quarter pump wavelength.
RECORDED_ORACLE_CHECK = [
    (
        dict(gain=1.2e-4, eta=0.35, splitter_ratio=0.62),
        [
            (1.929269535532308e-08, 1.6164e-08, 1.4491015667170203e-08,
             1.9292695588084677e-08, 1.61640002835648e-08, 1.4491015638887875e-08),
            (1.4400000000000003e-08, 1.6164e-08, 9.5983202327616e-09,
             1.4400000232761602e-08, 1.6164000283564805e-08, 9.5983202835648e-09),
            (9.507304644676926e-09, 1.6164e-08, 4.705624798352998e-09,
             9.507304877438526e-09, 1.6164000283564805e-08, 4.705624928241724e-09),
            (1.4400000000000003e-08, 1.6164e-08, 9.5983202327616e-09,
             1.4400000232761602e-08, 1.6164000283564805e-08, 9.5983202835648e-09),
            (1.929269535532308e-08, 1.6164e-08, 1.4491015667170203e-08,
             1.9292695588084677e-08, 1.61640002835648e-08, 1.4491015638887875e-08),
            (1.4400000000000003e-08, 1.6164e-08, 9.5983202327616e-09,
             1.4400000232761602e-08, 1.61640002835648e-08, 9.5983202835648e-09),
            (9.507304644676926e-09, 1.6164e-08, 4.705624798352998e-09,
             9.507304877438526e-09, 1.6164000283564805e-08, 4.705624928241724e-09),
            (1.4400000000000003e-08, 1.6164e-08, 9.5983202327616e-09,
             1.4400000232761602e-08, 1.6164000283564805e-08, 9.5983202835648e-09),
        ],
    ),
    (
        dict(gain=3.3e-4, eta=0.9, splitter_ratio=0.3),
        [
            (1.9872764877252435e-07, 1.9710900000000002e-07, 1.842439879435325e-07,
             1.9872767023769446e-07, 1.9710904067709027e-07, 1.842439894496147e-07),
            (1.0890000000000002e-07, 1.9710900000000002e-07, 9.441632146517012e-08,
             1.089000214651701e-07, 1.9710904067709025e-07, 9.441634067709028e-08),
            (1.9072351227475618e-08, 1.9710900000000002e-07, 4.588654986807703e-09,
             1.9072372692645724e-08, 1.9710904067709027e-07, 4.5886919045659294e-09),
            (1.0889999999999995e-07, 1.9710900000000002e-07, 9.441632146517005e-08,
             1.0890002146517006e-07, 1.9710904067709025e-07, 9.441634067709024e-08),
            (1.9872764877252435e-07, 1.9710900000000002e-07, 1.842439879435325e-07,
             1.9872767023769446e-07, 1.9710904067709027e-07, 1.842439894496147e-07),
            (1.0890000000000002e-07, 1.9710900000000002e-07, 9.441632146517009e-08,
             1.089000214651701e-07, 1.9710904067709025e-07, 9.441634067709028e-08),
            (1.9072351227475618e-08, 1.9710900000000002e-07, 4.588654986807703e-09,
             1.9072372692645724e-08, 1.9710904067709027e-07, 4.5886919045659294e-09),
            (1.0889999999999995e-07, 1.9710900000000002e-07, 9.441632146517005e-08,
             1.0890002146517006e-07, 1.9710904067709025e-07, 9.441634067709024e-08),
        ],
    ),
    (
        dict(gain=5.8e-4, eta=0.55, splitter_ratio=0.71),
        [
            (5.04310109789256e-07, 4.3816100000000003e-07, 4.362650207582779e-07,
             5.043102571866165e-07, 4.381612158621613e-07, 4.3626501565141725e-07),
            (3.364e-07, 4.3816100000000003e-07, 2.6835483739736043e-07,
             3.364001473973604e-07, 4.381612158621613e-07, 2.683549058621612e-07),
            (1.68489890210744e-07, 4.3816100000000003e-07, 1.0044465403644272e-07,
             1.684900376081044e-07, 4.3816121586216123e-07, 1.0044479607290517e-07),
            (3.3639999999999997e-07, 4.3816100000000003e-07, 2.683548373973603e-07,
             3.364001473973604e-07, 4.381612158621613e-07, 2.683549058621612e-07),
            (5.04310109789256e-07, 4.3816100000000003e-07, 4.362650207582779e-07,
             5.043102571866165e-07, 4.381612158621613e-07, 4.3626501565141725e-07),
            (3.364e-07, 4.3816100000000003e-07, 2.6835483739736043e-07,
             3.364001473973604e-07, 4.381612158621613e-07, 2.683549058621612e-07),
            (1.68489890210744e-07, 4.3816100000000003e-07, 1.0044465403644272e-07,
             1.684900376081044e-07, 4.3816121586216123e-07, 1.0044479607290517e-07),
            (3.3639999999999997e-07, 4.3816100000000003e-07, 2.683548373973603e-07,
             3.364001473973603e-07, 4.381612158621612e-07, 2.683549058621611e-07),
        ],
    ),
]


@pytest.mark.parametrize(
    "params, rows",
    RECORDED_ORACLE_CHECK,
    ids=[f"config{n}" for n in range(len(RECORDED_ORACLE_CHECK))],
)
def test_oracle_check_matches_recorded_values(tmp_path, params, rows):
    config = tmp_path / "oracle.ini"
    config.write_text(
        f"[pump]\nsplitter_ratio = {params['splitter_ratio']!r}\n"
        f"[crystal1]\ngain = {params['gain']!r}\n[crystal2]\ngain = {params['gain']!r}\n"
        f"[idler_link]\neta = {params['eta']!r}\n[scan]\n",
        encoding="utf-8",
    )
    out = tmp_path / "oracle.json"
    argv = ["oracle-check", "--config", str(config), "--points", "4", "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_OK
    points = json.loads(out.read_text(encoding="utf-8"))["points"]
    assert len(points) == len(rows)
    for point, want in zip(points, rows):
        got = [point[side][field] for side in ("engine", "oracle") for field in ("p_a", "p_b", "p_ab")]
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_report_mentions_both_coherence_lengths(tmp_path, capsys):
    # the pump's, with the pump delay up to which V0 * 2**-(delay / L)**2 stays at or above 0.9,
    # and the signal filter's; the report states no other coherence length
    reach = "  pump delay up to which singles visibility >= 0.9: "
    assert main(["report", "--config", DEFAULT_CONFIG]) == EXIT_OK
    text = capsys.readouterr().out
    assert "  coherence length computed from bandwidth: 2.940 mm\n" in text
    assert f"{reach}1.146 mm\n" in text
    assert "coherence length 144.0 um\n" in text
    for word in ("stated", "NOTE", "disagree"):
        assert word not in text
    # below 0.9 at zero delay, and with no pairs at all (V0 = 0)
    for change in ("[idler_link]\neta = 0.85\n", "[crystal2]\ngain = 0\n"):
        assert main(["report", "--config", write_config(tmp_path, change + "[scan]\n")]) == EXIT_OK
        assert f"{reach}never\n" in capsys.readouterr().out


@pytest.mark.parametrize("center_nm", ["10", "100000"])
@pytest.mark.parametrize("pump_nm", ["10", "100000"])
def test_report_at_the_narrowest_spectra_prints_only_finite_numbers(tmp_path, capsys, pump_nm, center_nm):
    # the bandwidth floors, a 1 Hz pump and a 1 fm filter, keep every coherence length finite
    text = (f"[pump]\nwavelength_nm = {pump_nm}\nbandwidth_ghz = 1e-09\n"
            f"[signal_filter]\ncenter_nm = {center_nm}\nbandwidth_nm = 1e-06\n[scan]\n")
    assert main(["report", "--config", write_config(tmp_path, text)]) == EXIT_OK
    report = capsys.readouterr().out
    assert not re.search(r"\b(?:inf|nan)\b", report, flags=re.IGNORECASE), report
    lengths = re.findall(r"coherence length (?:computed from bandwidth: )?([0-9.e+]+) (?:mm|um)", report)
    assert len(lengths) == 2 and all(0 < float(length) < math.inf for length in lengths), report


def test_report_flags_low_gain_violation(tmp_path, capsys):
    good = write_config(tmp_path)
    main(["report", "--config", good])
    assert "OK: below the 1e-2 low-gain bound" in capsys.readouterr().out

    hot = write_config(tmp_path, "[detectors]\nrate_b_hz = 1e8\n[scan]\n")
    main(["report", "--config", hot])
    assert "exceeds the 1e-2 low-gain bound" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, line",
    [
        ("[idler_link]\neta = 0.7\n[scan]\n", "singles 0.7000, coincidence 0.9396"),
        ("[crystal1]\ngain = 0\n[crystal2]\ngain = 0\n[scan]\n", "singles 0.0000, coincidence 0.0000"),
    ],
)
def test_report_predicts_visibilities(tmp_path, capsys, text, line):
    # eta and 2 eta / (1 + eta^2) at eta = 0.7; no pairs, no fringe
    assert main(["report", "--config", write_config(tmp_path, text)]) == EXIT_OK
    assert f"predicted visibility: {line}\n" in capsys.readouterr().out


def test_round_trip_csv_reader(tmp_path):
    out = tmp_path / "scan.csv"
    main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"])
    with open(out, encoding="utf-8") as fh:
        record = read_scan_csv(fh)
    assert len(record.delays) == 401
    assert record.counts[0, 0] >= 0
    assert record.rates[1, 0] == pytest.approx(110e3, rel=1e-6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    axis=st.sampled_from(["signal", "pump"]),
    start_um=st.floats(-1000.0, 1000.0),
    step_nm=st.floats(0.5, 50.0),
    steps=st.integers(1, 2000),
)
def test_predict_csv_reads_back_the_scanned_delays(tmp_path_factory, axis, start_um, step_nm, steps):
    # In-range scans up to 1 mm from zero delay: the delays fit reads are run_scan's, bit for bit.
    tmp_path = tmp_path_factory.mktemp("scan")
    stop_um = start_um + steps * step_nm / 1e3
    text = f"[scan]\naxis = {axis}\nstart_um = {start_um!r}\nstop_um = {stop_um!r}\nstep_nm = {step_nm!r}\n"
    config = write_config(tmp_path, text)
    out = tmp_path / "scan.csv"
    assert main(["predict", "--config", config, "--out", str(out), "--quiet"]) == EXIT_OK
    with open(out, encoding="utf-8") as fh:
        record = read_scan_csv(fh)
    assert record.delays.tobytes() == run_scan(load_config(config)).delays.tobytes()


# A pump scan half a metre out in 0.1 nm steps: float64 delays there are
# 1.1e-16 m apart, so the grid's steps vary by 1e-6 of the step and more.
FLOAT_LIMITED_SCAN = "[scan]\naxis = pump\nstart_um = 500000\nstop_um = 500010\nstep_nm = 0.1\n"


def test_a_step_too_fine_for_float64_exits_with_config_code(tmp_path):
    config = write_config(tmp_path, FLOAT_LIMITED_SCAN)
    with pytest.raises(ConfigError, match=r"^scan\.step_nm is too fine for float64 delays on this scan: "
                                          r"it must be at least 3\.55e-09 of its largest \|delay\|, 500010 um$"):
        load_config(config)
    # 2 nm, above 3.55e-09 of 500010 um, gives a uniform grid
    config = write_config(tmp_path, FLOAT_LIMITED_SCAN.replace("step_nm = 0.1", "step_nm = 2"))
    out = tmp_path / "scan.csv"
    assert main(["predict", "--config", config, "--out", str(out), "--quiet"]) == EXIT_OK
    with open(out, encoding="utf-8") as fh:
        assert len(read_scan_csv(fh).delays) == 5001


# Configs outside a cross-field rule, by the key each names: a window holding a
# count or more at the detector rates, a step too fine for float64 delays, and a
# pump frequency FWHM not below the pump's carrier.
REFUSED_AT_LOAD = {
    "window_1e6_ns": ("[detectors]\nwindow_ns = 1e6\n[scan]\n", "detectors.window_ns holds 110"),
    "rates_1e12_at_2_ns": ("[detectors]\nrate_a_hz = 1e12\nrate_b_hz = 1e12\n[scan]\n",
                           "detectors.window_ns holds 2e+03"),
    "pump_step_0.1_nm_at_500_mm": (FLOAT_LIMITED_SCAN, "scan.step_nm is too fine for float64 delays"),
    "pump_bandwidth_1e6_ghz": ("[pump]\nbandwidth_ghz = 1e6\n[scan]\n",
                               "pump.bandwidth_ghz gives a pump frequency FWHM of 1e+15 Hz, "
                               "not below the carrier frequency 8.44e+14 Hz\n"),
}


@pytest.mark.parametrize("command", ["predict", "simulate", "fit", "oracle-check", "report"])
@pytest.mark.parametrize("name", REFUSED_AT_LOAD)
def test_every_command_refuses_a_config_outside_the_cross_field_rules_at_load(tmp_path, capsys, name, command):
    text, message = REFUSED_AT_LOAD[name]
    out = tmp_path / "out"
    # fit's CSV would exit 4 (test_fit_at_two_grid_steps_per_period_exits_with_fit_code)
    head = ["fit", write_nyquist_csv(tmp_path)] if command == "fit" else [command]
    assert main([*head, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_bad_csv_header_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    code = main(["fit", str(bad), "--config", DEFAULT_CONFIG, "--quiet"])
    assert code == EXIT_CONFIG


def test_csv_header_cell_beyond_the_field_limit_is_a_config_error(tmp_path, capsys):
    # the header is one exact line, whatever its length, and the message does not echo it
    bad = tmp_path / "bad.csv"
    bad.write_text('"' + "d" * 200_000 + '",' + ",".join(CSV_HEADER[1:]) + "\n", encoding="utf-8")
    assert main(["fit", str(bad), "--config", DEFAULT_CONFIG, "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: CSV line 1: expected the header line {','.join(CSV_HEADER)!r}, "
                                       "ended by \\n or \\r\\n\n")


@pytest.mark.parametrize(
    "line, column, cell",
    [
        (2, 0, "abc"),
        (4, 1, "nan"),
        (5, 3, "inf"),
        (7, 6, "1.5"),
        (9, 4, ""),
        (10, 5, "1_0"),
        (11, 2, "1_1.0"),
        (12, 6, "\u0661"),
        (13, 4, "-3"),
        (14, 6, "007"),
        (15, 5, '"5"'),
        (16, 0, "+1e-06"),
        (17, 2, "1e999"),
        (18, 4, str(2**63)),
        (19, 1, "42000"),
        (20, 2, "1.1E5"),
        (21, 3, ".11e6"),
        (22, 0, "2.0"),
    ],
)
def test_malformed_csv_cell_names_line_and_column(tmp_path, capsys, line, column, cell):
    scan = tmp_path / "scan.csv"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(scan), "--quiet"]) == EXIT_OK
    lines = scan.read_text(encoding="utf-8").splitlines()
    row = lines[line - 1].split(",")
    row[column] = cell
    lines[line - 1] = ",".join(row)
    scan.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: CSV line {line}, column {CSV_HEADER[column]}: ")
    assert err.endswith(f": {cell!r}\n")


def test_csv_cell_beyond_field_limit_is_accepted(tmp_path):
    scan = tmp_path / "scan.csv"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(scan), "--quiet"]) == EXIT_OK
    lines = scan.read_text(encoding="utf-8").splitlines()
    row = lines[13].split(",")
    row[2] = "1." + "0" * 140_000 + "e+00"
    lines[13] = ",".join(row)
    scan.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(scan, encoding="utf-8", newline="") as fh:
        assert read_scan_csv(fh).rates[1, 12] == 1.0
    assert main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--quiet"]) == EXIT_OK


def test_fit_rejects_a_csv_that_is_not_utf8(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(scan), "--quiet"]) == EXIT_OK
    data = bytearray(scan.read_bytes())
    offset = len(data) - 100  # beyond the first 8 KiB a text reader decodes
    data[offset] = 0xFF
    scan.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{scan}: not UTF-8 text: byte 0xff at offset {offset} (invalid start byte)" in err


@pytest.mark.parametrize("command", ["report", "simulate", "predict", "oracle-check"])
def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    config = tmp_path / "exp.ini"
    config.write_bytes(b"[scan]\n# caf\xe9\n")
    out = tmp_path / "out.txt"
    assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{config}: not UTF-8 text: byte 0xe9 at offset 12 (invalid continuation byte)" in err
    assert not out.exists()


def _swap_rows(lines):
    lines[100], lines[101] = lines[101], lines[100]


def _duplicate_row(lines):
    lines.insert(50, lines[49])


def _delete_ten_rows(lines):
    del lines[200:210]


@pytest.mark.parametrize(
    "edit, line, reason",
    [
        (_swap_rows, 102, "is not greater than the previous delay"),
        (_duplicate_row, 51, "is not greater than the previous delay"),
        (_delete_ten_rows, 201, "is off the grid's median step"),
    ],
)
def test_bad_delay_grid_names_line(tmp_path, capsys, edit, line, reason):
    scan = tmp_path / "pred.csv"
    assert main(["predict", "--config", DEFAULT_CONFIG, "--out", str(scan), "--quiet"]) == EXIT_OK
    lines = scan.read_text(encoding="utf-8").splitlines()
    edit(lines)
    scan.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--source", "rates", "--quiet"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: CSV line {line}: delay ")
    assert reason in err


# Count families for the fit contract: what a CSV that follows the grammar can hold.
COUNT_FAMILIES = (
    "fringe", "sparse", "spike", "near 2**62", "alternating", "heavy tail", "zeros", "negative",
)


def _family_counts(family, rng, n):
    """One row of n counts from a family; "negative" may hold negative counts."""
    index = np.arange(n)
    if family in ("fringe", "negative"):
        period = rng.uniform(3.0, max(n / 4, 3.0))
        visibility = rng.uniform(0.1, 1.0)
        mean = 10 ** rng.uniform(1, 6) * (1 + visibility * np.cos(2 * np.pi * index / period + rng.uniform(0, 2 * np.pi)))
        counts = rng.poisson(mean)
        if family == "negative":
            hit = rng.random(n) < rng.uniform(0, 0.2)
            counts[hit] = -counts[hit] - 1
        return counts
    if family == "sparse":
        return rng.poisson(rng.uniform(0.01, 0.3), n)
    if family == "spike":
        counts = np.zeros(n, dtype=np.int64)
        counts[rng.integers(n)] = rng.integers(1, 10**9)
        return counts
    if family == "near 2**62":
        return 2**62 - rng.integers(0, 1000, n)
    if family == "alternating":
        return np.where(index % 2, rng.integers(0, 10**6), rng.integers(0, 10**6))
    if family == "heavy tail":
        return np.minimum(rng.zipf(1.5, n), 2**62)
    return np.zeros(n, dtype=np.int64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(COUNT_FAMILIES),
    rows=st.integers(8, 2001),
    step_exponent=st.floats(-12.0, -3.0),
    first=st.integers(-3000, 3000),
    seed=st.integers(0, 2**32 - 1),
    channel=st.sampled_from(["singles", "coincidence"]),
    source=st.sampled_from(["counts", "rates"]),
)
def test_fit_of_any_grammar_valid_csv_keeps_its_contract(
    tmp_path_factory, family, rows, step_exponent, first, seed, channel, source
):
    # fit exits 0, 2 or 4 and raises no warning; a negative count exits 2
    # naming its line and column; exit 0 writes strict JSON with a finite
    # period, visibility and phase.
    rng = np.random.default_rng(seed)
    delays = (first + np.arange(rows)) * 10**step_exponent
    counts = np.array([_family_counts(family, rng, rows) for _ in range(3)], dtype=np.int64)
    rates = np.maximum(counts, 0) / 0.5  # over the default config's 0.5 s dwell
    lines = [",".join(CSV_HEADER)]
    lines += ["%.16e,%.8e,%.8e,%.8e,%d,%d,%d" % row for row in zip(delays, *rates, *counts)]
    tmp_path = tmp_path_factory.mktemp("contract")
    scan, fit_out = tmp_path / "scan.csv", tmp_path / "fit.json"
    scan.write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--channel", channel,
                     "--source", source, "--out", str(fit_out), "--quiet"])
    assert not caught, [str(w.message) for w in caught]
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_FIT), err.getvalue()
    negative = np.argwhere(counts.T < 0)
    if len(negative):
        row, column = negative[0]
        assert code == EXIT_CONFIG
        assert err.getvalue() == (f"config error: CSV line {row + 2}, column {CSV_HEADER[4 + column]}: "
                                  f"not a count without sign or leading zeros: '{counts[column, row]}'\n")
    if code == EXIT_OK:
        summary = json.loads(fit_out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
        for key in ("period_m", "visibility", "phase_rad"):
            assert isinstance(summary[key], float) and math.isfinite(summary[key]), (key, summary[key])
