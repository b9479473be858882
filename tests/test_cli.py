import json
from pathlib import Path

import pytest

from icohsim.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_FIT,
    EXIT_IO,
    EXIT_OK,
    main,
    read_scan_csv,
)
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
]


def write_config(tmp_path, text="[scan]\n"):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return str(path)


def test_simulate_then_fit_signal_default(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 402

    fit_out = tmp_path / "fit.json"
    assert (
        main(["fit", str(out), "--config", DEFAULT_CONFIG, "--out", str(fit_out), "--quiet"])
        == EXIT_OK
    )
    summary = json.loads(fit_out.read_text())
    assert list(summary.keys()) == FIT_KEYS
    assert abs(summary["period_m"] - 808e-9) < 1e-9
    assert summary["converged"] is True


def _reject_constant(name):
    raise AssertionError(f"fit JSON is not strict: {name}")


def test_fit_json_reports_diagnostics_as_strict_json(tmp_path):
    scan = tmp_path / "scan.csv"
    args = ["--config", DEFAULT_CONFIG, "--seed", "3", "--quiet"]
    assert main(["simulate", *args, "--out", str(scan)]) == EXIT_OK
    fit_out = tmp_path / "fit.json"
    assert main(["fit", str(scan), *args, "--out", str(fit_out)]) == EXIT_OK
    summary = json.loads(fit_out.read_text(), parse_constant=_reject_constant)
    assert list(summary.keys()) == FIT_KEYS
    assert summary["iterations"] > 0
    # a 4 um scan cannot resolve the ~350 um signal envelope: its width is a
    # lower bound, and on this seed its uncertainty is unbounded
    assert summary["envelope_resolved"] is False
    assert summary["envelope_fwhm_sigma_m"] is None
    assert summary["phase_sigma_rad"] > 0
    assert summary["baseline_sigma_hz"] > 0
    assert summary["channel"] == "singles"
    assert summary["source"] == "counts"


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
    summary = json.loads(fit_out.read_text())
    assert abs(summary["period_m"] - 355e-9) < 1e-9


def test_simulate_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(a), "--quiet"])
    main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(b), "--quiet"])
    assert a.read_bytes() == b.read_bytes()


def test_seed_override_changes_counts(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(a), "--quiet"])
    main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(b), "--seed", "7", "--quiet"])
    assert a.read_bytes() != b.read_bytes()


def test_axis_override(tmp_path):
    out = tmp_path / "x.csv"
    main(["predict", "--config", DEFAULT_CONFIG, "--out", str(out), "--axis", "pump", "--quiet"])
    with open(out) as fh:
        record = read_scan_csv(fh, axis="pump")
    # pump fringes: a 355 nm shift leaves the rate unchanged
    assert len(record.delays) == 401
    assert record.axis == "pump"


def test_fit_warns_on_undersampled_pump_csv(tmp_path, capsys):
    config = write_config(tmp_path, "[scan]\nstart_um = -2\nstop_um = 2\nstep_nm = 50\n")
    scan = tmp_path / "scan.csv"
    predict = ["predict", "--config", config, "--axis", "pump", "--out", str(scan), "--quiet"]
    assert main(predict) == EXIT_OK
    capsys.readouterr()
    # 50 nm steps resolve the 808 nm signal period but not the 355 nm pump period
    fit = ["fit", str(scan), "--config", config, "--source", "rates", "--quiet"]
    assert main(fit) == EXIT_OK
    assert "warning:" not in capsys.readouterr().err
    assert main([*fit, "--axis", "pump"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "warning: grid step 5e-08 m gives fewer than 8 points per expected" in err
    assert "3.55e-07 m fringe period" in err


def test_csv_floats_have_nine_significant_digits(tmp_path):
    out = tmp_path / "scan.csv"
    main(["predict", "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"])
    row = out.read_text().splitlines()[1].split(",")
    mantissa = row[1].split("e")[0]
    digits = mantissa.replace("-", "").replace(".", "")
    assert len(digits) == 9


def test_predict_writes_zero_counts_and_fit_rates_works(tmp_path):
    out = tmp_path / "pred.csv"
    main(["predict", "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"])
    with open(out) as fh:
        record = read_scan_csv(fh)
    assert all(s.counts_a == 0 for s in record.samples)
    fit_out = tmp_path / "fit.json"
    code = main(
        [
            "fit",
            str(out),
            "--config",
            DEFAULT_CONFIG,
            "--source",
            "rates",
            "--out",
            str(fit_out),
            "--quiet",
        ]
    )
    assert code == EXIT_OK
    summary = json.loads(fit_out.read_text())
    assert summary["visibility"] == pytest.approx(1.0, abs=1e-6)


def test_fit_on_flat_counts_exits_with_fit_code(tmp_path, capsys):
    out = tmp_path / "pred.csv"
    main(["predict", "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"])
    code = main(["fit", str(out), "--config", DEFAULT_CONFIG, "--source", "counts", "--quiet"])
    assert code == EXIT_FIT


def test_missing_config_exits_with_io_code(tmp_path):
    assert main(["report", "--config", str(tmp_path / "nope.ini")]) == EXIT_IO


def test_invalid_config_exits_with_config_code(tmp_path):
    config = write_config(tmp_path, "[idler_link]\neta = 2\n[scan]\n")
    assert main(["report", "--config", config]) == EXIT_CONFIG


def test_unwritable_output_exits_with_io_code(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main(["predict", "--config", DEFAULT_CONFIG, "--out", str(target), "--quiet"])
    assert code == EXIT_IO


def test_oracle_check_command(tmp_path):
    out = tmp_path / "oracle.json"
    assert (
        main(["oracle-check", "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"])
        == EXIT_OK
    )
    data = json.loads(out.read_text())
    assert len(data["points"]) == 32
    assert data["relative_deviation_per_channel"]["p_a"] <= 1e-6
    # the state check keeps double-pair terms the low-gain engine drops,
    # so the other channels sit at twice the |K|^2 scale
    assert data["max_relative_deviation"] <= 2.05e-6


def test_report_mentions_both_coherence_lengths(tmp_path, capsys):
    assert main(["report", "--config", DEFAULT_CONFIG]) == EXIT_OK
    text = capsys.readouterr().out
    assert "2.940 mm" in text
    assert "1.400 mm" in text
    assert "disagree" in text
    assert "neither is adjusted" in text


def test_report_flags_low_gain_violation(tmp_path, capsys):
    good = write_config(tmp_path)
    main(["report", "--config", good])
    assert "OK: below the 1e-2 low-gain bound" in capsys.readouterr().out

    hot = write_config(tmp_path, "[detectors]\nrate_b_hz = 1e8\n[scan]\n")
    main(["report", "--config", hot])
    assert "exceeds the 1e-2 low-gain bound" in capsys.readouterr().out


def test_round_trip_csv_reader(tmp_path):
    out = tmp_path / "scan.csv"
    main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"])
    with open(out) as fh:
        record = read_scan_csv(fh)
    assert len(record.delays) == 401
    assert record.samples[0].counts_a >= 0
    assert record.predicted[0].p_b == pytest.approx(110e3, rel=1e-6)


def test_bad_csv_header_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    code = main(["fit", str(bad), "--config", DEFAULT_CONFIG, "--quiet"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "line, column, cell",
    [(2, 0, "abc"), (4, 1, "nan"), (5, 3, "inf"), (7, 6, "1.5"), (9, 4, "")],
)
def test_malformed_csv_cell_names_line_and_column(tmp_path, capsys, line, column, cell):
    scan = tmp_path / "scan.csv"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(scan), "--quiet"]) == EXIT_OK
    lines = scan.read_text().splitlines()
    row = lines[line - 1].split(",")
    row[column] = cell
    lines[line - 1] = ",".join(row)
    scan.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"CSV line {line}, column {CSV_HEADER[column]}" in err


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
    lines = scan.read_text().splitlines()
    edit(lines)
    scan.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--source", "rates", "--quiet"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"CSV line {line}: delay" in err
    assert reason in err
