import json
import os
from pathlib import Path

import numpy as np
import pytest

from icohsim import cli
from icohsim.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_FIT,
    EXIT_IO,
    EXIT_OK,
    EXIT_UNEXPECTED,
    MAX_ORACLE_POINTS,
    main,
    oracle_comparison,
    read_scan_csv,
)
from icohsim.config import load_config
from icohsim.fockoracle import MAX_ORACLE_GAIN
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
    "envelope_delta_chi2",
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


def test_noisy_visibility_above_one_is_reported_unclipped(tmp_path):
    # at eta = 1 noise puts the visibility estimate above 1 on about half the seeds
    scan = tmp_path / "scan.csv"
    args = ["--config", DEFAULT_CONFIG, "--seed", "2", "--quiet"]
    assert main(["simulate", *args, "--out", str(scan)]) == EXIT_OK
    fit_out = tmp_path / "fit.json"
    assert main(["fit", str(scan), *args, "--out", str(fit_out)]) == EXIT_OK
    summary = json.loads(fit_out.read_text(), parse_constant=_reject_constant)
    assert summary["visibility"] > 1
    assert 0 < summary["visibility_sigma"] < 1e-3
    assert summary["visibility"] - 1 < 3 * summary["visibility_sigma"]


def test_fit_is_byte_deterministic(tmp_path):
    scan = tmp_path / "scan.csv"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(scan), "--quiet"]) == EXIT_OK
    outputs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outputs:
        assert main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--out", str(out), "--quiet"]) == EXIT_OK
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


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


def test_unresolved_envelope_has_no_center_uncertainty(tmp_path):
    # a 4 um pump scan sits far inside the pump coherence length
    config = write_config(
        tmp_path, "[scan]\naxis = pump\nstart_um = -2\nstop_um = 2\nstep_nm = 50\n"
    )
    scan = tmp_path / "pump.csv"
    assert main(["simulate", "--config", config, "--out", str(scan), "--quiet"]) == EXIT_OK
    fit_out = tmp_path / "pump_fit.json"
    assert main(["fit", str(scan), "--config", config, "--out", str(fit_out), "--quiet"]) == EXIT_OK
    summary = json.loads(fit_out.read_text(), parse_constant=_reject_constant)
    assert summary["envelope_resolved"] is False
    assert summary["envelope_fwhm_sigma_m"] is None
    assert summary["envelope_center_sigma_m"] is None
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
    assert all(record.counts[0] == 0)
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


@pytest.mark.parametrize("command", ["simulate", "report", "oracle-check"])
def test_non_finite_config_value_exits_with_config_code(tmp_path, capsys, command):
    config = write_config(tmp_path, "[pump]\nwavelength_nm = nan\n[scan]\n")
    argv = [command, "--config", config, "--out", str(tmp_path / "out"), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: pump.wavelength_nm: not a finite number: 'nan'\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, text, reason",
    [
        ("simulate", "[detectors]\nrate_a_hz = 1e30\n[scan]\n", "expected counts 6.1e+27"),
        ("simulate", "[scan]\ndwell_s = 1e300\n", "expected counts 1.1e+305"),
        (
            "simulate",
            "[detectors]\nrate_a_hz = 1e200\nrate_b_hz = 1e200\n[scan]\n",
            "expected counts inf",
        ),
        ("simulate", "[detectors]\nrate_a_hz = 1.7e308\n[scan]\n", "calibrated rates exceed"),
        ("predict", "[detectors]\nrate_a_hz = 1.7e308\n[scan]\n", "calibrated rates exceed"),
    ],
    ids=["rate_a_1e30", "dwell_1e300", "rates_1e200", "simulate_rate_1.7e308", "predict_rate_1.7e308"],
)
def test_counts_beyond_the_sampler_limit_exit_with_config_code(
    tmp_path, capsys, command, text, reason
):
    out = tmp_path / "scan.csv"
    argv = [command, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {reason}")
    assert err.rstrip().endswith("lower detectors.rate_a_hz, detectors.rate_b_hz or scan.dwell_s")
    assert not out.exists()


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


@pytest.mark.parametrize("points", [0, -3, MAX_ORACLE_POINTS + 1])
def test_oracle_check_rejects_points_out_of_range(tmp_path, capsys, points):
    out = tmp_path / "oracle.json"
    argv = ["oracle-check", "--config", DEFAULT_CONFIG, "--points", str(points), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert "--points" in capsys.readouterr().err
    assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("points", [1, 2, 16, MAX_ORACLE_POINTS])
def test_oracle_check_json_equals_the_reference_encoder(tmp_path, points):
    out = tmp_path / "oracle.json"
    argv = ["oracle-check", "--config", DEFAULT_CONFIG, "--points", str(points), "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_OK
    comparison = oracle_comparison(load_config(DEFAULT_CONFIG), points_per_axis=points)
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
    text, expected = out.read_bytes().decode("utf-8"), json.dumps(reference, indent=2) + "\n"
    # compared without pytest's diff, which is slow on the 2.8 MB files of 4096 points
    same = text == expected
    k = len(os.path.commonprefix([text, expected]))
    assert same, f"first difference at character {k}: {text[max(k - 40, 0):k + 40]!r}"
    assert len(json.loads(text, parse_constant=_reject_constant)["points"]) == 2 * points


def test_oracle_check_rejects_a_non_finite_rate(tmp_path, capsys, monkeypatch):
    def nan_rates(config, delta_x_p, delta_x_s):
        return np.full((3, len(delta_x_p)), np.nan)

    monkeypatch.setattr(cli, "setup_rates", nan_rates)
    out = tmp_path / "oracle.json"
    argv = ["oracle-check", "--config", DEFAULT_CONFIG, "--points", "4", "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_UNEXPECTED
    assert "rate p_a=nan must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, text, key",
    [
        ("report", "[pump]\nstated_coherence_length_mm = 0\n[scan]\n", "pump.stated_coherence_length_mm"),
        ("report", "[pump]\nstated_coherence_length_mm = -3\n[scan]\n", "pump.stated_coherence_length_mm"),
        (
            "simulate",
            "[pump]\ncoherence_length_override_mm = 1e-300\n[scan]\n",
            "pump.coherence_length_override_mm",
        ),
        (
            "simulate",
            "[pump]\ncoherence_length_override_mm = 1e-290\n[scan]\naxis = pump\n",
            "pump.coherence_length_override_mm",
        ),
        ("simulate", "[pump]\nbandwidth_ghz = 1e299\n[scan]\n", "pump.bandwidth_ghz"),
        ("simulate", "[pump]\nbandwidth_ghz = 1e299\n[scan]\naxis = pump\n", "pump.bandwidth_ghz"),
        ("oracle-check", "[crystal1]\ngain = 0.05\n[scan]\n", "crystal1.gain"),
        ("oracle-check", "[crystal2]\ngain = 0.02\n[scan]\n", "crystal2.gain"),
    ],
    ids=[
        "stated_0",
        "stated_-3",
        "override_1e-300",
        "override_1e-290_pump",
        "bandwidth_1e299",
        "bandwidth_1e299_pump",
        "oracle_gain1",
        "oracle_gain2",
    ],
)
def test_out_of_range_pump_and_oracle_values_exit_with_config_code(
    tmp_path, capsys, command, text, key
):
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} ")
    if command == "oracle-check":
        assert repr(MAX_ORACLE_GAIN) in err
    assert not out.exists()



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["report", "simulate", "predict"])
@pytest.mark.parametrize("section", ["signal_filter"])
def test_filter_without_a_finite_frequency_width_exits_with_config_code(
    tmp_path, capsys, command, section
):
    # center^2 underflows to zero, so c * bandwidth / center^2 has no value
    text = f"[{section}]\ncenter_nm = 1e-300\nbandwidth_nm = 1e-301\n[scan]\n"
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {section}.center_nm out of range")
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
        "[signal_filter]\ncenter_nm = 1e-152\nbandwidth_nm = 1e-153\n[scan]\n",
        "[pump]\nwavelength_nm = 1e-200\nbandwidth_ghz = 1e199\n[scan]\naxis = pump\n",
    ],
    ids=["signal_filter_fwhm_3e168_hz", "pump_fwhm_1e208_hz"],
)
def test_huge_spectral_widths_give_zero_envelopes_without_overflow(tmp_path, command, text):
    # the envelope argument reaches 6e154 (signal) and 2e194 (pump); clamped, its square stays finite
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]) == EXIT_OK


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["simulate", "predict"])
@pytest.mark.parametrize(
    "scan, key",
    [
        ("start_um = 1e200\nstop_um = 1.0000001e200\nstep_nm = 1e196\n", "scan.start_um"),
        ("start_um = -2\nstop_um = 1e7\nstep_nm = 1e9\n", "scan.stop_um"),
    ],
    ids=["start_1e200", "stop_10m"],
)
def test_scan_delays_beyond_the_bound_exit_with_config_code(tmp_path, capsys, command, scan, key):
    out = tmp_path / "scan.csv"
    argv = [command, "--config", write_config(tmp_path, "[scan]\n" + scan), "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {key} out of range")
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
        f"[idler_link]\neta = {params['eta']!r}\n[scan]\n"
    )
    out = tmp_path / "oracle.json"
    argv = ["oracle-check", "--config", str(config), "--points", "4", "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_OK
    points = json.loads(out.read_text())["points"]
    assert len(points) == len(rows)
    for point, want in zip(points, rows):
        got = [point[side][field] for side in ("engine", "oracle") for field in ("p_a", "p_b", "p_ab")]
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


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
    with open(out) as fh:
        record = read_scan_csv(fh)
    assert len(record.delays) == 401
    assert record.counts[0, 0] >= 0
    assert record.rates[1, 0] == pytest.approx(110e3, rel=1e-6)


def test_bad_csv_header_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    code = main(["fit", str(bad), "--config", DEFAULT_CONFIG, "--quiet"])
    assert code == EXIT_CONFIG


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
    ],
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


def test_csv_cell_beyond_field_limit_is_accepted(tmp_path):
    scan = tmp_path / "scan.csv"
    assert main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(scan), "--quiet"]) == EXIT_OK
    lines = scan.read_text().splitlines()
    row = lines[13].split(",")
    row[2] = "1" + "0" * 140_000 + "e-140000"
    lines[13] = ",".join(row)
    scan.write_text("\n".join(lines) + "\n")
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
    lines = scan.read_text().splitlines()
    edit(lines)
    scan.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["fit", str(scan), "--config", DEFAULT_CONFIG, "--source", "rates", "--quiet"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"CSV line {line}: delay" in err
    assert reason in err
