"""Command-line front end: predict / simulate / fit / oracle-check / report.

CSV is the scan interchange format (one row per delay point, rates plus
sampled counts); fits are summarized as JSON.  Identical config and seed
always produce byte-identical outputs.

Exit codes: 0 success, 2 configuration problem, 3 I/O failure, 4 fit did
not converge or found no fringe, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import fockoracle
from .config import ConfigError, ExperimentConfig, load_config, with_overrides
from .counting import accidental_rate, double_pair_probability
from .expectation import RATE_FLOOR, RatePrediction, setup_rates
from .operators import DelaySetting
from .scan import (
    FitNonConvergenceError,
    FringeFit,
    NoFringeError,
    ScanRecord,
    fit_fringe,
    off_grid_step,
    run_scan,
    undersampling_warning,
)
from .spectral import coherence_length, compile_model, envelope, frequency_fwhm

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_FIT = 4

CSV_HEADER = ["delay_m", "rate_a_hz", "rate_b_hz", "coinc_hz", "counts_a", "counts_b", "coinc_counts"]

LOW_GAIN_BOUND = 1e-2
# Upper limit of oracle-check --points, so one batch stays a few tens of MB.
MAX_ORACLE_POINTS = 4096
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


# One CSV row: delay and rates with nine significant digits, then the counts.
_ROW_FORMAT = "%.8e,%.8e,%.8e,%.8e,%d,%d,%d\n"
_HEADER_LINE = ",".join(CSV_HEADER)


def write_scan_csv(record: ScanRecord, stream: io.TextIOBase) -> None:
    """One header line, then one row per delay; a noiseless record writes zero counts."""
    counts = record.counts
    if counts is None:
        counts = np.zeros((3, len(record.delays)), dtype=np.int64)
    columns = zip(record.delays.tolist(), *record.rates.tolist(), *counts.tolist())
    stream.write(_HEADER_LINE + "\n" + "".join(_ROW_FORMAT % row for row in columns))


def _csv_cell(text: str, column: int, line: int) -> float | int:
    """Parse one CSV cell: the delay and rates are finite floats, the counts 64-bit integers."""
    parse, kind = (float, "a finite number") if column < 4 else (int, "an integer")
    try:
        value = parse(text)
    except ValueError:
        value = math.nan
    if isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            return value
        raise ConfigError(
            f"CSV line {line}, column {CSV_HEADER[column]}: integer out of the 64-bit range: {text!r}"
        )
    if not math.isfinite(value):
        raise ConfigError(
            f"CSV line {line}, column {CSV_HEADER[column]}: not {kind}: {text!r}"
        )
    return value


def _check_delay_grid(delays: np.ndarray, lines: list[int]) -> None:
    """Reject a delay column that is not strictly increasing on a uniform grid."""
    if len(delays) < 2:
        return
    down = np.flatnonzero(np.diff(delays) <= 0)
    if len(down):
        k = int(down[0]) + 1
        raise ConfigError(
            f"CSV line {lines[k]}: delay {delays[k]:.9g} m is not greater than "
            f"the previous delay {delays[k - 1]:.9g} m"
        )
    off = off_grid_step(delays)
    if off is not None:
        raise ConfigError(
            f"CSV line {lines[off + 1]}: delay step {delays[off + 1] - delays[off]:.6g} m "
            f"is off the grid's median step; delays must be uniformly spaced"
        )


def _raise_first_bad_row(rows: list[list[str]], lines: list[int]) -> None:
    """Raise the error of the first bad row, in file order: its length, each cell, its rates."""
    for row, line in zip(rows, lines):
        if len(row) != len(CSV_HEADER):
            raise ConfigError(
                f"CSV line {line}: row has {len(row)} columns, expected {len(CSV_HEADER)}"
            )
        values = [_csv_cell(cell, column, line) for column, cell in enumerate(row)]
        try:
            RatePrediction(*values[1:4])
        except ValueError as exc:
            raise ConfigError(f"CSV line {line}: {exc}") from None


def read_scan_csv(stream: io.TextIOBase, axis: str = "signal") -> ScanRecord:
    """Parse a scan CSV; bad cells and a non-uniform delay grid name their line.

    The csv module splits the rows, and whole columns go through ``float``
    and ``int``.  When that fails, the rows are checked one by one in file
    order, so the error names the first bad line (and column).
    """
    reader = csv.reader(io.StringIO(stream.read(), newline=""))
    rows: list[list[str]] = []
    lines: list[int] = []
    try:
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header {header!r}; expected {CSV_HEADER!r}")
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    except csv.Error as exc:
        _raise_first_bad_row(rows, lines)
        raise ConfigError(f"CSV line {reader.line_num}: {exc}") from None
    cells = [cell for row in rows for cell in row]
    try:
        if any(len(row) != len(CSV_HEADER) for row in rows):
            raise ValueError("a row without seven cells")
        table = np.array([list(map(float, cells[column::7])) for column in range(4)])
        counts = np.array([list(map(int, cells[column::7])) for column in range(4, 7)], dtype=np.int64)
        if not np.all(np.isfinite(table)) or np.any(table[1:] < RATE_FLOOR):
            raise ValueError("a non-finite cell or a negative rate")
    except (ValueError, OverflowError):
        _raise_first_bad_row(rows, lines)
        raise
    _check_delay_grid(table[0], lines)
    return ScanRecord(axis=axis, delays=table[0], rates=table[1:], counts=counts)


def fit_summary(fit: FringeFit) -> dict:
    """JSON-ready fit values; a non-finite number (an unbounded sigma) becomes None."""
    summary = {
        "period_m": fit.period,
        "period_sigma_m": fit.period_sigma,
        "visibility": fit.visibility,
        "visibility_sigma": fit.visibility_sigma,
        "envelope_center_m": fit.envelope_center,
        "envelope_fwhm_m": fit.envelope_fwhm,
        "phase_rad": fit.phase,
        "baseline_hz": fit.baseline,
        "reduced_residual": fit.reduced_residual,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "envelope_resolved": fit.envelope_resolved,
        "envelope_center_sigma_m": fit.envelope_center_sigma,
        "envelope_fwhm_sigma_m": fit.envelope_fwhm_sigma,
        "phase_sigma_rad": fit.phase_sigma,
        "baseline_sigma_hz": fit.baseline_sigma,
        "channel": fit.channel,
        "source": fit.source,
        "envelope_delta_chi2": fit.envelope_delta_chi2,
    }
    return {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in summary.items()
    }


def oracle_comparison(config: ExperimentConfig, points_per_axis: int = 16) -> dict:
    """Engine vs brute-force state check over one fringe period per axis.

    Both sides evaluate all 2 * ``points_per_axis`` delay settings in one
    batched call.  Deviations are reported relative to each channel's full
    scale, so fringe zeros do not blow up the statistic.
    """
    lam_s, lam_p = config.signal_filter.center_wavelength, config.pump_wavelength
    steps = range(points_per_axis)
    settings = [DelaySetting(delta_x_s=k * lam_s / points_per_axis) for k in steps]
    settings += [DelaySetting(delta_x_p=k * lam_p / points_per_axis) for k in steps]
    engine = setup_rates(config, settings)
    oracle = fockoracle.detection_moments(fockoracle.build_state(config, settings))

    names = ("p_a", "p_b", "p_ab")
    rows = [
        {
            "delay_xp_m": setting.delta_x_p,
            "delay_xs_m": setting.delta_x_s,
            "engine": dict(zip(names, e)),
            "oracle": dict(zip(names, o)),
        }
        for setting, e, o in zip(settings, engine.T.tolist(), oracle.T.tolist())
    ]
    scale = np.maximum(np.maximum(np.abs(engine).max(axis=1), np.abs(oracle).max(axis=1)), 1e-300)
    per_channel = dict(zip(names, (np.abs(engine - oracle).max(axis=1) / scale).tolist()))
    return {
        "gain_1": config.gain1,
        "gain_2": config.gain2,
        "relative_deviation_per_channel": per_channel,
        "max_relative_deviation": max(per_channel.values()),
        "points": rows,
    }


def build_report(config: ExperimentConfig) -> str:
    pump = config.pump_profile()
    computed_lc = coherence_length(pump)
    signal_lc = coherence_length(config.signal_filter)
    # visibility at zero delay: |Re A| / B of the closed-form fringe model, 0 without pairs
    model = compile_model(config)
    vis_singles, vis_coinc = (
        abs(model.amplitude[k].real) / base if base else 0.0
        for k, base in ((0, model.baseline.p_a), (2, model.baseline.p_ab))
    )
    acc = accidental_rate(config.detectors.rate_a_cal, config.detectors.rate_b_cal, config.detectors.window)
    double_pair = double_pair_probability(config.detectors.rate_b_cal, config.detectors.window)

    lines = []
    lines.append("induced-coherence interferometer report")
    lines.append("=" * 40)
    lines.append(
        f"pump: {config.pump_wavelength * 1e9:.1f} nm, "
        f"frequency FWHM {frequency_fwhm(pump):.4g} Hz"
    )
    lines.append(f"  coherence length computed from bandwidth: {computed_lc * 1e3:.3f} mm")
    if config.stated_coherence_length is not None:
        stated = config.stated_coherence_length
        ratio = computed_lc / stated
        lines.append(f"  coherence length stated in config:        {stated * 1e3:.3f} mm")
        if abs(ratio - 1.0) > 0.1:
            lines.append(
                f"  NOTE: stated and computed values disagree by a factor {ratio:.2f}; "
                "both are reported, neither is adjusted"
            )
    if config.coherence_length_override is not None:
        lines.append(
            f"  override active: pump bandwidth rescaled for a "
            f"{config.coherence_length_override * 1e3:.3f} mm coherence length"
        )
    lines.append(
        f"signal filter: {config.signal_filter.center_wavelength * 1e9:.1f} nm, "
        f"{frequency_fwhm(config.signal_filter):.4g} Hz FWHM, "
        f"coherence length {signal_lc * 1e6:.1f} um"
    )
    lines.append(
        f"idler filter: {config.idler_filter.center_wavelength * 1e9:.1f} nm "
        "(affects absolute rates only)"
    )
    lines.append(
        f"gains: K1 = {config.gain1:.3g}, K2 = {config.gain2:.3g}; "
        f"idler link eta = {config.eta:.3f}; splitter ratio = {config.splitter_ratio:.3f}"
    )
    lines.append(
        f"predicted visibility: singles {vis_singles:.4f}, coincidence {vis_coinc:.4f}"
    )
    lines.append(
        f"fringe periods: signal axis {config.signal_filter.center_wavelength * 1e9:.1f} nm, "
        f"pump axis {config.pump_wavelength * 1e9:.1f} nm"
    )
    lines.append(
        f"pump-scan envelope at 600 um delay: {envelope(pump, 600e-6):.4f} of peak"
    )
    lines.append(
        f"detectors: D_A {config.detectors.rate_a_cal:.6g} /s, "
        f"D_B {config.detectors.rate_b_cal:.6g} /s, "
        f"window {config.detectors.window * 1e9:.2f} ns, dwell {config.scan.dwell:.3g} s"
    )
    lines.append(f"  accidental coincidence rate: {acc:.4g} /s")
    verdict = (
        "OK: below the 1e-2 low-gain bound"
        if double_pair < LOW_GAIN_BOUND
        else "WARNING: exceeds the 1e-2 low-gain bound; induced coherence "
        "is not guaranteed to dominate stimulated emission"
    )
    lines.append(
        f"  double-pair probability per window (pair rate taken as the D_B rate): "
        f"{double_pair:.4g}  [{verdict}]"
    )
    lines.append(
        f"scan: {config.scan.axis} axis, {config.scan.start * 1e6:.3g} um to "
        f"{config.scan.stop * 1e6:.3g} um in {config.scan.step * 1e9:.3g} nm steps"
    )
    return "\n".join(lines) + "\n"


def _add_common(parser: argparse.ArgumentParser, require_out: bool) -> None:
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", required=require_out, default=None, help="output path")
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument(
        "--axis", choices=("signal", "pump"), default=None, help="override the scan axis"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress messages")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared for the process."""
    parser = argparse.ArgumentParser(
        prog="icohsim",
        description="Two-crystal induced-coherence interferometer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_predict = sub.add_parser("predict", help="noiseless modulated rates to CSV")
    _add_common(p_predict, require_out=True)

    p_sim = sub.add_parser("simulate", help="Poisson-sampled scan to CSV")
    _add_common(p_sim, require_out=True)

    p_fit = sub.add_parser("fit", help="fit a fringe model to a scan CSV")
    p_fit.add_argument("input", help="scan CSV produced by predict or simulate")
    p_fit.add_argument(
        "--channel",
        choices=("singles", "coincidence", "idler"),
        default="singles",
        help="which series to fit",
    )
    p_fit.add_argument(
        "--source",
        choices=("auto", "counts", "rates"),
        default="auto",
        help="fit sampled counts or noiseless rates",
    )
    _add_common(p_fit, require_out=False)

    p_oracle = sub.add_parser(
        "oracle-check", help="compare the engine against the brute-force state check"
    )
    p_oracle.add_argument(
        "--points",
        type=int,
        default=16,
        help=f"grid points per delay axis, 1 to {MAX_ORACLE_POINTS}",
    )
    _add_common(p_oracle, require_out=False)

    p_report = sub.add_parser("report", help="human-readable summary of a config")
    _add_common(p_report, require_out=False)

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    return with_overrides(config, seed=args.seed, axis=args.axis)


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message)


def _run(args: argparse.Namespace) -> int:
    if args.command in ("predict", "simulate"):
        config = _load(args)
        record = run_scan(config, sample=args.command == "simulate")
        for warning in record.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        buffer = io.StringIO()
        write_scan_csv(record, buffer)
        _emit(buffer.getvalue(), args.out)
        _say(args, f"wrote {len(record.delays)} scan points to {args.out}")
        return EXIT_OK

    if args.command == "fit":
        config = _load(args)
        with open(args.input, "r", encoding="utf-8", newline="") as fh:
            record = read_scan_csv(fh, axis=config.scan.axis)
        warning = undersampling_warning(config, record.axis, record.delays)
        if warning:
            print(f"warning: {warning}", file=sys.stderr)
        try:
            fit = fit_fringe(
                record, channel=args.channel, source=args.source, dwell=config.scan.dwell
            )
        except FitNonConvergenceError as exc:
            _emit(json.dumps(fit_summary(exc.fit), indent=2) + "\n", args.out)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FIT
        _emit(json.dumps(fit_summary(fit), indent=2) + "\n", args.out)
        _say(
            args,
            f"fitted {args.channel}: period {fit.period * 1e9:.2f} nm, "
            f"visibility {fit.visibility:.4f}",
        )
        return EXIT_OK

    if args.command == "oracle-check":
        if not 1 <= args.points <= MAX_ORACLE_POINTS:
            raise ConfigError(
                f"--points must be between 1 and {MAX_ORACLE_POINTS}, got {args.points}"
            )
        config = _load(args)
        comparison = oracle_comparison(config, points_per_axis=args.points)
        _emit(json.dumps(comparison, indent=2) + "\n", args.out)
        _say(
            args,
            f"max relative deviation {comparison['max_relative_deviation']:.3g}",
        )
        return EXIT_OK

    if args.command == "report":
        config = _load(args)
        _emit(build_report(config), args.out)
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoFringeError, FitNonConvergenceError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
