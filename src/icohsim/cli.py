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
import io
import json
import math
import sys

import numpy as np

from . import fockoracle
from .config import ConfigError, ExperimentConfig, load_config, with_overrides
from .counting import CountSample, accidental_rate, double_pair_probability
from .expectation import RatePrediction, compose_setup
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
from .spectral import coherence_length, envelope, frequency_fwhm

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_FIT = 4

CSV_HEADER = ["delay_m", "rate_a_hz", "rate_b_hz", "coinc_hz", "counts_a", "counts_b", "coinc_counts"]

LOW_GAIN_BOUND = 1e-2


def _fmt(value: float) -> str:
    return f"{value:.8e}"


def write_scan_csv(record: ScanRecord, stream: io.TextIOBase) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for i, delay in enumerate(record.delays):
        rates = record.predicted[i]
        s = record.samples[i] if record.samples else CountSample(0, 0, 0, 0.0)
        writer.writerow(
            [
                _fmt(delay),
                _fmt(rates.p_a),
                _fmt(rates.p_b),
                _fmt(rates.p_ab),
                s.counts_a,
                s.counts_b,
                s.coincidences,
            ]
        )


def _csv_cell(text: str, column: int, line: int) -> float | int:
    """Parse one CSV cell: the delay and rates are finite floats, the counts integers."""
    parse, kind = (float, "finite number") if column < 4 else (int, "integer")
    try:
        value = parse(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(
            f"CSV line {line}, column {CSV_HEADER[column]}: not a {kind}: {text!r}"
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


def read_scan_csv(stream: io.TextIOBase, axis: str = "signal") -> ScanRecord:
    """Parse a scan CSV; bad cells and a non-uniform delay grid name their line."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header {header!r}; expected {CSV_HEADER!r}")
    delays: list[float] = []
    lines: list[int] = []
    predicted: list[RatePrediction] = []
    samples: list[CountSample] = []
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != len(CSV_HEADER):
            raise ConfigError(
                f"CSV line {line}: row has {len(row)} columns, expected {len(CSV_HEADER)}"
            )
        values = [_csv_cell(text, column, line) for column, text in enumerate(row)]
        delays.append(values[0])
        lines.append(line)
        try:
            predicted.append(RatePrediction(*values[1:4]))
        except ValueError as exc:
            raise ConfigError(f"CSV line {line}: {exc}") from None
        samples.append(CountSample(*values[4:], 0.0))
    grid = np.array(delays)
    _check_delay_grid(grid, lines)
    return ScanRecord(
        axis=axis,
        delays=grid,
        predicted=predicted,
        samples=samples,
    )


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
    }
    return {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in summary.items()
    }


def oracle_comparison(config: ExperimentConfig, points_per_axis: int = 16) -> dict:
    """Engine vs brute-force state check over one fringe period per axis.

    Deviations are reported relative to each channel's full scale, so fringe
    zeros do not blow up the statistic.
    """
    rows = []
    settings: list[DelaySetting] = []
    for k in range(points_per_axis):
        settings.append(
            DelaySetting(delta_x_s=k * config.signal_filter.center_wavelength / points_per_axis)
        )
    for k in range(points_per_axis):
        settings.append(DelaySetting(delta_x_p=k * config.pump_wavelength / points_per_axis))

    engine_values = {"p_a": [], "p_b": [], "p_ab": []}
    oracle_values = {"p_a": [], "p_b": [], "p_ab": []}
    for setting in settings:
        engine = compose_setup(config, setting)
        oracle = fockoracle.detection_moments(fockoracle.build_state(config, setting))
        for name in engine_values:
            engine_values[name].append(getattr(engine, name))
            oracle_values[name].append(getattr(oracle, name))
        rows.append(
            {
                "delay_xp_m": setting.delta_x_p,
                "delay_xs_m": setting.delta_x_s,
                "engine": {k: getattr(engine, k) for k in ("p_a", "p_b", "p_ab")},
                "oracle": {k: getattr(oracle, k) for k in ("p_a", "p_b", "p_ab")},
            }
        )

    per_channel = {}
    for name in engine_values:
        e = np.array(engine_values[name])
        o = np.array(oracle_values[name])
        scale = max(float(np.max(np.abs(e))), float(np.max(np.abs(o))), 1e-300)
        per_channel[name] = float(np.max(np.abs(e - o)) / scale)
    return {
        "gain_1": config.gain1,
        "gain_2": config.gain2,
        "relative_deviation_per_channel": per_channel,
        "max_relative_deviation": max(per_channel.values()),
        "points": rows,
    }


def _fringe_visibility_prediction(config: ExperimentConfig) -> tuple[float, float]:
    """Singles and coincidence visibility at zero delay, from the engine."""
    top = compose_setup(config, DelaySetting())
    bottom = compose_setup(config, DelaySetting(delta_x_p=config.pump_wavelength / 2.0))

    def vis(hi: float, lo: float) -> float:
        if hi + lo == 0:
            return 0.0
        return abs(hi - lo) / (hi + lo)

    return vis(top.p_a, bottom.p_a), vis(top.p_ab, bottom.p_ab)


def build_report(config: ExperimentConfig) -> str:
    pump = config.pump_profile()
    computed_lc = coherence_length(pump)
    signal_lc = coherence_length(config.signal_filter)
    vis_singles, vis_coinc = _fringe_visibility_prediction(config)
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


def build_parser() -> argparse.ArgumentParser:
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
        "--points", type=int, default=16, help="grid points per delay axis"
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
