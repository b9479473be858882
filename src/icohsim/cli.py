"""Command-line front end: predict / simulate / fit / oracle-check / report.

CSV is the scan interchange format (one row per delay point, rates plus
sampled counts); fits are summarized as JSON.  Identical config and seed
always produce byte-identical outputs.

``fit`` reads back only the form ``write_scan_csv`` writes (see
``read_scan_csv``): the header, then rows of seven unquoted, unpadded ASCII
cells, four floats in e-notation and three counts.  One pattern match
decides acceptance and ``np.loadtxt`` parses the rows; only a rejected file
is walked line by line, to name its first bad line and cell.  A bad CSV,
like a bad config, is a configuration problem, and so is a CSV or config
file that is not UTF-8.

Exit codes: 0 success, 2 configuration problem, 3 I/O failure, 4 fit did
not converge or found no fringe, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import operator
import os
import re
import stat
import sys
from dataclasses import dataclass

import numpy as np

from . import fockoracle
from .config import MAX_RATE, MAX_SCAN_DELAY, ConfigError, ExperimentConfig, load_config, utf8_error
from .counting import SEED_LIMIT, accidental_rate, double_pair_probability
from .expectation import RATE_NAMES
from .scan import (
    CHANNEL_ROWS,
    CHANNELS,
    MIN_FIT_POINTS,
    SOURCES,
    FringeFit,
    GridError,
    NoFringeError,
    ScanRecord,
    fit_fringe,
    run_scan,
    undersampling_warning,
)
from .spectral import coherence_length, compile_model, envelope

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_FIT = 4

CSV_HEADER = ["delay_m", "rate_a_hz", "rate_b_hz", "coinc_hz", "counts_a", "counts_b", "coinc_counts"]

LOW_GAIN_BOUND = 1e-2
# Upper limit of oracle-check --points: at 4096 a run peaks near 50 MB resident.
MAX_ORACLE_POINTS = 4096
# The integer flags, by name: the values each allows, and its range as errors state it.
_INT_FLAGS = {
    "seed": (range(SEED_LIMIT), "[0, 2**64)"),
    "points": (range(1, MAX_ORACLE_POINTS + 1), f"[1, {MAX_ORACLE_POINTS}]"),
}


# One CSV row: the delay with 17 significant digits, which holds a float64
# exactly, the rates with nine, then the counts.
_ROW_FORMAT = "%.16e,%.8e,%.8e,%.8e,%d,%d,%d\n"
_HEADER_LINE = ",".join(CSV_HEADER)


def write_scan_csv(record: ScanRecord, stream: io.TextIOBase) -> None:
    """One header line, then one row per delay."""
    columns = zip(record.delays.tolist(), *record.rates.tolist(), *record.counts.tolist())
    stream.write(_HEADER_LINE + "\n" + "".join(_ROW_FORMAT % row for row in columns))


# The cells of a scan CSV row, as the writers print them: the delay and the
# three rates in %.Ne notation, the delay with an optional minus sign, then
# three counts without sign or leading zeros.  Digits are [0-9], as \d in a
# str pattern also takes non-ASCII digits.  Each cell matches in one way
# only: re keeps no memo, so a cell with several ways to split its digits
# makes the match of a rejected file try every way of every row before it.
_FLOAT = r"[0-9]\.[0-9]+e[+-][0-9]{2,3}"
_COUNT = "0|[1-9][0-9]*"
_CELLS = [re.compile(cell) for cell in ["-?" + _FLOAT, _FLOAT, _FLOAT, _FLOAT, _COUNT, _COUNT, _COUNT]]
_REASONS = ["not a number in e-notation", *["not an unsigned number in e-notation"] * 3,
            *["not a count without sign or leading zeros"] * 3]
# All rows, each ended by \n or \r\n.  Counts have at most the 19 digits of
# 2**63 - 1, so that every row _BODY takes parses as uint64.
_BODY = re.compile(r"(?:-?{0},{0},{0},{0},{1},{1},{1}\r?\n)*".format(_FLOAT, "(?:0|[1-9][0-9]{0,18})"))
_ROW_DTYPE = np.dtype([("floats", "f8", (4,)), ("counts", "u8", (3,))])
# The largest magnitude of the delay and of each rate.  A config writes rates of
# at most 2.04 MAX_RATE: a coincidence fringe of visibility 1 at the largest gain.
_MAX_CSV_RATE = 10.0 * MAX_RATE
_LIMITS = np.array([MAX_SCAN_DELAY, *[_MAX_CSV_RATE] * 3])
_RANGES = [f"out of range: must lie in [-{MAX_SCAN_DELAY:g}, {MAX_SCAN_DELAY:g}]",
           *[f"out of range: must lie in [0, {_MAX_CSV_RATE:g}]"] * 3]


def _bad_cell(cell: str, column: int) -> str | None:
    """Why a cell breaks its column's grammar or range; None for a good cell."""
    if not _CELLS[column].fullmatch(cell):
        return _REASONS[column]
    if column < 4:
        return None if abs(float(cell)) <= _LIMITS[column] else _RANGES[column]
    return None if len(cell) < 20 and int(cell) < 2**63 else "integer out of the 64-bit range"


def _first_bad_line(body: str) -> ConfigError:
    """The error of the first row after the header that breaks the grammar or
    holds a value out of range, naming its line and first bad cell."""
    lines = body.split("\n")
    end = lines.pop()  # the text after the last line end, if any
    for number, line in enumerate(lines + [end] if end else lines, 2):
        cells = line.removesuffix("\r").split(",")
        if len(cells) != len(CSV_HEADER):
            return ConfigError(f"CSV line {number}: row has {len(cells)} columns, expected {len(CSV_HEADER)}")
        for column, cell in enumerate(cells):
            reason = _bad_cell(cell, column)
            if reason:
                return ConfigError(f"CSV line {number}, column {CSV_HEADER[column]}: {reason}: {cell!r}")
    return ConfigError(f"CSV line {len(lines) + 2}: no line end; lines end in \\n or \\r\\n")


def read_scan_csv(stream: io.TextIOBase) -> ScanRecord:
    """Parse a scan CSV in the form ``write_scan_csv`` writes; anything else is a ConfigError.

    The first line is the header, exactly.  Each further line is one row of
    seven unquoted, unpadded ASCII cells joined by commas: the delay in the
    e-notation ``%.Ne`` prints, with an optional minus sign
    (``-1.5000000000000000e-06``), the three rates in unsigned e-notation
    (``4.20000000e+04``), and the three counts as digits without sign or
    leading zeros.  Every line ends in ``\\n`` or ``\\r\\n``.
    Delays lie within MAX_SCAN_DELAY, rates at or below _MAX_CSV_RATE, counts
    within the 64-bit range, and the delays are a uniform grid (ScanRecord).

    One pattern match over the rows decides acceptance, and ``np.loadtxt``
    then parses them.  Only when a file is rejected are its rows walked, so
    that the error names the first bad line and, within it, the first bad
    cell.  The delay grid is checked once every row is good.
    """
    head, newline, body = stream.read().partition("\n")
    if head.removesuffix("\r") != _HEADER_LINE or not newline:
        raise ConfigError(f"CSV line 1: expected the header line {_HEADER_LINE!r}, ended by \\n or \\r\\n")
    if not _BODY.fullmatch(body):
        raise _first_bad_line(body)
    rows = np.zeros(0, _ROW_DTYPE)
    if body:
        rows = np.loadtxt(io.StringIO(body), dtype=_ROW_DTYPE, delimiter=",", ndmin=1)
    if not ((np.abs(rows["floats"]) <= _LIMITS).all() and (rows["counts"] < 2**63).all()):
        raise _first_bad_line(body)
    table = np.ascontiguousarray(rows["floats"].T)
    counts = np.ascontiguousarray(rows["counts"].T, dtype=np.int64)
    try:
        return ScanRecord(table[0], table[1:], counts)
    except GridError as exc:
        raise ConfigError(f"CSV line {exc.row + 2}: {exc}") from None


def fit_summary(fit: FringeFit) -> dict:
    """JSON-ready fit values under FringeFit's field names; a non-finite
    number (an unbounded sigma) becomes None."""
    return {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in vars(fit).items()
    }


def fit_json(fit: FringeFit) -> str:
    """The fit JSON, with a final newline."""
    return json.dumps(fit_summary(fit), indent=2) + "\n"


@dataclass(frozen=True)
class OracleComparison:
    """Engine against oracle over one batch of delay settings.

    ``header`` holds the summary values of the JSON output; ``delta_x_p``
    and ``delta_x_s`` are the (m,) delays and ``engine`` and ``oracle`` the
    (3, m) rates, one column per point.
    """

    header: dict
    delta_x_p: np.ndarray
    delta_x_s: np.ndarray
    engine: np.ndarray
    oracle: np.ndarray


def oracle_comparison(config: ExperimentConfig, points_per_axis: int = 16) -> OracleComparison:
    """The compiled model's monochromatic rates vs the brute-force state, one fringe period per axis.

    Both sides evaluate all 2 * ``points_per_axis`` delay settings in one
    batched call.  Deviations are reported relative to each channel's full
    scale, so fringe zeros do not blow up the statistic.
    """
    lam_s, lam_p = config.signal_filter_center, config.pump_wavelength
    steps = np.arange(points_per_axis)
    zeros = np.zeros(points_per_axis)
    delta_x_p = np.concatenate([zeros, steps * lam_p / points_per_axis])
    delta_x_s = np.concatenate([steps * lam_s / points_per_axis, zeros])
    engine = compile_model(config).monochromatic(delta_x_p, delta_x_s)
    oracle = fockoracle.detection_moments(fockoracle.build_state(config, delta_x_p, delta_x_s))

    scale = np.maximum(np.maximum(np.abs(engine).max(axis=1), np.abs(oracle).max(axis=1)), 1e-300)
    per_channel = dict(zip(RATE_NAMES, (np.abs(engine - oracle).max(axis=1) / scale).tolist()))
    header = {
        "gain_1": config.gain1,
        "gain_2": config.gain2,
        "relative_deviation_per_channel": per_channel,
        "max_relative_deviation": max(per_channel.values()),
    }
    return OracleComparison(header, delta_x_p, delta_x_s, engine, oracle)


# The oracle JSON as json.dumps(..., indent=2) lays it out: the header, then
# one entry of the "points" list per delay setting.  Every %s is a number,
# filled with repr of a Python float, which is the text json writes for it.
_ORACLE_HEAD = """\
{
  "gain_1": %s,
  "gain_2": %s,
  "relative_deviation_per_channel": {
    "p_a": %s,
    "p_b": %s,
    "p_ab": %s
  },
  "max_relative_deviation": %s,
  "points": [
"""
_ORACLE_POINT = """\
    {
      "delay_xp_m": %s,
      "delay_xs_m": %s,
      "engine": {
        "p_a": %s,
        "p_b": %s,
        "p_ab": %s
      },
      "oracle": {
        "p_a": %s,
        "p_b": %s,
        "p_ab": %s
      }
    }"""
_ORACLE_TAIL = "\n  ]\n}\n"


def oracle_json(comparison: OracleComparison) -> str:
    """The oracle-check JSON: the bytes ``json.dumps(..., indent=2) + "\\n"``
    gives for the header with a "points" list of the delays and rates appended.

    One template holds the whole document, and each distinct float is
    formatted once.  Floats are told apart by their bit patterns, because
    0.0 and -0.0 are equal, and so one dict key, but print differently.
    """
    header = comparison.header
    columns = np.vstack([comparison.delta_x_p, comparison.delta_x_s, comparison.engine, comparison.oracle])
    numbers = np.concatenate([
        [header["gain_1"], header["gain_2"], *header["relative_deviation_per_channel"].values(),
         header["max_relative_deviation"]],
        columns.T.ravel(),
    ])
    keys = numbers.view(np.int64).tolist()
    distinct = dict(zip(keys, numbers.tolist()))
    texts = dict(zip(distinct, map(float.__repr__, distinct.values())))
    template = _ORACLE_HEAD + ",\n".join([_ORACLE_POINT] * columns.shape[1]) + _ORACLE_TAIL
    return template % operator.itemgetter(*keys)(texts)


def build_report(config: ExperimentConfig) -> str:
    signal_fwhm = config.signal_filter_fwhm()
    computed_lc = coherence_length(config.pump_bandwidth)
    signal_lc = coherence_length(signal_fwhm)
    # visibility at zero delay: |Re A| / B of the closed-form fringe model, 0 without pairs
    model = compile_model(config)
    vis_singles, vis_coinc = (
        abs(model.amplitude[k].real) / model.baseline[k] if model.baseline[k] else 0.0
        for k in (0, 2)
    )
    acc = accidental_rate(config.rate_a_cal, config.rate_b_cal, config.window)
    double_pair = double_pair_probability(config.rate_b_cal, config.window)

    lines = []
    lines.append("induced-coherence interferometer report")
    lines.append("=" * 40)
    lines.append(
        f"pump: {config.pump_wavelength * 1e9:.1f} nm, "
        f"frequency FWHM {config.pump_bandwidth:.4g} Hz"
    )
    lines.append(f"  coherence length computed from bandwidth: {computed_lc * 1e3:.3f} mm")
    # On the pump axis the singles visibility is V0 * 2**-(delay / L)**2; checking
    # V0 < 0.9 first keeps V0 = 0 (no pairs) out of the log.
    reach = (
        "never" if vis_singles < 0.9
        else f"{computed_lc * math.sqrt(math.log(vis_singles / 0.9) / math.log(2.0)) * 1e3:.3f} mm"
    )
    lines.append(f"  pump delay up to which singles visibility >= 0.9: {reach}")
    lines.append(
        f"signal filter: {config.signal_filter_center * 1e9:.1f} nm, "
        f"{signal_fwhm:.4g} Hz FWHM, "
        f"coherence length {signal_lc * 1e6:.1f} um"
    )
    lines.append(
        f"gains: K1 = {config.gain1:.3g}, K2 = {config.gain2:.3g}; "
        f"idler link eta = {config.eta:.3f}; splitter ratio = {config.splitter_ratio:.3f}"
    )
    lines.append(
        f"predicted visibility: singles {vis_singles:.4f}, coincidence {vis_coinc:.4f}"
    )
    lines.append(
        f"fringe periods: signal axis {config.signal_filter_center * 1e9:.1f} nm, "
        f"pump axis {config.pump_wavelength * 1e9:.1f} nm"
    )
    lines.append(
        f"pump-scan envelope at 600 um delay: {envelope(config.pump_bandwidth, 600e-6):.4f} of peak"
    )
    lines.append(
        f"detectors: D_A {config.rate_a_cal:.6g} /s, "
        f"D_B {config.rate_b_cal:.6g} /s, "
        f"window {config.window * 1e9:.2f} ns, dwell {config.dwell:.3g} s"
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
        f"scan: {config.axis} axis, {config.start * 1e6:.3g} um to "
        f"{config.stop * 1e6:.3g} um in {config.step * 1e9:.3g} nm steps"
    )
    return "\n".join(lines) + "\n"


def _add_common(parser: argparse.ArgumentParser, require_out: bool) -> None:
    """--config, --out and --quiet."""
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", required=require_out, default=None, help="output path")
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
    p_sim.add_argument("--seed", default="20260810",
                       help=f"RNG seed, in {_INT_FLAGS['seed'][1]} (default: %(default)s)")

    p_fit = sub.add_parser("fit", help="fit a fringe model to a scan CSV")
    p_fit.add_argument("input", help="scan CSV produced by predict or simulate")
    p_fit.add_argument(
        "--channel",
        choices=CHANNELS,
        default="singles",
        help="which series to fit; idler is the no-fringe control: its rates carry no fringe",
    )
    p_fit.add_argument(
        "--source",
        choices=SOURCES,
        default="counts",
        help="fit sampled counts or noiseless rates",
    )
    _add_common(p_fit, require_out=False)

    p_oracle = sub.add_parser(
        "oracle-check", help="compare the engine against the brute-force state check"
    )
    p_oracle.add_argument("--points", default="16",
                          help=f"grid points per delay axis, in {_INT_FLAGS['points'][1]} (default: %(default)s)")
    _add_common(p_oracle, require_out=False)

    p_report = sub.add_parser("report", help="human-readable summary of a config")
    _add_common(p_report, require_out=False)

    parser.commands = sub.choices  # each command's subparser, for main
    return parser


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to stdout, or as UTF-8 over ``out_path`` in place.

    The path is opened without truncation, so a rerun onto an existing file
    overwrites its blocks instead of freeing them first.  A regular file is
    then cut to the bytes written, also when a write fails partway, so it
    never holds old output after new output; a device, FIFO or
    ``/dev/stdout`` is written through as it stands.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            if regular:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _say(args: argparse.Namespace, message: str) -> None:
    """A progress line, on stderr, so that stdout holds only the output document."""
    if not args.quiet:
        print(message, file=sys.stderr)


def _int_flag(args: argparse.Namespace, name: str) -> int:
    """The value of the integer flag ``--name``: ``int(value, 0)`` of ASCII without
    underscores, in the flag's range, else a ConfigError naming the flag.  It is
    read after the config loads, so that a flag's error comes after the file's."""
    raw = getattr(args, name)
    allowed, allowed_text = _INT_FLAGS[name]
    try:
        # int would also take 1_0 and non-ASCII digits
        if "_" in raw or not raw.isascii():
            raise ValueError(raw)
        value = int(raw, 0)
    except ValueError:
        raise ConfigError(f"--{name}: not an integer: {raw!r}") from None
    if value not in allowed:
        raise ConfigError(f"--{name} out of range: must lie in {allowed_text}")
    return value


def _scan(args: argparse.Namespace, config: ExperimentConfig) -> ScanRecord:
    """The scan record of a scan command: run from the config, or for ``fit`` read from its CSV."""
    if args.command == "fit":
        try:
            with open(args.input, "r", encoding="utf-8", newline="") as fh:
                return read_scan_csv(fh)
        except UnicodeDecodeError as exc:
            raise utf8_error(args.input, exc) from None
    return run_scan(config, _int_flag(args, "seed") if args.command == "simulate" else None)


def _run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.command == "report":
        _emit(build_report(config), args.out)
        return EXIT_OK
    if args.command == "oracle-check":
        comparison = oracle_comparison(config, points_per_axis=_int_flag(args, "points"))
        _emit(oracle_json(comparison), args.out)
        _say(
            args,
            f"max relative deviation {comparison.header['max_relative_deviation']:.3g}",
        )
        return EXIT_OK

    record = _scan(args, config)
    warning = undersampling_warning(config, record)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    if args.command != "fit":
        buffer = io.StringIO()
        write_scan_csv(record, buffer)
        _emit(buffer.getvalue(), args.out)
        _say(args, f"wrote {len(record.delays)} scan points to {args.out}")
        return EXIT_OK
    row = CHANNEL_ROWS[args.channel]
    if args.source == "counts" and len(record.delays) >= MIN_FIT_POINTS and not record.counts[row].any():
        raise NoFringeError(f"no fringe detected: every {CSV_HEADER[4 + row]} count is zero, as in "
                            "a predict CSV; fit its rates with --source rates")
    fit = fit_fringe(record, channel=args.channel, source=args.source, dwell=config.dwell)
    _emit(fit_json(fit), args.out)
    if not fit.converged:
        print(f"error: fit did not converge in {fit.iterations} Gauss-Newton steps "
              f"(reduced residual {fit.reduced_residual:.3g})", file=sys.stderr)
        return EXIT_FIT
    _say(
        args,
        f"fitted {args.channel}: period {fit.period_m * 1e9:.2f} nm, "
        f"visibility {fit.visibility:.4f}",
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one command line; return its exit code.  A command's arguments are
    parsed by its subparser alone; the top-level parser handles help, a missing
    or unknown command, an option before it, and arguments left over."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoFringeError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED
