"""Scan CSV write/read: a round trip, edge cases pinned to their outcome, and edited scans."""

import io
import itertools
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icohsim
from icohsim.cli import CSV_HEADER, EXIT_CONFIG, EXIT_OK, main, read_scan_csv, write_scan_csv
from icohsim.config import ConfigError, parse_config
from icohsim.scan import ScanRecord, run_scan

# A numpy warning here is a parse the grammar does not state.  The one
# ignored warning is the one pyproject.toml ignores: a third-party import on
# hypothesis's path to reporting a failing example.
pytestmark = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

_nine_digits = np.vectorize(lambda v: float(f"{v:.8e}"), otypes=[float])


def _text(record):
    buffer = io.StringIO()
    write_scan_csv(record, buffer)
    return buffer.getvalue()


def _outcome(text):
    """The parsed arrays, or the error and its message."""
    try:
        record = read_scan_csv(io.StringIO(text))
    except ConfigError as exc:
        return f"{type(exc).__name__}: {exc}"
    return record.delays.tolist(), record.rates.tolist(), record.counts.tolist()


@st.composite
def scan_records(draw):
    points = draw(st.integers(min_value=0, max_value=40))
    span = draw(st.floats(min_value=1e-7, max_value=1e-3))
    rate = st.floats(min_value=0.0, max_value=1e9, allow_subnormal=False)
    count = st.integers(min_value=0, max_value=2**62)
    rates = np.array([[draw(rate) for _ in range(points)] for _ in range(3)])
    counts = None
    if draw(st.booleans()):
        counts = np.array([[draw(count) for _ in range(points)] for _ in range(3)], dtype=np.int64)
    delays = np.linspace(-span, span, points)
    return ScanRecord(delays=delays, rates=rates.reshape(3, points), counts=counts)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scan_records())
def test_write_read_round_trip(record):
    text = _text(record)
    back = read_scan_csv(io.StringIO(text))
    n = len(record.delays)
    assert back.delays.tolist() == record.delays.tolist()
    assert back.rates.tolist() == _nine_digits(record.rates).reshape(3, n).tolist()
    assert back.counts.tolist() == record.counts.tolist()
    assert _text(back) == text


@pytest.mark.parametrize("axis, span_um", [("signal", 2), ("pump", 1)])
def test_a_noiseless_record_is_the_record_of_its_csv(axis, span_um):
    """On the benchmark campaign's two scans, run_scan without sampling gives the
    record that fit reads back from the predict CSV: zero counts, not None."""
    text = f"[scan]\naxis = {axis}\nstart_um = -{span_um}\nstop_um = {span_um}\nstep_nm = 10\n"
    record = run_scan(parse_config(text), sample=False)
    back = read_scan_csv(io.StringIO(_text(record)))
    assert back.delays.tobytes() == record.delays.tobytes()
    assert back.counts.dtype == record.counts.dtype == np.int64
    assert back.counts.tolist() == record.counts.tolist() == np.zeros((3, len(record.delays)), int).tolist()
    assert back.rates.tolist() == _nine_digits(record.rates).tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(delay=st.floats(-1.0, 1.0), rate=st.floats(0.0, 1e13))
@example(delay=5e-324, rate=5e-324)
@example(delay=-1.0, rate=1e13)
@example(delay=1.0, rate=2.2250738585072014e-308)
@example(delay=-0.0, rate=0.0)
def test_the_grammar_takes_every_float_the_writers_print(delay, rate):
    """A delay within +-1 m as write_scan_csv (%.16e) or the refit benchmark
    (%.8e) prints it, and a rate up to 1e13 as both print it (%.8e), read back
    as the float printed, bit for bit: subnormals, the ends of the ranges, -0.0
    and 3-digit exponents included."""
    rate_cell = f"{rate:.8e}"
    for delay_cell, printed in [(f"{delay:.16e}", delay), (f"{delay:.8e}", float(f"{delay:.8e}"))]:
        text = f"{','.join(CSV_HEADER)}\n{delay_cell},{rate_cell},{rate_cell},{rate_cell},0,0,0\n"
        record = read_scan_csv(io.StringIO(text))
        assert record.delays.tobytes() == np.float64(printed).tobytes()
        assert record.rates.tobytes() == np.full((3, 1), float(rate_cell)).tobytes()


def test_the_refit_benchmark_csv_form_reads_back_and_fits(tmp_path):
    """The refit workload of benchmarks/workloads.py writes its delays with
    nine digits too (%.8e): its CSVs read back bit for bit and fit."""
    index = np.arange(401) - 200
    fringe = np.cos(2 * np.pi * index * 10e-9 / 808e-9)
    rates = [42e3 * (1 + 0.8 * fringe), np.full(401, 110e3), 6e3 * (1 + 0.8 * fringe)]
    counts = [np.random.default_rng(seed).poisson(rate * 5.0) for seed, rate in enumerate(rates)]
    rows = zip(index, *rates, *counts)
    text = ",".join(CSV_HEADER) + "\n" + "".join(
        f"{k * 10 * 1e-9:.8e},{ra:.8e},{rb:.8e},{rc:.8e},{ca},{cb},{cc}\n" for k, ra, rb, rc, ca, cb, cc in rows
    )
    record = read_scan_csv(io.StringIO(text))
    cells = [line.split(",") for line in text.splitlines()[1:]]
    floats = np.array([[float(cell) for cell in row[:4]] for row in cells])
    assert np.vstack([record.delays, record.rates]).T.tobytes() == floats.tobytes()
    assert record.counts.tolist() == [count.tolist() for count in counts]
    scan, config = tmp_path / "refit.csv", tmp_path / "refit.ini"
    scan.write_text(text, encoding="utf-8")
    config.write_text("[scan]\ndwell_s = 5.0\n", encoding="utf-8")
    assert main(["fit", str(scan), "--config", str(config), "--quiet"]) == EXIT_OK


def _scan_arrays():
    delays = np.linspace(-1e-6, 1e-6, 21)
    rates = np.vstack([4.2e4 + 1e3 * np.cos(delays / 1e-7), np.full(21, 1.1e5), np.full(21, 3e3)])
    counts = np.vstack([np.arange(21) + 100, np.arange(21) + 500, np.arange(21)])
    return delays, rates, counts


def _scan_text():
    delays, rates, counts = _scan_arrays()
    return _text(ScanRecord(delays=delays, rates=rates, counts=counts))


def _edit_cell(line, column, cell):
    def edit(text):
        lines = text.split("\n")
        row = lines[line - 1].split(",")
        row[column] = cell
        lines[line - 1] = ",".join(row)
        return "\n".join(lines)

    return edit


def _short_row(text):
    lines = text.split("\n")
    lines[5] = lines[5].rsplit(",", 1)[0]
    return "\n".join(lines)


def _quote_cell(text):
    lines = text.split("\n")
    row = lines[3].split(",")
    row[4] = f'"{row[4]}"'
    lines[3] = ",".join(row)
    return "\n".join(lines)


def _edits(*edits):
    def edit(text):
        for one in edits:
            text = one(text)
        return text

    return edit


EDGE_CASES = {
    "underscore in a count": _edit_cell(3, 4, "1_0"),
    "underscore in a rate": _edit_cell(4, 1, "4_2000.5"),
    "plus sign": _edit_cell(5, 5, "+5"),
    "leading space in a count": _edit_cell(6, 6, " 7"),
    "leading space in a delay": _edit_cell(2, 0, " -1.00000000e-06"),
    "float in a count column": _edit_cell(7, 4, "1.0"),
    "nan rate": _edit_cell(8, 2, "nan"),
    "inf rate": _edit_cell(9, 3, "inf"),
    "negative rate": _edit_cell(10, 1, "-1.0"),
    "minus zero rate": _edit_cell(11, 3, "-0.00000000e+00"),
    "count beyond 64 bits": _edit_cell(11, 5, str(2**63)),
    "count of 20 digits": _edit_cell(8, 6, str(10**19)),
    "count beyond int's digit limit": _edit_cell(19, 5, "1" + "0" * 5000),
    "leading zero in a count": _edit_cell(9, 4, "0108"),
    "negative count": _edit_cell(5, 4, "-3"),
    "empty cell": _edit_cell(12, 6, ""),
    "rate overflowing to inf": _edit_cell(20, 1, "9.99999999e+999"),
    "delay overflowing to inf": _edit_cell(3, 0, "-9.99999999e+999"),
    "other decimal forms of a rate": _edits(
        _edit_cell(10, 2, "110000."), _edit_cell(11, 2, ".11e6"), _edit_cell(12, 2, "1.1E5"),
        _edit_cell(13, 2, "110000"),
    ),
    "cell beyond the csv field limit": _edit_cell(14, 2, "1." + "0" * 140_000 + "e+00"),
    "crlf line endings": lambda text: text.replace("\n", "\r\n"),
    "carriage return inside a row": _edit_cell(13, 4, "\r5"),
    "quoted cell": _quote_cell,
    "short row": _short_row,
    "long row, then a short row of integers": lambda text: "\n".join(
        [*text.split("\n")[:4], text.split("\n")[4] + ",0", "0,0,0,0,0,0", *text.split("\n")[6:]]
    ),
    "blank line": lambda text: text.replace("\n", "\n\n", 3),
    "no final newline": lambda text: text.rstrip("\n"),
    "empty body": lambda text: text.split("\n", 1)[0] + "\n",
    "header only, no newline": lambda text: text.split("\n", 1)[0],
    "empty file": lambda text: "",
    "bad header": lambda text: text.replace("delay_m", "delay", 1),
    "quoted header": lambda text: text.replace("delay_m", '"delay_m"', 1),
    "swapped rows": lambda text: "\n".join(
        text.split("\n")[:4] + text.split("\n")[5:6] + text.split("\n")[4:5] + text.split("\n")[6:]
    ),
    "one row deleted": lambda text: "\n".join(text.split("\n")[:9] + text.split("\n")[10:]),
    "rows swapped after a blank line": lambda text: "\n".join(
        text.split("\n")[:2] + [""] + text.split("\n")[2:4]
        + text.split("\n")[5:6] + text.split("\n")[4:5] + text.split("\n")[6:]
    ),
    "non-ASCII digit in a count": _edit_cell(15, 6, "\u0661\u0663"),
    "information separator around a count": _edit_cell(16, 5, "\x1c516"),
    "bare carriage return line endings": lambda text: text.replace("\n", "\r"),
    "bare carriage return after a row": _edit_cell(17, 6, "15\r\r"),
    "bare carriage return at the end of the file": lambda text: text.rstrip("\n") + "\r",
    "quoted cell with a line break": _edit_cell(18, 2, '"1.10000000e+05\r\n"'),
    "count padded beyond int's digit limit": _edit_cell(19, 4, " +" + "0" * 5000 + "117"),
    "nan delay": _edit_cell(21, 0, "nan"),
    "inf delay": _edit_cell(22, 0, "inf"),
    "NUL in the header": lambda text: text.replace("coinc_counts", "coinc_counts\0", 1),
    "NUL in a rate": _edit_cell(3, 1, "1\0"),
}


_BAD_HEADER = f"ConfigError: CSV line 1: expected the header line {','.join(CSV_HEADER)!r}, ended by \\n or \\r\\n"
_NOT_A_DELAY = "not a number in e-notation"
_NOT_A_RATE = "not an unsigned number in e-notation"
_NOT_A_COUNT = "not a count without sign or leading zeros"

# Each case's outcome: the error text, or the cells that differ from the
# unedited scan, as {(array, row, point): value}, or None for a file without
# data rows.  Only the written form is read: a float not in e-notation, a
# quote, a space, a sign on a count, a blank line or a line without its line
# end is an error.  A cell may be any length.
EDGE_OUTCOMES = {
    "underscore in a count": f"ConfigError: CSV line 3, column counts_a: {_NOT_A_COUNT}: '1_0'",
    "underscore in a rate": f"ConfigError: CSV line 4, column rate_a_hz: {_NOT_A_RATE}: '4_2000.5'",
    "plus sign": f"ConfigError: CSV line 5, column counts_b: {_NOT_A_COUNT}: '+5'",
    "leading space in a count": f"ConfigError: CSV line 6, column coinc_counts: {_NOT_A_COUNT}: ' 7'",
    "leading space in a delay": f"ConfigError: CSV line 2, column delay_m: {_NOT_A_DELAY}: ' -1.00000000e-06'",
    "float in a count column": f"ConfigError: CSV line 7, column counts_a: {_NOT_A_COUNT}: '1.0'",
    "nan rate": f"ConfigError: CSV line 8, column rate_b_hz: {_NOT_A_RATE}: 'nan'",
    "inf rate": f"ConfigError: CSV line 9, column coinc_hz: {_NOT_A_RATE}: 'inf'",
    "negative rate": f"ConfigError: CSV line 10, column rate_a_hz: {_NOT_A_RATE}: '-1.0'",
    "count beyond 64 bits": (
        "ConfigError: CSV line 11, column counts_b: integer out of the 64-bit range: "
        "'9223372036854775808'"
    ),
    "count beyond int's digit limit": (
        f"ConfigError: CSV line 19, column counts_b: integer out of the 64-bit range: '1{'0' * 5000}'"
    ),
    "minus zero rate": f"ConfigError: CSV line 11, column coinc_hz: {_NOT_A_RATE}: '-0.00000000e+00'",
    "count of 20 digits": (
        "ConfigError: CSV line 8, column coinc_counts: integer out of the 64-bit range: "
        "'10000000000000000000'"
    ),
    "leading zero in a count": f"ConfigError: CSV line 9, column counts_a: {_NOT_A_COUNT}: '0108'",
    "negative count": f"ConfigError: CSV line 5, column counts_a: {_NOT_A_COUNT}: '-3'",
    "empty cell": f"ConfigError: CSV line 12, column coinc_counts: {_NOT_A_COUNT}: ''",
    "rate overflowing to inf": (
        "ConfigError: CSV line 20, column rate_a_hz: out of range: must lie in [0, 1e+13]: '9.99999999e+999'"
    ),
    "delay overflowing to inf": (
        "ConfigError: CSV line 3, column delay_m: out of range: must lie in [-1, 1]: '-9.99999999e+999'"
    ),
    "other decimal forms of a rate": f"ConfigError: CSV line 10, column rate_b_hz: {_NOT_A_RATE}: '110000.'",
    "cell beyond the csv field limit": {("rates", 1, 12): 1.0},
    "crlf line endings": {},
    "carriage return inside a row": f"ConfigError: CSV line 13, column counts_a: {_NOT_A_COUNT}: '\\r5'",
    "quoted cell": f"ConfigError: CSV line 4, column counts_a: {_NOT_A_COUNT}: '\"102\"'",
    "short row": "ConfigError: CSV line 6: row has 6 columns, expected 7",
    "long row, then a short row of integers": "ConfigError: CSV line 5: row has 8 columns, expected 7",
    "blank line": "ConfigError: CSV line 2: row has 1 columns, expected 7",
    "no final newline": "ConfigError: CSV line 22: no line end; lines end in \\n or \\r\\n",
    "empty body": None,
    "header only, no newline": _BAD_HEADER,
    "empty file": _BAD_HEADER,
    "bad header": _BAD_HEADER,
    "quoted header": _BAD_HEADER,
    "swapped rows": (
        "ConfigError: CSV line 6: delay -7e-07 m is not greater than the previous delay -6e-07 m"
    ),
    "one row deleted": (
        "ConfigError: CSV line 10: delay step 2e-07 m is off the grid's median step; delays must be uniformly spaced"
    ),
    "rows swapped after a blank line": "ConfigError: CSV line 3: row has 1 columns, expected 7",
    "non-ASCII digit in a count": (
        f"ConfigError: CSV line 15, column coinc_counts: {_NOT_A_COUNT}: '\u0661\u0663'"
    ),
    "information separator around a count": (
        f"ConfigError: CSV line 16, column counts_b: {_NOT_A_COUNT}: '\\x1c516'"
    ),
    "bare carriage return line endings": _BAD_HEADER,
    "bare carriage return after a row": (
        f"ConfigError: CSV line 17, column coinc_counts: {_NOT_A_COUNT}: '15\\r'"
    ),
    "bare carriage return at the end of the file": (
        "ConfigError: CSV line 22: no line end; lines end in \\n or \\r\\n"
    ),
    "quoted cell with a line break": "ConfigError: CSV line 18: row has 3 columns, expected 7",
    "count padded beyond int's digit limit": (
        f"ConfigError: CSV line 19, column counts_a: {_NOT_A_COUNT}: ' +{'0' * 5000}117'"
    ),
    "nan delay": f"ConfigError: CSV line 21, column delay_m: {_NOT_A_DELAY}: 'nan'",
    "inf delay": f"ConfigError: CSV line 22, column delay_m: {_NOT_A_DELAY}: 'inf'",
    "NUL in the header": _BAD_HEADER,
    "NUL in a rate": f"ConfigError: CSV line 3, column rate_a_hz: {_NOT_A_RATE}: '1\\x00'",
}


def _expected_outcome(outcome):
    if isinstance(outcome, str):
        return outcome
    if outcome is None:
        return [], [[], [], []], [[], [], []]
    delays, rates, counts = _scan_arrays()
    arrays = {"delays": delays[None], "rates": _nine_digits(rates), "counts": counts}
    for (name, row, point), value in outcome.items():
        arrays[name][row, point] = value
    return arrays["delays"][0].tolist(), arrays["rates"].tolist(), arrays["counts"].tolist()


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_fast_path_matches_cell_by_cell_parse(name):
    """The one-pass parse gives each edge case's recorded outcome."""
    assert sorted(EDGE_OUTCOMES) == sorted(EDGE_CASES)
    text = EDGE_CASES[name](_scan_text())
    assert _outcome(text) == _expected_outcome(EDGE_OUTCOMES[name])


def test_cell_by_cell_errors_name_line_and_column():
    """With several bad rows the first in the file is named, and within a row
    its first bad cell, whatever makes each bad.  The delay grid belongs to the
    whole column, so a grid break is named only once every row is good."""
    bad_cells = [
        (3, "9.99999999e+999", "out of range: must lie in [0, 1e+13]"),
        (4, "5x", _NOT_A_COUNT),
        (5, str(2**63), "integer out of the 64-bit range"),
    ]
    grid_break = EDGE_CASES["swapped rows"]  # named at line 6
    for order in itertools.permutations(bad_cells):
        for first in range(len(order)):
            text = grid_break(_scan_text())
            for line, (column, cell, _) in zip((9, 12, 16)[first:], order[first:]):
                text = _edit_cell(line, column, cell)(text)
            column, cell, reason = order[first]
            message = f"CSV line {(9, 12, 16)[first]}, column {CSV_HEADER[column]}: {reason}: {cell!r}"
            with pytest.raises(ConfigError, match=re.escape(message)):
                read_scan_csv(io.StringIO(text))
    with pytest.raises(ConfigError, match="CSV line 6: delay "):
        read_scan_csv(io.StringIO(grid_break(_scan_text())))
    for order in itertools.permutations(bad_cells):
        text = _scan_text()
        for column, cell, _ in order:
            text = _edit_cell(9, column, cell)(text)
        with pytest.raises(ConfigError, match=re.escape("CSV line 9, column coinc_hz: out of range")):
            read_scan_csv(io.StringIO(text))
    # a row without seven cells is named before its cells
    with pytest.raises(ConfigError, match="CSV line 9: row has 8 columns, expected 7"):
        read_scan_csv(io.StringIO(_edit_cell(9, 3, "9.99999999e+999,0")(_scan_text())))
    # a cell beyond the csv module's field limit, which the grammar accepts,
    # does not hide a later bad row
    text = EDGE_CASES["cell beyond the csv field limit"](_edit_cell(20, 5, "5x")(_scan_text()))
    with pytest.raises(ConfigError, match=re.escape(f"CSV line 20, column counts_b: {_NOT_A_COUNT}: '5x'")):
        read_scan_csv(io.StringIO(text))


def test_a_rejected_csv_of_integer_rates_exits_2_in_time(tmp_path):
    """Each cell matches the row grammar in one way only, so the match of a
    rejected file does not backtrack through the ways of every earlier row:
    401 rows with long e-form mantissas and a bad cell on the last line exit
    2 naming that line.  The fit runs in its own process, so a match that
    never ends fails the timeout rather than hang the suite."""
    rate = "1." + "1" * 1000 + "e+05"
    rows = "".join(f"{k * 10 * 1e-9:.8e},{rate},{rate},{rate},550000,210000,30000\n" for k in range(-200, 201))
    scan, config = tmp_path / "integers.csv", tmp_path / "integers.ini"
    scan.write_text(",".join(CSV_HEADER) + "\n" + rows[:-1] + "x\n", encoding="utf-8")
    config.write_text("[scan]\ndwell_s = 5.0\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(icohsim.__file__))}
    done = subprocess.run([sys.executable, "-m", "icohsim", "fit", str(scan), "--config", str(config), "--quiet"],
                          env=env, capture_output=True, encoding="utf-8", timeout=20)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert f"CSV line 402, column coinc_counts: {_NOT_A_COUNT}: '30000x'" in done.stderr


# Characters an edit puts into a cell: digits, the characters of a decimal
# number, and characters the grammar refuses: a sign on a count, padding,
# quotes, a carriage return, an underscore and a non-ASCII digit.
CELL_EDITS = [*"0123456789", "_", "+", "-", " ", '"', "\r", "e", ".", "١", ""]

# The row grammar, stated here rather than read from icohsim.cli: a float is
# what %.Ne prints, one digit, a point, N digits and an exponent of 2 or 3.
_FLOAT = r"[0-9][.][0-9]+e[-+](?:[0-9][0-9]|[0-9][0-9][0-9])"
_COUNT = "(?:0|[1-9][0-9]*)"
ROW_GRAMMAR = re.compile(f"-?{_FLOAT}(?:,{_FLOAT}){{3}}(?:,{_COUNT}){{3}}")


def _good_row(line):
    """The line, without its line end, is in the row grammar and its values are in range:
    the delay within +-1 m, the rates at most 1e13 counts/s, the counts below 2**63."""
    if not ROW_GRAMMAR.fullmatch(line):
        return False
    cells = line.split(",")
    return (-1.0 <= float(cells[0]) <= 1.0 and all(float(cell) <= 1e13 for cell in cells[1:4])
            and all(int(cell) < 2**63 for cell in cells[4:]))


@st.composite
def edited_scans(draw):
    lines = _scan_text().split("\n")
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        line = draw(st.integers(min_value=2, max_value=len(lines) - 1))
        row = lines[line - 1].split(",")
        column = draw(st.integers(min_value=0, max_value=len(row) - 1))
        edit = "".join(draw(st.lists(st.sampled_from(CELL_EDITS), max_size=4)))
        if draw(st.booleans()):
            row[column] = edit
        else:
            at = draw(st.integers(min_value=0, max_value=len(row[column])))
            row[column] = row[column][:at] + edit + row[column][at:]
        lines[line - 1] = ",".join(row)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edited_scans())
def test_accepted_values_are_python_values_and_errors_name_a_line(text):
    """A file is accepted exactly when every row is in the grammar with values
    in range and the delays form a grid; otherwise the error names the first
    bad row, or the grid's bad line.  Accepted values are float and int of
    their cells, bit for bit."""
    lines = [line.removesuffix("\r") for line in text.split("\n")[1:-1]]
    bad = [number for number, line in enumerate(lines, 2) if not _good_row(line)]
    try:
        record = read_scan_csv(io.StringIO(text))
    except ConfigError as exc:
        if bad:
            assert str(exc).startswith((f"CSV line {bad[0]}, column ", f"CSV line {bad[0]}: row has ")), str(exc)
        else:
            assert re.match("CSV line [0-9]+: delay ", str(exc)), str(exc)
        return
    assert not bad
    rows = [line.split(",") for line in lines]
    floats = np.array([[float(cell) for cell in row[:4]] for row in rows])
    counts = [[int(cell) for cell in row[4:]] for row in rows]
    assert np.vstack([record.delays, record.rates]).T.tobytes() == floats.tobytes()
    assert record.counts.T.tolist() == counts
