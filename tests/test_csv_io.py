"""Scan CSV write/read: a round trip, edge cases pinned to their outcome, and edited scans."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icohsim.cli import read_scan_csv, write_scan_csv
from icohsim.config import ConfigError, parse_config
from icohsim.scan import ScanRecord, run_scan

# A numpy warning here is a parse the grammar does not state.
pytestmark = pytest.mark.filterwarnings("error")

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


@settings(max_examples=80, deadline=None)
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
    "count beyond 64 bits": _edit_cell(11, 5, str(2**63)),
    "negative count": _edit_cell(5, 4, "-3"),
    "empty cell": _edit_cell(12, 6, ""),
    "cell beyond the csv field limit": _edit_cell(14, 2, "1" + "0" * 140_000 + "e-140000"),
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


_EXPECTED_HEADER = (
    "expected ['delay_m', 'rate_a_hz', 'rate_b_hz', 'coinc_hz', 'counts_a', 'counts_b', 'coinc_counts']"
)

# Each case's outcome: the error text, or the cells that differ from the
# unedited scan, as {(array, row, point): value}, or None for a file without
# data rows.  A cell beyond the csv module's field limit is no error, as
# np.loadtxt has no such limit.
EDGE_OUTCOMES = {
    "underscore in a count": "ConfigError: CSV line 3, column counts_a: not an integer: '1_0'",
    "underscore in a rate": (
        "ConfigError: CSV line 4, column rate_a_hz: not a finite number: '4_2000.5'"
    ),
    "plus sign": {("counts", 1, 3): 5},
    "leading space in a count": {("counts", 2, 4): 7},
    "leading space in a delay": {},
    "float in a count column": "ConfigError: CSV line 7, column counts_a: not an integer: '1.0'",
    "nan rate": "ConfigError: CSV line 8, column rate_b_hz: not a finite number: 'nan'",
    "inf rate": "ConfigError: CSV line 9, column coinc_hz: not a finite number: 'inf'",
    "negative rate": "ConfigError: CSV line 10: rate p_a=-1.0 must be finite and non-negative",
    "count beyond 64 bits": (
        "ConfigError: CSV line 11, column counts_b: integer out of the 64-bit range: "
        "'9223372036854775808'"
    ),
    "negative count": "ConfigError: CSV line 5, column counts_a: not a non-negative count: '-3'",
    "empty cell": "ConfigError: CSV line 12, column coinc_counts: not an integer: ''",
    "cell beyond the csv field limit": {("rates", 1, 12): 1.0},
    "crlf line endings": {},
    "carriage return inside a row": "ConfigError: CSV line 13: row has 5 columns, expected 7",
    "quoted cell": {},
    "short row": "ConfigError: CSV line 6: row has 6 columns, expected 7",
    "long row, then a short row of integers": "ConfigError: CSV line 5: row has 8 columns, expected 7",
    "blank line": {},
    "no final newline": {},
    "empty body": None,
    "header only, no newline": None,
    "empty file": f"ConfigError: unexpected CSV header None; {_EXPECTED_HEADER}",
    "bad header": (
        "ConfigError: unexpected CSV header "
        "['delay', 'rate_a_hz', 'rate_b_hz', 'coinc_hz', 'counts_a', 'counts_b', 'coinc_counts']; "
        f"{_EXPECTED_HEADER}"
    ),
    "quoted header": {},
    "swapped rows": (
        "ConfigError: CSV line 6: delay -7e-07 m is not greater than the previous delay -6e-07 m"
    ),
    "one row deleted": (
        "ConfigError: CSV line 10: delay step 2e-07 m is off the grid's median step; delays must be uniformly spaced"
    ),
    "rows swapped after a blank line": (
        "ConfigError: CSV line 7: delay -7e-07 m is not greater than the previous delay -6e-07 m"
    ),
    "non-ASCII digit in a count": (
        "ConfigError: CSV line 15, column coinc_counts: not an integer: '\u0661\u0663'"
    ),
    "information separator around a count": (
        "ConfigError: CSV line 16, column counts_b: not an integer: '\\x1c516'"
    ),
    "bare carriage return line endings": (
        "ConfigError: CSV line 1: ends in a bare carriage return; lines end in \\n or \\r\\n"
    ),
    "bare carriage return after a row": (
        "ConfigError: CSV line 17: ends in a bare carriage return; lines end in \\n or \\r\\n"
    ),
    "bare carriage return at the end of the file": {},
    "quoted cell with a line break": {},
    "count padded beyond int's digit limit": {},
    "nan delay": "ConfigError: CSV line 21, column delay_m: not a finite number: 'nan'",
    "inf delay": "ConfigError: CSV line 22, column delay_m: not a finite number: 'inf'",
    # the csv module raises for a NUL before Python 3.11 and passes it on from 3.11
    "NUL in the header": "ConfigError: CSV line 1: line contains NUL",
    "NUL in a rate": "ConfigError: CSV line 3: line contains NUL",
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
    text = EDGE_CASES["float in a count column"](_scan_text())
    with pytest.raises(ConfigError, match="CSV line 7, column counts_a: not an integer: '1.0'"):
        read_scan_csv(io.StringIO(text))
    text = EDGE_CASES["count beyond 64 bits"](_scan_text())
    with pytest.raises(ConfigError, match="CSV line 11, column counts_b: integer out of the 64-bit"):
        read_scan_csv(io.StringIO(text))
    # with several bad rows the first in the file is named, and within a row its first bad cell
    text = _scan_text()
    for name in ("cell beyond the csv field limit", "short row", "nan rate", "negative rate"):
        text = EDGE_CASES[name](text)
    text = _edit_cell(8, 1, "x")(text)
    with pytest.raises(ConfigError, match="CSV line 6: row has 6 columns"):
        read_scan_csv(io.StringIO(text))
    text = EDGE_CASES["cell beyond the csv field limit"](EDGE_CASES["nan rate"](_scan_text()))
    text = _edit_cell(8, 1, "x")(text)
    with pytest.raises(ConfigError, match="CSV line 8, column rate_a_hz: not a finite number: 'x'"):
        read_scan_csv(io.StringIO(text))
    # a NUL is named at its line, after any bad row above it and before any below
    text = _edit_cell(20, 5, "5\0")(_edit_cell(8, 1, "x")(_scan_text()))
    with pytest.raises(ConfigError, match="CSV line 8, column rate_a_hz: not a finite number: 'x'"):
        read_scan_csv(io.StringIO(text))
    text = _edit_cell(6, 5, "\0")(_edit_cell(8, 1, "x")(_scan_text()))
    with pytest.raises(ConfigError, match="CSV line 6: line contains NUL"):
        read_scan_csv(io.StringIO(text))
    # neither a cell beyond the csv module's field limit nor a count padded
    # beyond int's digit limit hides a later bad row
    for name in ("cell beyond the csv field limit", "count padded beyond int's digit limit"):
        text = EDGE_CASES[name](_edit_cell(20, 5, "5x")(_scan_text()))
        with pytest.raises(ConfigError, match="CSV line 20, column counts_b: not an integer: '5x'"):
            read_scan_csv(io.StringIO(text))


# Characters an edit puts into a cell: digits and the characters Python's
# float and int treat differently from np.loadtxt, or that split the row.
CELL_EDITS = [*"0123456789", "_", "+", " ", '"', "\r", "e", ".", "\u0661", ""]


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


@settings(max_examples=300, deadline=None)
@given(edited_scans())
def test_accepted_values_are_python_values_and_errors_name_a_line(text):
    """Accepted values are float and int of their cells, bit for bit; a rejection names a line."""
    try:
        record = read_scan_csv(io.StringIO(text))
    except ConfigError as exc:
        assert "CSV line" in str(exc)
        return
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row][1:]
    floats = np.array([[float(cell) for cell in row[:4]] for row in rows])
    counts = [[int(cell) for cell in row[4:]] for row in rows]
    assert np.vstack([record.delays, record.rates]).T.tobytes() == floats.tobytes()
    assert record.counts.T.tolist() == counts
