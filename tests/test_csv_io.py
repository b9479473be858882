"""Scan CSV write/read: the column-wise fast path against the cell-by-cell parse."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icohsim import cli
from icohsim.cli import read_scan_csv, write_scan_csv
from icohsim.config import ConfigError
from icohsim.scan import ScanRecord


def _text(record):
    buffer = io.StringIO()
    write_scan_csv(record, buffer)
    return buffer.getvalue()


def _outcome(parse, text):
    """The parsed arrays, or the error and its message, after the delay-grid check."""
    try:
        delays, rates, counts, lines = parse(text)
        cli._check_delay_grid(delays, lines)
    except (ConfigError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"
    return delays.tolist(), rates.tolist(), counts.tolist()


def _read(text):
    record = read_scan_csv(io.StringIO(text))
    return record.delays, record.rates, record.counts, range(2, len(record.delays) + 2)


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
    return ScanRecord(axis="signal", delays=delays, rates=rates.reshape(3, points), counts=counts)


@settings(max_examples=80, deadline=None)
@given(scan_records())
def test_write_read_round_trip(record):
    text = _text(record)
    # written files take the fast path; an empty body gives the same empty record either way
    assert (cli._read_fast(text) is not None) == (len(record.delays) > 0)
    back = read_scan_csv(io.StringIO(text))
    nine_digits = np.vectorize(lambda v: float(f"{v:.8e}"), otypes=[float])
    n = len(record.delays)
    assert back.delays.tolist() == nine_digits(record.delays).tolist()
    assert back.rates.tolist() == nine_digits(record.rates).reshape(3, n).tolist()
    expected_counts = record.counts if record.counts is not None else np.zeros((3, n), int)
    assert back.counts.tolist() == expected_counts.tolist()
    assert _outcome(_read, text) == _outcome(cli._read_cells, text)
    assert _text(back) == text


def _scan_text():
    delays = np.linspace(-1e-6, 1e-6, 21)
    rates = np.vstack([4.2e4 + 1e3 * np.cos(delays / 1e-7), np.full(21, 1.1e5), np.full(21, 3e3)])
    counts = np.vstack([np.arange(21) + 100, np.arange(21) + 500, np.arange(21)])
    return _text(ScanRecord(axis="signal", delays=delays, rates=rates, counts=counts))


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
    "empty cell": _edit_cell(12, 6, ""),
    "cell beyond the csv field limit": _edit_cell(14, 2, "1" + "0" * 140_000 + "e-140000"),
    "crlf line endings": lambda text: text.replace("\n", "\r\n"),
    "carriage return inside a row": _edit_cell(13, 4, "\r5"),
    "quoted cell": _quote_cell,
    "short row": _short_row,
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
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_fast_path_matches_cell_by_cell_parse(name):
    text = EDGE_CASES[name](_scan_text())
    assert _outcome(_read, text) == _outcome(cli._read_cells, text)


@pytest.mark.parametrize(
    "name, fast",
    [
        ("underscore in a count", True),
        ("plus sign", True),
        ("leading space in a count", True),
        ("float in a count column", False),
        ("nan rate", False),
        ("inf rate", False),
        ("crlf line endings", False),
        ("quoted cell", False),
        ("short row", False),
        ("empty body", False),
    ],
)
def test_fast_path_takes_or_defers(name, fast):
    text = EDGE_CASES[name](_scan_text())
    assert (cli._read_fast(text) is not None) == fast


def test_cell_by_cell_errors_name_line_and_column():
    text = EDGE_CASES["float in a count column"](_scan_text())
    with pytest.raises(ConfigError, match="CSV line 7, column counts_a: not a integer: '1.0'"):
        read_scan_csv(io.StringIO(text))
    text = EDGE_CASES["count beyond 64 bits"](_scan_text())
    with pytest.raises(ConfigError, match="CSV line 11, column counts_b: integer out of the 64-bit"):
        read_scan_csv(io.StringIO(text))
