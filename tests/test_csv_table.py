"""The columnar CSV table reader against the cell-by-cell reader it replaced.

reference_read_csv_table below is that reader, kept as the reference: on
any input both must return the same bits and line numbers, or raise the
same ParseError text for the same line.
"""

from __future__ import annotations

import csv
import io
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtforge import _util
from gtforge._util import read_csv_table
from gtforge.errors import MissingColumn, ParseError

COLUMNS = ("t", "x", "alt")
OPTIONAL = {"alt"}


def _reference_cell(row, pos, name, optional, line):
    try:
        raw = row[pos].strip()
    except IndexError:
        raise ParseError(f"row has {len(row)} cells, column {name!r} absent", line)
    if raw == "":
        if optional:
            return math.nan
        raise ParseError(f"column {name!r} is empty", line)
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"column {name!r} is not a number: {raw!r}", line)
    if not math.isfinite(value):
        raise ParseError(f"column {name!r} is not finite: {raw!r}", line)
    return value


def reference_read_csv_table(stream, columns, optional=()):
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file", line=1)
    positions = {name.strip(): i for i, name in enumerate(header)}
    for name in columns:
        if name not in positions:
            raise MissingColumn(f"missing column {name!r} in header {header}", line=1)
    cells = [(positions[name], name, name in optional) for name in columns]
    rows = []
    lines = []
    for line, row in enumerate(reader, start=2):
        if "".join(row).strip():
            rows.append([_reference_cell(row, pos, name, opt, line) for pos, name, opt in cells])
            lines.append(line)
    return np.array(rows, dtype=float).reshape(-1, len(columns)), lines


def outcome(reader, text):
    """(table bytes, shape, lines) or (error type, message, line)."""
    try:
        table, lines = reader(io.StringIO(text), COLUMNS, OPTIONAL)
    except ParseError as err:
        return type(err), str(err), err.line
    return table.tobytes(), table.shape, lines


def assert_same(text):
    expect = outcome(reference_read_csv_table, text)
    assert outcome(read_csv_table, text) == expect
    # Small blocks put the bad cell, blank lines and short rows in any block.
    with patch.object(_util, "BLOCK_ROWS", 3):
        assert outcome(read_csv_table, text) == expect


# A valid cell: repr of a finite float, some other spelling float() takes,
# maybe padded with whitespace.
_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e3", "-0.0", "+2.5", ".5", "1_0", "1E-7"]),
)
_cells = st.tuples(st.sampled_from(["", " ", "\t"]), _numbers, st.sampled_from(["", " "])).map(
    "".join
)
# Rows csv.reader yields nothing from, or that the reader skips as blank.
_blank_lines = st.sampled_from(["", "   ", ",,,", " , ,"])


@st.composite
def tables(draw):
    """CSV text: a header naming COLUMNS in some order plus an unused
    column, then valid rows with blank lines between them."""
    header = draw(st.permutations([*COLUMNS, "unused"]))
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(n):
        row = {name: draw(_cells) for name in header}
        if draw(st.booleans()):
            row["alt"] = draw(st.sampled_from(["", " "]))
        rows.append([row[name] for name in header])
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_blank_lines))
    return header, rows, lines


def text_of(header, lines):
    return ",".join(header) + "\n" + "".join(line + "\n" for line in lines)


class TestAgainstCellReader:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(tables())
    def test_valid_tables_are_bit_identical(self, table):
        header, _, lines = table
        text = text_of(header, lines)
        table, _ = read_csv_table(io.StringIO(text), COLUMNS, OPTIONAL)
        assert table.shape[0] > 0
        assert_same(text)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        tables(),
        st.data(),
        st.sampled_from(["", "nan", "inf", "-inf", "NaN", "text", "1_0", " ", "1,5",
                         "short row", "whitespace row"]),
    )
    def test_one_mutated_cell_gives_same_result_or_error(self, table, data, mutation):
        header, rows, _ = table
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(header) - 1))
        row = list(rows[i])
        if mutation == "short row":
            row = row[:j]
        elif mutation == "whitespace row":
            row = [" \t "]
        else:
            row[j] = mutation
        rows = [*rows[:i], row, *rows[i + 1:]]
        assert_same(text_of(header, [",".join(r) for r in rows]))


class TestColumnar:
    def test_bad_cell_after_good_columns_names_first_bad_row(self):
        text = "t,x,alt\n0,1,\n1,2,3\n2,oops,\n3,nan,\n"
        with pytest.raises(ParseError, match=r"^line 4: column 'x' is not a number: 'oops'$"):
            read_csv_table(io.StringIO(text), COLUMNS, OPTIONAL)

    def test_explicit_nan_in_optional_column_is_refused(self):
        text = "t,x,alt\n0,1,\n1,2,nan\n"
        with pytest.raises(ParseError, match=r"^line 3: column 'alt' is not finite: 'nan'$"):
            read_csv_table(io.StringIO(text), COLUMNS, OPTIONAL)

    @pytest.mark.parametrize("text", ["t,x,alt\n", "t,x,alt\n\n , ,\n"])
    def test_no_data_rows(self, text):
        assert_same(text)
        table, lines = read_csv_table(io.StringIO(text), COLUMNS, OPTIONAL)
        assert table.shape == (0, 3) and lines == []

    def test_whitespace_only_optional_cell_reads_as_nan(self):
        table, lines = read_csv_table(io.StringIO("t,x,alt\n0,1, \n\n1,2,3\n"), COLUMNS, OPTIONAL)
        assert np.isnan(table[0, 2]) and table[1, 2] == 3.0
        assert lines == [2, 4]
