"""The CSV table reader against the cell-by-cell reader it grew out of.

reference_read_csv_table below is that reader, kept as the reference: on
any input both must return the same bits and line numbers, or raise the
same ParseError text for the same line, whether numpy's C reader or the
cell reader parsed the file.
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
from gtforge.calib import parse_pose_stream
from gtforge.errors import ParseError
from gtforge.synth import run_scenario
from gtforge.trajlog import parse_trajectory_log, trajectory_from_arrays, write_trajectory_log
from gtforge.uncert import NoiseModel
from helpers import make_lead_follow, same_trajectory, write_pose_stream

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
        return _reference_rows(reader, columns, optional)
    except csv.Error as err:
        raise ParseError(f"malformed CSV: {err}", reader.line_num) from None


def _reference_rows(reader, columns, optional):
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file", line=1)
    positions = {name.strip(): i for i, name in enumerate(header)}
    for name in columns:
        if name not in positions:
            raise ParseError(f"missing column {name!r} in header {header}", line=1)
    cells = [(positions[name], name, name in optional) for name in columns]
    rows = []
    lines = []
    for line, row in enumerate(reader, start=2):
        if "".join(row).strip():
            rows.append([_reference_cell(row, pos, name, opt, line) for pos, name, opt in cells])
            lines.append(line)
    return np.array(rows, dtype=float).reshape(-1, len(columns)), lines


def outcome(reader, text, newline="\n"):
    """(table bytes, shape, lines) or (error type, message, line)."""
    try:
        table, lines = reader(io.StringIO(text, newline=newline), COLUMNS, OPTIONAL)
    except ParseError as err:
        return type(err), str(err), err.line
    return table.tobytes(), table.shape, lines


def assert_same(text):
    # A stream a caller opens splits lines on "\n" (StringIO's default); a
    # file that _util.opened opens (newline="") also on "\r" and "\r\n".
    for newline in ("\n", ""):
        expect = outcome(reference_read_csv_table, text, newline)
        assert outcome(read_csv_table, text, newline) == expect


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
    column, then valid rows with blank lines between them (and maybe after
    the last), ended by one of csv's line ends."""
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
    ending = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return header, rows, lines, ending


def text_of(header, lines, ending="\n"):
    return ending.join([",".join(header), *lines, ""])


class TestAgainstCellReader:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(tables())
    def test_valid_tables_are_bit_identical(self, table):
        header, _, lines, ending = table
        text = text_of(header, lines, ending)
        table, _ = read_csv_table(io.StringIO(text, newline=""), COLUMNS, OPTIONAL)
        assert table.shape[0] > 0
        assert_same(text)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        tables(),
        st.data(),
        st.sampled_from(["", "nan", "inf", "-inf", "NaN", "text", "1_0", " ", "1,5",
                         "short row", "whitespace row", "empty row", "quoted", '"1,2"',
                         "1\x002", "\x00", "over-long", "lone cr"]),
    )
    def test_one_mutated_cell_gives_same_result_or_error(self, table, data, mutation):
        """Each mutation is one the C reader could misread or refuses;
        '"1,2"' in the unused column shifts every later column if read
        without csv's quoting."""
        header, rows, _, ending = table
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(header) - 1))
        row = list(rows[i])
        if mutation == "short row":
            row = row[:j]
        elif mutation == "whitespace row":
            row = [" \t "]
        elif mutation == "empty row":
            row = []
        elif mutation == "quoted":
            row[j] = f'"{row[j]}"'
        elif mutation == "over-long":
            # In the unused column, where only csv's size limit refuses it.
            row[header.index("unused")] = "1" * (csv.field_size_limit() + 1)
        elif mutation == "lone cr":
            row[j] += "\r"
        else:
            row[j] = mutation
        rows = [*rows[:i], row, *rows[i + 1:]]
        assert_same(text_of(header, [",".join(r) for r in rows], ending))


class TestColumnar:
    def test_bad_cell_after_good_columns_names_first_bad_row(self):
        text = "t,x,alt\n0,1,\n1,2,3\n2,oops,\n3,nan,\n"
        with pytest.raises(ParseError, match=r"^line 4: column 'x' is not a number: 'oops'$"):
            read_csv_table(io.StringIO(text), COLUMNS, OPTIONAL)

    def test_explicit_nan_in_optional_column_is_refused(self):
        text = "t,x,alt\n0,1,\n1,2,nan\n"
        with pytest.raises(ParseError, match=r"^line 3: column 'alt' is not finite: 'nan'$"):
            read_csv_table(io.StringIO(text), COLUMNS, OPTIONAL)

    @pytest.mark.parametrize("value", ["inf", " -Infinity"])
    def test_infinite_optional_cell_is_refused(self, value):
        text = f"t,x,alt\n0,1,\n1,2,{value}\n"
        with pytest.raises(ParseError, match=rf"^line 3: column 'alt' is not finite: '{value.strip()}'$"):
            read_csv_table(io.StringIO(text), COLUMNS, OPTIONAL)

    @pytest.mark.parametrize("cell", ["1" * (csv.field_size_limit() + 1), "\x00"],
                             ids=["over-long", "NUL"])
    def test_unused_cell_csv_may_refuse(self, cell):
        """An over-long cell, and a NUL on Python 3.10, are csv errors even
        in a column the C reader skips."""
        assert_same(f"t,x,alt,unused\n0,1,2,{cell}\n3,4,5,6\n")

    def test_quoted_comma_before_a_used_cell_keeps_csv_columns(self):
        text = 't,a,b,x\n0,"1,2",3,4\n'
        table, lines = read_csv_table(io.StringIO(text), ("t", "x"))
        assert table.tolist() == [[0.0, 4.0]] and lines == [2]

    @pytest.mark.parametrize("text, lines", [
        ("t,x,alt\r\n0,1,\r\n\r\n1,2,3\r\n", [2, 4]),
        ("t,x,alt\r0,1,\r\r1,2,3\r", [2, 4]),
        ("t,x,alt\n0,1,\n1,2,3\n\n\n", [2, 3]),
    ])
    def test_line_ends_and_empty_lines_keep_line_numbers(self, text, lines):
        assert_same(text)
        table, got = read_csv_table(io.StringIO(text, newline=""), COLUMNS, OPTIONAL)
        assert table[:, :2].tolist() == [[0.0, 1.0], [1.0, 2.0]] and got == lines

    def test_blank_row_is_skipped_when_every_column_is_optional(self):
        text = "t,x,alt\n0,1,2\n,,\n3,4,5\n"
        table, lines = read_csv_table(io.StringIO(text), ("alt",), {"alt"})
        assert table.tolist() == [[2.0], [5.0]] and lines == [2, 4]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["t,x,alt\n", "t,x,alt\n\n , ,\n", "t,x,alt\n\r\n\n"])
    def test_no_data_rows(self, text):
        assert_same(text)
        table, lines = read_csv_table(io.StringIO(text), COLUMNS, OPTIONAL)
        assert table.shape == (0, 3) and lines == []

    def test_whitespace_only_optional_cell_reads_as_nan(self):
        table, lines = read_csv_table(io.StringIO("t,x,alt\n0,1, \n\n1,2,3\n"), COLUMNS, OPTIONAL)
        assert np.isnan(table[0, 2]) and table[1, 2] == 3.0
        assert lines == [2, 4]


class TestCommonFilesTakeTheCReader:
    """The logs and pose streams gtforge itself writes parse without the
    cell reader, so they never fall back to the slow path unnoticed."""

    @pytest.fixture(autouse=True)
    def no_cell_reader(self):
        with patch.object(_util, "_cell", side_effect=AssertionError("cell reader ran")):
            yield

    def test_simulated_utm_log(self, tmp_path):
        scenario = make_lead_follow(
            30.0, 25.0, 20.0, 100.0, noise=NoiseModel(0.02, 0.02, 0.00175, 0.00175), seed=3
        )
        _, recorded = run_scenario(scenario)["lead"]
        write_trajectory_log(recorded, tmp_path / "lead.csv")
        assert np.isnan(recorded.alt).all()
        assert same_trajectory(parse_trajectory_log(tmp_path / "lead.csv"), recorded)

    def test_geodetic_export(self, tmp_path):
        t = np.arange(2001) / 100.0
        traj = trajectory_from_arrays(
            "car", t, 500_000.0 + 20.0 * t, 5_300_000.0 + np.sin(t), np.full_like(t, 20.0),
            np.cos(t), np.full_like(t, 0.05), np.full_like(t, 0.01), zone=32, hemisphere="north",
        )
        write_trajectory_log(traj, tmp_path / "car.csv", frame="geodetic")
        parsed = parse_trajectory_log(tmp_path / "car.csv", frame="geodetic")
        assert np.array_equal(parsed.t, t) and np.abs(parsed.x - traj.x).max() < 1e-6

    def test_pose_stream(self, tmp_path):
        t = np.arange(2001) / 100.0
        poses = np.stack([t, 3.0 * t, np.sin(t), np.cos(t) - 0.5], axis=1)
        write_pose_stream(poses, tmp_path / "antenna_a.csv")
        assert (tmp_path / "antenna_a.csv").read_text().startswith("t,x,y,theta\n0.0,0.0,0.0,0.5\n")
        assert np.array_equal(parse_pose_stream(tmp_path / "antenna_a.csv"), poses)
