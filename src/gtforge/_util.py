"""Small shared helpers: deterministic RNG streams, the positive-and-finite
check, fixed-width float formatting for serialized output, JSON-object
config loading, and the file opener, CSV table reader and CSV writer shared
by every log format."""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import IO, Callable, Collection, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import MissingColumn, ParseError

T = TypeVar("T")


def derived_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent deterministic stream for (seed, stream).

    The pair seeds the generator's entropy pool, so distinct stream ids give
    statistically independent sequences and the same pair always reproduces
    the same sequence.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream))))


def ordered_map(fn: Callable[[T], object], items: Sequence[T]) -> list:
    """[fn(item) for item in items].

    A named function so that perfbench/tracing.py can count the Monte Carlo
    batches that uncert runs through it.
    """
    return [fn(item) for item in items]


def positive(name: str, value: float) -> None:
    """ValueError unless value is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def fmt_float(value: float) -> str:
    """Format a float with 9 significant digits for serialized records."""
    if value != value:
        raise ValueError("cannot serialize NaN")
    return f"{value:.9g}"


def json_object(
    value: object, source: str, keys: Collection[str] | None = None
) -> Mapping:
    """value itself if it is a JSON object (a mapping) whose keys all belong
    to keys (any keys when keys is None); ParseError otherwise."""
    if not isinstance(value, Mapping):
        raise ParseError(f"{source}: expected a JSON object")
    if keys is not None:
        unknown = set(value) - set(keys)
        if unknown:
            raise ParseError(
                f"{source}: unknown field(s) {sorted(unknown)}; expected {sorted(keys)}"
            )
    return value


def load_json_object(path: str | Path) -> Mapping:
    """Read a JSON config file whose top level must be an object."""
    try:
        with Path(path).open("r") as stream:
            data = json.load(stream)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON: {err}")
    return json_object(data, str(path))


@contextmanager
def opened(target: str | Path | IO[str], mode: str = "r") -> Iterator[IO[str]]:
    """An open text stream: target itself, or the file at that path opened
    with newline="" (csv's convention) and closed on exit."""
    if isinstance(target, (str, Path)):
        with Path(target).open(mode, newline="") as stream:
            yield stream
    else:
        yield target


def _cell(row: Sequence[str], pos: int, name: str, optional: bool, line: int) -> float:
    """One checked cell; NaN for an empty optional cell."""
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


def _column(cells: Sequence[str], optional: bool) -> np.ndarray | None:
    """One column of cells as floats, converted as a whole by the same float()
    that _cell uses; an empty optional cell reads as NaN. None when some cell
    needs _cell's own check: a blank required cell, a whitespace-only
    optional cell, text or a non-finite number."""
    empty = cells.count("") if optional else 0
    try:
        values = np.fromiter(
            map(float, [c or "nan" for c in cells] if empty else cells), float, len(cells)
        )
    except ValueError:
        return None
    # Every empty cell became NaN, so any further non-finite value is bad.
    if np.count_nonzero(~np.isfinite(values)) != empty:
        return None
    return values


# Rows converted together: bounds the cell text held at once, so a long
# log takes no more memory than converting row by row.
BLOCK_ROWS = 1024


def _block(
    rows: Sequence[Sequence[str]], lines: Sequence[int], cells: list[tuple[int, str, bool]]
) -> np.ndarray:
    """The checked cells of some rows as an (n, len(cells)) float array.

    Whole columns are converted at once; only when that fails are the rows
    scanned in order, cell by cell, to find and report the first bad cell.
    """
    if min(map(len, rows)) > max(pos for pos, _, _ in cells):
        text = list(zip(*rows))
        values = [_column(text[pos], opt) for pos, _, opt in cells]
        if all(v is not None for v in values):
            return np.column_stack(values)
    table = np.empty((len(rows), len(cells)))
    for i, (row, line) in enumerate(zip(rows, lines)):
        table[i] = [_cell(row, pos, name, opt, line) for pos, name, opt in cells]
    return table


def read_csv_table(
    stream: IO[str], columns: Sequence[str], optional: Collection[str] = ()
) -> tuple[np.ndarray, list[int]]:
    """The named columns of a CSV with a header row, every cell checked.

    Returns an (n, len(columns)) float array, one row per non-blank data
    row, and the file line number of each row. Every cell must be a finite
    number; a cell of an optional column may be empty and reads as NaN.
    Errors name the line of the first bad cell.
    """
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
    numbered = (
        (line, row) for line, row in enumerate(reader, start=2) if "".join(row).strip()
    )
    blocks = [np.empty((0, len(cells)))]
    lines: list[int] = []
    while block := list(islice(numbered, BLOCK_ROWS)):
        block_lines, rows = zip(*block)
        blocks.append(_block(rows, block_lines, cells))
        lines.extend(block_lines)
    return np.concatenate(blocks), lines


def write_csv_table(
    dest: str | Path | IO[str], header: Sequence[str], columns: Sequence[np.ndarray]
) -> None:
    """A header row, then one row per index of the equal-length columns.

    Cells are repr of the float, which parses back bit for bit; NaN is
    written as an empty cell.
    """
    text = [["" if v != v else repr(v) for v in column.tolist()] for column in columns]
    with opened(dest, "w") as stream:
        stream.write(",".join(header) + "\n")
        stream.writelines(",".join(row) + "\n" for row in zip(*text))
