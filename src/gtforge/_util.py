"""Small shared helpers: deterministic RNG streams, the positive-and-finite
check, fixed-width float formatting for serialized output, the JSON config
loader, the file opener, whose errors name the file, two ordered maps, and
the CSV table reader shared by every log format, the rule that timestamps
increase strictly, and the CSV writer of trajectory logs.

The two maps spread independent items over the usable CPUs and return
results in item order. ordered_map runs them on threads and serves the
Monte Carlo batches, whose numpy draws and ufuncs release the interpreter
lock; a thread costs microseconds, and validate maps 44 times.
process_map runs them in forked worker processes and serves generate's
per-log parse: np.loadtxt holds the lock, so threads would take turns,
while a fork costs milliseconds once.

The table reader hands the data lines to numpy's C reader; a file it could
misread, or with a bad cell, goes through csv and a cell-by-cell check
that names the first bad line. It holds the file's text and the table.

Every JSON config, the scenario included, is read by one rule,
from_mapping: a config object's keys are the fields of the dataclass it
builds, fields with defaults may be left out, unknown keys are refused,
and each value must be what its field's annotation says: a float a JSON
number, an int an integer, a str a string (never a boolean), a tuple an
array, a nested dataclass an object, and an optional field may be null."""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
import threading
from contextlib import contextmanager, suppress
from dataclasses import MISSING, fields, is_dataclass
from itertools import chain
from pathlib import Path
from types import UnionType
from typing import (
    IO, Callable, Collection, Iterator, Mapping, Sequence, TypeVar, Union, get_args,
    get_origin, get_type_hints,
)

import numpy as np

from .errors import GtForgeError, ParseError

T = TypeVar("T")


def derived_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent deterministic stream for (seed, stream).

    The pair seeds the generator's entropy pool, so distinct stream ids give
    statistically independent sequences and the same pair always reproduces
    the same sequence.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream))))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def ordered_map(fn: Callable[[T], object], items: Sequence[T]) -> list:
    """[fn(item) for item in items], computed by a pool of worker threads.

    One worker per usable CPU (the process's affinity set, else
    os.cpu_count()), at least one and at most one per item. Each worker
    takes the next index from one shared iterator and stores fn's result
    at that index, so results come back in item order whatever the worker
    count. The first exception from fn stops every worker after its
    current item and is raised here once all have ended. fn must be safe
    to call from several threads at once; the work runs in parallel only
    where it releases the interpreter lock, as numpy's draws and ufuncs do.

    The calling thread only starts and joins the workers, so the Python
    calls it makes, and a profile of it, do not depend on timing. Those of
    concurrent.futures' submit and result do, and so do those of joining a
    non-daemon thread, which sweeps the locks of whichever threads have
    ended. The workers are daemons for that reason alone: each is joined
    before this returns or raises.
    """
    results: list = [None] * len(items)
    errors: list[BaseException] = []
    indices = iter(range(len(items)))  # its next() is atomic under the interpreter lock

    def work() -> None:
        for i in indices:
            try:
                results[i] = fn(items[i])
            except BaseException as err:  # raised again in the calling thread
                errors.append(err)
            if errors:
                return

    count = max(1, min(usable_cpus(), len(items)))
    workers = [threading.Thread(target=work, daemon=True) for _ in range(count)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    return results


def process_map(fn: Callable[[T], object], items: Sequence[T]) -> list:
    """[fn(item) for item in items], computed by forked worker processes.

    For work that holds the interpreter lock, which threads would only take
    turns at: generate's per-log parse, whose np.loadtxt holds it. numpy
    work that releases it belongs on ordered_map's cheaper threads, and
    work shorter than a fork round (a few milliseconds) in a plain loop.

    With k = min(usable CPUs, item count) shares, this process forks k - 1
    workers and computes share 0 itself; share j is the stripe
    items[j::k]. fn and the items reach a worker through the fork and are
    never pickled; each worker pickles its results, or its first exception
    with the results before it, through its own pipe. Results come back in
    item order. Once every worker has been reaped, the first exception in
    item order is raised, as the plain loop would raise it; a worker that
    ends without sending its results raises GtForgeError in place of its
    first item. A worker always leaves through os._exit, so it runs no
    atexit hook, finally block or buffer flush of this process.

    With one share, or no os.fork, the plain loop runs here. The Python
    calls made in this process do not depend on the workers' timing.
    Workers are forked, not spawned: a spawned one would import numpy
    afresh, about 0.2 s, more than a log's work. Call it where no other
    thread of this process holds a lock the workers need; ordered_map's
    threads have all ended by the time it returns.
    """
    count = min(usable_cpus(), len(items))
    if count < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    pids: list[int] = []
    pipes: list[IO[bytes]] = []
    try:
        for share in range(1, count):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _process_worker(fn, items[share::count], write_fd, pipes)
            finally:
                os.close(write_fd)
            pids.append(pid)
        shares = [_stripe(fn, items[0::count])]
        payloads = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status, payload in zip(pids, statuses, payloads):
        code = os.waitstatus_to_exitcode(status)
        if code == 0:
            shares.append(pickle.loads(payload))
        else:
            ended = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
            error = GtForgeError(f"worker process {pid} {ended} before sending its results")
            shares.append(([], error))
    results: list = [None] * len(items)
    first: tuple[int, BaseException] | None = None
    for share, (values, error) in enumerate(shares):
        results[share:share + count * len(values):count] = values
        index = share + count * len(values)
        if error is not None and (first is None or index < first[0]):
            first = (index, error)
    if first is not None:
        raise first[1]
    return results


def _stripe(fn: Callable[[T], object], items: Sequence[T]) -> tuple[list, Exception | None]:
    """fn over items up to the first exception: (results before it, it or None)."""
    values = []
    try:
        for item in items:
            values.append(fn(item))
    except Exception as err:
        return values, err
    return values, None


def _process_worker(
    fn: Callable[[T], object], items: Sequence[T], write_fd: int, read_ends: Sequence[IO[bytes]]
) -> None:
    """A forked worker's whole life: its stripe, pickled into write_fd, then
    os._exit, 0 only once every byte is written. It first closes the read
    ends it inherited, its own included, so that a caller that stops
    reading makes its write fail rather than wait forever."""
    status = 1
    try:
        for pipe in read_ends:
            pipe.close()
        try:
            payload = pickle.dumps(_stripe(fn, items), pickle.HIGHEST_PROTOCOL)
        except BaseException as err:
            # An unpicklable result or an interrupt. Not re-raised: unwinding
            # would run the caller's frames in this process.
            payload = pickle.dumps(([], GtForgeError(f"worker process failed: {err!r}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


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
    except (json.JSONDecodeError, RecursionError) as err:
        raise ParseError(f"{path}: invalid JSON: {err}")
    except UnicodeDecodeError as err:
        raise _undecodable(path, err) from None
    return json_object(data, str(path))


# Scalar annotation -> (what the error calls it, the JSON values it takes).
_SCALARS = {
    float: ("a number", (int, float)),
    int: ("an integer", int),
    str: ("a string", str),
}


def _field_value(tp: object, value: object, name: str, source: str) -> object:
    """value read as the annotation tp of the field (or item) name in source."""
    args = get_args(tp)
    if get_origin(tp) in (Union, UnionType) and len(args) == 2 and type(None) in args:
        if value is None:
            return None
        (tp,) = [arg for arg in args if arg is not type(None)]
        return _field_value(tp, value, name, source)
    if is_dataclass(tp):
        return from_mapping(tp, value, f"{source}.{name}")
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ParseError(f"{source}: {name} must be an array, got {value!r}")
        items = args[:1] * len(value) if args[1:] == (...,) else args
        if len(items) != len(value):
            raise ParseError(
                f"{source}: {name} must be an array of {len(items)} items, got {value!r}"
            )
        return tuple(
            _field_value(item, v, f"{name}[{i}]", source)
            for i, (item, v) in enumerate(zip(items, value))
        )
    if tp not in _SCALARS:
        raise TypeError(f"from_mapping cannot read {name} annotated {tp!r}")
    kind, json_types = _SCALARS[tp]
    # Python's own conversions would take True as 1 and "0.02" as 0.02.
    try:
        if isinstance(value, bool) or not isinstance(value, json_types):
            raise TypeError
        return float(value) if tp is float else value
    except (TypeError, OverflowError):
        raise ParseError(f"{source}: {name} must be {kind}, got {value!r}")


def from_mapping(cls: type[T], data: object, source: str) -> T:
    """The dataclass cls built from the JSON object data.

    The keys must be fields of cls; a field without a default must be
    present. Each value is read as its field's annotation: a float takes a
    JSON number, an int only an integer, a str only a string, and none of
    them a boolean; tuple[X, Y] and tuple[X, ...] take an array of such
    items; a dataclass field is a nested object, read by this rule and
    named source.field (source.field[i] inside an array); X | None also
    takes null. Any other annotation raises TypeError. A bad key or value,
    and any TypeError or ValueError from the constructor, raise ParseError
    naming source.
    """
    spec = fields(cls)
    data = json_object(data, source, [f.name for f in spec])
    missing = sorted(
        f.name for f in spec
        if f.default is MISSING and f.default_factory is MISSING and f.name not in data
    )
    if missing:
        raise ParseError(f"{source}: missing required field(s) {missing}")
    types = get_type_hints(cls)
    kwargs = {key: _field_value(types[key], value, key, source) for key, value in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ParseError(f"{source}: {err}")


def load_config(cls: type[T], path: str | Path) -> T:
    """from_mapping(cls) applied to the JSON file at path."""
    return from_mapping(cls, load_json_object(path), str(path))


@contextmanager
def opened(path: str | Path, mode: str = "r") -> Iterator[IO[str]]:
    """The file at path, opened as text with newline="" (csv's convention)
    and closed on exit.

    A GtForgeError raised while it is open names the file: its message
    gains the prefix "{path}: ", and its line or index stays as it was.
    """
    try:
        with Path(path).open(mode, newline="") as stream:
            yield stream
    except GtForgeError as err:
        err.args = (f"{path}: {err}",)
        raise
    except UnicodeDecodeError as err:
        raise _undecodable(path, err) from None


def _undecodable(path: str | Path, err: UnicodeDecodeError) -> ParseError:
    """ParseError "{path}: line N: ..." for a file that err could not
    decode. err's offset counts from the start of the reader's chunk, so
    the file is read again to find the first bad byte and its line, with
    "\r", "\n" and "\r\n" each ending a line as in the readers."""
    data = Path(path).read_bytes()
    try:
        data.decode(err.encoding)
    except UnicodeDecodeError as whole:
        offset = whole.start
        error = ParseError(
            f"not {err.encoding} text: byte 0x{data[offset]:02x} at offset {offset}",
            len((data[:offset] + b"_").splitlines()),
        )
    else:  # the file changed since it was read
        error = ParseError(f"not {err.encoding} text: {err.reason}")
    error.args = (f"{path}: {error}",)
    return error


def first_non_increase(t: np.ndarray) -> int | None:
    """Index of the first t that does not exceed the one before it, or None."""
    steps = np.flatnonzero(t[1:] <= t[:-1])
    return int(steps[0]) + 1 if steps.size else None


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


def _optional_cell(text: str) -> float:
    """_cell's rule for an optional cell, as a loadtxt converter."""
    text = text.strip()
    value = float(text) if text else math.nan
    if text and not math.isfinite(value):
        raise ValueError(text)
    return value


def read_csv_table(
    stream: IO[str], columns: Sequence[str], optional: Collection[str] = ()
) -> tuple[np.ndarray, list[int]]:
    """The named columns of a CSV with a header row, every cell checked.

    Returns an (n, len(columns)) float array, one row per non-blank data
    row, and the file line number of each row. Every cell must be a finite
    number; a cell of an optional column may be empty and reads as NaN.
    csv reads the header, numpy's C reader the rest; a quote, NUL, empty
    or over-long line (loadtxt skips empty ones), a bad cell or no required
    column (it keeps blank rows) hands the file to csv and _cell, which
    name the first bad line. Memory is the file's text plus the table.
    """
    file_lines = stream.readlines()
    reader = csv.reader(file_lines)
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file", line=1)
        positions = {name.strip(): i for i, name in enumerate(header)}
        for name in columns:
            if name not in positions:
                raise ParseError(f"missing column {name!r} in header {header}", line=1)
        cells = [(positions[name], name, name in optional) for name in columns]
        required = [not opt for _, _, opt in cells]
        body = file_lines[reader.line_num:]
        text = "".join(body)
        if (any(required) and body and not text.isspace() and '"' not in text
                and "\0" not in text and max(map(len, body)) <= csv.field_size_limit()):
            with suppress(ValueError):
                table = np.loadtxt(
                    body, delimiter=",", comments=None, usecols=[pos for pos, _, _ in cells],
                    ndmin=2, converters={pos: _optional_cell for pos, _, opt in cells if opt})
                if len(table) == len(body) and np.isfinite(table[:, required]).all():
                    return table, list(range(2, len(table) + 2))
        # Cell by cell, each non-blank row led by its line number.
        rows = ((line, row) for line, row in enumerate(reader, start=2) if "".join(row).strip())
        table = np.fromiter(chain.from_iterable(
            (line, *(_cell(row, *cell, line) for cell in cells)) for line, row in rows
        ), float).reshape(-1, len(cells) + 1)
        return table[:, 1:], table[:, 0].astype(int).tolist()
    except csv.Error as err:
        raise ParseError(f"malformed CSV: {err}", reader.line_num) from None


def write_csv_table(
    dest: str | Path, header: Sequence[str], columns: Sequence[np.ndarray]
) -> None:
    """A header row, then one row per index of the equal-length columns.

    Cells are repr of the float, which parses back bit for bit; NaN is
    written as an empty cell.
    """
    text = [["" if v != v else repr(v) for v in column.tolist()] for column in columns]
    with opened(dest, "w") as stream:
        stream.write(",".join(header) + "\n")
        stream.writelines(",".join(row) + "\n" for row in zip(*text))
