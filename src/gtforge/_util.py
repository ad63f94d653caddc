"""Small shared helpers: worker-count control, deterministic RNG streams,
fixed-width float formatting for serialized output, JSON-object config
loading."""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from .errors import ParseError

THREADS_ENV_VAR = "GT_FORGE_THREADS"

T = TypeVar("T")


def worker_count() -> int:
    """Worker cap from the GT_FORGE_THREADS environment variable (default 1).

    Outputs never depend on this value; it only limits concurrency.
    """
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {value}")
    return value


def derived_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent deterministic stream for (seed, stream).

    The pair seeds the generator's entropy pool, so distinct stream ids give
    statistically independent sequences and the same pair always reproduces
    the same sequence.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream))))


def ordered_map(fn: Callable[[T], object], items: Sequence[T]) -> list:
    """Map fn over items, possibly in parallel, preserving item order.

    Results are identical to a sequential loop regardless of worker count:
    work units are fixed by the caller and outputs are collected by index.
    """
    workers = min(worker_count(), len(items)) if items else 1
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def fmt_float(value: float) -> str:
    """Format a float with 9 significant digits for serialized records."""
    if value != value:
        raise ValueError("cannot serialize NaN")
    return f"{value:.9g}"


def json_object(value: object, source: str) -> Mapping:
    """value itself if it is a JSON object (a mapping); ParseError otherwise."""
    if not isinstance(value, Mapping):
        raise ParseError(f"{source}: expected a JSON object")
    return value


def load_json_object(path: str | Path) -> Mapping:
    """Read a JSON config file whose top level must be an object."""
    try:
        with Path(path).open("r") as stream:
            data = json.load(stream)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON: {err}")
    return json_object(data, str(path))
