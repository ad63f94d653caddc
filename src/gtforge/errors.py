"""Exception types shared across the toolkit.

GtForgeError is data the computation cannot use (too few samples, stamps
outside the logs, degenerate calibration motion, ...); the CLI exits 1 on
it. ParseError (a malformed input file, with its line when known) and
CoordinateError (a coordinate the projection cannot take, with the index
of the first bad point) are faults in the input itself; the CLI exits 2 on
them, as on ValueError and OSError.
"""

from __future__ import annotations


class GtForgeError(Exception):
    """Base class for all toolkit errors."""


class CoordinateError(GtForgeError):
    """A coordinate the projection cannot take: out of range, non-finite
    or too far from the zone's central meridian."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class ParseError(GtForgeError):
    """Malformed input file. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
