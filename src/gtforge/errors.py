"""Exception types shared across the toolkit.

Every error raised on bad input or unusable data derives from GtForgeError so
callers (and the CLI) can distinguish domain failures from programming errors.
"""

from __future__ import annotations


class GtForgeError(Exception):
    """Base class for all toolkit errors."""


class CoordinateError(GtForgeError):
    """A coordinate the projection cannot take. For an array of points,
    index is the position of the first bad one."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class InvalidCoordinate(CoordinateError):
    """Latitude/longitude outside the valid range, or non-finite."""


class OutOfZone(CoordinateError):
    """Point too far from the requested UTM zone's central meridian."""


class ParseError(GtForgeError):
    """Malformed input file. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingColumn(ParseError):
    """Input file header lacks a required column."""


class NonMonotonicTimestamps(GtForgeError):
    """Trajectory timestamps are not strictly increasing."""


class TooFewSamples(GtForgeError):
    """Not enough samples to build a cubic interpolant."""


class OutOfSupport(GtForgeError):
    """Evaluation time outside the interpolant's support interval."""


class MissingYawRate(GtForgeError):
    """Ego yaw rate required but absent from the state."""


class ZoneMismatch(GtForgeError):
    """Trajectories were projected into different UTM zones."""


class TooFewPoses(GtForgeError):
    """Pose stream too short to form motion increments."""


class LengthMismatch(GtForgeError):
    """Paired pose streams have different lengths."""


class DegenerateMotion(GtForgeError):
    """Not enough rotational excitation to make hand-eye solvable."""
