"""Trajectory log model and CSV I/O.

Two on-disk schemas, both CSV with a header row:

  geodetic: t,lat,lon,alt,ve,vn,heading_deg,yaw_rate
  utm:      t,x,y,alt,vx,vy,psi_rad,psi_dot

Units are SI throughout (seconds, metres, m/s, rad/s). heading_deg is the
surveying convention, degrees clockwise from true north, and ve, vn are
true east and north; internally every orientation is psi, radians
counter-clockwise from grid east, wrapped to (-pi, pi]. A geodetic row
lands in the grid through its point's meridian convergence gamma and
point scale k: psi = wrap(pi/2 - radians(heading_deg) + gamma), and
(vx, vy) is (ve, vn) rotated counter-clockwise by gamma and scaled by k.
yaw_rate/psi_dot is the CCW yaw rate in rad/s in both schemas. alt and
psi_dot cells may be empty.

In memory a Trajectory holds one float64 array per channel (t, x, y, vx,
vy, psi, psi_dot, alt), with NaN for an empty optional cell, and checks
whole arrays at construction. The parser reads a log from its path,
still checks every cell and reports the first bad one with its file and
line number. Writing a UTM log and parsing it back reproduces the
trajectory bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ._util import first_non_increase, opened, read_csv_table, write_csv_table
from .egokin import wrap_angle
from .errors import CoordinateError, ParseError
from .geodesy import utm_to_wgs84, wgs84_to_utm

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

GEODETIC_COLUMNS = ("t", "lat", "lon", "alt", "ve", "vn", "heading_deg", "yaw_rate")
UTM_COLUMNS = ("t", "x", "y", "alt", "vx", "vy", "psi_rad", "psi_dot")
FRAMES = ("utm", "geodetic")

# Columns whose cells may be left empty; alt and psi_dot are also the
# names of the channels they fill.
_OPTIONAL = {"alt", "yaw_rate", "psi_dot"}
_CHANNELS = ("t", "x", "y", "vx", "vy", "psi", "psi_dot", "alt")


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class States:
    """Kinematic states in the projected plane: one float64 array per
    channel for many states, or one float per channel for a single state.

    x, y are easting/northing metres, vx, vy their time derivatives, psi
    the yaw and psi_dot its derivative, NaN where the yaw rate is unknown.
    What interpolants and the closed-form simulator return, and what the
    Monte Carlo sampler draws around. The times need not increase and no
    check is run; len() counts the states of the array form.
    """

    t: float | np.ndarray
    x: float | np.ndarray
    y: float | np.ndarray
    vx: float | np.ndarray
    vy: float | np.ndarray
    psi: float | np.ndarray
    psi_dot: float | np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One vehicle's log, one read-only float64 array per channel.

    Channels are those of States plus alt, which is carried through
    untouched. psi_dot and alt may be None, or hold NaN where the log left
    a cell empty; every other value must be finite, psi must lie in
    (-pi, pi] and t must increase strictly.
    zone/hemisphere record which UTM zone the samples live in when known
    (set by the geodetic parser); purely synthetic trajectories leave them
    None.
    """

    vehicle_id: str
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    psi: np.ndarray
    psi_dot: np.ndarray | None = None
    alt: np.ndarray | None = None
    zone: int | None = None
    hemisphere: str | None = None

    def __post_init__(self) -> None:
        n = len(self.t)
        if n == 0:
            raise ValueError("trajectory needs at least one sample")
        for name in _CHANNELS:
            value = getattr(self, name)
            arr = np.full(n, math.nan) if value is None else np.array(value, dtype=float)
            if arr.shape != (n,):
                raise ValueError("channel arrays must have equal length")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            bad = np.isinf(arr) if name in _OPTIONAL else ~np.isfinite(arr)
            if bad.any():
                raise ValueError(f"{name} must be finite, got {float(arr[bad][0])!r}")
        outside = ~(self.psi > -math.pi) | (self.psi > math.pi)
        if outside.any():
            raise ValueError(f"psi must lie in (-pi, pi], got {self.psi[outside][0]}")
        i = first_non_increase(self.t)
        if i is not None:
            raise ValueError(
                f"vehicle {self.vehicle_id!r}: t[{i}]={self.t[i]} does not "
                f"increase past t[{i - 1}]={self.t[i - 1]}"
            )

    def __reduce__(self):
        # Rebuilt through the constructor, which checks the channels again
        # and makes them read-only; the default would restore writeable ones.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __len__(self) -> int:
        return len(self.t)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.t[0]), float(self.t[-1])

    @property
    def has_yaw_rate(self) -> bool:
        return not np.isnan(self.psi_dot).any()


@dataclass(frozen=True)
class ClockModel:
    """Affine clock correction: t -> t - offset - drift * (t - t0).

    t0 is the first timestamp of the trajectory being adjusted. offset in
    seconds, drift dimensionless; |drift| must stay below 1 so ordering is
    preserved.
    """

    offset: float = 0.0
    drift: float = 0.0

    def __post_init__(self) -> None:
        _finite("offset", self.offset)
        _finite("drift", self.drift)
        if abs(self.drift) >= 1.0:
            raise ValueError(f"|drift| must be < 1, got {self.drift}")


def apply_clock_model(traj: Trajectory, clock: ClockModel) -> Trajectory:
    """Retime a trajectory under an affine clock correction."""
    t = traj.t
    return replace(traj, t=t - clock.offset - clock.drift * (t - t[0]))


def parse_trajectory_log(
    source: str | Path,
    frame: str = "utm",
    forced_zone: int | None = None,
) -> Trajectory:
    """Read a trajectory CSV in either schema into the internal UTM model.

    Geodetic logs are projected into a single zone: forced_zone if given,
    otherwise the zone of the first row, so a session that brushes a zone
    boundary stays in one consistent plane. The first row's hemisphere sets
    the false northing of every row. Each row's heading and (ve, vn), taken
    from true north, are turned into the grid by its meridian convergence
    gamma: psi = wrap(pi/2 - radians(heading) + gamma), and (vx, vy) is
    (ve, vn) rotated counter-clockwise by gamma and scaled by the point
    scale k, as the projected positions are. Errors name the line of the
    first bad cell, else of the first t that does not increase, else of the
    first bad coordinate; a bad forced_zone names no line. Every error
    names the file. The vehicle id is the file stem.
    """
    if frame not in FRAMES:
        raise ValueError(f"frame must be one of {FRAMES}, got {frame!r}")
    columns = UTM_COLUMNS if frame == "utm" else GEODETIC_COLUMNS
    with opened(source) as stream:
        table, lines = read_csv_table(stream, columns, _OPTIONAL)
        if not lines:
            raise ParseError("no data rows", line=2)
        t, x, y, alt, vx, vy, angle, psi_dot = table.T
        i = first_non_increase(t)
        if i is not None:
            raise ParseError(
                f"t={t[i]} does not increase past t={t[i - 1]} on line {lines[i - 1]}", lines[i]
            )
        zone = hemisphere = None
        if frame == "geodetic":
            try:
                x, y, zone, hemisphere, gamma, k = wgs84_to_utm(x, y, forced_zone)
            except CoordinateError as err:
                raise ParseError(str(err), None if err.index is None else lines[err.index])
            # Heading and (ve, vn) are from true north: turn them by gamma
            # into the grid, and scale the velocity by k as the positions.
            angle = math.pi / 2.0 - np.radians(angle) + gamma
            kc, ks = k * np.cos(gamma), k * np.sin(gamma)
            vx, vy = kc * vx - ks * vy, ks * vx + kc * vy
    return Trajectory(
        Path(source).stem, t, x, y, vx, vy, wrap_angle(angle), psi_dot, alt,
        zone=zone, hemisphere=hemisphere,
    )


def write_trajectory_log(traj: Trajectory, dest: str | Path, frame: str = "utm") -> None:
    """Write a trajectory CSV.

    The UTM schema round-trips bit-exactly through parse_trajectory_log.
    Writing the geodetic schema needs the trajectory's zone/hemisphere and
    round-trips only to projection accuracy; it undoes the parser's grid
    turn: heading = (90 - degrees(psi - gamma)) mod 360, and (ve, vn) is
    (vx, vy) rotated clockwise by gamma and divided by k.
    """
    if frame not in FRAMES:
        raise ValueError(f"frame must be one of {FRAMES}, got {frame!r}")
    if frame == "utm":
        header = UTM_COLUMNS
        cells = (traj.t, traj.x, traj.y, traj.alt, traj.vx, traj.vy, traj.psi, traj.psi_dot)
    else:
        if traj.zone is None or traj.hemisphere is None:
            raise ValueError(
                "geodetic export needs a trajectory with zone/hemisphere metadata"
            )
        header = GEODETIC_COLUMNS
        lat, lon, gamma, k = utm_to_wgs84(traj.x, traj.y, traj.zone, traj.hemisphere)
        heading = np.mod(90.0 - np.degrees(traj.psi - gamma), 360.0)
        kc, ks = np.cos(gamma) / k, np.sin(gamma) / k
        ve, vn = kc * traj.vx + ks * traj.vy, kc * traj.vy - ks * traj.vx
        cells = (traj.t, lat, lon, traj.alt, ve, vn, heading, traj.psi_dot)
    write_csv_table(dest, header, cells)


def trajectory_from_arrays(
    vehicle_id: str,
    t: ArrayLike,
    x: ArrayLike,
    y: ArrayLike,
    vx: ArrayLike,
    vy: ArrayLike,
    psi: ArrayLike,
    psi_dot: ArrayLike | None = None,
    zone: int | None = None,
    hemisphere: str | None = None,
) -> Trajectory:
    """Trajectory from parallel channel arrays; psi is wrapped into (-pi, pi]."""
    return Trajectory(
        vehicle_id, t, x, y, vx, vy, wrap_angle(np.asarray(psi, dtype=float)), psi_dot,
        zone=zone, hemisphere=hemisphere,
    )
