"""Fixture builders shared by the tests.

None of these is on a subcommand's path, so they live here rather than in
the package: two scenario builders, bitwise trajectory comparison, the
pose-stream writer, an SE(2) transform and its composition for building a
second pose stream from a first, the inverse of egokin.relative_state that the round-trip
test uses as oracle, and the meridian convergence and point scale read off
a short northward step of the projection.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from gtforge._util import write_csv_table
from gtforge import geodesy
from gtforge.calib import POSE_COLUMNS
from gtforge.egokin import RelativeState, wrap_angle
from gtforge.synth import RunSpec, Scenario, StadiumTrack
from gtforge.trajlog import States, Trajectory
from gtforge.uncert import NoiseModel


def straight_trajectory(
    vehicle_id: str,
    start: tuple[float, float],
    heading: float,
    speed: float,
    duration: float,
    rate: float,
) -> Trajectory:
    """Constant-velocity straight-line log (speed 0 gives a parked vehicle).

    Covers clock studies that need motion geometry the closed track cannot
    produce, e.g. two vehicles approaching head-on.
    """
    count = int(math.floor(duration * rate + 1e-9))
    t = np.arange(count + 1) / rate
    psi = wrap_angle(float(heading))
    vx = speed * math.cos(psi)
    vy = speed * math.sin(psi)
    return Trajectory(
        vehicle_id, t, start[0] + vx * t, start[1] + vy * t,
        np.full_like(t, vx), np.full_like(t, vy), np.full_like(t, psi), np.zeros_like(t),
    )


def make_lead_follow(
    gap: float,
    speed: float,
    duration: float,
    rate: float,
    track: StadiumTrack | None = None,
    noise: NoiseModel | None = None,
    seed: int = 0,
) -> Scenario:
    """Vehicles "ego" and "lead" on the same track at the same speed, the
    lead ahead by a fixed arc gap."""
    ego = RunSpec(id="ego", duration=duration, rate=rate, speed_profile=((0.0, speed),))
    lead = RunSpec(
        id="lead", duration=duration, rate=rate, speed_profile=((0.0, speed),),
        start_offset=gap,
    )
    return Scenario(
        track=track if track is not None else StadiumTrack(),
        vehicles=(ego, lead),
        noise=noise,
        seed=seed,
    )


def same_trajectory(a: Trajectory, b: Trajectory) -> bool:
    """Same ids, zone and hemisphere, and every channel the same bytes."""
    return (a.vehicle_id, a.zone, a.hemisphere) == (b.vehicle_id, b.zone, b.hemisphere) and all(
        getattr(a, c).tobytes() == getattr(b, c).tobytes()
        for c in ("t", "x", "y", "vx", "vy", "psi", "psi_dot", "alt")
    )


def write_pose_stream(poses: np.ndarray, dest) -> None:
    """Write an (N, 4) pose array as the t,x,y,theta CSV calibrate reads."""
    write_csv_table(dest, POSE_COLUMNS, np.asarray(poses, dtype=float).T)


class Transform(NamedTuple):
    """SE(2) element: rotation by theta then translation by (tx, ty)."""

    theta: float
    tx: float
    ty: float


def compose(poses: np.ndarray, x: Transform) -> np.ndarray:
    """Stream b = a o X: each (t, x, y, theta) pose of a followed by x.

    Pose b_i maps a point p to a_i(X(p)), so b_i's translation is a_i
    applied to X's and its rotation is theta_a + theta_X, wrapped.
    """
    t, px, py, theta = np.asarray(poses, dtype=float).T
    c = np.cos(theta)
    s = np.sin(theta)
    return np.stack(
        (t, c * x.tx - s * x.ty + px, s * x.tx + c * x.ty + py, wrap_angle(theta + x.theta)),
        axis=1,
    )


def utm_from_relative(ego, rel: RelativeState) -> States:
    """Rebuild the target's world-frame state from an ego-frame observation.

    Inverse of relative_state given the same single ego state (float
    channels). The returned States has a NaN yaw rate (a single relative
    observation does not carry the target's own psi_dot).
    """
    c = math.cos(ego.psi)
    s = math.sin(ego.psi)
    dx = rel.x * c - rel.y * s
    dy = rel.x * s + rel.y * c
    u = rel.vx * c - rel.vy * s
    v = rel.vx * s + rel.vy * c
    return States(
        t=ego.t,
        x=ego.x + dx,
        y=ego.y + dy,
        vx=ego.vx + u - ego.psi_dot * dy,
        vy=ego.vy + v + ego.psi_dot * dx,
        psi=wrap_angle(rel.psi + ego.psi),
        psi_dot=math.nan,
    )


def meridian_radius(lat_deg):
    """Radius of curvature of the WGS-84 meridian at latitude lat_deg."""
    e2 = geodesy.WGS84_F * (2.0 - geodesy.WGS84_F)
    return geodesy.WGS84_A * (1.0 - e2) / (1.0 - e2 * np.sin(np.radians(lat_deg)) ** 2) ** 1.5


def grid_north_by_step(lat, lon, zone: int, step_deg: float = 1e-6):
    """(gamma, k) at each point from the projected positions of a
    +/-step_deg step along its meridian, not from the kernel's own gamma
    and k: the step's grid bearing is -gamma, and its grid length over its
    true length M * dphi is the point scale k."""
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    south, north = lat - step_deg, lat + step_deg
    e0, n0 = geodesy.wgs84_to_utm(south, lon, zone)[:2]
    e1, n1 = geodesy.wgs84_to_utm(north, lon, zone)[:2]
    de, dn = e1 - e0, n1 - n0
    arc = meridian_radius(lat) * np.radians(north - south)
    return -np.arctan2(de, dn), np.hypot(de, dn) / arc
