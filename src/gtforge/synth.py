"""Synthetic multi-vehicle scenarios with analytically known kinematics.

Vehicles drive a stadium track (two straights joined by two half-circles)
following piecewise-linear speed profiles, so position, velocity, yaw and
yaw rate are available in closed form at any time. Logs sampled from these
runs can be corrupted with the standard per-channel Gaussian noise and an
affine clock error, giving test data whose ground truth is exact.

A Scenario is plain config: simulate reads it from JSON with
_util.load_config, so its keys, and each vehicle's, are the fields of
Scenario and RunSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import derived_rng, positive
from .egokin import wrap_angle
from .trajlog import ClockModel, States, Trajectory, apply_clock_model
from .uncert import NoiseModel

# Defaults give a 3.2 km lap: 2 x 1100 m straights + 1 km of curve.
DEFAULT_STRAIGHT_LEN = 1100.0
DEFAULT_CURVE_RADIUS = 1000.0 / math.tau


@dataclass(frozen=True)
class StadiumTrack:
    """Closed counter-clockwise stadium, parameterized by arc length.

    Starts at the origin heading +x along the first straight; the first
    half-circle turns left. Headings are continuous in arc length (one lap
    adds 2 pi), curvature is 0 on straights and 1/radius on curves.
    """

    straight_len: float = DEFAULT_STRAIGHT_LEN
    curve_radius: float = DEFAULT_CURVE_RADIUS

    def __post_init__(self) -> None:
        positive("straight_len", self.straight_len)
        positive("curve_radius", self.curve_radius)

    @property
    def length(self) -> float:
        return 2.0 * self.straight_len + math.tau * self.curve_radius

    def frame_at(self, s) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, heading, curvature) at arc positions s (array-valued)."""
        s = np.asarray(s, dtype=float)
        ls = self.straight_len
        r = self.curve_radius
        lap, u = np.divmod(s, self.length)

        x = np.empty_like(u)
        y = np.empty_like(u)
        heading = np.empty_like(u)
        curvature = np.zeros_like(u)

        b0 = ls                       # end of first straight
        b1 = ls + math.pi * r         # end of first curve
        b2 = 2.0 * ls + math.pi * r   # end of second straight

        m = u < b0
        x[m] = u[m]
        y[m] = 0.0
        heading[m] = 0.0

        m = (u >= b0) & (u < b1)
        phi = (u[m] - b0) / r
        x[m] = ls + r * np.sin(phi)
        y[m] = r - r * np.cos(phi)
        heading[m] = phi
        curvature[m] = 1.0 / r

        m = (u >= b1) & (u < b2)
        d = u[m] - b1
        x[m] = ls - d
        y[m] = 2.0 * r
        heading[m] = math.pi

        m = u >= b2
        phi = (u[m] - b2) / r
        x[m] = -r * np.sin(phi)
        y[m] = r + r * np.cos(phi)
        heading[m] = math.pi + phi
        curvature[m] = 1.0 / r

        return x, y, heading + math.tau * lap, curvature


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """One vehicle's run on the track, and the clock error of its log.

    id names the vehicle and its log files, so it must be a file stem:
    non-empty, with no '/', '\\' or NUL. A run has at most 2**59 samples.
    speed_profile is a tuple of (time, speed) knots; speed is interpolated
    linearly between knots and held constant outside them, so plateaus
    with linear ramps are expressed directly and travelled distance
    integrates exactly. start_offset is the arc position at t = 0. clock,
    when given, retimes the recorded log.
    """

    id: str
    duration: float
    rate: float
    speed_profile: tuple[tuple[float, float], ...]
    start_offset: float = 0.0
    clock: ClockModel | None = None

    def __post_init__(self) -> None:
        if not self.id or any(c in self.id for c in "/\\\0"):
            raise ValueError(
                f"id must be a file stem (non-empty, no '/', '\\' or NUL), got {self.id!r}"
            )
        positive("duration", self.duration)
        positive("rate", self.rate)
        # sample_times makes floor(duration * rate) + 1 floats. numpy refuses
        # arrays near 2**63 bytes with a ValueError; 2**59 floats (4 EiB)
        # is already beyond any memory, so a longer run is a config error.
        if self.duration * self.rate + 1e-9 >= 2**59:
            raise ValueError(
                f"duration * rate gives {self.duration * self.rate:g} samples, "
                f"more than 2**59"
            )
        if not math.isfinite(self.start_offset):
            raise ValueError("start_offset must be finite")
        profile = self.speed_profile
        if not profile:
            raise ValueError("speed_profile must have at least one knot")
        for i, (t, v) in enumerate(profile):
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ValueError("speed_profile knots must be finite")
            if v < 0.0:
                raise ValueError(f"speeds must be >= 0, got {v}")
            if i and t <= profile[i - 1][0]:
                raise ValueError("speed_profile times must increase strictly")

    def speed_at(self, t) -> np.ndarray:
        times = np.array([k[0] for k in self.speed_profile])
        speeds = np.array([k[1] for k in self.speed_profile])
        return np.interp(np.asarray(t, dtype=float), times, speeds)

    def distance_at(self, t) -> np.ndarray | float:
        """Exact arc length travelled between time 0 and t (quadrature-free:
        the profile is piecewise linear, so the integral is piecewise
        quadratic)."""
        times = np.array([k[0] for k in self.speed_profile])
        speeds = np.array([k[1] for k in self.speed_profile])
        knot_area = np.concatenate(
            ([0.0], np.cumsum(0.5 * (speeds[1:] + speeds[:-1]) * np.diff(times)))
        )

        def anti(tt: np.ndarray) -> np.ndarray:
            out = np.empty_like(tt)
            before = tt <= times[0]
            out[before] = speeds[0] * (tt[before] - times[0])
            after = tt >= times[-1]
            out[after] = knot_area[-1] + speeds[-1] * (tt[after] - times[-1])
            mid = ~(before | after)
            if np.any(mid):
                idx = np.searchsorted(times, tt[mid], side="right") - 1
                tm = tt[mid]
                v0 = speeds[idx]
                v1 = np.interp(tm, times, speeds)
                out[mid] = knot_area[idx] + 0.5 * (v0 + v1) * (tm - times[idx])
            return out

        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = anti(t) - anti(np.zeros(1))
        return float(out[0]) if scalar else out


def run_states(track: StadiumTrack, run: RunSpec, times) -> States:
    """Closed-form vehicle states at the given times."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    v = run.speed_at(t)
    x, y, heading, curvature = track.frame_at(run.start_offset + run.distance_at(t))
    return States(
        t, x, y, v * np.cos(heading), v * np.sin(heading), wrap_angle(heading),
        curvature * v,
    )


def sample_times(run: RunSpec) -> np.ndarray:
    count = int(math.floor(run.duration * run.rate + 1e-9))
    return np.arange(count + 1) / run.rate


def simulate_run(track: StadiumTrack, run: RunSpec) -> Trajectory:
    """Noise-free log of one run, named run.id, sampled at the run's rate
    from t = 0."""
    s = run_states(track, run, sample_times(run))
    return Trajectory(run.id, s.t, s.x, s.y, s.vx, s.vy, s.psi, s.psi_dot)


def corrupt(
    traj: Trajectory,
    nm: NoiseModel | None,
    clock: ClockModel | None = None,
    seed: int = 0,
    stream: int = 0,
) -> Trajectory:
    """Simulate an imperfect log: white Gaussian noise per channel, then the
    clock model. Deterministic for fixed (seed, stream); zero noise and no
    clock reproduce the input exactly. A missing yaw rate stays missing.
    """
    out = traj
    if nm is not None:
        rng = derived_rng(seed, stream)
        n = len(traj)
        ex = rng.normal(0.0, nm.sigma_pos, n)
        ey = rng.normal(0.0, nm.sigma_pos, n)
        evx = rng.normal(0.0, nm.sigma_vel, n)
        evy = rng.normal(0.0, nm.sigma_vel, n)
        epsi = rng.normal(0.0, nm.sigma_psi, n)
        erate = rng.normal(0.0, nm.sigma_psi_dot, n)
        out = replace(
            traj,
            x=traj.x + ex, y=traj.y + ey, vx=traj.vx + evx, vy=traj.vy + evy,
            psi=wrap_angle(traj.psi + epsi), psi_dot=traj.psi_dot + erate,
        )
    if clock is not None:
        out = apply_clock_model(out, clock)
    return out


@dataclass(frozen=True)
class Scenario:
    """A full synthetic session: one run per vehicle, the track, an optional
    noise model (shared) and one master seed."""

    vehicles: tuple[RunSpec, ...]
    track: StadiumTrack = StadiumTrack()
    noise: NoiseModel | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.vehicles:
            raise ValueError("scenario needs at least one vehicle")
        ids = [run.id for run in self.vehicles]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate vehicle ids in scenario: {ids}")


def run_scenario(scenario: Scenario) -> dict[str, tuple[Trajectory, Trajectory]]:
    """Simulate every vehicle; returns id -> (clean log, recorded log).

    The recorded log carries the scenario noise and the vehicle's clock
    error. Noise streams are derived per vehicle index from the scenario
    seed, so output is deterministic regardless of evaluation order.
    """
    out: dict[str, tuple[Trajectory, Trajectory]] = {}
    for index, run in enumerate(scenario.vehicles):
        clean = simulate_run(scenario.track, run)
        recorded = corrupt(clean, scenario.noise, run.clock, seed=scenario.seed, stream=index)
        out[run.id] = (clean, recorded)
    return out
