"""Continuous-time view of a sampled trajectory.

Natural cubic splines per channel over the logged timestamps. Yaw is
unwrapped before fitting (successive deltas mapped to (-pi, pi], then
accumulated) so crossings of the +/-pi seam stay smooth; evaluations wrap
the result back. The yaw-rate channel uses the logged psi_dot when every
sample has one, otherwise the derivative of the yaw spline. Evaluation is
strictly limited to the logged support; there is no extrapolation.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

from .egokin import wrap_angle
from .errors import OutOfSupport, TooFewSamples
from .trajlog import States, Trajectory

MIN_SAMPLES = 4


def _unwrap(psi: np.ndarray) -> np.ndarray:
    deltas = wrap_angle(np.diff(psi))
    out = np.empty_like(psi)
    out[0] = psi[0]
    out[1:] = psi[0] + np.cumsum(deltas)
    return out


class TrajectoryInterpolant:
    """C2 interpolant of one vehicle's motion; build with build_interpolant."""

    def __init__(self, traj: Trajectory):
        if len(traj) < MIN_SAMPLES:
            raise TooFewSamples(
                f"vehicle {traj.vehicle_id!r} has {len(traj)} samples, "
                f"need at least {MIN_SAMPLES} for a cubic interpolant"
            )
        self.vehicle_id = traj.vehicle_id
        self.zone = traj.zone
        self.hemisphere = traj.hemisphere
        t = traj.t
        self._t = t
        self._x = CubicSpline(t, traj.x, bc_type="natural")
        self._y = CubicSpline(t, traj.y, bc_type="natural")
        self._vx = CubicSpline(t, traj.vx, bc_type="natural")
        self._vy = CubicSpline(t, traj.vy, bc_type="natural")
        self._psi = CubicSpline(t, _unwrap(traj.psi), bc_type="natural")
        self.has_logged_yaw_rate = traj.has_yaw_rate
        if self.has_logged_yaw_rate:
            self._psi_dot = CubicSpline(t, traj.psi_dot, bc_type="natural")
        else:
            self._psi_dot = self._psi.derivative()

    @property
    def support(self) -> tuple[float, float]:
        return float(self._t[0]), float(self._t[-1])

    def _check(self, times: np.ndarray) -> None:
        t0, t1 = self.support
        bad = times[(times < t0) | (times > t1)]
        if bad.size:
            shown = ", ".join(f"{v:g}" for v in bad[:5])
            raise OutOfSupport(
                f"vehicle {self.vehicle_id!r}: {bad.size} stamp(s) outside "
                f"support [{t0:g}, {t1:g}]: {shown}"
            )

    def states_at(self, times) -> States:
        """Evaluate every channel at the given times (all inside support)."""
        arr = np.atleast_1d(np.asarray(times, dtype=float))
        self._check(arr)
        return States(
            arr, self._x(arr), self._y(arr), self._vx(arr), self._vy(arr),
            wrap_angle(self._psi(arr)), self._psi_dot(arr),
        )

    def velocity_consistency_rms(self) -> tuple[float, float]:
        """RMS gap between logged velocities and position-spline derivatives.

        Evaluated at the knots; a diagnostic for disagreeing position and
        velocity channels, never an error.
        """
        dx = self._x.derivative()(self._t) - self._vx(self._t)
        dy = self._y.derivative()(self._t) - self._vy(self._t)
        return (
            float(np.sqrt(np.mean(dx**2))),
            float(np.sqrt(np.mean(dy**2))),
        )

    def yaw_rate_consistency_rms(self) -> float | None:
        """RMS gap between the yaw-spline derivative and logged psi_dot.

        None when the log carried no yaw rate (the channel is then the
        derivative itself).
        """
        if not self.has_logged_yaw_rate:
            return None
        gap = self._psi.derivative()(self._t) - self._psi_dot(self._t)
        return float(np.sqrt(np.mean(gap**2)))


def build_interpolant(traj: Trajectory) -> TrajectoryInterpolant:
    return TrajectoryInterpolant(traj)
