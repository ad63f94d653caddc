"""Continuous-time view of a sampled trajectory.

Natural cubic splines per channel over the logged timestamps, from the
in-repo kernel in spline.py, which reproduces
scipy.interpolate.CubicSpline(bc_type="natural") bit for bit. Yaw is
unwrapped before fitting (successive deltas mapped to (-pi, pi], then
accumulated) so crossings of the +/-pi seam stay smooth; evaluations wrap
the result back. The yaw-rate channel uses the logged psi_dot when every
sample has one, otherwise the derivative of the yaw spline. Evaluation is
strictly limited to the logged support; there is no extrapolation.
Fewer than MIN_SAMPLES samples, or a time outside the support, raise
GtForgeError.
"""

from __future__ import annotations

import numpy as np

from . import spline
from .egokin import wrap_angle
from .errors import GtForgeError
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
            raise GtForgeError(
                f"vehicle {traj.vehicle_id!r} has {len(traj)} samples, "
                f"need at least {MIN_SAMPLES} for a cubic interpolant"
            )
        self.vehicle_id = traj.vehicle_id
        self.support = traj.support
        self._t = traj.t
        self.has_logged_yaw_rate = traj.has_yaw_rate
        # Channels: x, y, vx, vy, unwrapped psi, then the logged psi_dot
        # when there is one.
        channels = [traj.x, traj.y, traj.vx, traj.vy, _unwrap(traj.psi)]
        if self.has_logged_yaw_rate:
            channels.append(traj.psi_dot)
        self._c = spline.coefficients(self._t, np.stack(channels))
        self._dpsi = spline.derivative(self._c[:, 4:5])

    def _at(self, c: np.ndarray, times: np.ndarray) -> np.ndarray:
        return spline.evaluate(self._t, c, times)

    def _check(self, times: np.ndarray) -> None:
        t0, t1 = self.support
        bad = times[(times < t0) | (times > t1)]
        if bad.size:
            shown = ", ".join(f"{v:g}" for v in bad[:5])
            raise GtForgeError(
                f"vehicle {self.vehicle_id!r}: {bad.size} stamp(s) outside "
                f"support [{t0:g}, {t1:g}]: {shown}"
            )

    def states_at(self, times) -> States:
        """Evaluate every channel at the given times (all inside support)."""
        arr = np.atleast_1d(np.asarray(times, dtype=float))
        self._check(arr)
        x, y, vx, vy, psi, *psi_dot = self._at(self._c, arr)
        if not psi_dot:
            psi_dot = self._at(self._dpsi, arr)
        return States(arr, x, y, vx, vy, wrap_angle(psi), psi_dot[0])

    def velocity_consistency_rms(self) -> tuple[float, float]:
        """RMS gap between logged velocities and position-spline derivatives.

        Evaluated at the knots; a diagnostic for disagreeing position and
        velocity channels, never an error.
        """
        slope = self._at(spline.derivative(self._c[:, 0:2]), self._t)
        gap = slope - self._at(self._c[:, 2:4], self._t)
        rms_x, rms_y = (float(np.sqrt(np.mean(g**2))) for g in gap)
        return rms_x, rms_y

    def yaw_rate_consistency_rms(self) -> float | None:
        """RMS gap between the yaw-spline derivative and logged psi_dot.

        None when the log carried no yaw rate (the channel is then the
        derivative itself).
        """
        if not self.has_logged_yaw_rate:
            return None
        gap = self._at(self._dpsi, self._t) - self._at(self._c[:, 5:6], self._t)
        return float(np.sqrt(np.mean(gap**2)))


def build_interpolant(traj: Trajectory) -> TrajectoryInterpolant:
    return TrajectoryInterpolant(traj)
