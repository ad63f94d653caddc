"""Continuous-time view of a sampled trajectory.

One cubic Hermite per channel over the logged timestamps (de Boor, A
Practical Guide to Splines, 2001, ch. IV): on each interval, the cubic
that takes the logged values and given slopes at its two knots. So every
value depends on the two bracketing rows and their slopes only, and the
values at the knots are the logged samples bit for bit. The slopes are:

- for x and y, the logged vx and vy;
- for the yaw, unwrapped first (each sample shifted by the multiple of
  2 pi that puts every step in (-pi, pi]) so crossings of the +/-pi seam
  stay smooth, the logged psi_dot when every sample has one;
- for vx, vy, a logged psi_dot and a yaw without one, which carry no
  logged derivative, the derivative at each knot of the quartic through
  it and its two neighbours on each side; at the two knots at each end,
  np.gradient's second-order one. These fourth-order slopes keep the
  error between knots O(h^4) on smooth data.

Evaluations wrap the yaw back. The yaw-rate channel is the logged psi_dot
when every sample has one, otherwise the derivative of the yaw Hermite.
Evaluation is strictly limited to the logged support; there is no
extrapolation. Fewer than MIN_SAMPLES samples, or a time outside the
support, raise GtForgeError.
"""

from __future__ import annotations

import math

import numpy as np

from .egokin import wrap_angle
from .errors import GtForgeError
from .trajlog import States, Trajectory

MIN_SAMPLES = 4


def _unwrap(psi: np.ndarray) -> np.ndarray:
    """psi, with 2 pi subtracted for every earlier step above pi and added
    for every earlier step at or below -pi, so each step lies in (-pi, pi].
    Samples before the first seam crossing are kept bit for bit."""
    step = np.diff(psi)
    crossings = np.cumsum(step > math.pi) - np.cumsum(step <= -math.pi)
    out = psi.copy()
    out[1:] -= 2.0 * math.pi * crossings
    return out


def _quartic_slopes(t: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Slopes at the knots t of each row of ys, shape (k, n), n >= 3.

    At knot j, the derivative of the quartic through knots j-2..j+2, as
    Lagrange weights on the offsets d_l = t[j+l] - t[j] applied to the
    differences y[j+l] - y[j]; at the two knots at each end,
    np.gradient(edge_order=2).
    """
    n = len(t)
    out = np.empty_like(ys)
    out[:, :2] = np.gradient(ys[:, :3], t[:3], axis=1, edge_order=2)[:, :2]
    out[:, -2:] = np.gradient(ys[:, -3:], t[-3:], axis=1, edge_order=2)[:, 1:]
    if n > 4:
        mid = slice(2, n - 2)
        offsets = [slice(2 + l, n - 2 + l) for l in (-2, -1, 1, 2)]
        d = [t[s] - t[mid] for s in offsets]
        slope = 0.0
        for k, s in enumerate(offsets):
            w = 1.0 / d[k]
            for l, dl in enumerate(d):
                if l != k:
                    w = w * (dl / (dl - d[k]))
            slope = slope + w * (ys[:, s] - ys[:, mid])
        out[:, mid] = slope
    return out


class TrajectoryInterpolant:
    """C1 interpolant of one vehicle's motion; build with build_interpolant."""

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
        # Rows: x, y, vx, vy, unwrapped psi, then the logged psi_dot when
        # there is one; _m holds each row's slopes at the knots.
        psi = _unwrap(traj.psi)
        if self.has_logged_yaw_rate:
            self._y = np.stack((traj.x, traj.y, traj.vx, traj.vy, psi, traj.psi_dot))
            rates = _quartic_slopes(self._t, self._y[[2, 3, 5]])
            self._m = np.stack((traj.vx, traj.vy, rates[0], rates[1], traj.psi_dot, rates[2]))
        else:
            self._y = np.stack((traj.x, traj.y, traj.vx, traj.vy, psi))
            self._m = np.concatenate(
                ((traj.vx, traj.vy), _quartic_slopes(self._t, self._y[2:]))
            )

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
        t = self._t
        i = np.clip(np.searchsorted(t, arr, side="right") - 1, 0, len(t) - 2)
        j = i + 1
        h = t[j] - t[i]
        u = (arr - t[i]) / h
        v = 1.0 - u
        y0, y1 = self._y[:, i], self._y[:, j]
        m0, m1 = self._m[:, i], self._m[:, j]
        uv = u * v
        values = (1.0 + 2.0 * u) * v * v * y0 + (1.0 + 2.0 * v) * u * u * y1
        values += (h * v * uv) * m0 - (h * u * uv) * m1
        x, y, vx, vy, psi, *logged_rate = values
        if logged_rate:
            psi_dot = logged_rate[0]
        else:  # the derivative of the yaw Hermite
            psi_dot = (6.0 * uv / h * (y1[4] - y0[4]) + v * (1.0 - 3.0 * u) * m0[4]
                       + u * (3.0 * u - 2.0) * m1[4])
        return States(arr, x, y, vx, vy, wrap_angle(psi), psi_dot)


def build_interpolant(traj: Trajectory) -> TrajectoryInterpolant:
    return TrajectoryInterpolant(traj)
