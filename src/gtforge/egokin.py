"""Relative kinematics of a target vehicle in the rotating ego frame.

Both vehicles live in one projected Cartesian plane (east x, north y, yaw
psi CCW from East). The ego frame has its x axis along the ego yaw; because
that frame rotates at the ego yaw rate, relative velocity picks up the
familiar transport terms +psi_dot*dy / -psi_dot*dx before rotation.
Without an ego yaw rate those terms are unknown and relative_state raises
GtForgeError.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import GtForgeError

_TWO_PI = 2.0 * math.pi


def wrap_angle(angle):
    """Wrap an angle (a float or an array) into (-pi, pi].

    One arithmetic path for both: a float (any 0-d input) comes back as a
    float, an array as a new array. Values already inside the interval
    are returned unchanged, bit for bit.
    """
    arr = np.asarray(angle, dtype=float)
    inside = (arr > -math.pi) & (arr <= math.pi)
    if inside.all():
        out = arr.copy()
    else:
        wrapped = np.mod(arr + math.pi, _TWO_PI) - math.pi
        wrapped = np.where(wrapped == -math.pi, math.pi, wrapped)
        out = np.where(inside, arr, wrapped)
    return float(out) if out.ndim == 0 else out


class RelativeState(NamedTuple):
    """Target kinematics in the ego frame, as floats or as arrays.

    x points along the ego yaw, y to its left; vx, vy are the apparent
    velocity in that rotating frame and psi the relative yaw in (-pi, pi].
    """

    x: float | np.ndarray
    y: float | np.ndarray
    vx: float | np.ndarray
    vy: float | np.ndarray
    psi: float | np.ndarray


def relative_state(ego, target) -> RelativeState:
    """Target position, velocity and yaw in the rotating ego frame.

    ego and target carry x, y, vx, vy, psi (and ego psi_dot) as floats or
    as equal-length arrays: States or a Trajectory. The position is
    R(-psi_ego) applied to the offset; the velocity adds the transport
    terms, so it needs the ego yaw rate and raises GtForgeError when that
    is NaN.
    """
    if np.isnan(ego.psi_dot).any():
        raise GtForgeError(
            "ego state has no yaw rate; relative velocity in a rotating frame "
            "is undefined without it"
        )
    dx = target.x - ego.x
    dy = target.y - ego.y
    dvx = target.vx - ego.vx + ego.psi_dot * dy
    dvy = target.vy - ego.vy - ego.psi_dot * dx
    c = np.cos(ego.psi)
    s = np.sin(ego.psi)
    return RelativeState(
        dx * c + dy * s,
        dy * c - dx * s,
        dvx * c + dvy * s,
        dvy * c - dvx * s,
        wrap_angle(target.psi - ego.psi),
    )

