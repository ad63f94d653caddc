"""Relative kinematics of a target vehicle in the rotating ego frame.

Both vehicles live in one projected Cartesian plane (east x, north y, yaw
psi CCW from East). The ego frame has its x axis along the ego yaw; because
that frame rotates at the ego yaw rate, relative velocity picks up the
familiar transport terms +psi_dot*dy / -psi_dot*dx before rotation.
"""

from __future__ import annotations

import math
from typing import NamedTuple, overload

import numpy as np

from .errors import MissingYawRate

_TWO_PI = 2.0 * math.pi


@overload
def wrap_angle(angle: float) -> float: ...
@overload
def wrap_angle(angle: np.ndarray) -> np.ndarray: ...


def wrap_angle(angle):
    """Wrap an angle (scalar or array) into (-pi, pi].

    Values already inside the interval are returned unchanged, bit for bit.
    """
    if np.ndim(angle) == 0:
        a = float(angle)
        if -math.pi < a <= math.pi:
            return a
        w = (a + math.pi) % _TWO_PI - math.pi
        return math.pi if w == -math.pi else w
    arr = np.asarray(angle, dtype=float)
    wrapped = np.mod(arr + math.pi, _TWO_PI) - math.pi
    wrapped = np.where(wrapped == -math.pi, math.pi, wrapped)
    inside = (arr > -math.pi) & (arr <= math.pi)
    return np.where(inside, arr, wrapped)


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
    terms, so it needs the ego yaw rate and raises MissingYawRate when that
    is NaN.
    """
    if np.isnan(ego.psi_dot).any():
        raise MissingYawRate(
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


def utm_from_relative(ego, rel: RelativeState):
    """Rebuild the target's world-frame state from an ego-frame observation.

    Inverse of relative_state given the same single ego state (float
    channels). The returned States has a NaN yaw rate (a single relative
    observation does not carry the target's own psi_dot).
    """
    from .trajlog import States

    if math.isnan(ego.psi_dot):
        raise MissingYawRate("ego sample has no yaw rate")
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
