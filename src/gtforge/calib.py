"""Planar hand-eye calibration between two rigidly linked pose streams.

Given synchronized SE(2) pose streams of a sensor and the vehicle's
reference unit, the fixed transform X between them satisfies A_i X = X B_i
for every pair of relative motions A_i, B_i. In the plane rotations
commute, so the rotation parts only require the two motion streams to turn
by the same angle (reported as a consistency residual); the translation
and the rotation of X come from one linear least-squares problem over
(t_x, t_y, cos theta, sin theta), followed by renormalization onto the
unit circle and a translation-only re-solve. The result is one flat
HandEyeResult: X as (theta, tx, ty), then the fit's diagnostics.

Motions are held as (n - 1, 3) arrays of (dtheta, dx, dy) rows and the
least-squares system is built from whole columns. Pose stream CSVs carry
columns t,x,y,theta (seconds, metres, radians) and are read by the same
checked CSV reader as trajectory logs, so a bad cell or a timestamp that
does not increase raises ParseError naming the file and line N, and a
stream of fewer than two poses raises GtForgeError naming the file.
Streams with too little turning to solve raise GtForgeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import first_non_increase, opened, read_csv_table
from .egokin import wrap_angle
from .errors import GtForgeError, ParseError

POSE_COLUMNS = ("t", "x", "y", "theta")

# Minimum summed |rotation| for the translation part to be observable.
MIN_TOTAL_ROTATION = 0.1


def relative_motions(poses: np.ndarray) -> np.ndarray:
    """Successive relative motions of a pose stream.

    poses: (n, 4) rows (t, x, y, theta), as parse_pose_stream returns them
    (so n >= 2); the time column is not read. Row i of the (n - 1, 3)
    result is pose i -> i + 1 in frame i: rotate by dtheta, move by
    (dx, dy).
    """
    _, x, y, theta = np.asarray(poses, dtype=float).T
    c = np.cos(theta[:-1])
    s = np.sin(theta[:-1])
    ux = np.diff(x)
    uy = np.diff(y)
    dtheta = wrap_angle(np.diff(theta))
    return np.stack((dtheta, c * ux + s * uy, -s * ux + c * uy), axis=1)


@dataclass(frozen=True)
class HandEyeResult:
    """The estimated X (rotate by theta in (-pi, pi], then move by
    (tx, ty)) and the fit's diagnostics, in calibrate's printed order."""

    theta: float
    tx: float
    ty: float
    rotation_residual_rms: float
    translation_residual_rms: float
    n_increments: int
    total_rotation: float


def solve_hand_eye(a: np.ndarray, b: np.ndarray) -> HandEyeResult:
    """Estimate X with A_i X = X B_i from paired motion streams.

    a and b are relative_motions arrays, rows (dtheta, dx, dy). Stacks, per
    increment, (R(dtheta_a_i) - I) t - M(u_b_i) [cos, sin]^T = -u_a_i with
    M(u) = [[u_x, -u_y], [u_y, u_x]], solves by least squares, renormalizes
    (cos, sin) and re-solves the translation with the rotation fixed.
    Raises GtForgeError when the streams differ in length, hold fewer than
    two increments, or when the summed |rotation| of stream a is below
    0.1 rad (the translation is then unobservable).
    """
    if len(a) != len(b):
        raise GtForgeError(
            f"paired motion streams differ in length: {len(a)} vs {len(b)}"
        )
    k = len(a)
    if k < 2:
        raise GtForgeError(f"need at least 2 motion increments, got {k}")
    dtheta_a, ax, ay = a.T
    dtheta_b, bx, by = b.T
    # Left to right, as np.sum's pairwise order would move the last bits.
    total_rotation = float(sum(map(abs, dtheta_a.tolist())))
    if total_rotation < MIN_TOTAL_ROTATION:
        raise GtForgeError(
            f"total |rotation| {total_rotation:.4f} rad is below "
            f"{MIN_TOTAL_ROTATION}; translation unobservable"
        )
    rot_res = wrap_angle(dtheta_a - dtheta_b)

    # Rows 2i and 2i + 1 hold increment i's x and y equations.
    c = np.cos(dtheta_a)
    s = np.sin(dtheta_a)
    lhs = np.stack((c - 1.0, -s, -bx, by, s, c - 1.0, -by, -bx), axis=1)
    lhs = lhs.reshape(2 * k, 4)
    rhs = -a[:, 1:].ravel()
    solution, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    norm = math.hypot(solution[2], solution[3])
    if norm == 0.0:
        raise GtForgeError("rotation estimate collapsed to zero")
    theta = math.atan2(solution[3], solution[2])

    # Fix the rotation on the unit circle, re-solve the translation alone.
    c_x = math.cos(theta)
    s_x = math.sin(theta)
    lhs_t = lhs[:, :2]
    rhs_t = np.stack((c_x * bx - s_x * by - ax, s_x * bx + c_x * by - ay), axis=1)
    rhs_t = rhs_t.ravel()
    translation, *_ = np.linalg.lstsq(lhs_t, rhs_t, rcond=None)
    residual = lhs_t @ translation - rhs_t
    trans_rms = float(
        np.sqrt(np.mean(np.sum(residual.reshape(-1, 2) ** 2, axis=1)))
    )

    return HandEyeResult(
        theta=wrap_angle(theta),
        tx=float(translation[0]),
        ty=float(translation[1]),
        rotation_residual_rms=float(np.sqrt(np.mean(rot_res**2))),
        translation_residual_rms=trans_rms,
        n_increments=k,
        total_rotation=total_rotation,
    )


def parse_pose_stream(source: str | Path) -> np.ndarray:
    """Pose CSV (t,x,y,theta) as an (N, 4) array, timestamps ascending.

    A bad cell or a t that does not increase raises ParseError naming its
    line; fewer than two poses raise GtForgeError. Either names the file.
    """
    with opened(source) as stream:
        poses, lines = read_csv_table(stream, POSE_COLUMNS)
        if len(poses) < 2:
            raise GtForgeError(f"need at least 2 poses, got {len(poses)}")
        i = first_non_increase(poses[:, 0])
        if i is not None:
            raise ParseError("pose timestamps must increase strictly", lines[i])
    return poses

