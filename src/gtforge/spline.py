"""Natural cubic splines, bit for bit the ones scipy builds.

coefficients(t, ys) gives the same coefficients as
scipy.interpolate.CubicSpline(t, y, bc_type="natural") for every row y of
ys, and evaluate reproduces PPoly's evaluation of them; derivative
gives the coefficients of PPoly.derivative(). Every floating-point
operation is the one scipy performs, in the same order:

- the slopes s at the knots solve scipy's banded system through a port of
  the reference LAPACK dgtsv for one right-hand side (Anderson et al.,
  LAPACK Users' Guide, 3rd ed., 1999), row interchanges included. The
  matrix depends on t alone, so it is factored once and the recorded
  eliminations are replayed on each row of ys;
- the Hermite coefficients of each interval, highest power first, are
  (d/dx, (slope - s)/dx - d, s, y) with d = (s0 + s1 - 2 slope)/dx
  (de Boor, A Practical Guide to Splines, 2001);
- a value is the ascending power sum c3 + c2 z + c1 z^2 + c0 z^3 with the
  powers formed by repeated multiplication; Horner's form rounds
  differently.

The solve runs on Python floats, which never fuse a multiply and an add,
so the bits do not depend on the host. t must be finite and strictly
increasing with at least two knots, and ys finite.
"""

from __future__ import annotations

import numpy as np

# Per-step multipliers, per-step row-interchange flags, and the factored
# (dl, d, du).
_Factors = tuple[list[float], list[bool], list[float], list[float], list[float]]


def _factor(t: np.ndarray) -> _Factors:
    """dgtsv's elimination of scipy's natural-spline matrix for knots t.

    The matrix rows are scipy's: (2 dx0, dx0) first, (dx[i], 2 (dx[i-1] +
    dx[i]), dx[i-1]) inside and (dx[-1], 2 dx[-1]) last.
    """
    dx = np.diff(t)
    d = np.empty(len(t))
    d[0] = 2 * dx[0]
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    d[-1] = 2 * dx[-1]
    d = d.tolist()
    dx = dx.tolist()
    du = [dx[0], *dx[:-1]]
    dl = [*dx[1:], dx[-1]]
    n = len(d)
    fact = [0.0] * (n - 1)
    swap = [False] * (n - 1)
    for i in range(n - 1):
        # dgtsv's |d[i]| >= |dl[i]|; dl[i] is still a knot spacing here, so
        # positive, and the test needs no abs() call per row.
        if d[i] >= dl[i] or d[i] <= -dl[i]:
            f = dl[i] / d[i]
            d[i + 1] = d[i + 1] - f * du[i]
            dl[i] = 0.0
        else:
            f = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - f * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -f * dl[i]
            du[i] = temp
            swap[i] = True
        fact[i] = f
    return fact, swap, dl, d, du


def _solve(factors: _Factors, b: list[float]) -> list[float]:
    """The solution for right-hand side b (overwritten) of the system
    _factor eliminated: dgtsv's forward replay, then its back substitution.
    The loops index as the Fortran does and make no call per row."""
    fact, swap, dl, d, du = factors
    n = len(d)
    for i in range(n - 1):
        if swap[i]:
            b[i], b[i + 1] = b[i + 1], b[i] - fact[i] * b[i + 1]
        else:
            b[i + 1] = b[i + 1] - fact[i] * b[i]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def coefficients(t: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Natural-spline coefficients, shape (4, k, n - 1), for the k rows of
    ys (shape (k, n)) over knots t; row 0 multiplies the cube."""
    dx = np.diff(t)
    slope = np.diff(ys) / dx
    b = np.empty_like(ys)
    b[:, 1:-1] = 3 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])
    b[:, 0] = 3 * (ys[:, 1] - ys[:, 0])
    b[:, -1] = 3 * (ys[:, -1] - ys[:, -2])
    factors = _factor(t)
    s = np.array([_solve(factors, row) for row in b.tolist()])
    d = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
    return np.stack((d / dx, (slope - s[:, :-1]) / dx - d, s[:, :-1], ys[:, :-1]))


def derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative of the piecewise polynomial c."""
    powers = np.arange(len(c) - 1, 0, -1, dtype=float)
    return c[:-1] * powers[:, None, None]


def evaluate(t: np.ndarray, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values at x, shape (k, m), of the piecewise polynomials with
    breakpoints t and coefficients c, shape (order, k, n - 1).

    Points outside [t[0], t[-1]] extend the end intervals.
    """
    i = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
    s = x - t[i]
    out = 0.0 + c[-1][:, i]  # PPoly's sum starts at 0.0, so -0.0 becomes 0.0
    z = s
    for k in range(len(c) - 2, -1, -1):
        out = out + c[k][:, i] * z
        if k:
            z = z * s
    return out
