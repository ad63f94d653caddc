"""WGS-84 to UTM conversion and back, on arrays of points.

Transverse Mercator in Karney's form ("Transverse Mercator with an accuracy
of a few nanometers", J. Geodesy 85:475, 2011; arXiv:1002.1417): Krueger's
series to 6th order in the third flattening, so truncation error inside a
zone is far below a millimetre, summed by Clenshaw's recurrence on the
complex coordinate zeta = xi + i eta. The derivative of that same sum gives
each point's meridian convergence gamma and point scale k. Standard UTM
conventions: scale 0.9996 at the central meridian, 500 km false easting,
10 000 km false northing in the south.

gamma is in radians and positive where grid north lies clockwise of true
north (east of the central meridian in the north), so true north has grid
bearing -gamma. k is grid length over true length on the ellipsoid.

Each direction is one numpy array kernel. A coordinate either direction
cannot take (out of range, non-finite, or too far from the zone's central
meridian) raises CoordinateError, which carries the index of the first bad
point; such points never reach the transcendental functions.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import CoordinateError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563

SCALE_FACTOR = 0.9996
FALSE_EASTING = 500_000.0
FALSE_NORTHING_SOUTH = 10_000_000.0

# Forced projections stay valid this far from the central meridian.
MAX_CM_DISTANCE_DEG = 7.0

_E2 = WGS84_F * (2.0 - WGS84_F)
_E = math.sqrt(_E2)
_N = WGS84_F / (2.0 - WGS84_F)  # third flattening

# Rectifying radius: scales the TM plane so xi spans pi/2 pole to equator.
_RADIUS = WGS84_A / (1.0 + _N) * (1.0 + _N**2 / 4 + _N**4 / 64 + _N**6 / 256)

# Series coefficients in the third flattening n, to n^6.
_n = _N
_ALPHA = (
    _n / 2 - 2 * _n**2 / 3 + 5 * _n**3 / 16 + 41 * _n**4 / 180
    - 127 * _n**5 / 288 + 7891 * _n**6 / 37800,
    13 * _n**2 / 48 - 3 * _n**3 / 5 + 557 * _n**4 / 1440 + 281 * _n**5 / 630
    - 1983433 * _n**6 / 1935360,
    61 * _n**3 / 240 - 103 * _n**4 / 140 + 15061 * _n**5 / 26880
    + 167603 * _n**6 / 181440,
    49561 * _n**4 / 161280 - 179 * _n**5 / 168 + 6601661 * _n**6 / 7257600,
    34729 * _n**5 / 80640 - 3418889 * _n**6 / 1995840,
    212378941 * _n**6 / 319334400,
)
_BETA = (
    _n / 2 - 2 * _n**2 / 3 + 37 * _n**3 / 96 - _n**4 / 360
    - 81 * _n**5 / 512 + 96199 * _n**6 / 604800,
    _n**2 / 48 + _n**3 / 15 - 437 * _n**4 / 1440 + 46 * _n**5 / 105
    - 1118711 * _n**6 / 3870720,
    17 * _n**3 / 480 - 37 * _n**4 / 840 - 209 * _n**5 / 4480
    + 5569 * _n**6 / 90720,
    4397 * _n**4 / 161280 - 11 * _n**5 / 504 - 830251 * _n**6 / 7257600,
    4583 * _n**5 / 161280 - 108847 * _n**6 / 3991680,
    20648693 * _n**6 / 638668800,
)
del _n


# math.radians and math.degrees multiply by these same constants.
_DEG2RAD = math.pi / 180.0
_RAD2DEG = 180.0 / math.pi

# b1 of Karney's eq. (14): the rectifying radius over the major semi-axis.
_B1 = _RADIUS / WGS84_A

# Northing of the poles from the equator (xi = pi/2): about 9 997 964.94 m.
_POLE_NORTHING = SCALE_FACTOR * _RADIUS * math.pi / 2.0


def _raise_first(checks: Sequence[tuple[np.ndarray, Callable[[int], str]]]) -> None:
    """Raise CoordinateError for the first point any check flags, taking the
    checks in order for that point, as if each point were checked on its own
    in turn.

    Each check is (flags per point, message for point i).
    """
    bad = np.logical_or.reduce([flags for flags, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        for flags, message in checks:
            if flags[i]:
                raise CoordinateError(message(i), index=i)


def zone_from_longitude(lon: float) -> int:
    """Standard 6-degree UTM zone containing the given longitude."""
    if not math.isfinite(lon):
        raise CoordinateError(f"lon must be finite, got {lon!r}")
    if not -180.0 <= lon < 180.0:
        raise CoordinateError(f"lon must be in [-180, 180), got {lon}")
    return int((lon + 180.0) // 6.0) + 1


def central_meridian_deg(zone: int) -> float:
    if not 1 <= zone <= 60:
        raise CoordinateError(f"zone must be in 1..60, got {zone}")
    return (zone - 1) * 6.0 - 180.0 + 3.0


def _conformal(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tan of the conformal latitude from tau = tan(latitude), and
    hypot(1, tau)."""
    root = np.hypot(1.0, tau)
    sigma = np.sinh(_E * np.arctanh(_E * tau / root))
    return tau * np.hypot(1.0, sigma) - sigma * root, root


def _krueger(
    xi: np.ndarray, eta: np.ndarray, coeffs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """zeta + sum_j c_j sin(2 j zeta) for zeta = xi + i eta, and its
    derivative 1 + sum_j 2 j c_j cos(2 j zeta), both summed by Clenshaw's
    recurrence on 2 cos(2 zeta) as in Karney 2011."""
    c0, s0 = np.cos(2.0 * xi), np.sin(2.0 * xi)
    ch0, sh0 = np.cosh(2.0 * eta), np.sinh(2.0 * eta)
    a = 2.0 * c0 * ch0 - 2j * s0 * sh0
    y0 = y1 = z0 = z1 = 0.0
    for j in range(len(coeffs), 0, -1):
        coeff = coeffs[j - 1]
        y0, y1 = a * y0 - y1 + coeff, y0
        z0, z1 = a * z0 - z1 + 2 * j * coeff, z0
    series = xi + 1j * eta + (s0 * ch0 + 1j * c0 * sh0) * y0
    return series, 1.0 - z1 + 0.5 * a * z0


def wgs84_to_utm(
    lat: ArrayLike, lon: ArrayLike, forced_zone: int | None = None
) -> tuple[np.ndarray, np.ndarray, int, str, np.ndarray, np.ndarray]:
    """Project geodetic points (degrees; at least one) to UTM: (easting,
    northing, zone, hemisphere, gamma, k), with each point's meridian
    convergence gamma in radians and point scale k.

    All points share one plane: the zone of the first point unless
    forced_zone is given, which lets a session that straddles a zone
    boundary live in one consistent plane, limited to 7 degrees from the
    central meridian. The first point's hemisphere also sets the false
    northing of every point, so a session that crosses the equator keeps a
    continuous northing. A bad forced_zone raises CoordinateError before
    any point is looked at; a bad point, out of range or too far from the
    central meridian, raises CoordinateError naming its index.
    """
    lat = np.atleast_1d(np.asarray(lat, dtype=float))
    lon = np.atleast_1d(np.asarray(lon, dtype=float))
    zone = forced_zone
    if zone is None:
        try:
            zone = zone_from_longitude(lon.item(0))
        except CoordinateError as err:
            err.index = 0
            raise
    in_range = (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon < 180.0)
    dlon = lon - central_meridian_deg(zone)
    ok = in_range & (np.abs(dlon) < MAX_CM_DISTANCE_DEG)

    # Gauss-Schreiber coordinates (xi', eta') through the tangent of the
    # conformal latitude, with their convergence and scale.
    lam = dlon[ok] * _DEG2RAD
    tau = np.tan(lat[ok] * _DEG2RAD)
    taup, root = _conformal(tau)
    cos_lam, sin_lam = np.cos(lam), np.sin(lam)
    denom = np.hypot(taup, cos_lam)
    zeta, dzeta = _krueger(np.arctan2(taup, cos_lam), np.arcsinh(sin_lam / denom), _ALPHA)

    easting, northing, gamma, k = np.full((4, *lat.shape), math.nan)
    easting[ok] = FALSE_EASTING + SCALE_FACTOR * _RADIUS * zeta.imag
    northing[ok] = SCALE_FACTOR * _RADIUS * zeta.real
    gamma[ok] = (np.arctan2(sin_lam * taup, cos_lam * np.hypot(1.0, taup))
                 - np.arctan2(dzeta.imag, dzeta.real))
    k[ok] = (SCALE_FACTOR * _B1 * np.abs(dzeta) * np.sqrt(1.0 - _E2 + _E2 / root**2)
             * root / denom)
    _raise_first([
        (~np.isfinite(lat), lambda i: f"lat must be finite, got {lat.item(i)!r}"),
        (~np.isfinite(lon), lambda i: f"lon must be finite, got {lon.item(i)!r}"),
        (~((-90.0 <= lat) & (lat <= 90.0)),
         lambda i: f"lat must be in [-90, 90], got {lat.item(i)}"),
        (~in_range, lambda i: f"lon must be in [-180, 180), got {lon.item(i)}"),
        (~ok, lambda i: f"lon {lon.item(i)} is {abs(dlon.item(i)):.3f} deg from zone "
         f"{zone}'s central meridian (limit {MAX_CM_DISTANCE_DEG})"),
        (~((0.0 < easting) & (easting < 1_000_000.0)),
         lambda i: f"easting must be in (0, 1e6), got {easting.item(i)}"),
    ])
    hemisphere = "north" if lat.item(0) >= 0.0 else "south"
    if hemisphere == "south":
        northing += FALSE_NORTHING_SOUTH
    return easting, northing, zone, hemisphere, gamma, k


def utm_to_wgs84(
    easting: ArrayLike, northing: ArrayLike, zone: int, hemisphere: str = "north"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Invert the projection: (lat, lon, gamma, k) of points in one zone,
    lat and lon in degrees, with each point's meridian convergence gamma in
    radians and point scale k, as wgs84_to_utm gives them.

    Round-trips with wgs84_to_utm to ~1e-9 degrees. A bad zone or
    hemisphere raises CoordinateError, and so does a bad point, naming its
    index, such as a northing more than 9 997 964.94 m from the false
    northing, past a pole (a session that crossed the equator stays inside).
    """
    central_meridian = central_meridian_deg(zone)
    if hemisphere not in ("north", "south"):
        raise CoordinateError(f"hemisphere must be 'north' or 'south', got {hemisphere!r}")
    easting = np.atleast_1d(np.asarray(easting, dtype=float))
    northing = np.atleast_1d(np.asarray(northing, dtype=float))
    false_northing = FALSE_NORTHING_SOUTH if hemisphere == "south" else 0.0
    y = northing - false_northing
    _raise_first([
        (~np.isfinite(easting), lambda i: f"easting must be finite, got {easting.item(i)!r}"),
        (~np.isfinite(northing), lambda i: f"northing must be finite, got {northing.item(i)!r}"),
        (~((0.0 < easting) & (easting < 1_000_000.0)),
         lambda i: f"easting must be in (0, 1e6), got {easting.item(i)}"),
        (~(np.abs(y) <= _POLE_NORTHING), lambda i: f"northing {northing.item(i)} is past a "
         f"pole, more than {_POLE_NORTHING:.2f} m from false northing {false_northing:g}"),
    ])
    xi = y / (SCALE_FACTOR * _RADIUS)
    eta = (easting - FALSE_EASTING) / (SCALE_FACTOR * _RADIUS)
    zeta_p, dzeta = _krueger(xi, eta, [-coeff for coeff in _BETA])
    xi_p, eta_p = zeta_p.real, zeta_p.imag

    sinh_eta = np.sinh(eta_p)
    sin_xi, cos_xi = np.sin(xi_p), np.cos(xi_p)
    r = np.hypot(sinh_eta, cos_xi)
    taup = sin_xi / r
    lam = np.arctan2(sinh_eta, cos_xi)

    # Newton iteration for tau from its conformal counterpart; each point
    # stops at the first step below its own tolerance.
    e2m = 1.0 - _E2
    tau = taup / e2m
    tolerance = 1e-15 * np.maximum(1.0, np.abs(taup))
    todo = np.arange(tau.size)
    for _ in range(8):
        t = tau[todo]
        taupa, root = _conformal(t)
        dtau = (
            (taup[todo] - taupa)
            * (1.0 + e2m * t * t)
            / (e2m * root * np.hypot(1.0, taupa))
        )
        tau[todo] = t + dtau
        todo = todo[~(np.abs(dtau) < tolerance[todo])]
        if not todo.size:
            break

    root = np.hypot(1.0, tau)
    gamma = np.arctan2(dzeta.imag, dzeta.real) + np.arctan2(sin_xi * np.tanh(eta_p), cos_xi)
    k = SCALE_FACTOR * _B1 / np.abs(dzeta) * np.sqrt(e2m + _E2 / root**2) * root * r
    lat = np.arctan(tau) * _RAD2DEG
    lon = central_meridian + lam * _RAD2DEG
    lon = (lon + 180.0) % 360.0 - 180.0
    return lat, lon, gamma, k
