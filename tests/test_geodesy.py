"""Map projection tests.

The forward projection is cross-checked against an independently coded
Snyder-style truncated series (the classic USGS formulation, as used by
most lightweight UTM converters) and against a meridian-arc quadrature at
the central meridian. The two series are different expansions of the same
conformal mapping, so agreement at the sub-millimetre-to-millimetre level
over the in-zone band is the expected signature of both being right.

The array kernels are also held bit for bit to a point-by-point copy of
the scalar formulas they replaced, kept here as the reference.
"""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gtforge import geodesy
from gtforge.errors import CoordinateError
from gtforge.trajlog import parse_trajectory_log, write_trajectory_log

K0 = 0.9996

# Snyder-series constants (different derivation path from the package's
# Krueger series in the third flattening).
_E = 0.00669438
_E2 = _E * _E
_E3 = _E2 * _E
_EP2 = _E / (1.0 - _E)
_M1 = 1 - _E / 4 - 3 * _E2 / 64 - 5 * _E3 / 256
_M2 = 3 * _E / 8 + 3 * _E2 / 32 + 45 * _E3 / 1024
_M3 = 15 * _E2 / 256 + 45 * _E3 / 1024
_M4 = 35 * _E3 / 3072
_R = 6378137.0


def snyder_from_latlon(lat: float, lon: float, central_lon: float) -> tuple[float, float]:
    lat_rad = math.radians(lat)
    lat_sin = math.sin(lat_rad)
    lat_cos = math.cos(lat_rad)
    lat_tan = lat_sin / lat_cos
    lat_tan2 = lat_tan * lat_tan
    lat_tan4 = lat_tan2 * lat_tan2
    a = lat_cos * math.radians(lon - central_lon)
    a2, a3 = a * a, a * a * a
    a4, a5, a6 = a3 * a, a3 * a2, a3 * a3
    n = _R / math.sqrt(1 - _E * lat_sin**2)
    c = _EP2 * lat_cos**2
    m = _R * (
        _M1 * lat_rad
        - _M2 * math.sin(2 * lat_rad)
        + _M3 * math.sin(4 * lat_rad)
        - _M4 * math.sin(6 * lat_rad)
    )
    easting = K0 * n * (
        a
        + a3 / 6 * (1 - lat_tan2 + c)
        + a5 / 120 * (5 - 18 * lat_tan2 + lat_tan4 + 72 * c - 58 * _EP2)
    ) + 500000.0
    northing = K0 * (
        m
        + n * lat_tan * (
            a2 / 2
            + a4 / 24 * (5 - lat_tan2 + 9 * c + 4 * c**2)
            + a6 / 720 * (61 - 58 * lat_tan2 + lat_tan4 + 600 * c - 330 * _EP2)
        )
    )
    if lat < 0:
        northing += 10000000.0
    return easting, northing


def meridian_arc_quadrature(lat_deg: float) -> float:
    """Meridian arc length by direct numerical integration of the ellipse."""
    e2 = geodesy.WGS84_F * (2 - geodesy.WGS84_F)
    phi = math.radians(lat_deg)
    val, _ = quad(
        lambda t: (1 - e2 * math.sin(t) ** 2) ** -1.5,
        0.0,
        phi,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return geodesy.WGS84_A * (1 - e2) * val


def project(lat: float, lon: float, zone: int | None = None):
    """One point through the array kernel: (easting, northing, zone, hemisphere)."""
    easting, northing, zone, hemisphere = geodesy.wgs84_to_utm([lat], [lon], zone)
    return easting[0], northing[0], zone, hemisphere


def unproject(easting: float, northing: float, zone: int, hemisphere: str = "north"):
    lat, lon = geodesy.utm_to_wgs84([easting], [northing], zone, hemisphere)
    return lat[0], lon[0]


class TestForwardProjection:
    def test_pinned_reference_point(self):
        """Frozen output for one mid-latitude point; guards regressions."""
        easting, northing, zone, hemisphere = project(48.80, 2.13)
        assert zone == 31
        assert hemisphere == "north"
        assert easting == pytest.approx(436111.930760, abs=1e-3)
        assert northing == pytest.approx(5405588.089744, abs=1e-3)

    def test_agrees_with_snyder_series(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(400):
            lat = float(rng.uniform(-80.0, 80.0))
            lon = float(rng.uniform(-180.0, 180.0))
            easting, northing, zone, _ = project(lat, lon)
            e_s, n_s = snyder_from_latlon(lat, lon, geodesy.central_meridian_deg(zone))
            worst = max(worst, abs(easting - e_s), abs(northing - n_s))
        # The truncated Snyder series itself is only good to ~1 mm in-zone.
        assert worst < 1.5e-3

    def test_northing_matches_meridian_quadrature(self):
        for lat in (0.0, 12.0, 48.80, 71.0):
            easting, northing, _, _ = project(lat, 3.0, 31)
            assert easting == pytest.approx(500000.0, abs=1e-6)
            assert northing == pytest.approx(K0 * meridian_arc_quadrature(lat), abs=1e-6)

    def test_southern_hemisphere_false_northing(self):
        _, northing, _, hemisphere = project(-33.5, 3.0, 31)
        assert hemisphere == "south"
        expect = K0 * meridian_arc_quadrature(-33.5) + 10000000.0
        assert northing == pytest.approx(expect, abs=1e-6)

    def test_scale_factor_at_central_meridian(self):
        """Ground distance across the CM must shrink by exactly k0."""
        lat = 48.80
        h = 1e-6
        e2 = geodesy.WGS84_F * (2 - geodesy.WGS84_F)
        nu = geodesy.WGS84_A / math.sqrt(1 - e2 * math.sin(math.radians(lat)) ** 2)
        ground = nu * math.cos(math.radians(lat)) * math.radians(2 * h)
        easting, _, _, _ = geodesy.wgs84_to_utm([lat, lat], [3.0 - h, 3.0 + h], 31)
        assert (easting[1] - easting[0]) / ground == pytest.approx(K0, abs=1e-6)

    def test_equator_origin(self):
        easting, northing, _, _ = project(0.0, 3.0)
        assert northing == pytest.approx(0.0, abs=1e-9)
        assert easting == pytest.approx(500000.0, abs=1e-9)


class TestInverseProjection:
    def test_round_trip_accuracy(self):
        rng = np.random.default_rng(11)
        lat = rng.uniform(-84.0, 84.0, 10000)
        lon = rng.uniform(-180.0, 180.0, 10000)
        # Each point in its own zone and hemisphere, as a lone point would be.
        zones = ((lon + 180.0) // 6.0).astype(int) + 1
        worst = 0.0
        for zone in range(1, 61):
            for south in (False, True):
                pick = (zones == zone) & ((lat < 0.0) == south)
                easting, northing, _, hemisphere = geodesy.wgs84_to_utm(
                    lat[pick], lon[pick], zone
                )
                back_lat, back_lon = geodesy.utm_to_wgs84(easting, northing, zone, hemisphere)
                worst = max(
                    worst,
                    np.max(np.abs(back_lat - lat[pick]), initial=0.0),
                    np.max(np.abs(back_lon - lon[pick]), initial=0.0),
                )
        assert worst < 1e-9

    def test_round_trip_preserves_altitude(self):
        """The projection leaves altitude to the log's own alt channel."""
        text = "t,lat,lon,alt,ve,vn,heading_deg,yaw_rate\n0.0,48.80,2.13,130.5,0,0,0,\n"
        traj = parse_trajectory_log(io.StringIO(text), frame="geodetic")
        buf = io.StringIO()
        write_trajectory_log(traj, buf, frame="geodetic")
        back = parse_trajectory_log(io.StringIO(buf.getvalue()), frame="geodetic")
        assert back.alt[0] == 130.5

    def test_southern_round_trip(self):
        easting, northing, zone, hemisphere = project(-36.85, 174.76)
        assert hemisphere == "south"
        lat, lon = unproject(easting, northing, zone, hemisphere)
        assert lat == pytest.approx(-36.85, abs=1e-9)
        assert lon == pytest.approx(174.76, abs=1e-9)

    def test_longitude_normalized_near_antimeridian(self):
        easting, northing, zone, hemisphere = project(10.0, 179.9)
        _, lon = unproject(easting, northing, zone, hemisphere)
        assert lon == pytest.approx(179.9, abs=1e-9)


class TestZones:
    def test_zone_from_longitude(self):
        assert geodesy.zone_from_longitude(-180.0) == 1
        assert geodesy.zone_from_longitude(0.0) == 31
        assert geodesy.zone_from_longitude(2.13) == 31
        assert geodesy.zone_from_longitude(179.999) == 60

    def test_central_meridian(self):
        assert geodesy.central_meridian_deg(31) == 3.0
        assert geodesy.central_meridian_deg(1) == -177.0
        assert geodesy.central_meridian_deg(60) == 177.0

    def test_forced_zone_overrides_natural_zone(self):
        natural = project(48.80, 2.13)
        forced = project(48.80, 2.13, 30)
        assert natural[2] == 31
        assert forced[2] == 30
        assert forced[0] > natural[0]

    def test_far_outside_forced_zone_rejected(self):
        with pytest.raises(CoordinateError, match="deg from zone 35's central meridian"):
            project(48.80, 2.13, 35)


class TestValidation:
    def test_latitude_range(self):
        with pytest.raises(CoordinateError, match=r"lat must be in \[-90, 90\], got 91.0"):
            project(91.0, 0.0)
        with pytest.raises(CoordinateError, match=r"lat must be in \[-90, 90\], got -90.5"):
            project(-90.5, 0.0)

    def test_longitude_range(self):
        with pytest.raises(CoordinateError, match=r"lon must be in \[-180, 180\), got 180.0"):
            project(0.0, 180.0)
        with pytest.raises(CoordinateError, match=r"lon must be in \[-180, 180\), got -180.1"):
            project(0.0, -180.1)

    def test_non_finite_rejected(self):
        with pytest.raises(CoordinateError, match="lat must be finite, got nan"):
            project(float("nan"), 0.0)

    def test_utm_point_validation(self):
        with pytest.raises(CoordinateError, match=r"easting must be in \(0, 1e6\), got 0.0"):
            unproject(0.0, 0.0, 31)
        with pytest.raises(CoordinateError, match="zone must be in 1..60, got 61"):
            unproject(500000.0, 0.0, 61)
        with pytest.raises(CoordinateError, match="hemisphere must be 'north' or 'south'"):
            unproject(500000.0, 0.0, 31, hemisphere="up")


def scalar_forward(lat: float, lon: float, zone: int) -> tuple[float, float]:
    """The point-by-point forward formulas the array kernel replaced."""
    phi = math.radians(lat)
    lam = math.radians(lon - geodesy.central_meridian_deg(zone))
    e = geodesy._E
    tau = math.tan(phi)
    sigma = math.sinh(e * math.atanh(e * tau / math.hypot(1.0, tau)))
    taup = tau * math.hypot(1.0, sigma) - sigma * math.hypot(1.0, tau)
    xi_p = math.atan2(taup, math.cos(lam))
    eta_p = math.asinh(math.sin(lam) / math.hypot(taup, math.cos(lam)))
    xi = xi_p
    eta = eta_p
    for j, coeff in enumerate(geodesy._ALPHA, start=1):
        xi += coeff * math.sin(2 * j * xi_p) * math.cosh(2 * j * eta_p)
        eta += coeff * math.cos(2 * j * xi_p) * math.sinh(2 * j * eta_p)
    easting = geodesy.FALSE_EASTING + geodesy.SCALE_FACTOR * geodesy._RADIUS * eta
    northing = geodesy.SCALE_FACTOR * geodesy._RADIUS * xi
    if lat < 0.0:
        northing += geodesy.FALSE_NORTHING_SOUTH
    return easting, northing


def scalar_inverse(easting: float, northing: float, zone: int, south: bool) -> tuple[float, float]:
    """The point-by-point inverse formulas, Newton loop and break included."""
    e = geodesy._E
    y = northing - geodesy.FALSE_NORTHING_SOUTH if south else northing
    xi = y / (geodesy.SCALE_FACTOR * geodesy._RADIUS)
    eta = (easting - geodesy.FALSE_EASTING) / (geodesy.SCALE_FACTOR * geodesy._RADIUS)
    xi_p = xi
    eta_p = eta
    for j, coeff in enumerate(geodesy._BETA, start=1):
        xi_p -= coeff * math.sin(2 * j * xi) * math.cosh(2 * j * eta)
        eta_p -= coeff * math.cos(2 * j * xi) * math.sinh(2 * j * eta)
    taup = math.sin(xi_p) / math.hypot(math.sinh(eta_p), math.cos(xi_p))
    lam = math.atan2(math.sinh(eta_p), math.cos(xi_p))
    e2m = 1.0 - geodesy._E2
    tau = taup / e2m
    for _ in range(8):
        sigma = math.sinh(e * math.atanh(e * tau / math.hypot(1.0, tau)))
        taupa = tau * math.hypot(1.0, sigma) - sigma * math.hypot(1.0, tau)
        dtau = (
            (taup - taupa)
            * (1.0 + e2m * tau * tau)
            / (e2m * math.hypot(1.0, tau) * math.hypot(1.0, taupa))
        )
        tau += dtau
        if abs(dtau) < 1e-15 * max(1.0, abs(taup)):
            break
    lat = math.degrees(math.atan(tau))
    lon = geodesy.central_meridian_deg(zone) + math.degrees(lam)
    return lat, (lon + 180.0) % 360.0 - 180.0


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestArrayKernels:
    """Every zone, both hemispheres, up to 7 degrees off the central meridian."""

    @pytest.mark.parametrize("south", [False, True])
    def test_forward_matches_scalar_formulas_bitwise(self, south):
        rng = np.random.default_rng(21 + south)
        for zone in range(1, 61):
            lat = rng.uniform(0.0, 84.0, 40) * (-1.0 if south else 1.0)
            lon = geodesy.central_meridian_deg(zone) + rng.uniform(-6.99, 6.99, 40)
            # The projection does not wrap longitude, and the easting must
            # stay inside (0, 1e6).
            keep = [
                -180.0 <= b < 180.0 and abs(scalar_forward(a, b, zone)[0] - 5e5) < 5e5
                for a, b in zip(lat.tolist(), lon.tolist())
            ]
            lat, lon = lat[keep], lon[keep]
            easting, northing, got_zone, hemisphere = geodesy.wgs84_to_utm(lat, lon, zone)
            expect = [scalar_forward(a, b, zone) for a, b in zip(lat.tolist(), lon.tolist())]
            assert (got_zone, hemisphere) == (zone, "south" if south else "north")
            assert bits(easting) == bits([e for e, _ in expect])
            assert bits(northing) == bits([n for _, n in expect])

    @pytest.mark.parametrize("south", [False, True])
    def test_inverse_matches_scalar_formulas_bitwise(self, south):
        rng = np.random.default_rng(31 + south)
        hemisphere = "south" if south else "north"
        for zone in range(1, 61):
            easting = rng.uniform(1.7e5, 8.3e5, 50)
            # Points within 2 km of the equator stop Newton after one step
            # where the others take two.
            northing = np.concatenate([rng.uniform(0.0, 9.3e6, 40), rng.uniform(0.0, 2e3, 10)])
            if south:
                northing = geodesy.FALSE_NORTHING_SOUTH - northing
            lat, lon = geodesy.utm_to_wgs84(easting, northing, zone, hemisphere)
            expect = [
                scalar_inverse(e, n, zone, south)
                for e, n in zip(easting.tolist(), northing.tolist())
            ]
            assert bits(lat) == bits([a for a, _ in expect])
            assert bits(lon) == bits([b for _, b in expect])

    def test_first_bad_point_reports_its_index_and_first_failing_check(self):
        # Point 1 is both off the lat range and off the zone: lat is checked first.
        with pytest.raises(CoordinateError, match=r"lat must be in \[-90, 90\], got 95.0") as err:
            geodesy.wgs84_to_utm([48.8, 95.0, 48.8], [2.13, 20.0, 2.13])
        assert err.value.index == 1
        # An off-zone point before an out-of-range one is reported first.
        with pytest.raises(CoordinateError, match="lon 10.5 is 7.500 deg from zone 31") as err:
            geodesy.wgs84_to_utm([48.8, 48.8, 95.0], [2.13, 10.5, 2.13])
        assert err.value.index == 1
        with pytest.raises(CoordinateError, match="easting must be in") as err:
            geodesy.wgs84_to_utm([48.8, 0.0], [2.13, 9.9])
        assert err.value.index == 1
        # A bad forced zone is refused before any point, and names none.
        for lat in ([48.8, 95.0], [95.0, 48.8]):
            with pytest.raises(CoordinateError, match="zone must be in 1..60, got 0") as err:
                geodesy.wgs84_to_utm(lat, [2.13, 2.13], forced_zone=0)
            assert err.value.index is None
        with pytest.raises(CoordinateError, match="easting must be in") as err:
            geodesy.utm_to_wgs84([5e5, 2e6], [0.0, 0.0], 31)
        assert err.value.index == 1
        with pytest.raises(CoordinateError, match="zone must be in 1..60, got 61"):
            geodesy.utm_to_wgs84([5e5, 2e6], [0.0, 0.0], 61)
        with pytest.raises(CoordinateError, match="hemisphere must be 'north' or 'south'"):
            geodesy.utm_to_wgs84([5e5], [0.0], 31, "equator")

    @pytest.mark.parametrize("lat, lon, message", [
        (95.0, 200.0, r"lon must be in \[-180, 180\), got 200.0"),
        (math.nan, 200.0, r"lon must be in \[-180, 180\), got 200.0"),
        (math.nan, math.inf, "lon must be finite, got inf"),
        (95.0, 2.13, r"lat must be in \[-90, 90\], got 95.0"),
    ])
    def test_first_point_longitude_checked_first_without_forced_zone(self, lat, lon, message):
        # The zone comes from the first point's longitude, so that point's
        # longitude is checked before its latitude.
        with pytest.raises(CoordinateError, match=message) as err:
            geodesy.wgs84_to_utm([lat, 48.8], [lon, 2.13])
        assert err.value.index == 0
