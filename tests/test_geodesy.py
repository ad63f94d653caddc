"""Map projection tests.

The forward projection is cross-checked against an independently coded
Snyder-style truncated series (the classic USGS formulation, as used by
most lightweight UTM converters) and against a meridian-arc quadrature at
the central meridian. The two series are different expansions of the same
conformal mapping, so agreement at the sub-millimetre-to-millimetre level
over the in-zone band is the expected signature of both being right.

The array kernels are held to a 40-digit mpmath evaluation of the same
six-term series, and the meridian convergence and point scale they return
to finite differences of the projected positions themselves.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from gtforge import geodesy
from gtforge.errors import CoordinateError
from gtforge.trajlog import parse_trajectory_log, write_trajectory_log
from helpers import grid_north_by_step, meridian_radius

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
    easting, northing, zone, hemisphere, _, _ = geodesy.wgs84_to_utm([lat], [lon], zone)
    return easting[0], northing[0], zone, hemisphere


def unproject(easting: float, northing: float, zone: int, hemisphere: str = "north"):
    lat, lon, _, _ = geodesy.utm_to_wgs84([easting], [northing], zone, hemisphere)
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
        easting = geodesy.wgs84_to_utm([lat, lat], [3.0 - h, 3.0 + h], 31)[0]
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
                easting, northing, _, hemisphere, _, _ = geodesy.wgs84_to_utm(
                    lat[pick], lon[pick], zone
                )
                back_lat, back_lon, _, _ = geodesy.utm_to_wgs84(
                    easting, northing, zone, hemisphere
                )
                worst = max(
                    worst,
                    np.max(np.abs(back_lat - lat[pick]), initial=0.0),
                    np.max(np.abs(back_lon - lon[pick]), initial=0.0),
                )
        assert worst < 1e-9

    def test_round_trip_preserves_altitude(self, text_file, tmp_path):
        """The projection leaves altitude to the log's own alt channel."""
        text = "t,lat,lon,alt,ve,vn,heading_deg,yaw_rate\n0.0,48.80,2.13,130.5,0,0,0,\n"
        traj = parse_trajectory_log(text_file(text), frame="geodetic")
        write_trajectory_log(traj, tmp_path / "back.csv", frame="geodetic")
        back = parse_trajectory_log(tmp_path / "back.csv", frame="geodetic")
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

    @pytest.mark.parametrize("northing, hemisphere", [
        (2e7, "north"), (1e7, "north"), (9_997_964.95, "north"), (-9_997_964.95, "north"),
        (-1.0, "south"), (2e7, "south"),
    ])
    def test_northing_past_a_pole_rejected(self, northing, hemisphere):
        """A northing more than k0 R pi / 2 = 9 997 964.94 m from the false
        northing has xi past pi/2: the inverse would fold it back over the
        pole (2e7 in the north gave lat -0.037, 1e7 gave 89.98)."""
        with pytest.raises(CoordinateError, match=f"^northing {northing} is past a pole") as err:
            geodesy.utm_to_wgs84([5e5, 5e5], [5e6, northing], 31, hemisphere)
        assert err.value.index == 1

    @pytest.mark.parametrize("false_northing, hemisphere", [(0.0, "north"), (1e7, "south")])
    def test_northing_up_to_the_poles_taken(self, false_northing, hemisphere):
        northing = [false_northing + 9_997_964.94, false_northing - 9_997_964.94]
        lat, _, _, _ = geodesy.utm_to_wgs84([5e5, 5e5], northing, 31, hemisphere)
        np.testing.assert_allclose(lat, [90.0, -90.0], rtol=0, atol=1e-4)

    def test_equator_crossing_session_taken_back(self):
        """A session that starts north and crosses the equator keeps the
        north's false northing, so its southern points have negative
        northings; the inverse takes them back, not refuses them."""
        lat = [0.001, -0.001, -0.5]
        easting, northing, zone, hemisphere, _, _ = geodesy.wgs84_to_utm(lat, [9.0] * 3)
        assert hemisphere == "north" and northing[1] < 0.0 < northing[0]
        back, _, _, _ = geodesy.utm_to_wgs84(easting, northing, zone, hemisphere)
        np.testing.assert_allclose(back, lat, rtol=0, atol=1e-9)


mpmath.mp.dps = 40


def _mp_taup(tau):
    e = mpmath.sqrt(geodesy._E2)
    sigma = mpmath.sinh(e * mpmath.atanh(e * tau / mpmath.sqrt(1 + tau**2)))
    return tau * mpmath.sqrt(1 + sigma**2) - sigma * mpmath.sqrt(1 + tau**2)


def mp_forward(lat: float, lon: float, zone: int):
    """The kernel's six-term series in 40 digits from the exact degrees:
    (easting, northing) and the same two without their false offsets."""
    phi = mpmath.radians(lat)
    lam = mpmath.radians(mpmath.mpf(lon) - geodesy.central_meridian_deg(zone))
    taup = _mp_taup(mpmath.tan(phi))
    xi_p = mpmath.atan2(taup, mpmath.cos(lam))
    eta_p = mpmath.asinh(mpmath.sin(lam) / mpmath.sqrt(taup**2 + mpmath.cos(lam) ** 2))
    # The series sums from xi_p and eta_p, each term reading the start values.
    xi = xi_p + sum(c * mpmath.sin(2 * j * xi_p) * mpmath.cosh(2 * j * eta_p)
                    for j, c in enumerate(geodesy._ALPHA, start=1))
    eta = eta_p + sum(c * mpmath.cos(2 * j * xi_p) * mpmath.sinh(2 * j * eta_p)
                      for j, c in enumerate(geodesy._ALPHA, start=1))
    scale = mpmath.mpf(geodesy.SCALE_FACTOR) * geodesy._RADIUS
    x, y = scale * eta, scale * xi
    false_northing = geodesy.FALSE_NORTHING_SOUTH if lat < 0.0 else 0.0
    return geodesy.FALSE_EASTING + x, false_northing + y, x, y


def mp_inverse(easting: float, northing: float, zone: int, south: bool):
    """(lat, lon) in 40 digits by the kernel's six-term series, with tau
    solved to convergence rather than by a fixed Newton rule."""
    scale = mpmath.mpf(geodesy.SCALE_FACTOR) * geodesy._RADIUS
    xi = (mpmath.mpf(northing) - (geodesy.FALSE_NORTHING_SOUTH if south else 0)) / scale
    eta = (mpmath.mpf(easting) - geodesy.FALSE_EASTING) / scale
    xi_p = xi - sum(c * mpmath.sin(2 * j * xi) * mpmath.cosh(2 * j * eta)
                    for j, c in enumerate(geodesy._BETA, start=1))
    eta_p = eta - sum(c * mpmath.cos(2 * j * xi) * mpmath.sinh(2 * j * eta)
                      for j, c in enumerate(geodesy._BETA, start=1))
    sinh_eta, cos_xi = mpmath.sinh(eta_p), mpmath.cos(xi_p)
    taup = mpmath.sin(xi_p) / mpmath.sqrt(sinh_eta**2 + cos_xi**2)
    tau = mpmath.findroot(lambda t: _mp_taup(t) - taup, taup / (1 - geodesy._E2))
    lon = geodesy.central_meridian_deg(zone) + mpmath.degrees(mpmath.atan2(sinh_eta, cos_xi))
    return mpmath.degrees(mpmath.atan(tau)), mpmath.fmod(lon + 540, 360) - 180


# The per-element math kernel's worst inverse errors over inverse_points(300,
# seed=43), in the units of test_inverse_no_worse_than_the_kernel_it_replaced
# (this kernel: 2.88 and 1.49).
OLD_INVERSE_LAT_ULPS = 5.13
OLD_INVERSE_LON_ULPS = 1.49


def forward_points(n: int, seed: int):
    """Points between 80 S and 84 N in random zones, up to 6.99 degrees from
    the central meridian (a forced zone reaches 7), each with its zone.
    Points whose easting would leave (0, 1e6) are dropped, judged on the
    sphere, whose easting is within 1 % of the ellipsoid's."""
    rng = np.random.default_rng(seed)
    lat = rng.uniform(-80.0, 84.0, n)
    zone = rng.integers(1, 61, n)
    dlon = rng.uniform(-6.99, 6.99, n)
    lon = (zone - 1) * 6.0 - 177.0 + dlon
    sphere_x = geodesy.WGS84_A * np.arctanh(np.cos(np.radians(lat)) * np.sin(np.radians(dlon)))
    keep = (-180.0 <= lon) & (lon < 180.0) & (np.abs(sphere_x) < 4.9e5)
    return lat[keep], lon[keep], zone[keep]


def inverse_points(n: int, seed: int):
    """(easting, northing, zone, south) over the zone's usual band, a fifth
    of them within 2 km of the equator, where Newton stops after one step
    while the others take two."""
    rng = np.random.default_rng(seed)
    easting = rng.uniform(1.7e5, 8.3e5, n)
    northing = rng.uniform(0.0, 9.3e6, n)
    northing[: n // 5] = rng.uniform(0.0, 2e3, n // 5)
    south = rng.random(n) < 0.5
    northing[south] = geodesy.FALSE_NORTHING_SOUTH - northing[south]
    return easting, northing, rng.integers(1, 61, n), south


def ulps(value: float, exact, scale) -> float:
    """|value - exact| in units of np.spacing(scale)."""
    return float(abs(value - exact)) / float(np.spacing(abs(float(scale))))


class TestArrayKernels:
    """Every zone, both hemispheres, against the series in 40 digits."""

    def test_forward_within_a_few_ulps_of_the_series(self):
        """Each coordinate within 4 ulps of the exact series value. The ulp
        is that of the coordinate or, if larger, of the coordinate before
        its false easting or northing, which the kernel rounds too. Over
        these 250 points the kernel's worst is 3.05 ulps (easting) and 2.24
        (northing), and over the 2490 of forward_points(3000) 3.89 and 2.88;
        the per-element math kernel it replaced had 3.71 and 3.24 here, and
        5.63 and 4.03 over the 2490."""
        worst_e = worst_n = 0.0
        for lat, lon, zone in zip(*forward_points(300, seed=41)):
            easting, northing, _, _, _, _ = geodesy.wgs84_to_utm([lat], [lon], int(zone))
            e, n, x, y = mp_forward(float(lat), float(lon), int(zone))
            worst_e = max(worst_e, ulps(easting[0], e, max(abs(easting[0]), abs(x))))
            worst_n = max(worst_n, ulps(northing[0], n, max(abs(northing[0]), abs(y))))
        assert worst_e <= 4.0 and worst_n <= 4.0, (worst_e, worst_n)

    def test_inverse_no_worse_than_the_kernel_it_replaced(self):
        """lat in ulps of itself, lon in ulps of 180 degrees, the scale at
        which the longitude wrap rounds. The per-element math kernel's worst
        over these points, measured against the same reference, plus 1 ulp."""
        worst_lat = worst_lon = 0.0
        for easting, northing, zone, south in zip(*inverse_points(300, seed=43)):
            lat, lon, _, _ = geodesy.utm_to_wgs84(
                [easting], [northing], int(zone), "south" if south else "north"
            )
            exact_lat, exact_lon = mp_inverse(float(easting), float(northing), int(zone), south)
            worst_lat = max(worst_lat, ulps(lat[0], exact_lat, lat[0]))
            worst_lon = max(worst_lon, ulps(lon[0], exact_lon, 180.0))
        assert worst_lat <= OLD_INVERSE_LAT_ULPS + 1.0, worst_lat
        assert worst_lon <= OLD_INVERSE_LON_ULPS + 1.0, worst_lon

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


class TestConvergenceAndScale:
    """gamma and k against finite differences of the projected positions:
    points in many zones, both hemispheres, up to 3 degrees from the
    central meridian."""

    @staticmethod
    def points(seed: int):
        rng = np.random.default_rng(seed)
        zone = rng.integers(1, 61, 200)
        lat = rng.uniform(1.0, 80.0, 200) * rng.choice([-1.0, 1.0], 200)
        lon = (zone - 1) * 6.0 - 177.0 + rng.uniform(-3.0, 3.0, 200)
        return lat, lon, zone

    def test_forward_matches_a_northward_step(self):
        for lat, lon, zone in zip(*self.points(51)):
            _, _, _, _, gamma, k = geodesy.wgs84_to_utm([lat], [lon], int(zone))
            step_gamma, step_k = grid_north_by_step([lat], [lon], int(zone))
            assert abs(gamma[0] - step_gamma[0]) < 1e-8
            assert abs(k[0] / step_k[0] - 1.0) < 1e-7

    def test_inverse_matches_a_grid_north_step(self):
        """A 1 m step along grid north, taken back to the ellipsoid: its
        true bearing is gamma and its true length 2 m / k."""
        for lat, lon, zone in zip(*self.points(53)):
            hemisphere = "south" if lat < 0.0 else "north"
            easting, northing = geodesy.wgs84_to_utm([lat], [lon], int(zone))[:2]
            e = np.repeat(easting, 3)
            n = northing[0] + np.array([-1.0, 0.0, 1.0])
            lats, lons, gamma, k = geodesy.utm_to_wgs84(e, n, int(zone), hemisphere)
            e2 = geodesy.WGS84_F * (2.0 - geodesy.WGS84_F)
            phi = math.radians(lats[1])
            nu = geodesy.WGS84_A / math.sqrt(1.0 - e2 * math.sin(phi) ** 2)
            north = meridian_radius(lats[1]) * math.radians(lats[2] - lats[0])
            east = nu * math.cos(phi) * math.radians(lons[2] - lons[0])
            assert abs(gamma[1] - math.atan2(east, north)) < 1e-8
            assert abs(k[1] * math.hypot(east, north) / 2.0 - 1.0) < 1e-7

    def test_central_meridian_and_signs(self):
        """No convergence and scale k0 on the central meridian; east of it
        gamma has the sign of the latitude, west of it the opposite."""
        _, _, _, _, gamma, k = geodesy.wgs84_to_utm([48.0, 48.0, 48.0], [9.0, 11.0, 7.0], 32)
        assert gamma[0] == 0.0 and k[0] == pytest.approx(K0, abs=1e-15)
        assert gamma[1] > 0.0 > gamma[2]
        _, _, _, _, gamma, _ = geodesy.wgs84_to_utm([-48.0, -48.0], [11.0, 7.0], 32)
        assert gamma[0] < 0.0 < gamma[1]
