"""Trajectory CSV parsing, writing, and clock models."""

from __future__ import annotations

import copy
import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from gtforge import geodesy
from gtforge.errors import ParseError
from gtforge.trajlog import (
    ClockModel,
    Trajectory,
    apply_clock_model,
    parse_trajectory_log,
    trajectory_from_arrays,
    write_trajectory_log,
)
from helpers import grid_north_by_step, meridian_radius, same_trajectory

UTM_HEADER = "t,x,y,alt,vx,vy,psi_rad,psi_dot\n"
GEO_HEADER = "t,lat,lon,alt,ve,vn,heading_deg,yaw_rate\n"


def make_traj(n: int = 12, seed: int = 0, with_rate: bool = True) -> Trajectory:
    rng = np.random.default_rng(seed)
    t = np.arange(n) * 0.1
    return trajectory_from_arrays(
        "veh",
        t,
        rng.normal(0, 100, n),
        rng.normal(0, 100, n),
        rng.normal(0, 10, n),
        rng.normal(0, 10, n),
        rng.uniform(-math.pi, math.pi, n),
        rng.normal(0, 0.5, n) if with_rate else None,
    )


class TestUtmParsing:
    def test_basic_parse(self, text_file):
        text = UTM_HEADER + "0.0,1.0,2.0,,3.0,4.0,0.5,\n0.1,1.3,2.4,10.0,3.0,4.0,0.5,0.01\n"
        traj = parse_trajectory_log(text_file(text))
        assert len(traj) == 2
        assert (traj.x[0], traj.y[0], traj.vx[0], traj.vy[0], traj.psi[0]) == (
            1.0, 2.0, 3.0, 4.0, 0.5
        )
        assert math.isnan(traj.alt[0]) and math.isnan(traj.psi_dot[0])
        assert traj.alt[1] == 10.0 and traj.psi_dot[1] == 0.01
        assert not traj.has_yaw_rate
        assert traj.zone is None

    def test_round_trip_is_bit_exact(self, tmp_path):
        """write -> parse must reproduce every float unchanged."""
        traj = make_traj(n=50, seed=3)
        write_trajectory_log(traj, tmp_path / "veh.csv")
        assert same_trajectory(parse_trajectory_log(tmp_path / "veh.csv"), traj)

    def test_round_trip_without_yaw_rate(self, tmp_path):
        traj = make_traj(n=20, seed=4, with_rate=False)
        write_trajectory_log(traj, tmp_path / "veh.csv")
        assert same_trajectory(parse_trajectory_log(tmp_path / "veh.csv"), traj)

    def test_vehicle_id_from_path_stem(self, tmp_path):
        path = tmp_path / "ego_noisy.csv"
        write_trajectory_log(make_traj(), path)
        assert parse_trajectory_log(path).vehicle_id == "ego_noisy"

    def test_column_order_irrelevant(self, text_file):
        text = "psi_rad,t,x,y,alt,vx,vy,psi_dot\n0.5,0.0,1.0,2.0,,3.0,4.0,\n"
        traj = parse_trajectory_log(text_file(text))
        assert traj.psi[0] == 0.5
        assert traj.t[0] == 0.0

    def test_blank_lines_skipped(self, text_file):
        text = UTM_HEADER + "\n0.0,1.0,2.0,,3.0,4.0,0.5,\n\n"
        assert len(parse_trajectory_log(text_file(text))) == 1


# Any finite float, with -0.0, subnormals and values near +-1e308 drawn often.
finite = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e308, -9.9e307]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def utm_logs(draw):
    """A valid trajectory whose alt and psi_dot cells may each be empty."""
    n = draw(st.integers(1, 6))
    # unique compares with ==, so 0.0 and -0.0 never both appear.
    t = np.sort(draw(st.lists(finite, min_size=n, max_size=n, unique=True)))
    x, y, vx, vy = (draw(st.lists(finite, min_size=n, max_size=n)) for _ in range(4))
    psi = draw(st.lists(st.floats(-math.pi, math.pi, exclude_min=True), min_size=n, max_size=n))
    optional = st.lists(st.one_of(st.just(math.nan), finite), min_size=n, max_size=n)
    return Trajectory("veh", t, x, y, vx, vy, psi, draw(optional), draw(optional))


class TestUtmRoundTripProperty:
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(utm_logs())
    def test_write_then_parse_is_bit_exact(self, tmp_path, traj):
        write_trajectory_log(traj, tmp_path / "veh.csv")
        assert same_trajectory(parse_trajectory_log(tmp_path / "veh.csv"), traj)


class TestGeodeticParsing:
    def test_projection_matches_geodesy(self, text_file):
        text = GEO_HEADER + "0.0,48.80,2.13,130.5,5.0,1.0,90.0,0.0\n"
        traj = parse_trajectory_log(text_file(text), frame="geodetic")
        easting, northing = geodesy.wgs84_to_utm([48.80], [2.13])[:2]
        assert traj.x[0] == pytest.approx(easting[0], abs=1e-9)
        assert traj.y[0] == pytest.approx(northing[0], abs=1e-9)
        assert traj.alt[0] == 130.5
        assert traj.zone == 31
        assert traj.hemisphere == "north"

    def test_heading_to_yaw(self, text_file):
        """Heading is degrees CW from true north; yaw is radians CCW from
        grid east. At 48.80 N 2.13 E, west of zone 31's central meridian,
        true north has grid bearing -gamma with gamma about -0.65 degrees,
        read here off a projected northward step."""
        rows = "\n".join(
            f"{i / 10.0},48.80,2.13,,0.0,0.0,{heading},0.0"
            for i, heading in enumerate((0.0, 90.0, 180.0, 270.0))
        )
        traj = parse_trajectory_log(text_file(GEO_HEADER + rows + "\n"), frame="geodetic")
        (gamma,), _ = grid_north_by_step([48.80], [2.13], 31)
        assert math.degrees(gamma) == pytest.approx(-0.65, abs=0.01)
        psi = traj.psi
        assert psi[0] == pytest.approx(math.pi / 2 + gamma, abs=1e-9)
        assert psi[1] == pytest.approx(gamma, abs=1e-9)
        assert psi[2] == pytest.approx(-math.pi / 2 + gamma, abs=1e-9)
        assert psi[3] == pytest.approx(math.pi + gamma, abs=1e-9)  # wrapped from -pi + gamma

    def test_east_north_velocity_mapping(self, text_file):
        """(ve, vn) are true east and north: rotated by gamma into the grid
        and scaled by the point scale k, both from a projected step."""
        text = GEO_HEADER + "0.0,48.80,2.13,,5.0,-2.0,90.0,\n"
        traj = parse_trajectory_log(text_file(text), frame="geodetic")
        (gamma,), (k,) = grid_north_by_step([48.80], [2.13], 31)
        c, s = math.cos(gamma), math.sin(gamma)
        assert traj.vx[0] == pytest.approx(k * (5.0 * c + 2.0 * s), abs=1e-7)
        assert traj.vy[0] == pytest.approx(k * (5.0 * s - 2.0 * c), abs=1e-7)

    def test_true_course_lands_on_the_projected_track(self, text_file):
        """A car driving due north along a meridian 3 degrees east of zone
        32's central meridian at 48 N, heading 0 and (ve, vn) = (0, 20):
        its yaw must be the grid bearing of its own projected track, and its
        velocity the derivative of its projected positions (gamma is about
        2.23 degrees there and k about 1.000215)."""
        t = np.arange(201) / 10.0
        lat0 = 48.0
        # Latitude along the meridian for 20 m/s of true arc.
        sol = solve_ivp(lambda _, phi: 20.0 / meridian_radius(phi) * 180.0 / math.pi,
                        (0.0, t[-1]), [lat0], t_eval=t, rtol=1e-13, atol=1e-15)
        lat = sol.y[0]
        rows = "".join(f"{ti!r},{a!r},11.999,,0.0,20.0,0.0,0.0\n" for ti, a in zip(t.tolist(), lat.tolist()))
        traj = parse_trajectory_log(text_file(GEO_HEADER + rows), frame="geodetic")
        assert traj.zone == 32
        bearing = np.arctan2(traj.y[2:] - traj.y[:-2], traj.x[2:] - traj.x[:-2])
        assert np.abs(traj.psi[1:-1] - bearing).max() < 1e-6
        assert math.degrees(traj.psi[0] - math.pi / 2) == pytest.approx(2.23, abs=0.01)
        h = traj.t[2:] - traj.t[:-2]
        rms = [
            float(np.sqrt(np.mean(((p[2:] - p[:-2]) / h - v[1:-1]) ** 2)))
            for p, v in ((traj.x, traj.vx), (traj.y, traj.vy))
        ]
        assert max(rms) < 1e-3, rms

    def test_zone_fixed_by_first_row(self, text_file):
        """A log brushing a zone boundary stays in the first row's plane."""
        text = GEO_HEADER + (
            "0.0,48.80,5.99,,0.0,0.0,0.0,\n"
            "1.0,48.80,6.01,,0.0,0.0,0.0,\n"
        )
        traj = parse_trajectory_log(text_file(text), frame="geodetic")
        assert traj.zone == 31
        # Monotone easting across the boundary: both rows in one plane.
        assert traj.x[1] > traj.x[0]

    def test_northing_continuous_across_equator(self, text_file):
        """The first row's hemisphere sets one false northing for the log."""
        lats = (0.0003, 0.0002, 0.0001, -0.0001, -0.0002, -0.0003)
        rows = "".join(f"{i / 10.0},{lat},9.0,,0.0,-3.0,180.0,\n" for i, lat in enumerate(lats))
        traj = parse_trajectory_log(text_file(GEO_HEADER + rows), frame="geodetic")
        assert traj.zone == 32 and traj.hemisphere == "north"
        steps = np.diff(traj.y)
        assert np.all(steps < 0.0) and np.all(np.abs(steps) < 25.0)
        assert traj.y[3] == pytest.approx(-0.0001 * 110574.4 * 0.9996, rel=1e-3)

    def test_forced_zone(self, text_file):
        text = GEO_HEADER + "0.0,48.80,2.13,,0.0,0.0,0.0,\n"
        traj = parse_trajectory_log(text_file(text), frame="geodetic", forced_zone=30)
        assert traj.zone == 30

    def test_bad_forced_zone_names_no_line(self, text_file):
        text = GEO_HEADER + "0.0,48.80,2.13,,0.0,0.0,0.0,\n"
        path = text_file(text)
        with pytest.raises(ParseError) as err:
            parse_trajectory_log(path, frame="geodetic", forced_zone=99)
        assert str(err.value) == f"{path}: zone must be in 1..60, got 99"
        assert err.value.line is None

    def test_geodetic_round_trip_to_projection_accuracy(self, text_file, tmp_path):
        text = GEO_HEADER + (
            "0.0,48.80,2.13,100.0,5.0,1.0,45.0,0.01\n"
            "0.1,48.8001,2.1301,100.1,5.0,1.0,45.2,0.01\n"
        )
        traj = parse_trajectory_log(text_file(text), frame="geodetic")
        write_trajectory_log(traj, tmp_path / "back.csv", frame="geodetic")
        back = parse_trajectory_log(tmp_path / "back.csv", frame="geodetic")
        np.testing.assert_allclose(back.x, traj.x, rtol=0, atol=1e-6)
        np.testing.assert_allclose(back.y, traj.y, rtol=0, atol=1e-6)
        np.testing.assert_allclose(back.psi, traj.psi, rtol=0, atol=1e-12)


class TestParseErrors:
    def test_missing_column(self, text_file):
        with pytest.raises(ParseError, match="missing column 'alt'") as err:
            parse_trajectory_log(text_file("t,x,y\n0,1,2\n"))
        assert err.value.line == 1
        assert "alt" in str(err.value)

    def test_bad_cell_reports_line(self, text_file):
        text = UTM_HEADER + (
            "0.0,1.0,2.0,,3.0,4.0,0.5,\n"
            "0.1,oops,2.0,,3.0,4.0,0.5,\n"
        )
        path = text_file(text)
        with pytest.raises(ParseError) as err:
            parse_trajectory_log(path)
        assert err.value.line == 3
        assert str(err.value).startswith(f"{path}: line 3:")

    @pytest.mark.parametrize("row, message", [
        ("0.1,95.0,2.13,,0.0,0.0,0.0,", "lat must be in [-90, 90]"),
        ("0.1,48.80,10.5,,0.0,0.0,0.0,", "from zone 31"),
    ])
    def test_bad_geodetic_row_reports_line(self, text_file, row, message):
        text = GEO_HEADER + "0.0,48.80,2.13,,0.0,0.0,0.0,\n" + row + "\n"
        path = text_file(text)
        with pytest.raises(ParseError) as err:
            parse_trajectory_log(path, frame="geodetic")
        assert err.value.line == 3
        assert str(err.value).startswith(f"{path}: line 3:")
        assert message in str(err.value)

    def test_empty_required_cell(self, text_file):
        text = UTM_HEADER + "0.0,,2.0,,3.0,4.0,0.5,\n"
        with pytest.raises(ParseError) as err:
            parse_trajectory_log(text_file(text))
        assert "'x'" in str(err.value)

    def test_non_finite_cell(self, text_file):
        text = UTM_HEADER + "0.0,inf,2.0,,3.0,4.0,0.5,\n"
        with pytest.raises(ParseError):
            parse_trajectory_log(text_file(text))

    def test_empty_file(self, text_file):
        with pytest.raises(ParseError):
            parse_trajectory_log(text_file(""))

    def test_header_only(self, text_file):
        with pytest.raises(ParseError):
            parse_trajectory_log(text_file(UTM_HEADER))

    def test_non_monotonic_timestamps(self, text_file):
        text = UTM_HEADER + (
            "0.0,1.0,2.0,,3.0,4.0,0.5,\n"
            "0.0,1.1,2.0,,3.0,4.0,0.5,\n"
        )
        path = text_file(text)
        with pytest.raises(ParseError) as err:
            parse_trajectory_log(path)
        assert err.value.line == 3
        assert str(err.value) == f"{path}: line 3: t=0.0 does not increase past t=0.0 on line 2"

    @pytest.mark.parametrize("t0, t1, ok", [(-1e308, 1e308, True), (1e308, -1e308, False)])
    def test_time_order_at_the_float_limits(self, text_file, t0, t1, ok):
        """Neighbouring times are compared, not subtracted: a step past the
        largest float neither overflows nor warns."""
        path = text_file(UTM_HEADER + f"{t0!r},1,2,,3,4,0.5,\n{t1!r},1,2,,3,4,0.5,\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if ok:
                assert parse_trajectory_log(path).t.tolist() == [t0, t1]
            else:
                with pytest.raises(ParseError, match="line 3: t=-1e[+]308 does not increase"):
                    parse_trajectory_log(path)

    def test_out_of_range_yaw(self, text_file):
        # 7.0 rad wraps fine; the parser wraps before validation.
        text = UTM_HEADER + "0.0,1.0,2.0,,3.0,4.0,7.0,\n"
        psi = parse_trajectory_log(text_file(text)).psi[0]
        assert -math.pi < psi <= math.pi

    def test_bad_frame(self, text_file):
        with pytest.raises(ValueError):
            parse_trajectory_log(text_file(UTM_HEADER), frame="ecef")


class TestClockModel:
    def test_offset_shifts_times(self):
        traj = make_traj()
        fixed = apply_clock_model(traj, ClockModel(offset=0.25))
        np.testing.assert_allclose(fixed.t, traj.t - 0.25)

    def test_drift_rescales_about_t0(self):
        traj = make_traj()
        fixed = apply_clock_model(traj, ClockModel(offset=0.0, drift=0.01))
        expect = traj.t - 0.01 * (traj.t - traj.t[0])
        np.testing.assert_allclose(fixed.t, expect)

    def test_drift_bound(self):
        with pytest.raises(ValueError):
            ClockModel(offset=0.0, drift=1.0)


class TestModelValidation:
    def test_trajectory_needs_samples(self):
        with pytest.raises(ValueError):
            Trajectory("v", [], [], [], [], [], [])

    def test_support_and_channels(self):
        traj = make_traj(n=5)
        assert traj.support == (0.0, pytest.approx(0.4))
        assert traj.x.shape == (5,)
        assert traj.has_yaw_rate

    def test_channel_nan_for_missing(self):
        traj = make_traj(n=5, with_rate=False)
        assert np.all(np.isnan(traj.psi_dot))

    def test_pickle_keeps_channels_read_only(self):
        traj = replace(make_traj(n=5, with_rate=False), zone=31, hemisphere="north")
        for back in (pickle.loads(pickle.dumps(traj)), copy.deepcopy(traj)):
            assert same_trajectory(back, traj)
            for name in ("t", "x", "y", "vx", "vy", "psi", "psi_dot", "alt"):
                assert not getattr(back, name).flags.writeable, name

    def test_unpickling_runs_the_checks(self):
        traj = make_traj(n=5)
        object.__setattr__(traj, "t", traj.t[::-1])  # a log no constructor would take
        with pytest.raises(ValueError, match="does not increase"):
            pickle.loads(pickle.dumps(traj))

    def test_trajectory_rejects_out_of_range_psi(self):
        with pytest.raises(ValueError):
            Trajectory("v", [0.0], [0.0], [0.0], [0.0], [0.0], [4.0])

    def test_trajectory_rejects_nan(self):
        with pytest.raises(ValueError):
            Trajectory("v", [0.0], [math.nan], [0.0], [0.0], [0.0], [0.0])

    def test_trajectory_rejects_infinite_optional_cell(self):
        with pytest.raises(ValueError):
            Trajectory("v", [0.0], [0.0], [0.0], [0.0], [0.0], [0.0], [math.inf])

    def test_equality_is_bitwise_per_channel(self):
        traj = make_traj(n=5)
        x = traj.x.copy()
        assert same_trajectory(replace(traj, x=x), traj)
        x[2] = np.nextafter(x[2], math.inf)
        assert not same_trajectory(replace(traj, x=x), traj)

    def test_channels_are_read_only(self):
        traj = make_traj(n=5)
        with pytest.raises(ValueError):
            traj.x[0] = 1.0

    def test_length_mismatch_in_arrays(self):
        with pytest.raises(ValueError):
            trajectory_from_arrays("v", [0, 1], [0], [0, 0], [0, 0], [0, 0], [0, 0])
