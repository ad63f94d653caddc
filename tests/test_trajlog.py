"""Trajectory CSV parsing, writing, and clock models."""

from __future__ import annotations

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from gtforge import geodesy
from gtforge.errors import MissingColumn, NonMonotonicTimestamps, ParseError
from gtforge.trajlog import (
    ClockModel,
    Trajectory,
    apply_clock_model,
    parse_trajectory_log,
    trajectory_from_arrays,
    write_trajectory_log,
)

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
    def test_basic_parse(self):
        text = UTM_HEADER + "0.0,1.0,2.0,,3.0,4.0,0.5,\n0.1,1.3,2.4,10.0,3.0,4.0,0.5,0.01\n"
        traj = parse_trajectory_log(io.StringIO(text))
        assert len(traj) == 2
        assert (traj.x[0], traj.y[0], traj.vx[0], traj.vy[0], traj.psi[0]) == (
            1.0, 2.0, 3.0, 4.0, 0.5
        )
        assert math.isnan(traj.alt[0]) and math.isnan(traj.psi_dot[0])
        assert traj.alt[1] == 10.0 and traj.psi_dot[1] == 0.01
        assert not traj.has_yaw_rate
        assert traj.zone is None

    def test_round_trip_is_bit_exact(self):
        """write -> parse must reproduce every float unchanged."""
        traj = make_traj(n=50, seed=3)
        buf = io.StringIO()
        write_trajectory_log(traj, buf)
        back = parse_trajectory_log(io.StringIO(buf.getvalue()), vehicle_id="veh")
        assert back == traj

    def test_round_trip_without_yaw_rate(self):
        traj = make_traj(n=20, seed=4, with_rate=False)
        buf = io.StringIO()
        write_trajectory_log(traj, buf)
        back = parse_trajectory_log(io.StringIO(buf.getvalue()), vehicle_id="veh")
        assert back == traj

    def test_vehicle_id_from_path_stem(self, tmp_path):
        path = tmp_path / "ego_noisy.csv"
        write_trajectory_log(make_traj(), path)
        assert parse_trajectory_log(path).vehicle_id == "ego_noisy"

    def test_column_order_irrelevant(self):
        text = "psi_rad,t,x,y,alt,vx,vy,psi_dot\n0.5,0.0,1.0,2.0,,3.0,4.0,\n"
        traj = parse_trajectory_log(io.StringIO(text))
        assert traj.psi[0] == 0.5
        assert traj.t[0] == 0.0

    def test_blank_lines_skipped(self):
        text = UTM_HEADER + "\n0.0,1.0,2.0,,3.0,4.0,0.5,\n\n"
        assert len(parse_trajectory_log(io.StringIO(text))) == 1


class TestGeodeticParsing:
    def test_projection_matches_geodesy(self):
        text = GEO_HEADER + "0.0,48.80,2.13,130.5,5.0,1.0,90.0,0.0\n"
        traj = parse_trajectory_log(io.StringIO(text), frame="geodetic")
        easting, northing, _, _ = geodesy.wgs84_to_utm([48.80], [2.13])
        assert traj.x[0] == pytest.approx(easting[0], abs=1e-9)
        assert traj.y[0] == pytest.approx(northing[0], abs=1e-9)
        assert traj.alt[0] == 130.5
        assert traj.zone == 31
        assert traj.hemisphere == "north"

    def test_heading_to_yaw(self):
        """Heading is degrees CW from North; yaw is radians CCW from East."""
        rows = "\n".join(
            f"{i / 10.0},48.80,2.13,,0.0,0.0,{heading},0.0"
            for i, heading in enumerate((0.0, 90.0, 180.0, 270.0))
        )
        traj = parse_trajectory_log(io.StringIO(GEO_HEADER + rows + "\n"), frame="geodetic")
        psi = traj.psi
        assert psi[0] == pytest.approx(math.pi / 2)
        assert psi[1] == pytest.approx(0.0)
        assert psi[2] == pytest.approx(-math.pi / 2)
        assert psi[3] == pytest.approx(math.pi)

    def test_east_north_velocity_mapping(self):
        text = GEO_HEADER + "0.0,48.80,2.13,,5.0,-2.0,90.0,\n"
        traj = parse_trajectory_log(io.StringIO(text), frame="geodetic")
        assert (traj.vx[0], traj.vy[0]) == (5.0, -2.0)

    def test_zone_fixed_by_first_row(self):
        """A log brushing a zone boundary stays in the first row's plane."""
        text = GEO_HEADER + (
            "0.0,48.80,5.99,,0.0,0.0,0.0,\n"
            "1.0,48.80,6.01,,0.0,0.0,0.0,\n"
        )
        traj = parse_trajectory_log(io.StringIO(text), frame="geodetic")
        assert traj.zone == 31
        # Monotone easting across the boundary: both rows in one plane.
        assert traj.x[1] > traj.x[0]

    def test_northing_continuous_across_equator(self):
        """The first row's hemisphere sets one false northing for the log."""
        lats = (0.0003, 0.0002, 0.0001, -0.0001, -0.0002, -0.0003)
        rows = "".join(f"{i / 10.0},{lat},9.0,,0.0,-3.0,180.0,\n" for i, lat in enumerate(lats))
        traj = parse_trajectory_log(io.StringIO(GEO_HEADER + rows), frame="geodetic")
        assert traj.zone == 32 and traj.hemisphere == "north"
        steps = np.diff(traj.y)
        assert np.all(steps < 0.0) and np.all(np.abs(steps) < 25.0)
        assert traj.y[3] == pytest.approx(-0.0001 * 110574.4 * 0.9996, rel=1e-3)

    def test_forced_zone(self):
        text = GEO_HEADER + "0.0,48.80,2.13,,0.0,0.0,0.0,\n"
        traj = parse_trajectory_log(io.StringIO(text), frame="geodetic", forced_zone=30)
        assert traj.zone == 30

    def test_geodetic_round_trip_to_projection_accuracy(self):
        text = GEO_HEADER + (
            "0.0,48.80,2.13,100.0,5.0,1.0,45.0,0.01\n"
            "0.1,48.8001,2.1301,100.1,5.0,1.0,45.2,0.01\n"
        )
        traj = parse_trajectory_log(io.StringIO(text), frame="geodetic")
        buf = io.StringIO()
        write_trajectory_log(traj, buf, frame="geodetic")
        back = parse_trajectory_log(io.StringIO(buf.getvalue()), frame="geodetic")
        np.testing.assert_allclose(back.x, traj.x, rtol=0, atol=1e-6)
        np.testing.assert_allclose(back.y, traj.y, rtol=0, atol=1e-6)
        np.testing.assert_allclose(back.psi, traj.psi, rtol=0, atol=1e-12)


class TestParseErrors:
    def test_missing_column(self):
        with pytest.raises(MissingColumn) as err:
            parse_trajectory_log(io.StringIO("t,x,y\n0,1,2\n"))
        assert err.value.line == 1
        assert "alt" in str(err.value)

    def test_bad_cell_reports_line(self):
        text = UTM_HEADER + (
            "0.0,1.0,2.0,,3.0,4.0,0.5,\n"
            "0.1,oops,2.0,,3.0,4.0,0.5,\n"
        )
        with pytest.raises(ParseError) as err:
            parse_trajectory_log(io.StringIO(text))
        assert err.value.line == 3
        assert str(err.value).startswith("line 3:")

    @pytest.mark.parametrize("row, message", [
        ("0.1,95.0,2.13,,0.0,0.0,0.0,", "lat must be in [-90, 90]"),
        ("0.1,48.80,10.5,,0.0,0.0,0.0,", "from zone 31"),
    ])
    def test_bad_geodetic_row_reports_line(self, row, message):
        text = GEO_HEADER + "0.0,48.80,2.13,,0.0,0.0,0.0,\n" + row + "\n"
        with pytest.raises(ParseError) as err:
            parse_trajectory_log(io.StringIO(text), frame="geodetic")
        assert err.value.line == 3
        assert str(err.value).startswith("line 3:")
        assert message in str(err.value)

    def test_empty_required_cell(self):
        text = UTM_HEADER + "0.0,,2.0,,3.0,4.0,0.5,\n"
        with pytest.raises(ParseError) as err:
            parse_trajectory_log(io.StringIO(text))
        assert "'x'" in str(err.value)

    def test_non_finite_cell(self):
        text = UTM_HEADER + "0.0,inf,2.0,,3.0,4.0,0.5,\n"
        with pytest.raises(ParseError):
            parse_trajectory_log(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_trajectory_log(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(ParseError):
            parse_trajectory_log(io.StringIO(UTM_HEADER))

    def test_non_monotonic_timestamps(self):
        text = UTM_HEADER + (
            "0.0,1.0,2.0,,3.0,4.0,0.5,\n"
            "0.0,1.1,2.0,,3.0,4.0,0.5,\n"
        )
        with pytest.raises(NonMonotonicTimestamps):
            parse_trajectory_log(io.StringIO(text))

    def test_out_of_range_yaw(self):
        # 7.0 rad wraps fine; the parser wraps before validation.
        text = UTM_HEADER + "0.0,1.0,2.0,,3.0,4.0,7.0,\n"
        psi = parse_trajectory_log(io.StringIO(text)).psi[0]
        assert -math.pi < psi <= math.pi

    def test_bad_frame(self):
        with pytest.raises(ValueError):
            parse_trajectory_log(io.StringIO(UTM_HEADER), frame="ecef")


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

    def test_inverse_composes_to_identity(self):
        traj = make_traj(n=40, seed=9)
        clock = ClockModel(offset=0.137, drift=0.003)
        back = apply_clock_model(apply_clock_model(traj, clock), clock.inverse())
        assert np.max(np.abs(back.t - traj.t)) < 1e-12

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
        assert replace(traj, x=x) == traj
        x[2] = np.nextafter(x[2], math.inf)
        assert replace(traj, x=x) != traj

    def test_channels_are_read_only(self):
        traj = make_traj(n=5)
        with pytest.raises(ValueError):
            traj.x[0] = 1.0

    def test_length_mismatch_in_arrays(self):
        with pytest.raises(ValueError):
            trajectory_from_arrays("v", [0, 1], [0], [0, 0], [0, 0], [0, 0], [0, 0])
