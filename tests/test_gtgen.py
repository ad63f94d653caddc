"""Ground-truth record pipeline and JSONL serialization."""

from __future__ import annotations

import json
import math
import re
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gtforge import geodesy, gtgen, synth
from gtforge.egokin import RelativeState, wrap_angle
from gtforge.errors import GtForgeError, ParseError
from gtforge.gtgen import (
    RecordSet,
    VehicleGeometry,
    bbox_footprint,
    generate_records,
    make_stamps,
    read_records_jsonl,
    read_stamps,
    write_records_jsonl,
)
from gtforge.synth import run_scenario
from gtforge.trajlog import (
    ClockModel,
    apply_clock_model,
    parse_trajectory_log,
    write_trajectory_log,
)
from gtforge.uncert import ANALYSIS_ENVELOPE, ANALYSIS_NOISE, CovBound2
from helpers import make_lead_follow

GOLDEN = Path(__file__).parent / "golden"


def lead_follow_logs(duration=5.0, rate=20.0, gap=30.0):
    logs = run_scenario(make_lead_follow(gap=gap, speed=25.0,
                                         duration=duration, rate=rate))
    return logs["ego"][0], logs["lead"][0]


GEOM = VehicleGeometry(length=4.0, width=2.0, ref_to_center=(2.0, 0.0))


class TestBbox:
    def test_worked_example(self):
        """Target 10 m ahead, aligned, reference at the footprint center."""
        rel = RelativeState(x=10.0, y=0.0, vx=0.0, vy=0.0, psi=0.0)
        corners = bbox_footprint(rel, VehicleGeometry(length=4.0, width=2.0))
        assert corners.tolist() == [
            [12.0, 1.0], [12.0, -1.0], [8.0, -1.0], [8.0, 1.0]
        ]

    def test_reference_offset_shifts_center(self):
        """A rear-reference vehicle extends further ahead of its fix."""
        rel = RelativeState(x=10.0, y=0.0, vx=0.0, vy=0.0, psi=0.0)
        corners = bbox_footprint(rel, GEOM)  # ref 2 m behind center
        assert corners.tolist() == [
            [14.0, 1.0], [14.0, -1.0], [10.0, -1.0], [10.0, 1.0]
        ]

    def test_corner_order_is_fl_fr_rr_rl(self):
        rel = RelativeState(x=0.0, y=0.0, vx=0.0, vy=0.0, psi=0.0)
        geom = VehicleGeometry(length=4.0, width=2.0)
        fl, fr, rr, rl = bbox_footprint(rel, geom).tolist()
        assert fl == [2.0, 1.0]
        assert fr == [2.0, -1.0]
        assert rr == [-2.0, -1.0]
        assert rl == [-2.0, 1.0]

    def test_rotation_is_isometry(self):
        """Yawing the target must not change edge lengths."""
        geom = VehicleGeometry(length=4.5, width=1.8, ref_to_center=(1.3, 0.1))
        for psi in (-2.5, -0.3, 0.0, 1.1, 3.0):
            rel = RelativeState(x=5.0, y=-2.0, vx=0.0, vy=0.0, psi=psi)
            fl, fr, rr, rl = bbox_footprint(rel, geom)
            assert math.dist(fl, fr) == pytest.approx(1.8)
            assert math.dist(fr, rr) == pytest.approx(4.5)
            assert math.dist(rr, rl) == pytest.approx(1.8)
            assert math.dist(rl, fl) == pytest.approx(4.5)

    def test_quarter_turn(self):
        rel = RelativeState(x=0.0, y=0.0, vx=0.0, vy=0.0, psi=math.pi / 2)
        geom = VehicleGeometry(length=4.0, width=2.0)
        fl, _, _, _ = bbox_footprint(rel, geom)
        assert fl[0] == pytest.approx(-1.0)
        assert fl[1] == pytest.approx(2.0)


class TestStamps:
    def test_make_stamps(self):
        stamps = make_stamps(10.0, 1.0, 2.0)
        assert stamps.shape == (11,)
        assert stamps[0] == 1.0
        assert stamps[-1] == pytest.approx(2.0)

    def test_make_stamps_fractional_window(self):
        stamps = make_stamps(10.0, 0.0, 0.95)
        assert stamps.size == 10
        assert stamps[-1] == pytest.approx(0.9)

    # Windows where t0 + count / rate rounds past t1.
    @pytest.mark.parametrize("rate, t0, t1", [
        (100.0, 0.01, 90.3), (100.0, 4.45, 53.16), (30.0, 2.02, 47.72),
        (100.0, 0.08, 154.01),
    ])
    def test_make_stamps_never_pass_window_end(self, rate, t0, t1):
        stamps = make_stamps(rate, t0, t1)
        assert stamps[-1] == t1
        assert np.all(np.diff(stamps) > 0.0)
        np.testing.assert_array_equal(stamps[:-1], t0 + np.arange(stamps.size - 1) / rate)

    @pytest.mark.parametrize("rate, t0, t1", [
        (1e300, 0.0, 6.0), (2.0**59, 0.0, 1.0), (1e308, 0.0, 1e3),
    ])
    def test_make_stamps_refuses_more_than_2_59(self, rate, t0, t1):
        """Refused before any allocation, naming the rate and the window."""
        with pytest.raises(ValueError) as err:
            make_stamps(rate, t0, t1)
        assert str(err.value) == (
            f"rate {rate:g} Hz over [{t0:g}, {t1:g}] gives more than 2**59 stamps"
        )

    def test_read_stamps(self, text_file):
        got = read_stamps(text_file("0.0\n0.1\n\n0.2\n", "stamps.txt"))
        np.testing.assert_allclose(got, [0.0, 0.1, 0.2])

    def test_read_stamps_bad_line(self, text_file):
        with pytest.raises(ParseError) as err:
            read_stamps(text_file("0.0\nnope\n", "stamps.txt"))
        assert err.value.line == 2

    def test_read_stamps_empty(self, text_file):
        with pytest.raises(ParseError):
            read_stamps(text_file("\n\n", "stamps.txt"))


class TestGenerateRecords:
    def test_lead_follow_relative_state(self):
        """On the straight the lead sits exactly gap metres ahead."""
        ego, lead = lead_follow_logs()
        records = generate_records(ego, [lead], make_stamps(10.0, 0.0, 3.0), GEOM)
        assert len(records) == 31
        assert records.target_id[0] == "lead"
        assert records.x[0] == pytest.approx(30.0, abs=1e-9)
        assert records.y[0] == pytest.approx(0.0, abs=1e-9)
        assert records.vx[0] == pytest.approx(0.0, abs=1e-9)
        assert records.psi[0] == pytest.approx(0.0, abs=1e-12)
        assert records.bbox.shape == (31, 4, 2)
        assert records.pos_bound is None and records.vel_bound is None
        assert records.yaw_var is None

    def test_bounds_attached_with_noise(self, to_jsonl):
        ego, lead = lead_follow_logs()
        records = generate_records(
            ego, [lead], make_stamps(10.0, 0.0, 1.0), GEOM,
            noise=ANALYSIS_NOISE, envelope=ANALYSIS_ENVELOPE,
        )
        assert records.pos_bound.a == pytest.approx(0.00845624413812116)
        assert records.vel_bound.a == pytest.approx(0.06381297021643528)
        assert records.yaw_var == pytest.approx(6.125e-6)
        # dataset-level: identical on every written record
        lines = [json.loads(line) for line in to_jsonl(records).splitlines()]
        assert len(lines) == len(records)
        assert all(line["pos_bound"] == lines[0]["pos_bound"] for line in lines)

    def test_noise_without_envelope_rejected(self):
        ego, lead = lead_follow_logs()
        with pytest.raises(ValueError):
            generate_records(ego, [lead], [1.0], GEOM, noise=ANALYSIS_NOISE)

    def test_stamp_outside_support(self):
        ego, lead = lead_follow_logs()
        with pytest.raises(GtForgeError, match=r"1 stamp\(s\) outside support \[0, 5\]: 5.1"):
            generate_records(ego, [lead], [4.9, 5.1], GEOM)

    def test_records_sorted_by_stamp_then_target(self):
        ego, lead = lead_follow_logs()
        extra = replace(lead, vehicle_id="alpha")
        records = generate_records(
            ego, [lead, extra], [1.0, 0.5], {"lead": GEOM, "alpha": GEOM}
        )
        keys = list(zip(records.t.tolist(), records.target_id.tolist()))
        assert keys == sorted(keys)
        assert keys[0] == (0.5, "alpha")

    def test_geometry_mapping_must_cover_targets(self):
        ego, lead = lead_follow_logs()
        with pytest.raises(ValueError):
            generate_records(ego, [lead], [1.0], {"other": GEOM})

    def test_duplicate_target_ids_rejected(self):
        ego, lead = lead_follow_logs()
        with pytest.raises(ValueError):
            generate_records(ego, [lead, lead], [1.0], GEOM)

    def test_ego_as_target_rejected(self):
        ego, lead = lead_follow_logs()
        with pytest.raises(ValueError):
            generate_records(ego, [ego], [1.0], GEOM)

    def test_zone_mismatch(self):
        ego, lead = lead_follow_logs()
        other = replace(lead, vehicle_id="far", zone=33, hemisphere="north")
        tagged_ego = replace(ego, zone=31, hemisphere="north")
        with pytest.raises(ValueError, match=r"different UTM zones: \{'ego': 31, 'far': 33\}"):
            generate_records(tagged_ego, [other], [1.0], GEOM)

    def test_hemisphere_mismatch_names_every_tagged_log(self):
        ego, lead = lead_follow_logs()
        south = replace(lead, vehicle_id="south", zone=31, hemisphere="south")
        tagged_ego = replace(ego, zone=31, hemisphere="north")
        with pytest.raises(
            ValueError, match=r"different hemispheres: \{'ego': 'north', 'south': 'south'\}$"
        ):
            generate_records(tagged_ego, [south, lead], [1.0], GEOM)

    def test_zone_edge_geodetic_round_trip_matches_utm_records(self, tmp_path):
        """A session within 0.02 degrees of zone 32's east edge at 48 N,
        exported to the geodetic schema and read back, gives the records of
        its UTM logs to 1e-6 (m, m/s, rad)."""
        ego, lead = lead_follow_logs(duration=10.0)
        moved = [replace(log, x=log.x + 723_100.0, y=log.y + 5_320_000.0, zone=32,
                         hemisphere="north") for log in (ego, lead)]
        _, lon, _, _ = geodesy.utm_to_wgs84(moved[1].x, moved[1].y, 32)
        assert 11.98 < lon.min() and lon.max() < 12.0
        stamps = np.arange(1, 40) * 0.25
        records = {}
        for frame in ("utm", "geodetic"):
            for log in moved:
                write_trajectory_log(log, tmp_path / f"{log.vehicle_id}_{frame}.csv", frame)
            ego_log, lead_log = (
                parse_trajectory_log(tmp_path / f"{vid}_{frame}.csv", frame)
                for vid in ("ego", "lead")
            )
            records[frame] = generate_records(
                replace(ego_log, vehicle_id="ego"), [replace(lead_log, vehicle_id="lead")],
                stamps, GEOM,
            )
        for name in ("x", "y", "vx", "vy", "psi", "bbox"):
            got, expect = getattr(records["geodetic"], name), getattr(records["utm"], name)
            assert np.abs(got - expect).max() < 1e-6, name

    def test_bbox_follows_relative_yaw(self):
        ego, lead = lead_follow_logs(duration=60.0, rate=20.0)
        # by t = 50 s at 25 m/s the pair is inside the first curve
        records = generate_records(ego, [lead], [50.0], GEOM)
        fl, fr, _, _ = records.bbox[0]
        front_mid = ((fl[0] + fr[0]) / 2, (fl[1] + fr[1]) / 2)
        heading = math.atan2(front_mid[1] - records.y[0], front_mid[0] - records.x[0])
        assert heading == pytest.approx(records.psi[0], abs=1e-9)


@pytest.fixture
def to_jsonl(tmp_path):
    """to_jsonl(records): the text that write_records_jsonl writes."""

    def write(records: RecordSet) -> str:
        path = tmp_path / "written.jsonl"
        write_records_jsonl(records, path)
        return path.read_text()

    return write


class TestJsonl:
    def record(self, with_bounds=True):
        rel = RelativeState(
            x=np.array([30.0]), y=np.array([-0.5]), vx=np.array([-5.0]),
            vy=np.array([0.1]), psi=np.array([0.05]),
        )
        kwargs = {}
        if with_bounds:
            kwargs = dict(
                pos_bound=CovBound2(0.00845624413812116, 0.00845624413812116,
                                    0.00574218310359087),
                vel_bound=CovBound2(0.0638, 0.0638, 0.00407),
                yaw_var=6.125e-6,
            )
        return RecordSet(
            np.array([1.25]), np.array(["lead"]), *rel,
            bbox=bbox_footprint(rel, GEOM), **kwargs,
        )

    def test_key_order_and_digits(self, to_jsonl):
        line = to_jsonl(self.record())
        assert line.startswith('{"t": 1.25, "target_id": "lead", "x": 30, "y": -0.5')
        assert '"pos_bound": {"a": 0.00845624414' in line
        assert line.index('"bbox"') < line.index('"pos_bound"')
        assert line.index('"vel_bound"') < line.index('"yaw_var"')
        assert line.endswith("}\n") and line.count("\n") == 1

    def test_bounds_omitted_without_noise(self, to_jsonl):
        line = to_jsonl(self.record(with_bounds=False))
        assert "pos_bound" not in line
        assert "yaw_var" not in line

    def test_round_trip(self, text_file, to_jsonl):
        back = read_records_jsonl(text_file(to_jsonl(self.record()), "gt.jsonl"))
        assert len(back) == 1
        assert back.target_id[0] == "lead"
        assert back.x[0] == pytest.approx(30.0)
        assert back.pos_bound.c == pytest.approx(0.00574218310359087, rel=1e-8)
        assert to_jsonl(back) == to_jsonl(self.record())
        text = to_jsonl(self.record(with_bounds=False))
        plain = read_records_jsonl(text_file(text, "gt.jsonl"))
        assert plain.pos_bound is None

    def test_mixed_bounds_rejected_with_line(self, text_file, to_jsonl):
        text = to_jsonl(self.record()) + to_jsonl(self.record(with_bounds=False))
        with pytest.raises(ParseError) as err:
            read_records_jsonl(text_file(text, "gt.jsonl"))
        assert err.value.line == 2

    @pytest.mark.parametrize("key, value", [
        ("x", "NaN"), ("psi", "3.5"), ("x", '"30.0"'), ("x", "true"),
        pytest.param("x", "1" + "0" * 400, id="x-int-past-float-range"),
        ("yaw_var", '"6.125e-06"'), ("yaw_var", "-1.0"), ("yaw_var", "NaN"),
        ("target_id", "7"),
    ])
    def test_read_rejects_bad_value_with_line(self, text_file, to_jsonl, key, value):
        good = to_jsonl(self.record())
        bad = good.replace(f'"{key}": ', f'"{key}": {value}, "_": ', 1)
        with pytest.raises(ParseError) as err:
            read_records_jsonl(text_file(good + bad, "gt.jsonl"))
        assert err.value.line == 2

    @pytest.mark.parametrize("pattern, value", [
        (r'(?<="bbox": \[\[)[^,]+', '"30.0"'),
        (r'(?<="pos_bound": \{"a": )[^,]+', "true"),
    ])
    def test_read_rejects_nested_non_number(self, text_file, to_jsonl, pattern, value):
        good = to_jsonl(self.record())
        bad = re.sub(pattern, value, good, count=1)
        assert bad != good
        with pytest.raises(ParseError, match="must be JSON numbers") as err:
            read_records_jsonl(text_file("\n" + bad, "gt.jsonl"))
        assert err.value.line == 2

    def test_write_refuses_non_finite(self, to_jsonl):
        records = self.record()
        records.vy[0] = math.nan
        with pytest.raises(ValueError):
            to_jsonl(records)

    def test_refused_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text("previous records\n")
        records = self.record()
        records.x[0] = math.nan
        with pytest.raises(ValueError, match="non-finite x"):
            write_records_jsonl(records, path)
        assert path.read_text() == "previous records\n"

    def test_deterministic_output(self, tmp_path):
        ego, lead = lead_follow_logs()
        records = generate_records(
            ego, [lead], make_stamps(10.0, 0.0, 2.0), GEOM,
            noise=ANALYSIS_NOISE, envelope=ANALYSIS_ENVELOPE,
        )
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records_jsonl(records, p1)
        write_records_jsonl(records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_bad_json_line(self, text_file):
        with pytest.raises(ParseError) as err:
            read_records_jsonl(text_file('{"t": 1}\n{oops\n', "gt.jsonl"))
        assert err.value.line in (1, 2)

    def test_read_deeply_nested_line(self, text_file, to_jsonl):
        path = text_file(to_jsonl(self.record()) + "[" * 100_000 + "\n", "gt.jsonl")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 2: invalid JSON: "
                                             "maximum recursion"):
            read_records_jsonl(path)

    def test_bounds_all_or_none_enforced(self):
        rel = RelativeState(*(np.array([v]) for v in (1.0, 0.0, 0.0, 0.0, 0.0)))
        with pytest.raises(ValueError):
            RecordSet(
                np.array([0.0]), np.array(["x"]), *rel,
                bbox=bbox_footprint(rel, GEOM),
                pos_bound=CovBound2(1.0, 1.0, 0.0),
            )


# Any finite float: -0.0, subnormals and values near +-1e308 included.
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def record_sets(draw):
    n = draw(st.integers(0, 4))
    columns = st.lists(finite, min_size=n, max_size=n)
    t, x, y, vx, vy = (np.array(draw(columns), dtype=float) for _ in range(5))
    psi = np.array(draw(st.lists(
        st.floats(-math.pi, math.pi, exclude_min=True), min_size=n, max_size=n)), dtype=float)
    bbox = np.array(draw(st.lists(finite, min_size=8 * n, max_size=8 * n)), dtype=float)
    bounds = {}
    if n and draw(st.booleans()):  # only a record can carry the bounds
        variance = st.floats(0.0, allow_infinity=False)
        cov = st.builds(CovBound2, variance, variance, finite)
        bounds = dict(pos_bound=draw(cov), vel_bound=draw(cov), yaw_var=draw(variance))
    ids = np.array(draw(st.lists(st.text(max_size=5), min_size=n, max_size=n)), dtype=str)
    return RecordSet(t, ids, x, y, vx, vy, psi, bbox.reshape(n, 4, 2), **bounds)


def nine_digits(values) -> bytes:
    """The bytes of each value as float('%.9g' % v) reads it."""
    return np.array([float("%.9g" % v) for v in values], dtype=float).tobytes()


class TestJsonlRoundTrip:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(record_sets())
    def test_rewrite_is_byte_identical_and_reads_nine_digits(self, tmp_path, records):
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_records_jsonl(records, first)
        back = read_records_jsonl(first)
        write_records_jsonl(back, second)
        assert second.read_bytes() == first.read_bytes()
        for name in ("t", "x", "y", "vx", "vy", "psi", "bbox"):
            got = getattr(back, name)
            assert got.tobytes() == nine_digits(getattr(records, name).ravel()), name
        assert back.target_id.tolist() == records.target_id.tolist()
        if records.pos_bound is not None:
            for name in ("pos_bound", "vel_bound"):
                got, sent = astuple(getattr(back, name)), astuple(getattr(records, name))
                assert np.array(got).tobytes() == nine_digits(sent), name
            assert np.array([back.yaw_var]).tobytes() == nine_digits([records.yaw_var])

    def test_negative_zero_reads_back_negative(self, tmp_path):
        rel = RelativeState(*(np.array([-0.0]) for _ in range(5)))
        records = RecordSet(np.array([-0.0]), np.array(["a"]), *rel,
                            bbox=np.full((1, 4, 2), -0.0))
        write_records_jsonl(records, tmp_path / "gt.jsonl")
        assert '"x": -0, ' in (tmp_path / "gt.jsonl").read_text()
        back = read_records_jsonl(tmp_path / "gt.jsonl")
        assert np.signbit([back.t, back.x, back.y, back.vx, back.vy, back.psi]).all()
        assert np.signbit(back.bbox).all()


class TestGeometryValidation:
    def test_positive_dimensions(self):
        with pytest.raises(ValueError):
            VehicleGeometry(length=0.0, width=2.0)
        with pytest.raises(ValueError):
            VehicleGeometry(length=4.0, width=-1.0)

    def test_finite_offset(self):
        with pytest.raises(ValueError):
            VehicleGeometry(length=4.0, width=2.0, ref_to_center=(math.inf, 0.0))


class TestTimeShift:
    """Metamorphic relation (Chen et al., ACM CSUR 2018): shifting every log
    and every stamp by s seconds shifts the records' t by s and nothing else.
    On the golden session the worst change was 6.5e-13 at s = +-1000 but
    1.2e-9 at s = 1e6, where t + s keeps fewer bits, so |s| <= 1000."""

    LOGS = [parse_trajectory_log(GOLDEN / f"{vid}_noisy.csv") for vid in ("ego", "lead", "tail")]
    STAMPS = np.array([0.5, 1.25, 2.0, 2.05, 3.999, 5.5])
    GEOMETRY = {"lead_noisy": VehicleGeometry(4.5, 1.8, (1.2, 0.1)),
                "tail_noisy": VehicleGeometry(12.0, 2.5)}

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.floats(-1000.0, 1000.0))
    def test_only_t_moves(self, s):
        base = generate_records(self.LOGS[0], self.LOGS[1:], self.STAMPS, self.GEOMETRY)
        ego, *targets = [apply_clock_model(log, ClockModel(offset=-s)) for log in self.LOGS]
        shifted = generate_records(ego, targets, self.STAMPS + s, self.GEOMETRY)
        assert shifted.target_id.tolist() == base.target_id.tolist()
        np.testing.assert_allclose(shifted.t - s, base.t, rtol=0.0, atol=1e-9)
        for name in ("x", "y", "vx", "vy", "psi", "bbox"):
            np.testing.assert_allclose(getattr(shifted, name), getattr(base, name),
                                       rtol=0.0, atol=1e-9, err_msg=name)


class TestRigidMotion:
    """Metamorphic relation (Chen et al., ACM CSUR 2018): one rotation theta
    and translation (tx, ty) of every log leaves the ego-frame records
    unchanged. The motion turns x, y and vx, vy, adds theta to psi and keeps
    psi_dot. Over 200 draws with |tx|, |ty| <= 1e6 m the worst change was
    3.3e-10 m, 1.9e-10 m/s and 1.3e-15 rad."""

    LOGS = TestTimeShift.LOGS
    STAMPS = TestTimeShift.STAMPS
    GEOMETRY = TestTimeShift.GEOMETRY

    @staticmethod
    def moved(log, theta, tx, ty):
        c, s = math.cos(theta), math.sin(theta)
        return replace(log, x=c * log.x - s * log.y + tx, y=s * log.x + c * log.y + ty,
                       vx=c * log.vx - s * log.vy, vy=s * log.vx + c * log.vy,
                       psi=wrap_angle(log.psi + theta))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.floats(-math.pi, math.pi), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_records_do_not_move(self, theta, tx, ty):
        base = generate_records(self.LOGS[0], self.LOGS[1:], self.STAMPS, self.GEOMETRY)
        ego, *targets = [self.moved(log, theta, tx, ty) for log in self.LOGS]
        moved = generate_records(ego, targets, self.STAMPS, self.GEOMETRY)
        assert moved.target_id.tolist() == base.target_id.tolist()
        np.testing.assert_array_equal(moved.t, base.t)
        for name in ("x", "y", "vx", "vy", "bbox"):
            np.testing.assert_allclose(getattr(moved, name), getattr(base, name),
                                       rtol=0.0, atol=1e-9, err_msg=name)
        np.testing.assert_allclose(wrap_angle(moved.psi - base.psi), 0.0, rtol=0.0, atol=1e-9)
