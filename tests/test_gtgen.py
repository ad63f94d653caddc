"""Ground-truth record pipeline and JSONL serialization."""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from gtforge import gtgen, synth
from gtforge.egokin import RelativeState
from gtforge.errors import OutOfSupport, ParseError, ZoneMismatch
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
from gtforge.synth import make_lead_follow, run_scenario
from gtforge.trajlog import ClockModel
from gtforge.uncert import ANALYSIS_ENVELOPE, ANALYSIS_NOISE, CovBound2


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

    def test_read_stamps(self):
        got = read_stamps(io.StringIO("0.0\n0.1\n\n0.2\n"))
        np.testing.assert_allclose(got, [0.0, 0.1, 0.2])

    def test_read_stamps_bad_line(self):
        with pytest.raises(ParseError) as err:
            read_stamps(io.StringIO("0.0\nnope\n"))
        assert err.value.line == 2

    def test_read_stamps_empty(self):
        with pytest.raises(ParseError):
            read_stamps(io.StringIO("\n\n"))


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

    def test_bounds_attached_with_noise(self):
        ego, lead = lead_follow_logs()
        records = generate_records(
            ego, [lead], make_stamps(10.0, 0.0, 1.0), GEOM,
            noise=ANALYSIS_NOISE, envelope=ANALYSIS_ENVELOPE,
        )
        assert records.pos_bound.a == pytest.approx(0.00845624413812116)
        assert records.vel_bound.a == pytest.approx(0.06381297021643528)
        assert records.yaw_var == pytest.approx(6.125e-6)
        # dataset-level: identical on every written record
        buf = io.StringIO()
        write_records_jsonl(records, buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(lines) == len(records)
        assert all(line["pos_bound"] == lines[0]["pos_bound"] for line in lines)

    def test_noise_without_envelope_rejected(self):
        ego, lead = lead_follow_logs()
        with pytest.raises(ValueError):
            generate_records(ego, [lead], [1.0], GEOM, noise=ANALYSIS_NOISE)

    def test_clock_correction_applied(self):
        """Retiming the target log shifts where it is sampled."""
        ego, lead = lead_follow_logs()
        shifted = generate_records(
            ego, [lead], [2.0], GEOM,
            clocks={"lead": ClockModel(offset=-0.1)},
        )
        plain = generate_records(ego, [lead], [2.0], GEOM)
        moved = shifted.x[0] - plain.x[0]
        # lead log shifted 0.1 s later means it is sampled 0.1 s earlier
        assert moved == pytest.approx(-2.5, abs=1e-6)

    def test_stamp_outside_support(self):
        ego, lead = lead_follow_logs()
        with pytest.raises(OutOfSupport):
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
        with pytest.raises(ZoneMismatch):
            generate_records(tagged_ego, [other], [1.0], GEOM)

    def test_bbox_follows_relative_yaw(self):
        ego, lead = lead_follow_logs(duration=60.0, rate=20.0)
        # by t = 50 s at 25 m/s the pair is inside the first curve
        records = generate_records(ego, [lead], [50.0], GEOM)
        fl, fr, _, _ = records.bbox[0]
        front_mid = ((fl[0] + fr[0]) / 2, (fl[1] + fr[1]) / 2)
        heading = math.atan2(front_mid[1] - records.y[0], front_mid[0] - records.x[0])
        assert heading == pytest.approx(records.psi[0], abs=1e-9)


def to_jsonl(records: RecordSet) -> str:
    buf = io.StringIO()
    write_records_jsonl(records, buf)
    return buf.getvalue()


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

    def test_key_order_and_digits(self):
        line = to_jsonl(self.record())
        assert line.startswith('{"t": 1.25, "target_id": "lead", "x": 30, "y": -0.5')
        assert '"pos_bound": {"a": 0.00845624414' in line
        assert line.index('"bbox"') < line.index('"pos_bound"')
        assert line.index('"vel_bound"') < line.index('"yaw_var"')
        assert line.endswith("}\n") and line.count("\n") == 1

    def test_bounds_omitted_without_noise(self):
        line = to_jsonl(self.record(with_bounds=False))
        assert "pos_bound" not in line
        assert "yaw_var" not in line

    def test_round_trip(self):
        back = read_records_jsonl(io.StringIO(to_jsonl(self.record())))
        assert len(back) == 1
        assert back.target_id[0] == "lead"
        assert back.x[0] == pytest.approx(30.0)
        assert back.pos_bound.c == pytest.approx(0.00574218310359087, rel=1e-8)
        assert to_jsonl(back) == to_jsonl(self.record())
        plain = read_records_jsonl(io.StringIO(to_jsonl(self.record(with_bounds=False))))
        assert plain.pos_bound is None

    def test_mixed_bounds_rejected_with_line(self):
        text = to_jsonl(self.record()) + to_jsonl(self.record(with_bounds=False))
        with pytest.raises(ParseError) as err:
            read_records_jsonl(io.StringIO(text))
        assert err.value.line == 2

    @pytest.mark.parametrize("key, value", [
        ("x", "NaN"), ("psi", "3.5"), ("x", '"30.0"'), ("x", "true"),
        pytest.param("x", "1" + "0" * 400, id="x-int-past-float-range"),
        ("yaw_var", '"6.125e-06"'), ("target_id", "7"),
    ])
    def test_read_rejects_bad_value_with_line(self, key, value):
        good = to_jsonl(self.record())
        bad = good.replace(f'"{key}": ', f'"{key}": {value}, "_": ', 1)
        with pytest.raises(ParseError) as err:
            read_records_jsonl(io.StringIO(good + bad))
        assert err.value.line == 2

    @pytest.mark.parametrize("pattern, value", [
        (r'(?<="bbox": \[\[)[^,]+', '"30.0"'),
        (r'(?<="pos_bound": \{"a": )[^,]+', "true"),
    ])
    def test_read_rejects_nested_non_number(self, pattern, value):
        good = to_jsonl(self.record())
        bad = re.sub(pattern, value, good, count=1)
        assert bad != good
        with pytest.raises(ParseError, match="must be JSON numbers") as err:
            read_records_jsonl(io.StringIO("\n" + bad))
        assert err.value.line == 2

    def test_write_refuses_non_finite(self):
        records = self.record()
        records.vy[0] = math.nan
        with pytest.raises(ValueError):
            to_jsonl(records)

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

    def test_read_bad_json_line(self):
        with pytest.raises(ParseError) as err:
            read_records_jsonl(io.StringIO('{"t": 1}\n{oops\n'))
        assert err.value.line in (1, 2)

    def test_read_deeply_nested_line(self):
        text = io.StringIO()
        write_records_jsonl(self.record(), text)
        with pytest.raises(ParseError, match=r"^line 2: invalid JSON: maximum recursion"):
            read_records_jsonl(io.StringIO(text.getvalue() + "[" * 100_000 + "\n"))

    def test_bounds_all_or_none_enforced(self):
        rel = RelativeState(*(np.array([v]) for v in (1.0, 0.0, 0.0, 0.0, 0.0)))
        with pytest.raises(ValueError):
            RecordSet(
                np.array([0.0]), np.array(["x"]), *rel,
                bbox=bbox_footprint(rel, GEOM),
                pos_bound=CovBound2(1.0, 1.0, 0.0),
            )


class TestGeometryValidation:
    def test_positive_dimensions(self):
        with pytest.raises(ValueError):
            VehicleGeometry(length=0.0, width=2.0)
        with pytest.raises(ValueError):
            VehicleGeometry(length=4.0, width=-1.0)

    def test_finite_offset(self):
        with pytest.raises(ValueError):
            VehicleGeometry(length=4.0, width=2.0, ref_to_center=(math.inf, 0.0))
