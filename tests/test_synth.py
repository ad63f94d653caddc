"""Synthetic track, runs, and log corruption."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from gtforge import synth
from gtforge._util import derived_rng, from_mapping, load_config
from gtforge.egokin import wrap_angle
from gtforge.errors import ParseError
from gtforge.gtgen import make_stamps
from gtforge.synth import (
    RunSpec,
    Scenario,
    StadiumTrack,
    corrupt,
    run_scenario,
    run_states,
    simulate_run,
)
from gtforge.trajlog import ClockModel, trajectory_from_arrays
from gtforge.uncert import NoiseModel
from helpers import make_lead_follow, same_trajectory


class TestTrackGeometry:
    def test_default_lap_length(self):
        assert StadiumTrack().length == pytest.approx(3200.0)

    def test_starts_at_origin_heading_east(self):
        x, y, heading, curvature = map(float, StadiumTrack().frame_at(0.0))
        assert (x, y) == (0.0, 0.0)
        assert heading == 0.0
        assert curvature == 0.0

    def test_segment_landmarks(self):
        track = StadiumTrack(straight_len=100.0, curve_radius=50.0)
        # end of first straight
        x, y, _, _ = track.frame_at(100.0)
        assert (x, y) == (pytest.approx(100.0), pytest.approx(0.0))
        # top of the first half-circle: 180 degrees turned, shifted up 2r
        s = 100.0 + math.pi * 50.0
        x, y, heading, _ = track.frame_at(s)
        assert x == pytest.approx(100.0)
        assert y == pytest.approx(100.0)
        assert heading == pytest.approx(math.pi)
        assert track.frame_at(s - 1.0)[3] == pytest.approx(1.0 / 50.0)

    def test_closed_and_periodic(self):
        track = StadiumTrack()
        x0, y0, _, _ = track.frame_at(0.0)
        x1, y1, heading, _ = track.frame_at(track.length)
        assert (x1, y1) == (pytest.approx(x0, abs=1e-9), pytest.approx(y0, abs=1e-9))
        # heading gains one full turn per lap
        assert heading == pytest.approx(math.tau)

    def test_heading_continuous_in_arc_length(self):
        track = StadiumTrack()
        s = np.linspace(0.0, track.length, 20001)
        _, _, heading, _ = track.frame_at(s)
        steps = np.abs(np.diff(heading))
        assert steps.max() < 2e-3  # no jumps at segment boundaries

    def test_position_derivative_matches_heading(self):
        """d(x, y)/ds must be the unit vector of the heading everywhere."""
        track = StadiumTrack()
        h = 1e-6
        for s in (50.0, 1100.0 + 10.0, 1700.0, 3000.0):
            x0, y0, _, _ = track.frame_at(s - h)
            x1, y1, _, _ = track.frame_at(s + h)
            heading = track.frame_at(s)[2]
            assert (x1 - x0) / (2 * h) == pytest.approx(math.cos(heading), abs=1e-6)
            assert (y1 - y0) / (2 * h) == pytest.approx(math.sin(heading), abs=1e-6)


def frame_by_segment(track: StadiumTrack, s):
    """frame_at as four masked segments: a reference for its segment rule."""
    ls, r = track.straight_len, track.curve_radius
    lap, u = np.divmod(np.atleast_1d(np.asarray(s, dtype=float)), track.length)
    b0, b1, b2 = ls, ls + math.pi * r, 2.0 * ls + math.pi * r
    x, y, heading, curvature = (np.zeros_like(u) for _ in range(4))
    m = u < b0
    x[m] = u[m]
    m = (b0 <= u) & (u < b1)
    phi = (u[m] - b0) / r
    x[m], y[m] = ls + r * np.sin(phi), r - r * np.cos(phi)
    heading[m], curvature[m] = phi, 1.0 / r
    m = (b1 <= u) & (u < b2)
    x[m], y[m], heading[m] = ls - (u[m] - b1), 2.0 * r, math.pi
    m = b2 <= u
    phi = (u[m] - b2) / r
    x[m], y[m] = -r * np.sin(phi), r + r * np.cos(phi)
    heading[m], curvature[m] = math.pi + phi, 1.0 / r
    return x, y, heading + math.tau * lap, curvature


class TestTrackSegments:
    TRACKS = [StadiumTrack(), StadiumTrack(straight_len=300.0, curve_radius=50.0)]

    @staticmethod
    def arcs(track: StadiumTrack) -> np.ndarray:
        """Every segment boundary, whole laps either way, -1 m and a later
        lap's b0, each also one ulp either side, then 200 random arcs."""
        ls, r, lap = track.straight_len, track.curve_radius, track.length
        b = np.array([ls, ls + math.pi * r, 2.0 * ls + math.pi * r, lap, -lap, -1.0,
                      3.0 * lap + ls])
        spread = np.random.default_rng(0).uniform(-2.0 * lap, 4.0 * lap, 200)
        return np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), spread])

    @pytest.mark.parametrize("track", TRACKS, ids=["default", "300m-50m"])
    def test_frame_matches_per_segment_reference_bit_for_bit(self, track):
        s = self.arcs(track)
        got = np.array(track.frame_at(s))
        assert got.tobytes() == np.array(frame_by_segment(track, s)).tobytes()
        # The scalar form takes the same rule.
        arc = s[1]
        scalar = np.array([float(v) for v in track.frame_at(float(arc))])
        assert scalar.tobytes() == np.array(frame_by_segment(track, arc))[:, 0].tobytes()

    @pytest.mark.parametrize("track", TRACKS, ids=["default", "300m-50m"])
    def test_a_boundary_starts_its_segment(self, track):
        """b0 is on the first curve, b1 on the second straight, b2 on the
        second curve: the curvature and heading there say which."""
        ls, r = track.straight_len, track.curve_radius
        b0, b1, b2 = ls, ls + math.pi * r, 2.0 * ls + math.pi * r
        _, _, heading, curvature = track.frame_at(np.array([b0, b1, b2]))
        assert curvature.tolist() == [1.0 / r, 0.0, 1.0 / r]
        assert heading.tolist() == [0.0, math.pi, math.pi]
        before = track.frame_at(np.nextafter([b0, b1, b2], -np.inf))[3]
        assert before.tolist() == [0.0, 1.0 / r, 0.0]


class TestRunSpec:
    def test_constant_speed_distance(self):
        run = RunSpec(id="ego", duration=10.0, rate=10.0, speed_profile=((0.0, 20.0),))
        assert float(run.distance_at(4.0)) == pytest.approx(80.0)

    def test_ramp_distance_matches_quadrature(self):
        run = RunSpec(
            id="ego", duration=20.0, rate=10.0,
            speed_profile=((0.0, 10.0), (5.0, 30.0), (12.0, 30.0), (18.0, 0.0)),
        )
        for t in (2.5, 5.0, 9.1, 15.0, 19.5, 18.0, 25.0):
            want, _ = quad(lambda u: float(run.speed_at(u)), 0.0, t, limit=200)
            assert float(run.distance_at(t)) == pytest.approx(want, abs=1e-7)
        # First knot after t = 0: the first speed is held before it.
        late = RunSpec(
            id="ego", duration=20.0, rate=10.0,
            speed_profile=((3.0, 12.0), (8.0, 2.0), (11.0, 20.0)),
        )
        for t in (0.0, 1.5, 3.0, 6.2, 9.0, 11.0, 16.0):
            want, _ = quad(lambda u: float(late.speed_at(u)), 0.0, t, limit=200)
            assert float(late.distance_at(t)) == pytest.approx(want, abs=1e-7)
        np.testing.assert_allclose(late.distance_at(np.array([1.5, 16.0])), [18.0, 204.0])

    def test_profile_held_outside_knots(self):
        run = RunSpec(id="ego", duration=10.0, rate=10.0, speed_profile=((2.0, 10.0),))
        assert float(run.speed_at(0.0)) == 10.0
        assert float(run.speed_at(9.0)) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec(id="ego", duration=10.0, rate=10.0, speed_profile=())
        with pytest.raises(ValueError):
            RunSpec(id="ego", duration=10.0, rate=10.0, speed_profile=((0.0, -1.0),))
        with pytest.raises(ValueError):
            RunSpec(id="ego", duration=10.0, rate=10.0,
                    speed_profile=((1.0, 1.0), (1.0, 2.0)))

    def test_sample_count_bound(self):
        """floor(duration * rate) + 1 samples: 2**59 is the most a run has."""
        RunSpec(id="ego", duration=float(2**59 - 1024), rate=1.0, speed_profile=((0.0, 1.0),))
        with pytest.raises(ValueError, match=r"^duration \* rate gives 5\.76461e\+17 samples"):
            RunSpec(id="ego", duration=float(2**59), rate=1.0, speed_profile=((0.0, 1.0),))
        with pytest.raises(ValueError, match="more than 2"):
            RunSpec(id="ego", duration=1e300, rate=1e300, speed_profile=((0.0, 1.0),))


class TestRunStates:
    def test_velocity_matches_heading_and_speed(self):
        track = StadiumTrack()
        run = RunSpec(id="ego", duration=60.0, rate=10.0, speed_profile=((0.0, 30.0),),
                      start_offset=1050.0)
        s = run_states(track, run, 5.0)  # inside the first curve by then
        speed = math.hypot(s.vx[0], s.vy[0])
        assert speed == pytest.approx(30.0)
        assert math.atan2(s.vy[0], s.vx[0]) == pytest.approx(s.psi[0])
        assert s.psi_dot[0] == pytest.approx(30.0 / synth.DEFAULT_CURVE_RADIUS)

    def test_yaw_rate_zero_on_straight(self):
        track = StadiumTrack()
        run = RunSpec(id="ego", duration=10.0, rate=10.0, speed_profile=((0.0, 20.0),))
        assert run_states(track, run, 1.0).psi_dot[0] == 0.0

    def test_simulate_run_timing(self):
        track = StadiumTrack()
        run = RunSpec(id="ego", duration=2.0, rate=50.0, speed_profile=((0.0, 10.0),))
        traj = simulate_run(track, run)
        assert len(traj) == 101
        assert traj.support == (0.0, 2.0)
        assert traj.vehicle_id == "ego"
        assert traj.has_yaw_rate

    def test_samples_are_the_generate_stamps(self):
        """simulate samples at gtgen.make_stamps(rate, 0, duration): a last
        sample that rounding would put past the duration is the duration."""
        duration = float(np.nextafter(0.3, 0.0))  # 0.3 - 1 ulp: 10 Hz gives 4 samples
        run = RunSpec(id="ego", duration=duration, rate=10.0, speed_profile=((0.0, 10.0),))
        traj = simulate_run(StadiumTrack(), run)
        assert traj.t.tobytes() == make_stamps(10.0, 0.0, duration).tobytes()
        assert traj.t.tolist() == [0.0, 0.1, 0.2, duration]

    def test_position_consistent_with_velocity(self):
        """Central difference of the sampled path reproduces vx, vy."""
        track = StadiumTrack()
        run = RunSpec(id="ego", duration=30.0, rate=100.0, speed_profile=((0.0, 30.0),),
                      start_offset=1000.0)
        traj = simulate_run(track, run)
        t, x, vx = traj.t, traj.x, traj.vx
        mid_vx = (x[2:] - x[:-2]) / (t[2:] - t[:-2])
        assert np.max(np.abs(mid_vx - vx[1:-1])) < 2e-3


class TestCorrupt:
    NM = NoiseModel(sigma_pos=0.05, sigma_vel=0.05, sigma_psi=0.01, sigma_psi_dot=0.01)

    def clean(self):
        track = StadiumTrack()
        run = RunSpec(id="ego", duration=5.0, rate=20.0, speed_profile=((0.0, 20.0),))
        return simulate_run(track, run)

    def test_no_noise_no_clock_is_identity(self):
        clean = self.clean()
        assert same_trajectory(corrupt(clean, None), clean)

    def test_deterministic_per_seed_and_stream(self):
        clean = self.clean()
        a = corrupt(clean, self.NM, seed=3, stream=1)
        b = corrupt(clean, self.NM, seed=3, stream=1)
        assert same_trajectory(a, b)
        assert not same_trajectory(corrupt(clean, self.NM, seed=3, stream=2), a)
        assert not same_trajectory(corrupt(clean, self.NM, seed=4, stream=1), a)

    def test_noise_magnitude_plausible(self):
        clean = self.clean()
        noisy = corrupt(clean, self.NM, seed=0)
        dx = noisy.x - clean.x
        assert 0.02 < float(np.std(dx)) < 0.10
        assert abs(float(np.mean(dx))) < 0.05

    def test_stream_layout_is_the_per_channel_draws(self):
        """corrupt's noise is rng.normal(0.0, sigma, n) per channel, in the
        order x, y, vx, vy, psi, psi_dot from one (seed, stream) generator.
        A signed zero and a zero sigma pin that 0.0 + sigma * z is added."""
        clean = self.clean()
        clean = replace(clean, vx=np.where(np.arange(len(clean)) % 2, -0.0, clean.vx))
        nm = replace(self.NM, sigma_vel=0.0)
        rng = derived_rng(11, 4)
        n = len(clean)
        ex, ey, evx, evy, epsi, erate = (
            rng.normal(0.0, sigma, n)
            for sigma in (nm.sigma_pos, nm.sigma_pos, nm.sigma_vel, nm.sigma_vel,
                          nm.sigma_psi, nm.sigma_psi_dot)
        )
        expected = replace(
            clean, x=clean.x + ex, y=clean.y + ey, vx=clean.vx + evx, vy=clean.vy + evy,
            psi=wrap_angle(clean.psi + epsi), psi_dot=clean.psi_dot + erate,
        )
        got = corrupt(clean, nm, seed=11, stream=4)
        assert same_trajectory(got, expected)
        assert np.signbit(got.vx).tolist() == np.signbit(expected.vx).tolist()

    def test_missing_yaw_rate_stays_missing(self):
        t = np.arange(5) * 0.1
        traj = trajectory_from_arrays("v", t, t, t, t, t, 0.0 * t)
        assert not corrupt(traj, self.NM, seed=0).has_yaw_rate

    def test_clock_applied_after_noise(self):
        clean = self.clean()
        noisy = corrupt(clean, self.NM, clock=ClockModel(offset=0.5), seed=1)
        plain = corrupt(clean, self.NM, seed=1)
        np.testing.assert_allclose(noisy.t, plain.t - 0.5)
        assert noisy.x.tolist() == plain.x.tolist()


class TestScenario:
    def test_lead_follow_structure(self):
        scenario = make_lead_follow(gap=30.0, speed=25.0, duration=5.0, rate=20.0)
        logs = run_scenario(scenario)
        assert set(logs) == {"ego", "lead"}
        ego_clean, ego_rec = logs["ego"]
        assert ego_clean == ego_rec  # no noise configured
        lead_clean, _ = logs["lead"]
        assert lead_clean.x[0] == pytest.approx(30.0)

    def test_noise_uses_distinct_streams(self):
        scenario = make_lead_follow(
            gap=30.0, speed=25.0, duration=5.0, rate=20.0,
            noise=NoiseModel(0.05, 0.05, 0.01, 0.01), seed=11,
        )
        logs = run_scenario(scenario)
        ego_err = logs["ego"][1].x - logs["ego"][0].x
        lead_err = logs["lead"][1].x - logs["lead"][0].x
        assert not np.allclose(ego_err, lead_err)

    def test_rerun_is_bit_identical(self):
        scenario = make_lead_follow(
            gap=30.0, speed=25.0, duration=5.0, rate=20.0,
            noise=NoiseModel(0.05, 0.05, 0.01, 0.01), seed=11,
        )
        first, second = run_scenario(scenario), run_scenario(scenario)
        assert first.keys() == second.keys()
        for vehicle_id, logs in first.items():
            assert all(map(same_trajectory, logs, second[vehicle_id]))

    def test_duplicate_ids_rejected(self):
        run = RunSpec(id="ego", duration=1.0, rate=10.0, speed_profile=((0.0, 1.0),))
        with pytest.raises(ValueError):
            Scenario(track=StadiumTrack(), vehicles=(run, run))


class TestScenarioConfig:
    GOOD = {
        "seed": 5,
        "track": {"straight_len": 500.0},
        "noise": {"sigma_pos": 0.02, "sigma_vel": 0.02, "sigma_psi": 0.00175},
        "vehicles": [
            {"id": "ego", "duration": 4.0, "rate": 10.0,
             "speed_profile": [[0.0, 20.0]]},
            {"id": "lead", "duration": 4.0, "rate": 10.0, "start_offset": 25.0,
             "speed_profile": [[0.0, 20.0], [4.0, 22.0]],
             "clock": {"offset": 0.002}},
        ],
    }

    def test_parse_full_config(self):
        scenario = from_mapping(Scenario, self.GOOD, "scenario")
        assert scenario.seed == 5
        assert scenario.track.straight_len == 500.0
        assert scenario.track.curve_radius == synth.DEFAULT_CURVE_RADIUS
        assert scenario.noise.sigma_psi == 0.00175
        assert scenario.vehicles[1].clock == ClockModel(offset=0.002)
        assert scenario.vehicles[1].start_offset == 25.0

    def test_missing_vehicles(self):
        with pytest.raises(ParseError):
            from_mapping(Scenario, {"seed": 1}, "scenario")

    def test_missing_vehicle_field(self):
        bad = {"vehicles": [{"id": "ego", "rate": 10.0,
                             "speed_profile": [[0.0, 1.0]]}]}
        with pytest.raises(ParseError) as err:
            from_mapping(Scenario, bad, "scenario")
        assert "duration" in str(err.value)

    @pytest.mark.parametrize("key, patch", [
        ("seeed", {"seeed": 1}),
        ("straight", {"track": {"straight": 500.0}}),
        ("rat", {"vehicles": [dict(GOOD["vehicles"][0], rat=10.0)]}),
    ])
    def test_unknown_key_rejected(self, key, patch):
        with pytest.raises(ParseError) as err:
            from_mapping(Scenario, dict(self.GOOD, **patch), "scenario")
        assert repr(key) in str(err.value)

    def test_bad_speed_profile_wrapped(self):
        bad = {"vehicles": [{"id": "ego", "duration": 1.0, "rate": 10.0,
                             "speed_profile": [[0.0, -5.0]]}]}
        with pytest.raises(ParseError):
            from_mapping(Scenario, bad, "scenario")

    def test_load_scenario_file(self, tmp_path):
        import json

        path = tmp_path / "s.json"
        path.write_text(json.dumps(self.GOOD))
        scenario = load_config(Scenario, path)
        assert len(scenario.vehicles) == 2

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{")
        with pytest.raises(ParseError):
            load_config(Scenario, path)
