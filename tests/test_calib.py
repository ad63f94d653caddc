"""Planar sensor-to-sensor extrinsic calibration from paired pose streams."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gtforge.calib import (
    MIN_TOTAL_ROTATION,
    parse_pose_stream,
    relative_motions,
    solve_hand_eye,
)
from gtforge.egokin import wrap_angle
from gtforge.errors import GtForgeError, ParseError
from helpers import Transform, compose, write_pose_stream


def wavy_poses(n: int = 200, dt: float = 0.1, turn: float = 1.5) -> np.ndarray:
    """Smooth trajectory with enough turning to observe the translation."""
    t = np.arange(n) * dt
    return np.stack(
        [t, 2.0 * t, np.sin(t), turn * np.sin(0.7 * t)], axis=1
    )


class TestRelativeMotions:
    def test_increment_count(self):
        assert len(relative_motions(wavy_poses(50))) == 49

    def test_straight_motion_has_zero_rotation(self):
        t = np.arange(10) * 0.1
        poses = np.stack([t, 3.0 * t, np.zeros_like(t), np.zeros_like(t)], axis=1)
        dtheta, dx, dy = relative_motions(poses).T
        assert np.all(dtheta == 0.0)
        assert dx == pytest.approx(np.full(9, 0.3))
        assert np.all(dy == 0.0)

    def test_matches_scalar_formula_bitwise(self):
        rng = np.random.default_rng(8)
        xyth = np.cumsum(rng.normal(0.0, 2.0, (500, 3)), axis=0)  # some steps wrap
        poses = np.column_stack((np.arange(500) * 0.1, xyth))
        expected = []
        for (x0, y0, th0), (x1, y1, th1) in zip(xyth[:-1].tolist(), xyth[1:].tolist()):
            c = math.cos(th0)
            s = math.sin(th0)
            ux = x1 - x0
            uy = y1 - y0
            expected.append([wrap_angle(th1 - th0), c * ux + s * uy, -s * ux + c * uy])
        got = relative_motions(poses)
        assert got.shape == (499, 3)
        assert got.tobytes() == np.array(expected).tobytes()


class TestHandEye:
    X = Transform(theta=0.3, tx=1.2, ty=-0.4)

    def test_noiseless_recovery(self):
        poses_a = wavy_poses()
        poses_b = compose(poses_a, self.X)
        result = solve_hand_eye(
            relative_motions(poses_a), relative_motions(poses_b)
        )
        assert result.theta == pytest.approx(self.X.theta, abs=1e-9)
        assert result.tx == pytest.approx(self.X.tx, abs=1e-9)
        assert result.ty == pytest.approx(self.X.ty, abs=1e-9)
        assert result.rotation_residual_rms < 1e-9
        assert result.translation_residual_rms < 1e-9
        assert result.n_increments == 199
        assert result.total_rotation > MIN_TOTAL_ROTATION

    def test_recovery_for_many_transforms(self):
        rng = np.random.default_rng(21)
        poses_a = wavy_poses()
        for _ in range(10):
            x = Transform(
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
            )
            result = solve_hand_eye(
                relative_motions(poses_a),
                relative_motions(compose(poses_a, x)),
            )
            assert result.theta == pytest.approx(x.theta, abs=1e-9)
            assert result.tx == pytest.approx(x.tx, abs=1e-9)
            assert result.ty == pytest.approx(x.ty, abs=1e-9)

    def test_noise_error_decreases_with_data(self):
        """Median estimation error must drop as the stream grows.

        Yaw noise is kept well below the per-step rotation; noise in the
        rotation increments enters the coefficient matrix, and once it
        rivals the rotation signal the estimate picks up an attenuation
        bias no amount of data removes.
        """
        sigma_pos = 0.01
        sigma_theta = 5e-4

        def estimate_error(n: int, trial: int) -> float:
            local = np.random.default_rng((17, n, trial))
            poses_a = wavy_poses(n)
            poses_b = compose(poses_a, self.X)
            poses_a[:, 1:3] += local.normal(0, sigma_pos, (n, 2))
            poses_a[:, 3] += local.normal(0, sigma_theta, n)
            poses_b[:, 1:3] += local.normal(0, sigma_pos, (n, 2))
            poses_b[:, 3] += local.normal(0, sigma_theta, n)
            result = solve_hand_eye(
                relative_motions(poses_a), relative_motions(poses_b)
            )
            return math.hypot(
                result.tx - self.X.tx, result.ty - self.X.ty
            )

        medians = []
        for n in (100, 400, 1600):
            errs = sorted(estimate_error(n, k) for k in range(20))
            medians.append(errs[len(errs) // 2])
        assert medians[0] > medians[1] > medians[2]

    def test_degenerate_motion_raises(self):
        t = np.arange(60) * 0.1
        straight = np.stack(
            [t, 5.0 * t, np.zeros_like(t), np.zeros_like(t)], axis=1
        )
        with pytest.raises(GtForgeError, match="translation unobservable"):
            solve_hand_eye(
                relative_motions(straight),
                relative_motions(compose(straight, self.X)),
            )

    def test_length_mismatch(self):
        a = relative_motions(wavy_poses(50))
        b = relative_motions(wavy_poses(40))
        with pytest.raises(GtForgeError, match="differ in length: 49 vs 39"):
            solve_hand_eye(a, b)

    def test_too_few_increments(self):
        a = relative_motions(wavy_poses(2))
        with pytest.raises(GtForgeError, match="need at least 2 motion increments, got 1"):
            solve_hand_eye(a, a)


class TestPoseStreamIO:
    def test_round_trip(self, tmp_path):
        poses = wavy_poses(30)
        write_pose_stream(poses, tmp_path / "poses.csv")
        np.testing.assert_array_equal(parse_pose_stream(tmp_path / "poses.csv"), poses)

    def test_header_required(self, text_file):
        with pytest.raises(ParseError):
            parse_pose_stream(text_file("0,1,2\n"))

    def test_bad_cell_line_number(self, text_file):
        path = text_file("t,x,y,theta\n0,1,2,0.1\n1,x,2,0.1\n")
        with pytest.raises(ParseError) as err:
            parse_pose_stream(path)
        assert err.value.line == 3
        assert str(err.value) == f"{path}: line 3: column 'x' is not a number: 'x'"

    def test_times_must_increase(self, text_file):
        path = text_file("t,x,y,theta\n1,0,0,0\n1,1,0,0\n")
        with pytest.raises(ParseError) as err:
            parse_pose_stream(path)
        assert err.value.line == 3
        assert str(err.value) == f"{path}: line 3: pose timestamps must increase strictly"
