"""Spline interpolation of trajectory channels."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gtforge import spline
from gtforge.egokin import wrap_angle
from gtforge.errors import GtForgeError
from gtforge.resample import MIN_SAMPLES, build_interpolant
from gtforge.trajlog import parse_trajectory_log, trajectory_from_arrays


def sinusoid_traj(rate: float = 20.0, duration: float = 10.0, with_rate: bool = True):
    """Smooth analytic motion: x = 20t, y = 5 sin t, psi = atan-free toy yaw."""
    t = np.arange(int(duration * rate) + 1) / rate
    x = 20.0 * t
    y = 5.0 * np.sin(t)
    vx = np.full_like(t, 20.0)
    vy = 5.0 * np.cos(t)
    psi = wrap_angle(0.3 * np.sin(0.5 * t))
    psi_dot = 0.15 * np.cos(0.5 * t)
    return trajectory_from_arrays(
        "veh", t, x, y, vx, vy, psi, psi_dot if with_rate else None
    )


class TestKnots:
    def test_exact_at_knots(self):
        traj = sinusoid_traj()
        interp = build_interpolant(traj)
        states = interp.states_at(traj.t)
        for name in ("x", "y", "vx", "vy", "psi", "psi_dot"):
            np.testing.assert_allclose(
                getattr(states, name), getattr(traj, name), rtol=0, atol=1e-12
            )

    def test_support_matches_log(self):
        interp = build_interpolant(sinusoid_traj())
        assert interp.support == (0.0, 10.0)


class TestAccuracy:
    def test_between_knot_accuracy(self):
        """Interior error is O(h^4); the natural ends degrade to O(h^2)."""
        interp = build_interpolant(sinusoid_traj())
        s = interp.states_at(np.linspace(0.025, 9.975, 997))
        assert len(s) == 997
        interior = (1.0 < s.t) & (s.t < 9.0)
        worst_y = np.max(np.abs(s.y - 5.0 * np.sin(s.t))[interior])
        worst_vy = np.max(np.abs(s.vy - 5.0 * np.cos(s.t))[interior])
        assert worst_y < 1e-6
        assert worst_vy < 1e-6
        edge_y = np.max(np.abs(s.y - 5.0 * np.sin(s.t)))
        assert edge_y < 1e-3

    def test_smoothness_of_position(self):
        """Second derivative must be continuous at interior knots."""
        interp = build_interpolant(sinusoid_traj())
        acc = spline.derivative(spline.derivative(interp._c[:, 1:2]))
        for tk in (1.0, 3.5, 7.0):
            [[left, right]] = spline.evaluate(interp._t, acc, np.array([tk - 1e-12, tk + 1e-12]))
            assert right == pytest.approx(left, abs=1e-6)


class TestYaw:
    def test_seam_crossing_stays_smooth(self):
        """A yaw passing +/-pi must not produce 2 pi jumps mid-interval."""
        rate = 20.0
        t = np.arange(81) / rate
        psi_true = wrap_angle(math.pi - 0.4 + 0.2 * t)  # crosses the seam at t=2
        traj = trajectory_from_arrays(
            "veh", t, 20 * t, 0 * t, np.full_like(t, 20.0), 0 * t,
            psi_true, np.full_like(t, 0.2),
        )
        interp = build_interpolant(traj)
        fine = np.linspace(0.0, 4.0, 1601)
        s = interp.states_at(fine)
        want = wrap_angle(math.pi - 0.4 + 0.2 * s.t)
        gap = np.abs(wrap_angle(s.psi - want))
        assert np.all(gap < 1e-9)

    def test_psi_dot_from_logged_channel(self):
        traj = sinusoid_traj(with_rate=True)
        interp = build_interpolant(traj)
        assert interp.has_logged_yaw_rate
        psi_dot = interp.states_at(2.345).psi_dot[0]
        assert psi_dot == pytest.approx(0.15 * math.cos(0.5 * 2.345), abs=1e-5)

    def test_psi_dot_from_spline_derivative(self):
        traj = sinusoid_traj(with_rate=False)
        interp = build_interpolant(traj)
        assert not interp.has_logged_yaw_rate
        psi_dot = interp.states_at(2.345).psi_dot[0]
        assert psi_dot == pytest.approx(0.15 * math.cos(0.5 * 2.345), abs=1e-4)

    def test_mixed_yaw_rate_presence_falls_back(self, text_file):
        """One missing psi_dot cell disables the logged channel entirely."""
        t = np.arange(10) * 0.1
        text = "t,x,y,alt,vx,vy,psi_rad,psi_dot\n" + "".join(
            f"{tk!r},{tk!r},{tk!r},,1.0,1.0,0.0,{'' if k == 3 else '0.0'}\n"
            for k, tk in enumerate(t.tolist())
        )
        traj = parse_trajectory_log(text_file(text))
        interp = build_interpolant(traj)
        assert not interp.has_logged_yaw_rate


class TestSupportEnforcement:
    def test_before_support(self):
        interp = build_interpolant(sinusoid_traj())
        with pytest.raises(GtForgeError, match=r"1 stamp\(s\) outside support \[0, 10\]: -0.001"):
            interp.states_at(-0.001)

    def test_after_support(self):
        interp = build_interpolant(sinusoid_traj())
        with pytest.raises(GtForgeError, match=r"1 stamp\(s\) outside support \[0, 10\]: 10.0001"):
            interp.states_at([5.0, 10.0001])

    def test_message_names_vehicle_and_stamps(self):
        interp = build_interpolant(sinusoid_traj())
        with pytest.raises(GtForgeError, match="outside support") as err:
            interp.states_at([11.0, 12.0])
        msg = str(err.value)
        assert "veh" in msg and "11" in msg

    def test_endpoints_are_inside(self):
        interp = build_interpolant(sinusoid_traj())
        interp.states_at([0.0, 10.0])


class TestDiagnostics:
    def test_consistent_log_has_tiny_residuals(self):
        interp = build_interpolant(sinusoid_traj())
        rms_x, rms_y = interp.velocity_consistency_rms()
        assert rms_x < 1e-6
        # y residuals are dominated by the natural-end knots.
        assert rms_y < 1e-2
        assert interp.yaw_rate_consistency_rms() < 1e-3

    def test_inconsistent_velocity_flagged(self):
        """Velocities that contradict the positions show up in the RMS."""
        t = np.arange(50) * 0.1
        traj = trajectory_from_arrays(
            "veh", t, 10.0 * t, 0 * t,
            np.full_like(t, 3.0),  # logged 3 m/s against a 10 m/s slope
            0 * t, np.zeros_like(t), np.zeros_like(t),
        )
        rms_x, _ = build_interpolant(traj).velocity_consistency_rms()
        assert rms_x > 5.0

    def test_yaw_rate_rms_none_without_channel(self):
        interp = build_interpolant(sinusoid_traj(with_rate=False))
        assert interp.yaw_rate_consistency_rms() is None


class TestTooFew:
    def test_minimum_sample_count(self):
        t = np.arange(MIN_SAMPLES - 1) * 0.1
        traj = trajectory_from_arrays(
            "veh", t, t, t, np.ones_like(t), np.ones_like(t), np.zeros_like(t)
        )
        with pytest.raises(GtForgeError, match="need at least 4 for a cubic interpolant"):
            build_interpolant(traj)
