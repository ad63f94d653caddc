"""Cubic-Hermite interpolation of trajectory channels."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
CHANNELS = ("x", "y", "vx", "vy", "psi", "psi_dot")


@st.composite
def irregular_knots(draw, min_size: int = MIN_SAMPLES):
    """Strictly increasing knots: steps spread over three decades, then an
    offset as large as a UTC day's seconds."""
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=min_size - 1, max_size=40))
    offset = draw(st.sampled_from([0.0, 0.5, 86_400.0]))
    return offset + np.concatenate(([0.0], np.cumsum(steps)))


def random_log(t: np.ndarray, seed: int, with_rate: bool, yaw_step: float = 1.0):
    """A log whose channels are unrelated noise at a random scale, yaw as a
    random walk that crosses the seam."""
    rng = np.random.default_rng(seed)
    x, y, vx, vy = rng.normal(size=(4, len(t))) * 10.0 ** rng.uniform(-2, 4, (4, 1))
    psi = wrap_angle(rng.uniform(-math.pi, math.pi) + np.cumsum(rng.uniform(-yaw_step, yaw_step, len(t))))
    psi_dot = rng.normal(size=len(t)) if with_rate else None
    return trajectory_from_arrays("veh", t, x, y, vx, vy, psi, psi_dot)


def inside(t: np.ndarray, seed: int, count: int = 50) -> np.ndarray:
    return np.random.default_rng(seed).uniform(t[0], t[-1], count)


class TestKnots:
    @PROPERTY
    @given(irregular_knots(), st.integers(0, 2**32 - 1), st.booleans())
    def test_values_at_knots_are_the_samples_bit_for_bit(self, t, seed, with_rate):
        traj = random_log(t, seed, with_rate)
        states = build_interpolant(traj).states_at(t)
        exact = ("x", "y", "vx", "vy", "psi_dot") if with_rate else ("x", "y", "vx", "vy")
        for name in exact:
            np.testing.assert_array_equal(getattr(states, name), getattr(traj, name), name)
        # The yaw is unwrapped, interpolated and wrapped back: exact until
        # the first seam crossing, to rounding after it.
        assert np.abs(wrap_angle(states.psi - traj.psi)).max() <= 1e-13

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

    @PROPERTY
    @given(irregular_knots(), st.integers(0, 2**32 - 1))
    def test_cubic_position_is_reproduced(self, t, seed):
        """x is a cubic logged with its exact derivative as vx, and vx is
        then a quadratic, which the fourth-order slopes reproduce too."""
        rng = np.random.default_rng(seed)
        cubic = np.polynomial.Polynomial(rng.normal(size=4) * 10.0 ** rng.uniform(-2, 3, 4))
        speed = cubic.deriv()
        s = t - t[0]
        traj = trajectory_from_arrays(
            "veh", t, cubic(s), 0 * t, speed(s), 0 * t, 0 * t, 0 * t
        )
        stamps = np.concatenate((t, inside(t, seed, 200)))
        states = build_interpolant(traj).states_at(stamps)
        s = stamps - t[0]
        scale = sum(abs(c) * np.abs(s).max() ** k for k, c in enumerate(cubic.coef))
        assert np.abs(states.x - cubic(s)).max() <= 1e-12 * scale
        scale = sum(abs(c) * np.abs(s).max() ** k for k, c in enumerate(speed.coef))
        assert np.abs(states.vx - speed(s)).max() <= 1e-12 * scale

    @PROPERTY
    @given(irregular_knots(min_size=5), st.integers(0, 2**32 - 1))
    def test_smoothness_of_position(self, t, seed):
        """Position is C1: on both intervals at an interior knot, the slope
        of the cubic states_at traces is the logged velocity there."""
        traj = random_log(t, seed, with_rate=True)
        interp = build_interpolant(traj)

        def end_slopes(a, b):
            """Slopes at a and b of the x cubic on [a, b], from 4 values."""
            s = np.array([a, a + (b - a) / 3.0, b - (b - a) / 3.0, b])
            cubic = np.polynomial.Polynomial.fit((s - a) / (b - a), interp.states_at(s).x, 3,
                                                 domain=[0.0, 1.0], window=[0.0, 1.0])
            return cubic.deriv()(np.array([0.0, 1.0])) / (b - a)

        for k in range(1, len(t) - 1):
            (_, left), (right, _) = end_slopes(t[k - 1], t[k]), end_slopes(t[k], t[k + 1])
            h = min(t[k] - t[k - 1], t[k + 1] - t[k])
            tol = 1e-10 * (np.abs(traj.x).max() / h + np.abs(traj.vx).max())
            assert abs(left - traj.vx[k]) <= tol
            assert abs(right - traj.vx[k]) <= tol


class TestLocality:
    @PROPERTY
    @given(irregular_knots(), st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def test_a_sample_moves_no_value_beyond_three_intervals(self, t, seed, with_rate, data):
        """Every channel of sample j changes: no value outside
        [t[j-3], t[j+3]] moves by a bit. Yaw steps stay within 0.5 rad and
        the yaw moves 0.5 rad toward 0, so the change adds no seam crossing."""
        n = len(t)
        j = data.draw(st.integers(0, n - 1))
        traj = random_log(t, seed, with_rate, yaw_step=0.5)
        channels = {name: np.array(getattr(traj, name)) for name in CHANNELS}
        for values in channels.values():
            values[j] += 0.5
        channels["psi"][j] = traj.psi[j] - math.copysign(0.5, traj.psi[j])
        changed = trajectory_from_arrays(
            "veh", t, *(channels[name] for name in CHANNELS[:5]),
            channels["psi_dot"] if with_rate else None,
        )
        stamps = np.concatenate((t, inside(t, seed, 400)))
        stamps = stamps[(stamps < t[max(j - 3, 0)]) | (stamps > t[min(j + 3, n - 1)])]
        before = build_interpolant(traj).states_at(stamps)
        after = build_interpolant(changed).states_at(stamps)
        for name in CHANNELS:
            np.testing.assert_array_equal(getattr(after, name), getattr(before, name), name)


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

    def test_psi_dot_from_hermite_derivative(self):
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


class TestTooFew:
    def test_minimum_sample_count(self):
        t = np.arange(MIN_SAMPLES - 1) * 0.1
        traj = trajectory_from_arrays(
            "veh", t, t, t, np.ones_like(t), np.ones_like(t), np.zeros_like(t)
        )
        with pytest.raises(GtForgeError, match="need at least 4 for a cubic interpolant"):
            build_interpolant(traj)
