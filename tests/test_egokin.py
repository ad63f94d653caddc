"""Rotating-frame relative kinematics.

The finite-difference oracle is the defining property: the apparent
velocity must be the time derivative of the ego-frame position, with the
ego frame itself rotating and translating.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtforge.egokin import RelativeState, relative_state, wrap_angle
from gtforge.errors import GtForgeError
from gtforge.trajlog import States, trajectory_from_arrays
from helpers import utm_from_relative


def sample(t=0.0, x=0.0, y=0.0, vx=0.0, vy=0.0, psi=0.0, psi_dot=0.0):
    return States(t=t, x=x, y=y, vx=vx, vy=vy, psi=psi, psi_dot=psi_dot)


def relative_position(ego, target):
    rel = relative_state(ego, target)
    return rel.x, rel.y


def relative_velocity(ego, target):
    rel = relative_state(ego, target)
    return rel.vx, rel.vy


def relative_yaw(ego, target):
    return relative_state(ego, target).psi


class TestWrapAngle:
    def test_in_range_values_untouched(self):
        """Exact pass-through keeps CSV round trips bit-exact."""
        for a in (0.0, 1.0, -3.14159, math.pi, math.nextafter(-math.pi, 0.0)):
            assert wrap_angle(a) == a

    def test_wraps_out_of_range(self):
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
        assert wrap_angle(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)
        assert wrap_angle(5 * math.pi) == pytest.approx(math.pi)

    def test_boundary_goes_to_positive_pi(self):
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_periodicity(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-10, 10, 200)
        np.testing.assert_allclose(
            wrap_angle(a), wrap_angle(a + 2 * math.pi), atol=1e-12
        )

    @staticmethod
    def formula(a):
        """The full wrap, applied to every element."""
        wrapped = np.mod(a + math.pi, 2.0 * math.pi) - math.pi
        wrapped = np.where(wrapped == -math.pi, math.pi, wrapped)
        return np.where((a > -math.pi) & (a <= math.pi), a, wrapped)

    def test_in_range_array_is_a_bit_identical_copy(self):
        a = np.array([0.0, -0.0, math.pi, math.nextafter(-math.pi, 0.0), 1.5, -3.0])
        before = a.copy()
        got = wrap_angle(a)
        assert got is not a
        assert got.tobytes() == a.tobytes() == self.formula(a).tobytes()
        got[:] = 7.0
        assert a.tobytes() == before.tobytes()

    def test_mixed_array_matches_formula_bits(self):
        a = np.array([
            math.pi, -math.pi, -0.0, 0.0, math.nan, 4.0, -4.0, 3 * math.pi,
            -3 * math.pi, math.nextafter(math.pi, 4.0), 1e6, -1e-300,
        ])
        assert wrap_angle(a).tobytes() == self.formula(a).tobytes()
        assert wrap_angle(a[[2, 4]]).tobytes() == self.formula(a[[2, 4]]).tobytes()

    def test_float_gives_float_matching_python_mod(self):
        """A 0-d input comes back as a float, bit-equal to Python's own %."""
        def reference(a):
            if -math.pi < a <= math.pi:
                return a
            w = (a + math.pi) % (2.0 * math.pi) - math.pi
            return math.pi if w == -math.pi else w

        rng = np.random.default_rng(5)
        edges = [math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 0.0, -0.0, 1e300, -1e300,
                 5e-324, -5e-324, math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0)]
        for a in [*edges, *rng.uniform(-1e6, 1e6, 500).tolist()]:
            for given in (a, np.float64(a), np.array(a)):
                got = wrap_angle(given)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(reference(a)).tobytes()

    def test_array_matches_scalar(self):
        a = np.array([0.0, 4.0, -4.0, math.pi, -math.pi])
        got = wrap_angle(a)
        for ai, gi in zip(a, got):
            assert gi == wrap_angle(float(ai))


class TestRelativePosition:
    def test_axis_aligned(self):
        ego = sample(psi=0.0)
        assert relative_position(ego, sample(x=10.0, y=2.0)) == (10.0, 2.0)

    def test_quarter_turn(self):
        """Ego facing North sees a point to its east at negative y."""
        ego = sample(psi=math.pi / 2)
        x, y = relative_position(ego, sample(x=10.0, y=2.0))
        assert x == pytest.approx(2.0)
        assert y == pytest.approx(-10.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            shift = rng.normal(0, 100, 2)
            ego = sample(x=1.0, y=2.0, psi=0.7)
            tgt = sample(x=5.0, y=-3.0)
            ego2 = sample(x=1.0 + shift[0], y=2.0 + shift[1], psi=0.7)
            tgt2 = sample(x=5.0 + shift[0], y=-3.0 + shift[1])
            np.testing.assert_allclose(
                relative_position(ego2, tgt2), relative_position(ego, tgt), atol=1e-9
            )

    def test_rotation_preserves_range(self):
        rng = np.random.default_rng(6)
        ego0 = sample(x=3.0, y=-2.0)
        tgt = sample(x=-7.0, y=4.0)
        d = math.hypot(tgt.x - ego0.x, tgt.y - ego0.y)
        for psi in rng.uniform(-math.pi, math.pi, 25):
            ego = sample(x=3.0, y=-2.0, psi=float(psi))
            assert math.hypot(*relative_position(ego, tgt)) == pytest.approx(d)


coords = st.floats(-1e3, 1e3)
speeds = st.floats(-50.0, 50.0)
angles = st.floats(-math.pi, math.pi)


@st.composite
def states(draw):
    return sample(x=draw(coords), y=draw(coords), vx=draw(speeds), vy=draw(speeds),
                  psi=draw(angles), psi_dot=draw(st.floats(-2.0, 2.0)))


def moved(state, angle, tx, ty):
    """state seen in a world frame rotated by angle and shifted by (tx, ty)."""
    c, s = math.cos(angle), math.sin(angle)
    return sample(
        x=c * state.x - s * state.y + tx, y=s * state.x + c * state.y + ty,
        vx=c * state.vx - s * state.vy, vy=s * state.vx + c * state.vy,
        psi=wrap_angle(state.psi + angle), psi_dot=state.psi_dot,
    )


class TestRigidMotionInvariance:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(states(), states(), angles, st.floats(-1e5, 1e5), st.floats(-1e5, 1e5))
    def test_world_rotation_and_translation_leave_output_unchanged(
        self, ego, target, angle, tx, ty
    ):
        before = relative_state(ego, target)
        after = relative_state(moved(ego, angle, tx, ty), moved(target, angle, tx, ty))
        np.testing.assert_allclose(after[:4], before[:4], rtol=0.0, atol=1e-9)
        assert abs(math.remainder(after.psi - before.psi, 2.0 * math.pi)) <= 1e-9


class TestRelativeVelocity:
    def test_pure_closing_speed(self):
        ego = sample(vx=20.0)
        tgt = sample(x=30.0, vx=25.0)
        assert relative_velocity(ego, tgt) == (5.0, 0.0)

    def test_transport_term_from_rotation(self):
        """A static world point sweeps past a turning ego at psi_dot * r."""
        ego = sample(psi_dot=0.5)
        tgt = sample(x=10.0)
        vx, vy = relative_velocity(ego, tgt)
        assert vx == pytest.approx(0.0)
        assert vy == pytest.approx(-5.0)

    def test_missing_yaw_rate_raises(self):
        ego = sample(psi_dot=math.nan)
        with pytest.raises(GtForgeError, match="ego state has no yaw rate"):
            relative_velocity(ego, sample(x=1.0))

    def test_finite_difference_oracle(self):
        """d/dt of the relative position must equal the relative velocity."""
        rng = np.random.default_rng(42)
        dt = 1e-6
        worst = 0.0
        for _ in range(200):
            e = rng.normal(0, 1, 7)
            g = rng.normal(0, 1, 6)
            ego = sample(
                x=e[0] * 50, y=e[1] * 50, vx=e[2] * 10, vy=e[3] * 10,
                psi=wrap_angle(e[4] * 2), psi_dot=e[5],
            )
            tgt = sample(
                x=g[0] * 50, y=g[1] * 50, vx=g[2] * 10, vy=g[3] * 10,
                psi=wrap_angle(g[4] * 2),
            )

            def advance(s, rate, h):
                return sample(
                    t=h, x=s.x + s.vx * h, y=s.y + s.vy * h, vx=s.vx, vy=s.vy,
                    psi=wrap_angle(s.psi + rate * h), psi_dot=rate,
                )

            p_m = np.array(
                relative_position(advance(ego, ego.psi_dot, -dt), advance(tgt, 0.0, -dt))
            )
            p_p = np.array(
                relative_position(advance(ego, ego.psi_dot, dt), advance(tgt, 0.0, dt))
            )
            v = np.array(relative_velocity(ego, tgt))
            worst = max(worst, float(np.max(np.abs((p_p - p_m) / (2 * dt) - v))))
        assert worst < 1e-5


class TestRelativeYaw:
    def test_plain_difference(self):
        assert relative_yaw(sample(psi=0.3), sample(psi=0.5)) == pytest.approx(0.2)

    def test_wraps_across_seam(self):
        got = relative_yaw(sample(psi=3.0), sample(psi=-3.0))
        assert got == pytest.approx(2 * math.pi - 6.0)


class TestRoundTrip:
    def test_state_inverts(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.normal(0, 1, 11)
            ego = sample(
                x=v[0] * 100, y=v[1] * 100, vx=v[2] * 10, vy=v[3] * 10,
                psi=wrap_angle(v[4] * 3), psi_dot=v[5],
            )
            tgt = sample(
                x=v[6] * 100, y=v[7] * 100, vx=v[8] * 10, vy=v[9] * 10,
                psi=wrap_angle(v[10] * 3),
            )
            back = utm_from_relative(ego, relative_state(ego, tgt))
            assert back.x == pytest.approx(tgt.x, abs=1e-9)
            assert back.y == pytest.approx(tgt.y, abs=1e-9)
            assert back.vx == pytest.approx(tgt.vx, abs=1e-9)
            assert back.vy == pytest.approx(tgt.vy, abs=1e-9)
            assert back.psi == pytest.approx(tgt.psi, abs=1e-9)
            assert math.isnan(back.psi_dot)

    def test_relative_state_bundle(self):
        ego = sample(vx=20.0, psi_dot=0.0)
        tgt = sample(x=30.0, vx=25.0, psi=0.1)
        rel = relative_state(ego, tgt)
        assert rel == RelativeState(x=30.0, y=0.0, vx=5.0, vy=0.0, psi=0.1)


def scalar_reference(ego, tgt):
    """The per-sample formulas with math, for comparison with the arrays."""
    dx = tgt.x - ego.x
    dy = tgt.y - ego.y
    dvx = tgt.vx - ego.vx + ego.psi_dot * dy
    dvy = tgt.vy - ego.vy - ego.psi_dot * dx
    c = math.cos(ego.psi)
    s = math.sin(ego.psi)
    return (dx * c + dy * s, dy * c - dx * s, dvx * c + dvy * s, dvy * c - dvx * s,
            wrap_angle(tgt.psi - ego.psi))


class TestArrays:
    def test_arrays_match_scalar_formulas_bit_for_bit(self):
        rng = np.random.default_rng(3)
        e = rng.normal(0, 1, (6, 40))
        g = rng.normal(0, 1, (5, 40))
        t = np.arange(40) * 0.1
        ego = trajectory_from_arrays("ego", t, e[0] * 50, e[1] * 50, e[2] * 10,
                                     e[3] * 10, e[4] * 2, e[5])
        tgt = trajectory_from_arrays("tgt", t, g[0] * 50, g[1] * 50, g[2] * 10,
                                     g[3] * 10, g[4] * 2)
        rel = relative_state(ego, tgt)
        for i in range(40):
            want = scalar_reference(
                sample(x=ego.x[i], y=ego.y[i], vx=ego.vx[i], vy=ego.vy[i],
                       psi=ego.psi[i], psi_dot=ego.psi_dot[i]),
                sample(x=tgt.x[i], y=tgt.y[i], vx=tgt.vx[i], vy=tgt.vy[i],
                       psi=tgt.psi[i]),
            )
            assert tuple(column[i] for column in rel) == want

    def test_missing_yaw_rate_in_any_row_raises(self):
        t = np.arange(3) * 0.1
        ego = trajectory_from_arrays("ego", t, t, t, t, t, t, [0.0, math.nan, 0.0])
        with pytest.raises(GtForgeError, match="ego state has no yaw rate"):
            relative_state(ego, ego)
