"""Covariance propagation, bounds and the Monte Carlo machinery.

Closed-form moments are checked against Gauss-Hermite-free scipy
quadrature (an independent evaluation path), against a 50-digit mpmath
evaluation of the textbook forms, and against seeded Monte Carlo at the
5-standard-error level.
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gtforge import uncert
from gtforge._util import derived_rng, from_mapping, load_config
from gtforge.errors import GtForgeError, ParseError
from gtforge.trajlog import States
from gtforge.uncert import (
    ANALYSIS_ENVELOPE,
    ANALYSIS_NOISE,
    HALF_EXPONENT,
    PRINTED,
    CovBound2,
    NoiseModel,
    TRIG_FIELDS,
    ScenarioEnvelope,
    bounded_trig_mix_var,
    monte_carlo_covariance,
    position_bound,
    position_covariance_exact,
    rms_from_cov,
    trig_moments,
    trig_moments_mc,
    velocity_bound,
    yaw_variance,
)


def gaussian_expect(fn, mean: float, std: float) -> float:
    """E[fn(W)] for W ~ N(mean, std^2) by adaptive quadrature."""
    val, _ = quad(
        lambda z: fn(mean + std * z) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi),
        -10.0,
        10.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


def sigmas(low: float, high: float):
    """0, or a standard deviation log-uniform in [10^low, 10^high]."""
    return st.one_of(st.just(0.0), st.floats(low, high).map(lambda e: 10.0**e))


angles = st.floats(-math.pi, math.pi)
# Mean yaws, with the axis directions where cos or sin is 0 drawn often.
yaws = st.one_of(st.sampled_from([0.0, math.pi / 2, -math.pi / 2]), angles)


def mp_trig_moments(mean: float, std: float) -> list:
    """The textbook forms in 50-digit arithmetic, in TRIG_FIELDS order:
    E cos 2W = cos(2m) e^{-2 s^2} and the double-angle identities."""
    with mpmath.workdps(50):
        m, s2 = mpmath.mpf(mean), mpmath.mpf(std) ** 2
        e_cos = mpmath.cos(m) * mpmath.exp(-s2 / 2)
        e_sin = mpmath.sin(m) * mpmath.exp(-s2 / 2)
        cos2 = mpmath.cos(2 * m) * mpmath.exp(-2 * s2)
        sin2 = mpmath.sin(2 * m) * mpmath.exp(-2 * s2)
        return [e_cos, e_sin, (1 + cos2) / 2 - e_cos**2, (1 - cos2) / 2 - e_sin**2,
                sin2 / 2 - e_cos * e_sin]


def mp_position_covariance(dx: float, dy: float, var: float, mean: float, std: float):
    """Var and Cov of (cos W dx + sin W dy, -sin W dx + cos W dy) plus
    independent noise of variance var per axis, in 50-digit arithmetic."""
    _, _, var_cos, var_sin, cov = mp_trig_moments(mean, std)
    with mpmath.workdps(50):
        dx, dy, var = mpmath.mpf(dx), mpmath.mpf(dy), mpmath.mpf(var)
        return [var + dx**2 * var_cos + dy**2 * var_sin + 2 * dx * dy * cov,
                var + dx**2 * var_sin + dy**2 * var_cos - 2 * dx * dy * cov,
                (dy**2 - dx**2) * cov + dx * dy * (var_cos - var_sin)]


# The mpmath reference is itself exact only to about 1e-50 of its inputs'
# scale; where the kernels' error scale is 0 (no yaw noise) it sets the floor.
MP_FLOOR = 1e-40


class TestAccuracy:
    """Both kernels within a few ulps of the 50-digit textbook forms at any
    yaw noise. The error is scaled by the size of the terms: rotating the
    offset into the ego frame already costs about 1e-16 r in Y, so a pure
    relative error on a small variance is out of reach."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(yaws, sigmas(-12.0, math.log10(2.0)))
    def test_trig_moments(self, mean, std):
        got = trig_moments(mean, std)
        want = np.array([float(v) for v in mp_trig_moments(mean, std)])
        spread = -math.expm1(-std * std)
        assert np.all(np.abs(got[:2] - want[:2]) <= 2e-15)
        assert np.all(np.abs(got[2:] - want[2:]) <= 2e-15 * spread + MP_FLOOR)
        assert got[2] >= 0.0 and got[3] >= 0.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), sigmas(-6.0, 0.0),
           yaws, sigmas(-12.0, math.log10(2.0)))
    def test_position_covariance(self, dx, dy, sigma_pos, mean, std):
        var = 2.0 * sigma_pos**2
        a, b, c = position_covariance_exact(dx, dy, var, mean, std)
        want = [float(v) for v in mp_position_covariance(dx, dy, var, mean, std)]
        scale = var + -math.expm1(-std * std) * (dx * dx + dy * dy)
        assert np.all(np.abs([a - want[0], b - want[1], c - want[2]])
                      <= 2e-15 * scale + MP_FLOOR * (1.0 + dx * dx + dy * dy))
        # Positive semidefinite to rounding.
        assert a >= var and b >= var
        assert c * c <= a * b * (1.0 + 1e-14)


class TestTrigMoments:
    def test_matches_quadrature(self):
        for mean, std in ((0.0, 0.3), (0.5, 0.1), (-1.2, 0.8), (3.0, 0.02)):
            tm = dict(zip(TRIG_FIELDS, trig_moments(mean, std)))
            e_cos = gaussian_expect(math.cos, mean, std)
            e_sin = gaussian_expect(math.sin, mean, std)
            e_cos2 = gaussian_expect(lambda w: math.cos(w) ** 2, mean, std)
            e_sin2 = gaussian_expect(lambda w: math.sin(w) ** 2, mean, std)
            e_cs = gaussian_expect(lambda w: math.cos(w) * math.sin(w), mean, std)
            assert tm["e_cos"] == pytest.approx(e_cos, abs=1e-12)
            assert tm["e_sin"] == pytest.approx(e_sin, abs=1e-12)
            assert tm["var_cos"] == pytest.approx(e_cos2 - e_cos**2, abs=1e-12)
            assert tm["var_sin"] == pytest.approx(e_sin2 - e_sin**2, abs=1e-12)
            assert tm["cov_cos_sin"] == pytest.approx(e_cs - e_cos * e_sin, abs=1e-12)

    def test_zero_spread_limit(self):
        e_cos, e_sin, var_cos, var_sin, cov = trig_moments(0.7, 0.0)
        assert e_cos == pytest.approx(math.cos(0.7))
        assert e_sin == pytest.approx(math.sin(0.7))
        assert var_cos == var_sin == cov == 0.0

    def test_wide_spread_limit(self):
        """For huge spread the angle is uniform: vars 1/2, means 0."""
        e_cos, e_sin, var_cos, var_sin, cov = trig_moments(1.0, 10.0)
        assert e_cos == pytest.approx(0.0, abs=1e-12)
        assert e_sin == pytest.approx(0.0, abs=1e-12)
        assert var_cos == pytest.approx(0.5, abs=1e-12)
        assert var_sin == pytest.approx(0.5, abs=1e-12)
        assert cov == pytest.approx(0.0, abs=1e-12)

    def test_variance_sum_identity(self):
        """var_cos + var_sin = 1 - e^{-s^2} always."""
        for mean in (-2.0, 0.0, 0.4, 3.0):
            for std in (0.01, 0.2, 1.5):
                _, _, var_cos, var_sin, _ = trig_moments(mean, std)
                assert var_cos + var_sin == pytest.approx(
                    1.0 - math.exp(-(std**2)), abs=1e-14
                )

    def test_monte_carlo_agreement(self):
        for i, (mean, std) in enumerate(((0.0, 0.01), (0.5, 0.1), (-1.0, 1.0))):
            analytic = trig_moments(mean, std)
            mc, se = trig_moments_mc(mean, std, 200_000, seed=50 + i)
            assert np.all(np.abs(mc - analytic) <= 5.0 * se)


class TestExactPositionCovariance:
    def test_no_rotation_noise(self):
        a, b, c = position_covariance_exact(30.0, -4.0, 0.05**2, 0.7, 0.0)
        assert a == b == 0.05**2
        assert c == 0.0

    def test_zero_offset(self):
        """At zero mean offset the rotation has nothing to smear."""
        a, b, c = position_covariance_exact(0.0, 0.0, 0.05**2, 0.3, 0.2)
        assert a == b == 0.05**2
        assert c == 0.0

    def test_axis_swap_symmetry(self):
        a1, b1, _ = position_covariance_exact(20.0, 5.0, 0.03**2, 0.0, 0.1)
        a2, b2, _ = position_covariance_exact(5.0, 20.0, 0.03**2, 0.0, 0.1)
        assert a1 == pytest.approx(b2, abs=1e-14)
        assert b1 == pytest.approx(a2, abs=1e-14)

    def test_broadcasts_over_arrays(self):
        """Each column of an array call is the scalar call, bit for bit."""
        dx, dy = np.array([20.0, -3.0, 0.0]), np.array([5.0, 40.0, -1.0])
        mean, std = np.array([0.0, 2.5, -1.0]), np.array([0.1, 0.0, 1e-9])
        got = position_covariance_exact(dx, dy, 0.03**2, mean, std)
        assert got.shape == (3, 3)
        for k in range(3):
            one = position_covariance_exact(dx[k], dy[k], 0.03**2, mean[k], std[k])
            assert got[:, k].tobytes() == one.tobytes()

    def test_against_monte_carlo(self):
        nm = NoiseModel(sigma_pos=0.05, sigma_vel=0.05, sigma_psi=0.02)
        rng = np.random.default_rng(31)
        for i in range(5):
            ego = States(
                t=0.0, x=0.0, y=0.0, vx=5.0, vy=0.0,
                psi=float(rng.uniform(-3.0, 3.0)), psi_dot=0.1,
            )
            target = States(
                t=0.0, x=float(rng.uniform(-40, 40)), y=float(rng.uniform(-40, 40)),
                vx=0.0, vy=0.0, psi=0.0, psi_dot=math.nan,
            )
            mc, se = monte_carlo_covariance(ego, target, nm, 400_000, seed=600 + i)
            exact = position_covariance_exact(
                target.x, target.y, 2.0 * nm.sigma_pos**2, ego.psi, nm.sigma_psi
            )
            assert np.all(np.abs(mc[:3] - exact) <= 5.0 * se[:3])


class TestBounds:
    def test_position_bound_reference_values(self):
        """Frozen headline numbers for the reference configuration."""
        # 50-digit mpmath values of the bound formulas at these inputs.
        half = position_bound(ANALYSIS_NOISE, ANALYSIS_ENVELOPE, HALF_EXPONENT)
        assert half.a == pytest.approx(0.0084562441381865860697, rel=1e-15)
        assert half.c == pytest.approx(0.0057421831036399395273, rel=1e-15)
        assert rms_from_cov(half) == pytest.approx(0.120231025, abs=5e-7)
        printed = position_bound(ANALYSIS_NOISE, ANALYSIS_ENVELOPE, PRINTED)
        assert printed.a == pytest.approx(0.016112476552758311403, rel=1e-15)
        assert printed.c == half.c  # cross term shares one form
        assert rms_from_cov(printed) == pytest.approx(0.155532213, abs=5e-7)

    def test_velocity_bound_reference_values(self):
        vel = velocity_bound(ANALYSIS_NOISE, ANALYSIS_ENVELOPE, HALF_EXPONENT)
        assert vel.a == pytest.approx(0.063812970216822393031, rel=1e-15)
        assert vel.b == vel.a
        assert vel.c == pytest.approx(vel.a * vel.b, rel=1e-12)
        assert rms_from_cov(vel) == pytest.approx(0.300713692, abs=5e-7)

    def test_yaw_variance(self):
        assert yaw_variance(ANALYSIS_NOISE) == pytest.approx(2.0 * 1.75e-3**2)

    def test_position_bound_formula(self):
        nm = NoiseModel(sigma_pos=0.1, sigma_vel=0.1, sigma_psi=0.01)
        env = ScenarioEnvelope(d_max=20.0, v_max=10.0, psi_dot_max=0.5)
        got = position_bound(nm, env, HALF_EXPONENT)
        diag = 2 * 0.1**2 + 2 * 20.0**2 * (1 - math.exp(-0.01**2 / 2))
        cross = 1.5 * 20.0**2 * (1 - math.exp(-0.01**2 / 2))
        assert got.a == pytest.approx(diag, rel=1e-14)
        assert got.c == pytest.approx(cross, rel=1e-14)

    def test_bounds_monotone_in_inputs(self):
        base_n = ANALYSIS_NOISE
        base_e = ANALYSIS_ENVELOPE
        base = rms_from_cov(position_bound(base_n, base_e))
        more_psi = NoiseModel(0.02, 0.02, 3.5e-3, 1.75e-3)
        assert rms_from_cov(position_bound(more_psi, base_e)) > base
        bigger = ScenarioEnvelope(d_max=100.0, v_max=36.0, psi_dot_max=1.0)
        assert rms_from_cov(position_bound(base_n, bigger)) > base
        vel_base = rms_from_cov(velocity_bound(base_n, base_e))
        assert rms_from_cov(velocity_bound(more_psi, base_e)) > vel_base

    def test_printed_dominates_half(self):
        """The plain-exponent diagonal is always the larger one."""
        for sigma_psi in (1e-4, 1e-2, 0.3, 1.0):
            nm = NoiseModel(0.02, 0.02, sigma_psi)
            half = position_bound(nm, ANALYSIS_ENVELOPE, HALF_EXPONENT)
            printed = position_bound(nm, ANALYSIS_ENVELOPE, PRINTED)
            assert printed.a >= half.a

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(sigmas(-12.0, 0.5), sigmas(-6.0, 0.0), st.floats(0.0, 1.0),
           angles, angles)
    def test_diagonal_dominates_exact_everywhere(
        self, sigma_psi, sigma_pos, radius, bearing, yaw
    ):
        """The half-exponent diagonals hold at every radius r <= d_max, for
        any bearing, yaw and spread: (1/2)(1 - e^{-2x}) <= 2 (1 - e^{-x/2})."""
        env = ANALYSIS_ENVELOPE
        nm = NoiseModel(sigma_pos, 0.02, sigma_psi)
        bound = position_bound(nm, env, HALF_EXPONENT)
        r = radius * env.d_max
        a, b, _ = position_covariance_exact(
            r * math.cos(bearing), r * math.sin(bearing), 2.0 * sigma_pos**2,
            yaw, sigma_psi,
        )
        assert a <= bound.a * (1 + 1e-12)
        assert b <= bound.b * (1 + 1e-12)

    def test_diagonal_does_not_dominate_at_the_corner(self):
        """Read per axis, d_max would not be covered: at (d_max, d_max) the
        exact variance reaches twice the half-exponent diagonal."""
        env = ANALYSIS_ENVELOPE
        nm = NoiseModel(0.0, 0.02, 1e-4)
        a, _, _ = position_covariance_exact(env.d_max, env.d_max, 0.0, -math.pi / 4, 1e-4)
        assert a / position_bound(nm, env, HALF_EXPONENT).a == pytest.approx(2.0, rel=1e-6)

    def test_bad_convention_rejected(self):
        with pytest.raises(ValueError):
            position_bound(ANALYSIS_NOISE, ANALYSIS_ENVELOPE, "exact")


class TestTrigMixBound:
    def test_worked_inequality_chain(self):
        """exact < the bound at one spelled-out point."""
        m_x, m_y, s = 3.0, -2.0, 0.05
        e_cos, e_sin, var_cos, var_sin, cov = trig_moments(0.7, 0.1)
        exact = (
            (var_cos + e_cos**2) * (s**2 + m_x**2)
            + (var_sin + e_sin**2) * (s**2 + m_y**2)
            + 2.0 * (cov + e_cos * e_sin) * m_x * m_y
            - (m_x * e_cos + m_y * e_sin) ** 2
        )
        assert exact == pytest.approx(0.1212, abs=5e-4)
        assert exact < bounded_trig_mix_var(m_x, m_y, s, s, 0.1)

    def test_printed_bound_holds_against_mc(self):
        rng = np.random.default_rng(12)
        for i in range(8):
            m_x = float(rng.uniform(-3, 3))
            m_y = float(rng.uniform(-3, 3))
            s_x = float(rng.uniform(0.01, 0.5))
            s_y = float(rng.uniform(0.01, 0.5))
            mean = float(rng.uniform(-math.pi, math.pi))
            std = float(rng.uniform(0.05, 0.6))
            bound = bounded_trig_mix_var(m_x, m_y, s_x, s_y, std)
            var, se = uncert.mixed_trig_variance_mc(
                m_x, m_y, s_x, s_y, mean, std, 100_000, seed=900 + i
            )
            assert var <= bound + 5.0 * se

    def test_stream_layout_is_the_per_channel_draws(self):
        """Each batch draws w, x, y as rng.normal(loc, scale, m), in that
        order: estimate and standard error match that stat bit for bit."""
        def per_channel(rng, m):
            w = rng.normal(0.7, 0.3, m)
            x = rng.normal(1.5, 0.2, m)
            y = rng.normal(-2.0, 0.4, m)
            z = np.cos(w) * x + np.sin(w) * y
            dz = z - z.mean()
            return np.array([dz @ dz / (m - 1)])

        est, se = uncert._batched_stats(30_000, 21, per_channel)
        got = uncert.mixed_trig_variance_mc(1.5, -2.0, 0.2, 0.4, 0.7, 0.3, 30_000, seed=21)
        assert np.array(got).tobytes() == np.array([est[0], se[0]]).tobytes()

    def test_sigma_zero_reduces_to_variance_sum(self):
        got = bounded_trig_mix_var(1.0, 2.0, 0.3, 0.4, 0.0)
        assert got == pytest.approx(0.3**2 + 0.4**2)


class TestMonteCarloCovariance:
    NM = NoiseModel(sigma_pos=0.05, sigma_vel=0.04, sigma_psi=0.01, sigma_psi_dot=0.01)

    def ego(self, psi_dot=0.2):
        return States(
            t=0.0, x=10.0, y=-5.0, vx=15.0, vy=1.0, psi=0.6, psi_dot=psi_dot
        )

    def target(self):
        return States(
            t=0.0, x=40.0, y=5.0, vx=12.0, vy=-1.0, psi=-0.2, psi_dot=math.nan
        )

    def test_deterministic_per_seed(self):
        a = np.array(monte_carlo_covariance(self.ego(), self.target(), self.NM, 50_000, seed=4))
        b = np.array(monte_carlo_covariance(self.ego(), self.target(), self.NM, 50_000, seed=4))
        assert a.shape == (2, 7) and a.tobytes() == b.tobytes()
        c = np.array(monte_carlo_covariance(self.ego(), self.target(), self.NM, 50_000, seed=5))
        assert not np.array_equal(c, a)

    def test_draws_go_through_relative_state(self, monkeypatch):
        """Every draw passes through the transform that writes the records."""
        lengths = []
        transform = uncert.relative_state

        def recording(ego, target):
            if np.ndim(ego.x) == 1:
                lengths.append((len(ego), len(target)))
            return transform(ego, target)

        monkeypatch.setattr(uncert, "relative_state", recording)
        monte_carlo_covariance(self.ego(), self.target(), self.NM, 2000, seed=3)
        assert sum(n for n, _ in lengths) == 2000
        assert all(n == m for n, m in lengths)

    def test_stream_layout_is_the_per_channel_draws(self, monkeypatch):
        """A batch's eleven channels are mean + rng.normal(0.0, std, m), in
        the order ego x, y, vx, vy, psi, psi_dot, then target x, y, vx, vy,
        psi. A -0.0 mean with a zero std pins the sign of zero."""
        captured = []
        transform = uncert.relative_state

        def recording(ego, target):
            if np.ndim(ego.x) == 1:
                captured.append((ego, target))
            return transform(ego, target)

        monkeypatch.setattr(uncert, "relative_state", recording)
        nm = replace(self.NM, sigma_vel=0.0)
        ego = replace(self.ego(), vx=-0.0)
        target = replace(self.target(), vy=-0.0)
        monte_carlo_covariance(ego, target, nm, 2000, seed=13)
        m = uncert._batch_layout(2000)[0]
        rng = derived_rng(13, 0)
        sigmas = (nm.sigma_pos, nm.sigma_pos, nm.sigma_vel, nm.sigma_vel, nm.sigma_psi)
        means = [ego.x, ego.y, ego.vx, ego.vy, ego.psi, ego.psi_dot,
                 target.x, target.y, target.vx, target.vy, target.psi]
        expected = [mean + rng.normal(0.0, std, m)
                    for mean, std in zip(means, (*sigmas, nm.sigma_psi_dot, *sigmas))]
        e, tg = captured[0]
        got = [e.x, e.y, e.vx, e.vy, e.psi, e.psi_dot, tg.x, tg.y, tg.vx, tg.vy, tg.psi]
        assert [g.tobytes() for g in got] == [x.tobytes() for x in expected]

    def test_velocity_requires_ego_yaw_rate(self):
        with pytest.raises(GtForgeError, match="ego state has no yaw rate"):
            monte_carlo_covariance(
                self.ego(psi_dot=math.nan), self.target(), self.NM, 10_000, seed=7
            )

    def test_yaw_variance_agreement(self):
        mc, se = monte_carlo_covariance(self.ego(), self.target(), self.NM, 400_000, seed=8)
        assert abs(mc[3] - yaw_variance(self.NM)) <= 5.0 * se[3]

    def test_velocity_stays_below_bound(self):
        env = ScenarioEnvelope(d_max=50.0, v_max=36.0, psi_dot_max=1.0)
        mc, _ = monte_carlo_covariance(self.ego(), self.target(), self.NM, 200_000, seed=9)
        bound = velocity_bound(self.NM, env, HALF_EXPONENT)
        assert mc[4] < bound.a
        assert mc[5] < bound.b


class TestBatching:
    def test_layout_preserves_total(self):
        for n in (40, 1_000, 123_457, 2_000_000):
            sizes = uncert._batch_layout(n)
            assert sum(sizes) == n
            assert len(sizes) >= min(uncert.MIN_BATCHES, n // 2)
            assert max(sizes) - min(sizes) <= 1

    def test_layout_scales_with_n(self):
        sizes = uncert._batch_layout(10_000_000)
        assert len(sizes) == 100

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            uncert._batch_layout(3)

    def test_estimate_independent_of_batch_count_choice(self):
        """Layout is a pure function of n, so reruns agree."""
        a = np.array(trig_moments_mc(0.3, 0.2, 30_000, seed=1))
        b = np.array(trig_moments_mc(0.3, 0.2, 30_000, seed=1))
        assert a.shape == (2, len(TRIG_FIELDS)) and a.tobytes() == b.tobytes()


class TestConfigIO:
    def test_noise_round_trip(self, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text(
            '{"sigma_pos": 0.02, "sigma_vel": 0.02, "sigma_psi": 0.00175}'
        )
        nm = load_config(NoiseModel, path)
        assert nm.sigma_pos == 0.02
        assert nm.sigma_psi_dot == 1.75e-3  # default applied
        assert asdict(nm)["sigma_vel"] == 0.02

    def test_envelope_round_trip(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text('{"d_max": 50, "v_max": 36, "psi_dot_max": 1}')
        env = load_config(ScenarioEnvelope, path)
        assert env == ScenarioEnvelope(50.0, 36.0, 1.0)

    def test_unknown_field(self):
        with pytest.raises(ParseError):
            from_mapping(NoiseModel, {"sigma_pos": 1, "sigma_vel": 1,
                                      "sigma_psi": 1, "sigma_heading": 1}, "noise")

    def test_clock_offset_std_is_not_a_noise_field(self):
        with pytest.raises(ParseError) as err:
            from_mapping(NoiseModel, {"sigma_pos": 1, "sigma_vel": 1,
                                      "sigma_psi": 1, "clock_offset_std": 0.01}, "noise")
        assert "'clock_offset_std'" in str(err.value)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            from_mapping(ScenarioEnvelope, {"d_max": 50}, "envelope")

    def test_negative_value(self):
        with pytest.raises(ParseError):
            from_mapping(
                NoiseModel, {"sigma_pos": -1, "sigma_vel": 1, "sigma_psi": 1}, "noise"
            )

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_config(NoiseModel, path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParseError):
            load_config(ScenarioEnvelope, path)


class TestPresets:
    def test_preset_names(self):
        assert set(uncert.POSITIONING_PRESETS) == {
            "nominal", "outage_60s", "outage_300s"
        }

    def test_degradation_ordering(self):
        p = uncert.POSITIONING_PRESETS
        assert p["nominal"].sigma_pos < p["outage_60s"].sigma_pos
        assert p["outage_60s"].sigma_pos < p["outage_300s"].sigma_pos
        assert p["nominal"].sigma_psi == pytest.approx(math.radians(0.01))


class TestRms:
    def test_rms_definition(self):
        cov = CovBound2(a=0.01, b=0.04, c=0.005)
        want = (0.01**2 + 0.04**2 + 2 * 0.005**2) ** 0.25
        assert rms_from_cov(cov) == pytest.approx(want, rel=1e-14)

    def test_isotropic_case(self):
        """For sigma^2 I the rms is 2^{1/4} times the per-axis sigma."""
        cov = CovBound2(a=0.04, b=0.04, c=0.0)
        assert rms_from_cov(cov) == pytest.approx((2 * 0.04**2) ** 0.25)
        assert rms_from_cov(cov) == pytest.approx(0.2 * 2**0.25)
