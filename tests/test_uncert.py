"""Covariance propagation, bounds and the Monte Carlo machinery.

Closed-form moments are checked against Gauss-Hermite-free scipy
quadrature (an independent evaluation path) and against seeded Monte
Carlo at the 5-standard-error level.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import quad

from gtforge import uncert
from gtforge._util import from_mapping, load_config
from gtforge.errors import MissingYawRate, ParseError
from gtforge.trajlog import States
from gtforge.uncert import (
    ANALYSIS_ENVELOPE,
    ANALYSIS_NOISE,
    HALF_EXPONENT,
    PRINTED,
    CovBound2,
    GaussianMoments,
    NoiseModel,
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


class TestTrigMoments:
    def test_matches_quadrature(self):
        for mean, std in ((0.0, 0.3), (0.5, 0.1), (-1.2, 0.8), (3.0, 0.02)):
            tm = trig_moments(GaussianMoments(mean, std))
            e_cos = gaussian_expect(math.cos, mean, std)
            e_sin = gaussian_expect(math.sin, mean, std)
            e_cos2 = gaussian_expect(lambda w: math.cos(w) ** 2, mean, std)
            e_sin2 = gaussian_expect(lambda w: math.sin(w) ** 2, mean, std)
            e_cs = gaussian_expect(lambda w: math.cos(w) * math.sin(w), mean, std)
            assert tm.e_cos == pytest.approx(e_cos, abs=1e-12)
            assert tm.e_sin == pytest.approx(e_sin, abs=1e-12)
            assert tm.var_cos == pytest.approx(e_cos2 - e_cos**2, abs=1e-12)
            assert tm.var_sin == pytest.approx(e_sin2 - e_sin**2, abs=1e-12)
            assert tm.cov_cos_sin == pytest.approx(e_cs - e_cos * e_sin, abs=1e-12)

    def test_zero_spread_limit(self):
        tm = trig_moments(GaussianMoments(0.7, 0.0))
        assert tm.e_cos == pytest.approx(math.cos(0.7))
        assert tm.e_sin == pytest.approx(math.sin(0.7))
        assert tm.var_cos == pytest.approx(0.0, abs=1e-15)
        assert tm.var_sin == pytest.approx(0.0, abs=1e-15)

    def test_wide_spread_limit(self):
        """For huge spread the angle is uniform: vars 1/2, means 0."""
        tm = trig_moments(GaussianMoments(1.0, 10.0))
        assert tm.e_cos == pytest.approx(0.0, abs=1e-12)
        assert tm.e_sin == pytest.approx(0.0, abs=1e-12)
        assert tm.var_cos == pytest.approx(0.5, abs=1e-12)
        assert tm.var_sin == pytest.approx(0.5, abs=1e-12)
        assert tm.cov_cos_sin == pytest.approx(0.0, abs=1e-12)

    def test_variance_sum_identity(self):
        """var_cos + var_sin = 1 - e^{-s^2} always."""
        for mean in (-2.0, 0.0, 0.4, 3.0):
            for std in (0.01, 0.2, 1.5):
                tm = trig_moments(GaussianMoments(mean, std))
                assert tm.var_cos + tm.var_sin == pytest.approx(
                    1.0 - math.exp(-(std**2)), abs=1e-14
                )

    def test_monte_carlo_agreement(self):
        for i, (mean, std) in enumerate(((0.0, 0.01), (0.5, 0.1), (-1.0, 1.0))):
            analytic = trig_moments(GaussianMoments(mean, std))
            mc, se = trig_moments_mc(GaussianMoments(mean, std), 200_000, seed=50 + i)
            for name in ("e_cos", "e_sin", "var_cos", "var_sin", "cov_cos_sin"):
                gap = abs(getattr(mc, name) - getattr(analytic, name))
                assert gap <= 5.0 * getattr(se, name)


class TestExactPositionCovariance:
    def test_no_rotation_noise(self):
        cov = position_covariance_exact(30.0, -4.0, 0.05, GaussianMoments(0.7, 0.0))
        assert cov.a == pytest.approx(0.05**2)
        assert cov.b == pytest.approx(0.05**2)
        assert cov.c == pytest.approx(0.0, abs=1e-15)

    def test_zero_offset(self):
        """At zero mean offset the rotation has nothing to smear."""
        cov = position_covariance_exact(0.0, 0.0, 0.05, GaussianMoments(0.3, 0.2))
        assert cov.a == pytest.approx(0.05**2)
        assert cov.b == pytest.approx(0.05**2)
        assert cov.c == pytest.approx(0.0, abs=1e-15)

    def test_axis_swap_symmetry(self):
        psi = GaussianMoments(0.0, 0.1)
        cov1 = position_covariance_exact(20.0, 5.0, 0.03, psi)
        cov2 = position_covariance_exact(5.0, 20.0, 0.03, psi)
        assert cov1.a == pytest.approx(cov2.b, abs=1e-14)
        assert cov1.b == pytest.approx(cov2.a, abs=1e-14)

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
            mc = monte_carlo_covariance(ego, target, nm, 400_000, seed=600 + i)
            exact = position_covariance_exact(
                target.x, target.y, math.sqrt(2.0) * nm.sigma_pos,
                GaussianMoments(ego.psi, nm.sigma_psi),
            )
            assert abs(mc.position.a - exact.a) <= 5.0 * mc.position_se.a
            assert abs(mc.position.b - exact.b) <= 5.0 * mc.position_se.b
            assert abs(mc.position.c - exact.c) <= 5.0 * mc.position_se.c


class TestBounds:
    def test_position_bound_reference_values(self):
        """Frozen headline numbers for the reference configuration."""
        half = position_bound(ANALYSIS_NOISE, ANALYSIS_ENVELOPE, HALF_EXPONENT)
        assert half.a == pytest.approx(0.00845624413812116, rel=1e-12)
        assert half.c == pytest.approx(0.00574218310359087, rel=1e-12)
        assert rms_from_cov(half) == pytest.approx(0.120231025, abs=5e-7)
        printed = position_bound(ANALYSIS_NOISE, ANALYSIS_ENVELOPE, PRINTED)
        assert printed.a == pytest.approx(0.01611247655284229, rel=1e-12)
        assert printed.c == half.c  # cross term shares one form
        assert rms_from_cov(printed) == pytest.approx(0.155532213, abs=5e-7)

    def test_velocity_bound_reference_values(self):
        vel = velocity_bound(ANALYSIS_NOISE, ANALYSIS_ENVELOPE, HALF_EXPONENT)
        assert vel.a == pytest.approx(0.06381297021643528, rel=1e-12)
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

    def test_diagonal_dominates_exact_everywhere(self):
        """Bound diagonals hold for any in-envelope geometry and any spread."""
        env = ANALYSIS_ENVELOPE
        rng = np.random.default_rng(77)
        for _ in range(300):
            sigma_psi = float(10 ** rng.uniform(-4, 0.5))
            nm = NoiseModel(0.02, 0.02, sigma_psi)
            bound = position_bound(nm, env, HALF_EXPONENT)
            limit = env.d_max / math.sqrt(2.0)
            exact = position_covariance_exact(
                float(rng.uniform(-limit, limit)), float(rng.uniform(-limit, limit)),
                math.sqrt(2.0) * nm.sigma_pos,
                GaussianMoments(float(rng.uniform(-3, 3)), sigma_psi),
            )
            assert exact.a <= bound.a * (1 + 1e-12)
            assert exact.b <= bound.b * (1 + 1e-12)

    def test_bad_convention_rejected(self):
        with pytest.raises(ValueError):
            position_bound(ANALYSIS_NOISE, ANALYSIS_ENVELOPE, "exact")


class TestTrigMixBound:
    def test_worked_inequality_chain(self):
        """exact <= half-exponent form <= plain form at one spelled-out point."""
        m_x, m_y, s = 3.0, -2.0, 0.05
        omega = GaussianMoments(0.7, 0.1)
        tm = trig_moments(omega)
        exact = (
            (tm.var_cos + tm.e_cos**2) * (s**2 + m_x**2)
            + (tm.var_sin + tm.e_sin**2) * (s**2 + m_y**2)
            + 2.0 * (tm.cov_cos_sin + tm.e_cos * tm.e_sin) * m_x * m_y
            - (m_x * tm.e_cos + m_y * tm.e_sin) ** 2
        )
        half = bounded_trig_mix_var(m_x, m_y, s, s, omega, HALF_EXPONENT)
        printed = bounded_trig_mix_var(m_x, m_y, s, s, omega, PRINTED)
        assert exact == pytest.approx(0.1212, abs=5e-4)
        assert exact < half < printed

    def test_printed_bound_holds_against_mc(self):
        rng = np.random.default_rng(12)
        for i in range(8):
            m_x = float(rng.uniform(-3, 3))
            m_y = float(rng.uniform(-3, 3))
            s_x = float(rng.uniform(0.01, 0.5))
            s_y = float(rng.uniform(0.01, 0.5))
            omega = GaussianMoments(
                float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.05, 0.6))
            )
            bound = bounded_trig_mix_var(m_x, m_y, s_x, s_y, omega, PRINTED)
            var, se = uncert.mixed_trig_variance_mc(
                m_x, m_y, s_x, s_y, omega, 100_000, seed=900 + i
            )
            assert var <= bound + 5.0 * se

    def test_sigma_zero_reduces_to_variance_sum(self):
        omega = GaussianMoments(0.4, 0.0)
        got = bounded_trig_mix_var(1.0, 2.0, 0.3, 0.4, omega, PRINTED)
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
        a = monte_carlo_covariance(self.ego(), self.target(), self.NM, 50_000, seed=4)
        b = monte_carlo_covariance(self.ego(), self.target(), self.NM, 50_000, seed=4)
        assert a == b
        c = monte_carlo_covariance(self.ego(), self.target(), self.NM, 50_000, seed=5)
        assert c != a

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

    def test_velocity_requires_ego_yaw_rate(self):
        with pytest.raises(MissingYawRate):
            monte_carlo_covariance(
                self.ego(psi_dot=math.nan), self.target(), self.NM, 10_000, seed=7
            )

    def test_yaw_variance_agreement(self):
        mc = monte_carlo_covariance(self.ego(), self.target(), self.NM, 400_000, seed=8)
        assert abs(mc.yaw_var - yaw_variance(self.NM)) <= 5.0 * mc.yaw_var_se

    def test_velocity_stays_below_bound(self):
        env = ScenarioEnvelope(d_max=50.0, v_max=36.0, psi_dot_max=1.0)
        mc = monte_carlo_covariance(self.ego(), self.target(), self.NM, 200_000, seed=9)
        bound = velocity_bound(self.NM, env, HALF_EXPONENT)
        assert mc.velocity.a < bound.a
        assert mc.velocity.b < bound.b


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
        g = GaussianMoments(0.3, 0.2)
        a = trig_moments_mc(g, 30_000, seed=1)
        b = trig_moments_mc(g, 30_000, seed=1)
        assert a == b


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
