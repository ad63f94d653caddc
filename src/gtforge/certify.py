"""Monte Carlo certification of the closed-form bounds: `gtforge validate`.

run_validation checks `uncert`'s trig moments, exact position covariance,
yaw variance, bound domination and mixed-trig bound against raw normal
draws; the covariance draws go through egokin.relative_state, the
transform that writes the records. Kernels are looked up as
`uncert.<name>` at call time, so a patch of that attribute (a test, a
benchmark probe) reaches them.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from . import uncert
from ._util import derived_rng, fmt_float
from .trajlog import States

_TRIG_GRID_MEANS = (0.0, 0.5, -0.5, math.pi / 2.0, -math.pi / 2.0, 3.0)
_TRIG_GRID_STDS = (0.001, 0.01, 0.1, 1.0)
# Random configurations per check. The exact-covariance, yaw and velocity
# domination checks share one Monte Carlo run on each of _MC_CONFIGS
# configurations; position domination is closed-form on its own set.
_MC_CONFIGS = 10
_DOMINATION_CONFIGS = 100
_TRIG_MIX_CONFIGS = 10


def _round9(value: float) -> float:
    return float(fmt_float(float(value)))


def _check_trig_grid(samples: int, seed: int) -> dict:
    worst = 0.0
    worst_point = None
    for i, mean in enumerate(_TRIG_GRID_MEANS):
        for j, std in enumerate(_TRIG_GRID_STDS):
            g = uncert.GaussianMoments(mean, std)
            analytic = uncert.trig_moments(g)
            mc, se = uncert.trig_moments_mc(g, samples, seed + 1000 * i + j)
            for name in ("e_cos", "e_sin", "var_cos", "var_sin", "cov_cos_sin"):
                gap = abs(getattr(mc, name) - getattr(analytic, name))
                scale = getattr(se, name)
                z = gap / scale if scale > 0.0 else (0.0 if gap == 0.0 else math.inf)
                if z > worst:
                    worst = z
                    worst_point = [mean, std, name]
    return {
        "name": "trig_moments_grid",
        "passed": bool(worst <= 5.0),
        "grid_points": len(_TRIG_GRID_MEANS) * len(_TRIG_GRID_STDS),
        "samples_per_point": samples,
        "max_abs_z": _round9(worst),
        "worst_point": worst_point,
    }


def _random_state_pair(rng: np.random.Generator, env: uncert.ScenarioEnvelope):
    limit = env.d_max / math.sqrt(2.0)
    ego = States(
        t=0.0,
        x=float(rng.uniform(-100.0, 100.0)),
        y=float(rng.uniform(-100.0, 100.0)),
        vx=float(rng.uniform(-env.v_max, env.v_max)) / 2.0,
        vy=float(rng.uniform(-env.v_max, env.v_max)) / 2.0,
        psi=float(rng.uniform(-math.pi, math.pi)),
        psi_dot=float(rng.uniform(-env.psi_dot_max, env.psi_dot_max)),
    )
    target = States(
        t=0.0,
        x=ego.x + float(rng.uniform(-limit, limit)),
        y=ego.y + float(rng.uniform(-limit, limit)),
        vx=ego.vx + float(rng.uniform(-env.v_max, env.v_max)),
        vy=ego.vy + float(rng.uniform(-env.v_max, env.v_max)),
        psi=float(rng.uniform(-math.pi, math.pi)),
        psi_dot=math.nan,
    )
    return ego, target


def _exact_position_covariance(
    nm: uncert.NoiseModel, ego: States, target: States
) -> uncert.CovBound2:
    return uncert.position_covariance_exact(
        target.x - ego.x,
        target.y - ego.y,
        math.sqrt(2.0) * nm.sigma_pos,
        uncert.GaussianMoments(ego.psi, nm.sigma_psi),
    )


def _check_covariances(
    nm: uncert.NoiseModel,
    env: uncert.ScenarioEnvelope,
    samples: int,
    seed: int,
    convention: str,
) -> list[dict]:
    """The exact-covariance, yaw and domination checks, fed by one Monte
    Carlo run per configuration (position domination is closed-form)."""
    pos_b = uncert.position_bound(nm, env, convention)
    vel_b = uncert.velocity_bound(nm, env, convention)
    yaw_var = uncert.yaw_variance(nm)
    margins = []
    for i in range(_DOMINATION_CONFIGS):
        exact = _exact_position_covariance(
            nm, *_random_state_pair(derived_rng(seed, 2000 + i), env)
        )
        margins += [pos_b.a - exact.a, pos_b.b - exact.b]
    worst_pos = 0.0
    worst_yaw = 0.0
    for i in range(_MC_CONFIGS):
        ego, target = _random_state_pair(derived_rng(seed, 500 + i), env)
        mc = uncert.monte_carlo_covariance(ego, target, nm, samples, seed + 7000 + i)
        exact = _exact_position_covariance(nm, ego, target)
        for name in ("a", "b", "c"):
            gap = abs(getattr(mc.position, name) - getattr(exact, name))
            se = getattr(mc.position_se, name)
            if se > 0.0:
                worst_pos = max(worst_pos, gap / se)
        yaw_gap = abs(mc.yaw_var - yaw_var)
        if mc.yaw_var_se > 0.0:
            worst_yaw = max(worst_yaw, yaw_gap / mc.yaw_var_se)
        margins += [vel_b.a - mc.velocity.a, vel_b.b - mc.velocity.b]
    violations = sum(1 for m in margins if m < 0.0)
    return [
        *(
            {
                "name": name,
                "passed": bool(worst <= 5.0),
                "configs": _MC_CONFIGS,
                "samples_per_config": samples,
                "max_abs_z": _round9(worst),
            }
            for name, worst in (("exact_position_covariance", worst_pos),
                                ("yaw_variance", worst_yaw))
        ),
        {
            "name": "bound_domination",
            "passed": bool(violations == 0),
            "convention": convention,
            "configs": _DOMINATION_CONFIGS,
            "velocity_mc_configs": _MC_CONFIGS,
            "violations": violations,
            "min_margin": _round9(min(margins)),
        },
    ]


def _check_trig_mix(samples: int, seed: int) -> dict:
    margins = []
    for i in range(_TRIG_MIX_CONFIGS):
        rng = derived_rng(seed, 4000 + i)
        m_x = float(rng.uniform(-3.0, 3.0))
        m_y = float(rng.uniform(-3.0, 3.0))
        s_x = float(rng.uniform(0.01, 0.5))
        s_y = float(rng.uniform(0.01, 0.5))
        omega = uncert.GaussianMoments(
            float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.05, 0.5))
        )
        # The plain-exponent form is the proven inequality; certify that one.
        bound = uncert.bounded_trig_mix_var(
            m_x, m_y, s_x, s_y, omega, convention=uncert.PRINTED
        )
        var, se = uncert.mixed_trig_variance_mc(
            m_x, m_y, s_x, s_y, omega, samples, seed + 11000 + i
        )
        margins.append(bound + 5.0 * se - var)
    violations = sum(1 for m in margins if m < 0.0)
    return {
        "name": "trig_mix_bound",
        "passed": bool(violations == 0),
        "configs": _TRIG_MIX_CONFIGS,
        "samples_per_config": samples,
        "violations": violations,
        "min_margin": _round9(min(margins)),
    }


def run_validation(
    nm: uncert.NoiseModel,
    env: uncert.ScenarioEnvelope,
    samples: int,
    seed: int,
    convention: str = uncert.DEFAULT_CONVENTION,
) -> dict:
    """The Monte Carlo certification suite behind `gtforge validate`.

    Deterministic for fixed (samples, seed).
    """
    checks = [
        _check_trig_grid(samples, seed),
        *_check_covariances(nm, env, samples, seed, convention),
        _check_trig_mix(samples, seed),
    ]
    return {
        "samples": samples,
        "seed": seed,
        "convention": convention,
        "noise": {k: _round9(v) for k, v in asdict(nm).items()},
        "envelope": {k: _round9(v) for k, v in asdict(env).items()},
        "checks": checks,
        "passed": bool(all(c["passed"] for c in checks)),
    }
