"""Monte Carlo certification of the closed-form bounds: `gtforge validate`.

run_validation checks `uncert`'s trig moments, exact position covariance,
yaw variance, bound domination and mixed-trig bound against raw normal
draws; the covariance draws go through egokin.relative_state, the
transform that writes the records. Kernels are looked up as
`uncert.<name>` at call time, so a patch of that attribute (a test, a
benchmark probe) reaches them.

Each rule is stated once. A z-score is |estimate - exact| / se per entry
(_z); where se is 0 it is 0 for no gap and inf otherwise, and a z check
passes at z <= 5. A margin check passes when no margin is negative. Each
random configuration is one uniform draw of a vector of values from its
own (seed, stream) generator; the vector's order is the stream layout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple

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


def _z(estimate, exact, se) -> np.ndarray:
    """|estimate - exact| / se per entry; where se is 0, z is 0 if the gap
    is 0 and inf otherwise."""
    gap = np.abs(np.subtract(estimate, exact, dtype=float))
    se = np.asarray(se, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(se > 0.0, gap / se, np.where(gap == 0.0, 0.0, math.inf))


def _z_check(name: str, worst: float, **counts) -> dict:
    return {"name": name, "passed": bool(worst <= 5.0), **counts,
            "max_abs_z": _round9(worst)}


def _margin_check(name: str, margins: list[float], **counts) -> dict:
    violations = sum(1 for m in margins if m < 0.0)
    return {"name": name, "passed": bool(violations == 0), **counts,
            "violations": violations, "min_margin": _round9(min(margins))}


def _check_trig_grid(samples: int, seed: int) -> dict:
    z, points = [], []
    for i, mean in enumerate(_TRIG_GRID_MEANS):
        for j, std in enumerate(_TRIG_GRID_STDS):
            g = uncert.GaussianMoments(mean, std)
            mc, se = uncert.trig_moments_mc(g, samples, seed + 1000 * i + j)
            z.extend(_z(astuple(mc), astuple(uncert.trig_moments(g)), astuple(se)))
            points += [[mean, std, name] for name in asdict(mc)]
    k = int(np.argmax(z))  # the first strict maximum in (mean, std, field) order
    return {
        **_z_check("trig_moments_grid", z[k],
                   grid_points=len(_TRIG_GRID_MEANS) * len(_TRIG_GRID_STDS),
                   samples_per_point=samples),
        "worst_point": points[k] if z[k] > 0.0 else None,
    }


def _random_state_pair(rng: np.random.Generator, env: uncert.ScenarioEnvelope):
    # The ego's x, y, vx, vy, psi, psi_dot; the target's dx, dy, dvx, dvy, psi.
    limit = env.d_max / math.sqrt(2.0)
    v, w = env.v_max, env.psi_dot_max
    ex, ey, evx, evy, epsi, erate, dx, dy, dvx, dvy, tpsi = rng.uniform(
        [-100.0, -100.0, -v, -v, -math.pi, -w, -limit, -limit, -v, -v, -math.pi],
        [100.0, 100.0, v, v, math.pi, w, limit, limit, v, v, math.pi],
    ).tolist()
    ego = States(t=0.0, x=ex, y=ey, vx=evx / 2.0, vy=evy / 2.0, psi=epsi, psi_dot=erate)
    target = States(t=0.0, x=ex + dx, y=ey + dy, vx=ego.vx + dvx, vy=ego.vy + dvy,
                    psi=tpsi, psi_dot=math.nan)
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
    z_pos, z_yaw = [], []
    for i in range(_MC_CONFIGS):
        ego, target = _random_state_pair(derived_rng(seed, 500 + i), env)
        mc = uncert.monte_carlo_covariance(ego, target, nm, samples, seed + 7000 + i)
        exact = _exact_position_covariance(nm, ego, target)
        z_pos.extend(_z(astuple(mc.position), astuple(exact), astuple(mc.position_se)))
        z_yaw.append(_z(mc.yaw_var, yaw_var, mc.yaw_var_se))
        margins += [vel_b.a - mc.velocity.a, vel_b.b - mc.velocity.b]
    counts = {"configs": _MC_CONFIGS, "samples_per_config": samples}
    return [
        _z_check("exact_position_covariance", max(z_pos), **counts),
        _z_check("yaw_variance", max(z_yaw), **counts),
        _margin_check("bound_domination", margins, convention=convention,
                      configs=_DOMINATION_CONFIGS, velocity_mc_configs=_MC_CONFIGS),
    ]


def _check_trig_mix(samples: int, seed: int) -> dict:
    margins = []
    for i in range(_TRIG_MIX_CONFIGS):
        # m_x, m_y, s_x, s_y, then the mean and std of omega.
        m_x, m_y, s_x, s_y, mean, std = derived_rng(seed, 4000 + i).uniform(
            [-3.0, -3.0, 0.01, 0.01, -math.pi, 0.05], [3.0, 3.0, 0.5, 0.5, math.pi, 0.5]
        ).tolist()
        omega = uncert.GaussianMoments(mean, std)
        bound = uncert.bounded_trig_mix_var(m_x, m_y, s_x, s_y, omega)
        var, se = uncert.mixed_trig_variance_mc(
            m_x, m_y, s_x, s_y, omega, samples, seed + 11000 + i
        )
        margins.append(bound + 5.0 * se - var)
    return _margin_check("trig_mix_bound", margins, configs=_TRIG_MIX_CONFIGS,
                         samples_per_config=samples)


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
