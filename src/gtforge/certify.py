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
A closed-form check evaluates its kernel once, over the arrays of all its
configurations.
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


def _margin_check(name: str, margins: np.ndarray, **counts) -> dict:
    violations = int(np.count_nonzero(margins < 0.0))
    return {"name": name, "passed": bool(violations == 0), **counts,
            "violations": violations, "min_margin": _round9(margins.min())}


def _check_trig_grid(samples: int, seed: int) -> dict:
    exact = uncert.trig_moments(np.array(_TRIG_GRID_MEANS)[:, None], _TRIG_GRID_STDS)
    mc, se = np.moveaxis(np.array([
        [uncert.trig_moments_mc(mean, std, samples, seed + 1000 * i + j)
         for j, std in enumerate(_TRIG_GRID_STDS)]
        for i, mean in enumerate(_TRIG_GRID_MEANS)
    ]), 2, 0)
    z = _z(mc, np.moveaxis(exact, 0, -1), se)  # indexed (mean, std, field)
    # The first strict maximum in (mean, std, field) order.
    i, j, f = np.unravel_index(np.argmax(z), z.shape)
    return {
        **_z_check("trig_moments_grid", z[i, j, f], grid_points=z.shape[0] * z.shape[1],
                   samples_per_point=samples),
        "worst_point": ([_TRIG_GRID_MEANS[i], _TRIG_GRID_STDS[j], uncert.TRIG_FIELDS[f]]
                        if z[i, j, f] > 0.0 else None),
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


def _exact_position_covariance(nm: uncert.NoiseModel, pairs) -> np.ndarray:
    """The exact position covariance at each (ego, target) pair, in one
    kernel call: rows a, b, c, one column per pair."""
    dx, dy, psi = np.array([[t.x - e.x, t.y - e.y, e.psi] for e, t in pairs]).T
    return uncert.position_covariance_exact(
        dx, dy, 2.0 * nm.sigma_pos**2, psi, nm.sigma_psi
    )


def _check_covariances(
    nm: uncert.NoiseModel,
    env: uncert.ScenarioEnvelope,
    samples: int,
    seed: int,
) -> list[dict]:
    """The exact-covariance, yaw and domination checks, fed by one Monte
    Carlo run per configuration (position domination is closed-form)."""
    pos_b = uncert.position_bound(nm, env)
    vel_b = uncert.velocity_bound(nm, env)
    exact = _exact_position_covariance(nm, [
        _random_state_pair(derived_rng(seed, 2000 + i), env)
        for i in range(_DOMINATION_CONFIGS)
    ])
    pairs = [_random_state_pair(derived_rng(seed, 500 + i), env) for i in range(_MC_CONFIGS)]
    # Per configuration: position a, b, c, yaw, velocity a, b, c.
    mc, se = np.moveaxis(np.array([
        uncert.monte_carlo_covariance(ego, target, nm, samples, seed + 7000 + i)
        for i, (ego, target) in enumerate(pairs)
    ]), 1, 0)
    z_pos = _z(mc[:, :3], _exact_position_covariance(nm, pairs).T, se[:, :3])
    z_yaw = _z(mc[:, 3], uncert.yaw_variance(nm), se[:, 3])
    margins = [pos_b.a - exact[0], pos_b.b - exact[1], vel_b.a - mc[:, 4], vel_b.b - mc[:, 5]]
    counts = {"configs": _MC_CONFIGS, "samples_per_config": samples}
    return [
        _z_check("exact_position_covariance", z_pos.max(), **counts),
        _z_check("yaw_variance", z_yaw.max(), **counts),
        _margin_check("bound_domination", np.concatenate(margins),
                      convention=uncert.DEFAULT_CONVENTION,
                      configs=_DOMINATION_CONFIGS, velocity_mc_configs=_MC_CONFIGS),
    ]


def _check_trig_mix(samples: int, seed: int) -> dict:
    # Per configuration: m_x, m_y, s_x, s_y, then the mean and std of omega.
    draws = np.array([
        derived_rng(seed, 4000 + i).uniform(
            [-3.0, -3.0, 0.01, 0.01, -math.pi, 0.05], [3.0, 3.0, 0.5, 0.5, math.pi, 0.5]
        )
        for i in range(_TRIG_MIX_CONFIGS)
    ])
    m_x, m_y, s_x, s_y, _, std = draws.T
    var, se = np.array([
        uncert.mixed_trig_variance_mc(*config, samples, seed + 11000 + i)
        for i, config in enumerate(draws.tolist())
    ]).T
    margins = uncert.bounded_trig_mix_var(m_x, m_y, s_x, s_y, std) + 5.0 * se - var
    return _margin_check("trig_mix_bound", margins, configs=_TRIG_MIX_CONFIGS,
                         samples_per_config=samples)


def run_validation(
    nm: uncert.NoiseModel,
    env: uncert.ScenarioEnvelope,
    samples: int,
    seed: int,
) -> dict:
    """The Monte Carlo certification suite behind `gtforge validate`.

    Deterministic for fixed (samples, seed).
    """
    checks = [
        _check_trig_grid(samples, seed),
        *_check_covariances(nm, env, samples, seed),
        _check_trig_mix(samples, seed),
    ]
    return {
        "samples": samples,
        "seed": seed,
        "convention": uncert.DEFAULT_CONVENTION,
        "noise": {k: _round9(v) for k, v in asdict(nm).items()},
        "envelope": {k: _round9(v) for k, v in asdict(env).items()},
        "checks": checks,
        "passed": bool(all(c["passed"] for c in checks)),
    }
