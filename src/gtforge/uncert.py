"""Uncertainty propagation through the ego-frame transformation.

Positioning noise is modelled as independent zero-mean Gaussians per
channel and per vehicle. Because the transformation rotates by the noisy
ego yaw, cosines and sines of Gaussian angles appear everywhere; their
moments are available in closed form, which gives an exact covariance for
the relative position and worst-case bounds (over a scenario envelope) for
position, velocity and yaw.

NoiseModel and ScenarioEnvelope are also the noise and envelope JSON
configs: _util.load_config reads a flat object whose keys are their
fields (SI units), and dataclasses.asdict writes one back.

The closed forms are numpy kernels that broadcast over arrays:
position_covariance_exact works in the ego frame, and trig_moments is the
same kernel at the unit offset. Each is a sum of products, with
1 - e^{-s^2} computed as -expm1(-s^2), as is every decay factor in the
bounds; no step subtracts nearly equal numbers, so they hold to rounding
at any yaw noise, zero included.

Two exponent conventions exist for the e^{-sigma_psi^2} decay factors in
the position and velocity bounds. "half_exponent" (the default) halves the
exponent in the diagonal entries and reproduces the headline bound figures
this bound family is known by; "printed" keeps the plain exponent and
yields looser diagonals. d_max is a radius: within it both position
diagonals dominate the exact variances for any bearing, yaw and heading
noise (position_bound gives the inequality), while at the per-axis corner
(d_max, d_max) the exact variance reaches twice the half-exponent
diagonal. The trig-mix bound, which certification checks against random
configurations, has only the printed form.

Every Monte Carlo routine is deterministic: work is split into batches of
at most MC_BATCH_SIZE draws, each drawing from its own (seed, batch-index)
stream, and batch statistics are merged in index order, so results are
reproducible bit for bit. A batch draws all its channels with one generator
call, one row per channel; the row order is the kernel's stream layout.
The batches run on _util.ordered_map's thread pool, one worker per usable
CPU, and memory grows by one batch per worker. The results depend neither
on the worker count nor on BLAS: every sum is numpy's pairwise reduction,
never a BLAS dot product, whose last bit moves with its thread count.

A bad parameter raises ValueError; the Monte Carlo covariance raises
GtForgeError for an ego without a yaw rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping

import numpy as np

from ._util import derived_rng, ordered_map, positive
from .egokin import relative_state, wrap_angle
from .trajlog import States

HALF_EXPONENT = "half_exponent"
PRINTED = "printed"
CONVENTIONS = (HALF_EXPONENT, PRINTED)
DEFAULT_CONVENTION = HALF_EXPONENT

MC_BATCH_SIZE = 100_000
MIN_BATCHES = 25


def _exponent_scale(convention: str) -> float:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return 0.5 if convention == HALF_EXPONENT else 1.0


def _nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be >= 0 and finite, got {value}")


@dataclass(frozen=True)
class NoiseModel:
    """Per-channel 1-sigma accuracies of one vehicle's positioning output.

    sigma_pos applies to each position axis, sigma_vel to each velocity
    axis, sigma_psi to yaw and sigma_psi_dot to yaw rate (all SI).
    """

    sigma_pos: float
    sigma_vel: float
    sigma_psi: float
    sigma_psi_dot: float = 1.75e-3

    def __post_init__(self) -> None:
        for f in fields(self):
            _nonnegative(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class ScenarioEnvelope:
    """Worst-case magnitudes the bounds are taken over: the radial
    distance between target and ego, relative speed per axis, and ego yaw
    rate."""

    d_max: float
    v_max: float
    psi_dot_max: float

    def __post_init__(self) -> None:
        for f in fields(self):
            positive(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class CovBound2:
    """Symmetric 2x2 covariance bound with entries a (for Var x), b (for
    Var y) and c (for Cov(x, y)); it need not be positive semidefinite."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        _nonnegative("a", self.a)
        _nonnegative("b", self.b)
        if not math.isfinite(self.c):
            raise ValueError("c must be finite")


TRIG_FIELDS = ("e_cos", "e_sin", "var_cos", "var_sin", "cov_cos_sin")


def position_covariance_exact(dx, dy, offset_var, mean, std) -> np.ndarray:
    """Exact covariance of the ego-frame relative position, as rows (a, b, c).

    Inputs broadcast as arrays: the mean world-frame offset (dx, dy)
    between target and ego, the variance v of each axis of that offset
    (2 sigma_pos^2 when both vehicles contribute equally), and the mean
    and standard deviation of the ego yaw. With (X, Y) the offset turned
    into the ego frame at the mean yaw, r^2 = X^2 + Y^2 and d = e^{-s^2}:

        a = v + (1/2)(1 - d)^2 r^2 + d (1 - d) Y^2
        b = v + (1/2)(1 - d)^2 r^2 + d (1 - d) X^2
        c = -d (1 - d) X Y

    Exact for independent Gaussian channels. Every term is a product, and
    1 - d is -expm1(-s^2), so no step cancels and a, b >= 0 at any yaw
    noise; at s = 0 the variances are v itself.
    """
    cos_m, sin_m = np.cos(mean), np.sin(mean)
    x = cos_m * dx + sin_m * dy
    y = cos_m * dy - sin_m * dx
    s2 = np.square(std)
    spread = -np.expm1(-s2)
    swing = np.exp(-s2) * spread
    iso = offset_var + 0.5 * spread**2 * (x * x + y * y)
    return np.stack(np.broadcast_arrays(iso + swing * y * y, iso + swing * x * x,
                                        -swing * x * y))


def trig_moments(mean, std) -> np.ndarray:
    """Closed-form moments of (cos W, sin W) for W ~ N(mean, std^2), as
    rows in TRIG_FIELDS order; inputs broadcast as arrays.

    E cos W = cos(m) e^{-s^2/2} and E sin W = sin(m) e^{-s^2/2}. The
    second moments are position_covariance_exact at the unit offset (1, 0)
    with no offset noise: that offset lands at (cos W, -sin W), so the
    variances are its a and b and the covariance is its negated c.
    """
    damp = np.exp(-0.5 * np.square(std))
    var_cos, var_sin, minus_cov = position_covariance_exact(1.0, 0.0, 0.0, mean, std)
    return np.stack(np.broadcast_arrays(np.cos(mean) * damp, np.sin(mean) * damp,
                                        var_cos, var_sin, -minus_cov))


def position_bound(
    nm: NoiseModel,
    env: ScenarioEnvelope,
    convention: str = DEFAULT_CONVENTION,
) -> CovBound2:
    """Worst-case relative-position covariance bound over the envelope.

    Diagonals: 2 sigma_pos^2 + 2 d_max^2 (1 - e^{-sigma_psi^2}), with the
    exponent halved under the half_exponent convention. Cross term:
    (3/2) d_max^2 (1 - e^{-sigma_psi^2 / 2}) under both conventions.

    With x = sigma_psi^2, the exact diagonals (position_covariance_exact
    with v = 2 sigma_pos^2) are at most v + (1/2)(1 - e^{-2x}) r^2, and
    (1/2)(1 - e^{-2x}) <= 2 (1 - e^{-x/2}): so even the half-exponent
    diagonal dominates them at every radius r <= d_max, for any bearing,
    yaw and sigma_psi, and ties them at sigma_psi = 0.
    """
    scale = _exponent_scale(convention)
    s2 = nm.sigma_psi**2
    diag = 2.0 * nm.sigma_pos**2 + 2.0 * env.d_max**2 * -math.expm1(-s2 * scale)
    cross = 1.5 * env.d_max**2 * -math.expm1(-s2 / 2.0)
    return CovBound2(diag, diag, cross)


def bounded_trig_mix_var(m_x, m_y, s_x, s_y, std):
    """Upper bound on Var(cos(W) X + sin(W) Y) for independent X, Y and
    W ~ N(mean, std^2), X ~ N(m_x, s_x^2), Y ~ N(m_y, s_y^2); broadcasts.

    s_x^2 + s_y^2 + (1 - e^{-std^2}) (|m_x| + |m_y|)^2, the printed form,
    which is a theorem for Gaussian W of any mean and any independent X, Y.
    """
    return (np.square(s_x) + np.square(s_y)
            - np.expm1(-np.square(std)) * np.square(np.abs(m_x) + np.abs(m_y)))


def velocity_bound(
    nm: NoiseModel,
    env: ScenarioEnvelope,
    convention: str = DEFAULT_CONVENTION,
) -> CovBound2:
    """Worst-case relative-velocity covariance bound over the envelope.

    The pre-rotation velocity components have variance at most
    2 sigma_vel^2 + sigma_pos^2 sigma_psi_dot^2 + psi_dot_max^2 sigma_pos^2
    + d_max^2 sigma_psi_dot^2 per axis (doubled where both vehicles
    contribute); mixing through the noisy rotation adds
    4 (1 - e^{-sigma_psi^2}) (v_max + d_max psi_dot_max)^2 with the
    exponent scaled by the convention.

    The cross entry is kept in this bound family's conventional loose form
    a * b. It is not a Cauchy-Schwarz covariance bound (its unit is a
    squared variance); for realistic noise it sits orders of magnitude
    below the diagonal and is retained so consumers always receive a full
    2x2 layout with the established headline norm.
    """
    scale = _exponent_scale(convention)
    s2 = nm.sigma_psi**2
    core = 4.0 * (
        nm.sigma_vel**2
        + nm.sigma_pos**2 * nm.sigma_psi_dot**2
        + env.psi_dot_max**2 * nm.sigma_pos**2
    )
    swing = 2.0 * env.d_max**2 * nm.sigma_psi_dot**2
    mix = 4.0 * -math.expm1(-s2 * scale) * (
        env.v_max + env.d_max * env.psi_dot_max
    ) ** 2
    diag = core + swing + mix
    return CovBound2(diag, diag, diag * diag)


def yaw_variance(nm: NoiseModel) -> float:
    """Variance of the relative yaw: both yaw channels contribute."""
    return 2.0 * nm.sigma_psi**2


def rms_from_cov(cov: CovBound2) -> float:
    """Scalar summary of a 2x2 covariance: Frobenius norm to the 1/2 power,
    i.e. (a^2 + b^2 + 2 c^2)^{1/4}. Has the unit of the underlying signal."""
    return (cov.a**2 + cov.b**2 + 2.0 * cov.c**2) ** 0.25


# Constants of the reference analysis this bound family is reported with.
ANALYSIS_NOISE = NoiseModel(
    sigma_pos=0.02, sigma_vel=0.02, sigma_psi=1.75e-3, sigma_psi_dot=1.75e-3
)
ANALYSIS_ENVELOPE = ScenarioEnvelope(d_max=50.0, v_max=36.0, psi_dot_max=1.0)

# Documented accuracy presets of the RTK/INS positioning chain, by GNSS
# signal condition. Heading accuracy 0.01 deg throughout; the velocity
# accuracy is not part of the outage table and keeps the nominal value.
POSITIONING_PRESETS: Mapping[str, NoiseModel] = {
    "nominal": NoiseModel(
        sigma_pos=0.02, sigma_vel=0.02, sigma_psi=math.radians(0.01)
    ),
    "outage_60s": NoiseModel(
        sigma_pos=0.10, sigma_vel=0.02, sigma_psi=math.radians(0.01)
    ),
    "outage_300s": NoiseModel(
        sigma_pos=0.60, sigma_vel=0.02, sigma_psi=math.radians(0.01)
    ),
}


# ---------------------------------------------------------------------------
# Monte Carlo machinery.

def _batch_layout(n: int) -> list[int]:
    """Split n draws into near-equal batches of at most MC_BATCH_SIZE.

    The layout depends only on n. At least MIN_BATCHES batches are used
    whenever n allows: the standard error is estimated from the spread of
    the batch values, and with only a handful of batches that estimate is
    noisy enough to make z-scores heavy-tailed.
    """
    if n < 4:
        raise ValueError(f"need at least 4 samples, got {n}")
    count = max(MIN_BATCHES, math.ceil(n / MC_BATCH_SIZE))
    # Unbiased per-batch variances need >= 2 draws per batch.
    count = min(count, n // 2)
    base, extra = divmod(n, count)
    return [base + 1 if i < extra else base for i in range(count)]


def _batched_stats(
    n: int,
    seed: int,
    stat_fn: Callable[[np.random.Generator, int], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate a vector statistic by averaging per-batch unbiased values.

    stat_fn(rng, m) must return the statistic computed from m fresh draws.
    Returns (estimate, standard error) where the standard error is the
    spread of the batch values over sqrt(batch count). The batches run on
    _util.ordered_map's thread pool, so stat_fn must be thread-safe; perfbench
    counts them there.
    """
    sizes = _batch_layout(n)

    def one(batch: int) -> np.ndarray:
        return np.asarray(stat_fn(derived_rng(seed, batch), sizes[batch]))

    stack = np.vstack(ordered_map(one, list(range(len(sizes)))))
    estimate = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1) / math.sqrt(stack.shape[0])
    return estimate, se


def _pair_stats(u: np.ndarray, v: np.ndarray) -> tuple[float, ...]:
    """Means, unbiased variances and covariance of one sample pair:
    (mean u, mean v, var u, var v, cov).

    Every sum is numpy's pairwise np.add.reduce, never a BLAS dot product:
    BLAS splits a long dot over threads of its own, which would compete
    with ordered_map's workers and make the last bit depend on its thread
    count.
    """
    mean_u, mean_v = u.mean(), v.mean()
    du, dv = u - mean_u, v - mean_v
    cov = np.add.reduce(du * dv)
    du *= du
    dv *= dv
    m1 = u.size - 1
    return mean_u, mean_v, np.add.reduce(du) / m1, np.add.reduce(dv) / m1, cov / m1


def _variance(u: np.ndarray) -> float:
    """Unbiased variance of one sample, by _pair_stats' arithmetic."""
    du = u - u.mean()
    du *= du
    return np.add.reduce(du) / (u.size - 1)


def trig_moments_mc(
    mean: float,
    std: float,
    n: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo counterpart of trig_moments, with standard errors.

    Returns (estimate, se), each with one entry per TRIG_FIELDS name, in
    that order. Deterministic per seed.
    """

    def stat(rng: np.random.Generator, m: int) -> np.ndarray:
        w = rng.normal(mean, std, m)
        return np.array(_pair_stats(np.cos(w), np.sin(w, out=w)))

    return _batched_stats(n, seed, stat)


def mixed_trig_variance_mc(
    m_x: float,
    m_y: float,
    s_x: float,
    s_y: float,
    mean: float,
    std: float,
    n: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo Var(cos(W) X + sin(W) Y) with standard error, for
    W ~ N(mean, std^2) and X, Y as bounded_trig_mix_var takes them."""
    loc = np.array([[mean], [m_x], [m_y]])
    scale = np.array([[std], [s_x], [s_y]])

    def stat(rng: np.random.Generator, m: int) -> np.ndarray:
        # Rows w, x, y: z * scale + loc is Generator.normal(loc, scale), bit for bit.
        z = rng.standard_normal((3, m))
        z *= scale
        z += loc
        w, x, y = z
        x *= np.cos(w)
        y *= np.sin(w, out=w)
        x += y
        return np.array([_variance(x)])

    est, se = _batched_stats(n, seed, stat)
    return float(est[0]), float(se[0])


def monte_carlo_covariance(
    ego: States,
    target: States,
    nm: NoiseModel,
    n: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical covariance of the ego-frame outputs at one true state pair.

    ego and target are single states (float channels). Draws independent
    Gaussian perturbations of both vehicles' channels, pushes every batch
    of draws through egokin.relative_state (the transform that writes the
    records) and returns (estimate, se): seven entries each, in the order
    position a, b, c, then the yaw variance, then velocity a, b, c. The
    ego must carry a yaw rate (GtForgeError otherwise); the target's yaw
    rate never enters the outputs. Yaw dispersion is measured about the
    true relative yaw, so a mean near +-pi does not split the wrapped
    sample across the seam. Deterministic per seed.
    """
    true_dpsi = relative_state(ego, target).psi

    # Rows: the ego's x, y, vx, vy, psi, psi_dot, then the target's first five.
    mean = np.array([ego.x, ego.y, ego.vx, ego.vy, ego.psi, ego.psi_dot,
                     target.x, target.y, target.vx, target.vy, target.psi])[:, None]
    sigmas = [nm.sigma_pos, nm.sigma_pos, nm.sigma_vel, nm.sigma_vel, nm.sigma_psi]
    std = np.array([*sigmas, nm.sigma_psi_dot, *sigmas])[:, None]

    def stat(rng: np.random.Generator, m: int) -> np.ndarray:
        # (z * std + 0.0) + mean is mean + Generator.normal(0.0, std), bit for bit.
        draws = rng.standard_normal((11, m))
        draws *= std
        draws += 0.0
        draws += mean
        t = np.full(m, ego.t)
        e = States(t, *draws[:6])
        tg = States(t, *draws[6:], target.psi_dot)
        rel = relative_state(e, tg)
        yv = _variance(wrap_angle(tg.psi - e.psi - true_dpsi))
        return np.array([*_pair_stats(rel.x, rel.y)[2:], yv, *_pair_stats(rel.vx, rel.vy)[2:]])

    return _batched_stats(n, seed, stat)
