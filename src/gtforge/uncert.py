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

Two exponent conventions exist for the e^{-sigma_psi^2} decay factors in
the position and velocity bounds. "half_exponent" (the default) halves the
exponent in the diagonal entries and reproduces the headline bound figures
this bound family is known by; "printed" keeps the plain exponent and
yields slightly looser diagonals. Both dominate the exact covariance for
small heading noise; the half variant is a reporting convention, not a
tighter theorem, so the trig-mix bound, which certification checks against
random configurations, has only the printed form.

Every Monte Carlo routine is deterministic: work is split into batches of
at most MC_BATCH_SIZE draws, each drawing from its own (seed, batch-index)
stream, and batch statistics are merged in index order, so results are
reproducible bit for bit. A batch draws all its channels with one generator
call, one row per channel; the row order is the kernel's stream layout.

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
    """Worst-case magnitudes the bounds are taken over: relative distance
    per axis, relative speed per axis, and ego yaw rate."""

    d_max: float
    v_max: float
    psi_dot_max: float

    def __post_init__(self) -> None:
        for f in fields(self):
            positive(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class GaussianMoments:
    """Mean and standard deviation of one scalar Gaussian."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError("mean must be finite")
        _nonnegative("std", self.std)


@dataclass(frozen=True)
class CovBound2:
    """Symmetric 2x2 covariance (or bound) as entries a=Var(x), b=Var(y),
    c=Cov(x, y). Bound variants need not be positive semidefinite."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        _nonnegative("a", self.a)
        _nonnegative("b", self.b)
        if not math.isfinite(self.c):
            raise ValueError("c must be finite")


@dataclass(frozen=True)
class TrigMoments:
    """First and second moments of (cos W, sin W) for Gaussian W."""

    e_cos: float
    e_sin: float
    var_cos: float
    var_sin: float
    cov_cos_sin: float


def trig_moments(omega: GaussianMoments) -> TrigMoments:
    """Closed-form moments of cos/sin of a Gaussian angle.

    E cos W = cos(m) e^{-s^2/2} and E sin W = sin(m) e^{-s^2/2}; the second
    moments follow from E cos 2W = cos(2m) e^{-2 s^2} via the double-angle
    identities.
    """
    m, s2 = omega.mean, omega.std**2
    damp = math.exp(-s2 / 2.0)
    damp2 = math.exp(-2.0 * s2)
    e_cos = math.cos(m) * damp
    e_sin = math.sin(m) * damp
    cos2 = math.cos(2.0 * m) * damp2
    var_cos = 0.5 * (1.0 + cos2) - e_cos**2
    var_sin = 0.5 * (1.0 - cos2) - e_sin**2
    cov = 0.5 * math.sin(2.0 * m) * damp2 - e_cos * e_sin
    return TrigMoments(e_cos, e_sin, var_cos, var_sin, cov)


def position_covariance_exact(
    dx_mean: float,
    dy_mean: float,
    sigma_dx: float,
    psi: GaussianMoments,
) -> CovBound2:
    """Exact covariance of the ego-frame relative position.

    Inputs: mean world-frame offset (dx, dy) between target and ego, the
    per-axis standard deviation of that offset (sqrt(2) * sigma_pos when
    both vehicles contribute equally), and the ego yaw moments. Exact for
    independent Gaussian channels; the rotation is the only nonlinearity
    and its trig moments are closed-form.
    """
    _nonnegative("sigma_dx", sigma_dx)
    tm = trig_moments(psi)
    s2 = psi.std**2
    decay = math.exp(-s2)
    k = decay * (1.0 - decay)
    sin2m = math.sin(2.0 * psi.mean)
    cos2m = math.cos(2.0 * psi.mean)
    var = sigma_dx**2
    a = var + dx_mean**2 * tm.var_cos + dy_mean**2 * tm.var_sin \
        - dx_mean * dy_mean * sin2m * k
    b = var + dx_mean**2 * tm.var_sin + dy_mean**2 * tm.var_cos \
        + dx_mean * dy_mean * sin2m * k
    c = 0.5 * sin2m * k * (dx_mean**2 - dy_mean**2) \
        - dx_mean * dy_mean * cos2m * k
    return CovBound2(a, b, c)


def position_bound(
    nm: NoiseModel,
    env: ScenarioEnvelope,
    convention: str = DEFAULT_CONVENTION,
) -> CovBound2:
    """Worst-case relative-position covariance bound over the envelope.

    Diagonals: 2 sigma_pos^2 + 2 d_max^2 (1 - e^{-sigma_psi^2}), with the
    exponent halved under the half_exponent convention. Cross term:
    (3/2) d_max^2 (1 - e^{-sigma_psi^2 / 2}) under both conventions.
    """
    scale = _exponent_scale(convention)
    s2 = nm.sigma_psi**2
    diag = 2.0 * nm.sigma_pos**2 + 2.0 * env.d_max**2 * (1.0 - math.exp(-s2 * scale))
    cross = 1.5 * env.d_max**2 * (1.0 - math.exp(-s2 / 2.0))
    return CovBound2(diag, diag, cross)


def bounded_trig_mix_var(
    m_x: float,
    m_y: float,
    s_x: float,
    s_y: float,
    omega: GaussianMoments,
) -> float:
    """Upper bound on Var(cos(W) X + sin(W) Y) for independent X, Y, W.

    s_x^2 + s_y^2 + (1 - e^{-sigma^2}) (|m_x| + |m_y|)^2, the printed form,
    which is a theorem for Gaussian W and any independent X, Y.
    """
    _nonnegative("s_x", s_x)
    _nonnegative("s_y", s_y)
    s2 = omega.std**2
    return s_x**2 + s_y**2 + (1.0 - math.exp(-s2)) * (abs(m_x) + abs(m_y)) ** 2


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
    mix = 4.0 * (1.0 - math.exp(-s2 * scale)) * (
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
    spread of the batch values over sqrt(batch count). The batches run
    through _util.ordered_map, where perfbench counts them.
    """
    sizes = _batch_layout(n)

    def one(batch: int) -> np.ndarray:
        return np.asarray(stat_fn(derived_rng(seed, batch), sizes[batch]))

    stack = np.vstack(ordered_map(one, list(range(len(sizes)))))
    estimate = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1) / math.sqrt(stack.shape[0])
    return estimate, se


def _pair_stats(u: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """Unbiased variances and covariance of one sample pair."""
    m = u.size
    du = u - u.mean()
    dv = v - v.mean()
    return (
        float(du @ du / (m - 1)),
        float(dv @ dv / (m - 1)),
        float(du @ dv / (m - 1)),
    )


def trig_moments_mc(
    omega: GaussianMoments,
    n: int,
    seed: int,
) -> tuple[TrigMoments, TrigMoments]:
    """Monte Carlo counterpart of trig_moments, with standard errors.

    Returns (estimate, se) as TrigMoments pairs. Deterministic per seed.
    """

    def stat(rng: np.random.Generator, m: int) -> np.ndarray:
        w = rng.normal(omega.mean, omega.std, m)
        c = np.cos(w)
        s = np.sin(w)
        var_c, var_s, cov = _pair_stats(c, s)
        return np.array([c.mean(), s.mean(), var_c, var_s, cov])

    est, se = _batched_stats(n, seed, stat)
    return TrigMoments(*est), TrigMoments(*se)


def mixed_trig_variance_mc(
    m_x: float,
    m_y: float,
    s_x: float,
    s_y: float,
    omega: GaussianMoments,
    n: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo Var(cos(W) X + sin(W) Y) with standard error."""
    loc = np.array([[omega.mean], [m_x], [m_y]])
    scale = np.array([[omega.std], [s_x], [s_y]])

    def stat(rng: np.random.Generator, m: int) -> np.ndarray:
        # Rows w, x, y: loc + scale * z is Generator.normal(loc, scale), bit for bit.
        w, x, y = loc + scale * rng.standard_normal((3, m))
        z = np.cos(w) * x + np.sin(w) * y
        return np.array([_pair_stats(z, z)[0]])

    est, se = _batched_stats(n, seed, stat)
    return float(est[0]), float(se[0])


@dataclass(frozen=True)
class MonteCarloCovariance:
    """Empirical output covariances with entrywise standard errors."""

    position: CovBound2
    position_se: CovBound2
    velocity: CovBound2
    velocity_se: CovBound2
    yaw_var: float
    yaw_var_se: float


def monte_carlo_covariance(
    ego: States,
    target: States,
    nm: NoiseModel,
    n: int,
    seed: int,
) -> MonteCarloCovariance:
    """Empirical covariance of the ego-frame outputs at one true state pair.

    ego and target are single states (float channels). Draws independent
    Gaussian perturbations of both vehicles' channels, pushes every batch
    of draws through egokin.relative_state (the transform that writes the
    records) and returns empirical covariances with standard errors. The
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
        # mean + (0.0 + std * z) is mean + Generator.normal(0.0, std), bit for bit.
        draws = mean + (0.0 + std * rng.standard_normal((11, m)))
        t = np.full(m, ego.t)
        e = States(t, *draws[:6])
        tg = States(t, *draws[6:], target.psi_dot)
        rel = relative_state(e, tg)
        pa, pb, pc = _pair_stats(rel.x, rel.y)
        dpsi = wrap_angle(tg.psi - e.psi - true_dpsi)
        yv = _pair_stats(dpsi, dpsi)[0]
        va, vb, vc = _pair_stats(rel.vx, rel.vy)
        return np.array([pa, pb, pc, yv, va, vb, vc])

    est, se = _batched_stats(n, seed, stat)
    return MonteCarloCovariance(
        position=CovBound2(*est[0:3]),
        position_se=CovBound2(*se[0:3]),
        velocity=CovBound2(*est[4:7]),
        velocity_se=CovBound2(*se[4:7]),
        yaw_var=float(est[3]),
        yaw_var_se=float(se[3]),
    )
