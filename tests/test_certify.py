"""`validate`'s random configurations: one uniform draw per configuration,
whose order is the stream layout."""

from __future__ import annotations

import math

import pytest

from gtforge import certify, uncert
from gtforge._util import derived_rng

SEEDS = range(1, 201)


def scalar_state_pair(rng, env):
    """The configuration drawn value by value, in stream order."""
    limit = env.d_max / math.sqrt(2.0)
    ego = [float(rng.uniform(-100.0, 100.0)), float(rng.uniform(-100.0, 100.0)),
           float(rng.uniform(-env.v_max, env.v_max)) / 2.0,
           float(rng.uniform(-env.v_max, env.v_max)) / 2.0,
           float(rng.uniform(-math.pi, math.pi)),
           float(rng.uniform(-env.psi_dot_max, env.psi_dot_max))]
    target = [ego[0] + float(rng.uniform(-limit, limit)),
              ego[1] + float(rng.uniform(-limit, limit)),
              ego[2] + float(rng.uniform(-env.v_max, env.v_max)),
              ego[3] + float(rng.uniform(-env.v_max, env.v_max)),
              float(rng.uniform(-math.pi, math.pi))]
    return ego, target


@pytest.mark.parametrize("stream", [500, 2000, 4000])
def test_state_pair_is_the_scalar_draws(stream):
    env = uncert.ANALYSIS_ENVELOPE
    for seed in SEEDS:
        ego, target = certify._random_state_pair(derived_rng(seed, stream), env)
        want_ego, want_target = scalar_state_pair(derived_rng(seed, stream), env)
        assert [ego.x, ego.y, ego.vx, ego.vy, ego.psi, ego.psi_dot] == want_ego
        assert [target.x, target.y, target.vx, target.vy, target.psi] == want_target
        assert ego.t == target.t == 0.0 and math.isnan(target.psi_dot)


def test_trig_mix_configs_are_the_scalar_draws(monkeypatch):
    drawn = []
    monkeypatch.setattr(uncert, "mixed_trig_variance_mc",
                        lambda *args: drawn.append(args[:6]) or (0.0, 0.0))
    for seed in SEEDS:
        drawn.clear()
        certify._check_trig_mix(100, seed)
        want = []
        for i in range(certify._TRIG_MIX_CONFIGS):
            rng = derived_rng(seed, 4000 + i)
            want.append(tuple(float(rng.uniform(low, high)) for low, high in
                              [(-3.0, 3.0), (-3.0, 3.0), (0.01, 0.5), (0.01, 0.5),
                               (-math.pi, math.pi), (0.05, 0.5)]))
        assert drawn == want
