"""End-to-end acceptance checks.

Each test covers one release criterion, prints exactly one [PASS]/[FAIL]
line with the measured figure, and enforces a wall-clock budget. Run with
`pytest -v` (add -s to see the lines for passing tests too).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from gtforge import cli
from gtforge.calib import relative_motions, solve_hand_eye
from gtforge.egokin import relative_state, wrap_angle
from gtforge.gtgen import VehicleGeometry, generate_records
from gtforge.synth import StadiumTrack, run_scenario, run_states
from gtforge.trajlog import ClockModel, States, apply_clock_model
from gtforge.uncert import (
    ANALYSIS_ENVELOPE,
    ANALYSIS_NOISE,
    HALF_EXPONENT,
    PRINTED,
    NoiseModel,
    monte_carlo_covariance,
    position_bound,
    position_covariance_exact,
    rms_from_cov,
    trig_moments,
    trig_moments_mc,
    velocity_bound,
    yaw_variance,
)
from helpers import Transform, compose, make_lead_follow, straight_trajectory

GEOM = VehicleGeometry(length=4.0, width=2.0)


def criterion(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    print(line)
    assert ok, line


def in_envelope_pair(rng: np.random.Generator) -> tuple[States, States]:
    env = ANALYSIS_ENVELOPE
    limit = env.d_max / math.sqrt(2.0)
    ego = States(
        t=0.0,
        x=float(rng.uniform(-200, 200)), y=float(rng.uniform(-200, 200)),
        vx=float(rng.uniform(-20, 20)), vy=float(rng.uniform(-20, 20)),
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


def test_01_position_bound_headline():
    """Reference-config position bound reproduces the published figures."""
    t0 = time.monotonic()
    half = rms_from_cov(position_bound(ANALYSIS_NOISE, ANALYSIS_ENVELOPE, HALF_EXPONENT))
    printed = rms_from_cov(position_bound(ANALYSIS_NOISE, ANALYSIS_ENVELOPE, PRINTED))
    elapsed = time.monotonic() - t0
    ok = abs(half - 0.1202) <= 5e-4 and abs(printed - 0.1555) <= 5e-4 and elapsed < 1.0
    criterion(
        1, "position bound headline", ok,
        f"rms half={half:.6f} (want 0.1202+-0.0005), "
        f"printed={printed:.6f} (want 0.1555+-0.0005), {elapsed:.2f}s",
    )


def test_02_velocity_bound_headline():
    """Reference-config velocity bound reproduces the published figure."""
    t0 = time.monotonic()
    vel = velocity_bound(ANALYSIS_NOISE, ANALYSIS_ENVELOPE, HALF_EXPONENT)
    rms = rms_from_cov(vel)
    elapsed = time.monotonic() - t0
    ok = abs(rms - 0.301) <= 2e-3 and vel.c == vel.a * vel.b and elapsed < 1.0
    criterion(
        2, "velocity bound headline", ok,
        f"rms={rms:.6f} (want 0.301+-0.002), c=a*b={vel.c:.6g}, {elapsed:.2f}s",
    )


def test_03_trig_moments_grid():
    """Closed-form angle moments match 1e7-sample MC over a mean/spread grid."""
    t0 = time.monotonic()
    means = (0.0, 0.5, -0.5, math.pi / 2, -math.pi / 2, 3.0)
    stds = (0.001, 0.01, 0.1, 1.0)
    worst = 0.0
    for i, m in enumerate(means):
        for j, s in enumerate(stds):
            analytic = trig_moments(m, s)
            mc, se = trig_moments_mc(m, s, 10_000_000, seed=300 + 10 * i + j)
            for gap, scale in zip(np.abs(mc - analytic), se):
                if scale > 0.0:
                    worst = max(worst, gap / scale)
                else:
                    worst = max(worst, 0.0 if gap == 0.0 else math.inf)
    elapsed = time.monotonic() - t0
    ok = worst <= 5.0 and elapsed < 120.0
    criterion(
        3, "trig moment grid vs MC", ok,
        f"24 points x 1e7 samples, max |z|={worst:.2f} (limit 5), {elapsed:.1f}s",
    )


def test_04_exact_covariance_vs_mc():
    """Exact relative-position covariance matches MC on 50 random configs."""
    t0 = time.monotonic()
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng((41, k))
        ego, target = in_envelope_pair(rng)
        nm = NoiseModel(
            sigma_pos=float(rng.uniform(0.01, 0.1)),
            sigma_vel=float(rng.uniform(0.01, 0.1)),
            sigma_psi=float(rng.uniform(0.001, 0.05)),
            sigma_psi_dot=float(rng.uniform(0.001, 0.05)),
        )
        # Entries: position a, b, c, then yaw (velocity a, b, c unused).
        mc, se = monte_carlo_covariance(ego, target, nm, 1_000_000, seed=4000 + k)
        exact = position_covariance_exact(
            target.x - ego.x, target.y - ego.y, 2.0 * nm.sigma_pos**2,
            ego.psi, nm.sigma_psi,
        )
        for gap, scale in zip(np.abs(mc[:4] - [*exact, yaw_variance(nm)]), se[:4]):
            if scale > 0.0:
                worst = max(worst, gap / scale)
    elapsed = time.monotonic() - t0
    ok = worst <= 5.0 and elapsed < 300.0
    criterion(
        4, "exact covariance vs MC", ok,
        f"50 configs x 1e6 samples, max |z|={worst:.2f} (limit 5), {elapsed:.1f}s",
    )


def test_05_bound_domination():
    """Bounds dominate the actual output covariance across the envelope."""
    t0 = time.monotonic()
    nm = ANALYSIS_NOISE
    pos_b = position_bound(nm, ANALYSIS_ENVELOPE, HALF_EXPONENT)
    vel_b = velocity_bound(nm, ANALYSIS_ENVELOPE, HALF_EXPONENT)
    violations = 0
    for k in range(100):
        rng = np.random.default_rng((43, k))
        ego, target = in_envelope_pair(rng)
        a, b, _ = position_covariance_exact(
            target.x - ego.x, target.y - ego.y, 2.0 * nm.sigma_pos**2,
            ego.psi, nm.sigma_psi,
        )
        if a > pos_b.a or b > pos_b.b:
            violations += 1
        if k < 12:
            mc, _ = monte_carlo_covariance(ego, target, nm, 200_000, seed=5000 + k)
            if mc[4] > vel_b.a or mc[5] > vel_b.b:
                violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 60.0
    criterion(
        5, "bound domination in envelope", ok,
        f"100 position configs + 12 MC velocity configs, "
        f"{violations} violations (want 0), {elapsed:.1f}s",
    )


def test_06_noiseless_end_to_end():
    """Noise-free lead/follow pipeline reproduces closed-form truth."""
    t0 = time.monotonic()
    duration, rate, gap, speed = 60.0, 100.0, 30.0, 25.0
    # Wide curve keeps the interpolation error at the straight-to-curve
    # yaw-rate step inside the 1e-3 m budget: across the step the yaw
    # Hermite is off by up to (v/R) * h / 8, which the gap turns into
    # gap * (v/R) * h / 8 = 9.4e-4 m here.
    scenario = make_lead_follow(
        gap=gap, speed=speed, duration=duration, rate=rate,
        track=StadiumTrack(straight_len=500.0, curve_radius=1000.0),
    )
    logs = run_scenario(scenario)
    ego_log, lead_log = logs["ego"][1], logs["lead"][1]

    track = scenario.track
    ego_run = scenario.vehicles[0]
    lead_run = scenario.vehicles[1]

    def truth_at(stamps):
        ego_states = run_states(track, ego_run, stamps)
        lead_states = run_states(track, lead_run, stamps)
        return relative_state(ego_states, lead_states)

    knots = ego_log.t
    records = generate_records(ego_log, [lead_log], knots, GEOM)
    truth = truth_at(knots)
    err_pos = float(np.max(np.hypot(records.x - truth.x, records.y - truth.y)))
    err_vel = float(np.max(np.hypot(records.vx - truth.vx, records.vy - truth.vy)))
    err_yaw = float(np.max(np.abs(wrap_angle(records.psi - truth.psi))))

    between = knots[:-1] + 0.5 / rate
    rec_mid = generate_records(ego_log, [lead_log], between, GEOM)
    truth_mid = truth_at(between)
    err_mid = float(np.max(np.hypot(rec_mid.x - truth_mid.x, rec_mid.y - truth_mid.y)))
    elapsed = time.monotonic() - t0
    ok = (
        err_pos <= 1e-6 and err_vel <= 1e-6 and err_yaw <= 1e-9
        and err_mid <= 1e-3 and elapsed < 30.0
    )
    criterion(
        6, "noiseless end-to-end accuracy", ok,
        f"knots: pos={err_pos:.2e} m (<=1e-6), vel={err_vel:.2e} m/s (<=1e-6), "
        f"yaw={err_yaw:.2e} rad (<=1e-9); between knots pos={err_mid:.2e} m "
        f"(<=1e-3); {elapsed:.1f}s",
    )


def test_07_clock_offset_sensitivity():
    """An uncompensated target clock offset shifts the range by speed*delta."""
    t0 = time.monotonic()
    speed = 70.0
    ego = straight_trajectory("ego", (0.0, 0.0), 0.0, 0.0, 4.0, 100.0)
    target_true = straight_trajectory(
        "target", (300.0, 0.0), math.pi, speed, 4.0, 100.0
    )
    stamps = np.linspace(0.5, 3.5, 61)

    def range_error(delta: float) -> float:
        # log written with timestamps delta late relative to ego time
        late = apply_clock_model(target_true, ClockModel(offset=-delta))
        records = generate_records(ego, [late], stamps, GEOM)
        truth_x = 300.0 - speed * records.t
        return float(np.max(np.abs(records.x - truth_x)))

    deltas = (0.0005, 0.001, 0.002, 0.005)
    errors = [range_error(d) for d in deltas]
    err_1ms = errors[1]
    linear_ok = all(
        abs(e - speed * d) <= 0.1 * speed * d for d, e in zip(deltas, errors)
    )

    # compensating the same offset removes the error
    late = apply_clock_model(target_true, ClockModel(offset=-0.001))
    compensated = apply_clock_model(late, ClockModel(offset=0.001))
    fixed = generate_records(ego, [compensated], stamps, GEOM)
    resid = float(np.max(np.abs(fixed.x - (300.0 - speed * fixed.t))))

    elapsed = time.monotonic() - t0
    ok = (
        abs(err_1ms - 0.070) <= 0.007 and linear_ok and resid < 1e-6
        and elapsed < 60.0
    )
    criterion(
        7, "clock offset sensitivity", ok,
        f"1 ms -> {err_1ms:.4f} m (want 0.070+-10%), linear over "
        f"{[f'{d * 1e3:g}ms' for d in deltas]}: {linear_ok}, "
        f"compensated residual={resid:.1e} m, {elapsed:.1f}s",
    )


def test_08_hand_eye_calibration():
    """Extrinsic solver: exact on clean data, improving with more data."""
    import statistics

    t0 = time.monotonic()
    seed_rng = np.random.default_rng(814)
    x_true = Transform(
        theta=float(seed_rng.uniform(-math.pi, math.pi)),
        tx=float(seed_rng.uniform(-2, 2)),
        ty=float(seed_rng.uniform(-2, 2)),
    )

    def poses(n: int) -> np.ndarray:
        t = np.arange(n) * 0.1
        return np.stack([t, 2.0 * t, np.sin(t), 1.5 * np.sin(0.7 * t)], axis=1)

    clean_a = poses(1000)
    clean_b = compose(clean_a, x_true)
    result = solve_hand_eye(relative_motions(clean_a), relative_motions(clean_b))
    clean_err = max(
        abs(result.theta - x_true.theta),
        abs(result.tx - x_true.tx),
        abs(result.ty - x_true.ty),
    )

    def noisy_error(n: int, trial: int) -> float:
        rng = np.random.default_rng((71, n, trial))
        a = poses(n)
        b = compose(a, x_true)
        a[:, 1:3] += rng.normal(0, 0.02, (n, 2))
        a[:, 3] += rng.normal(0, 1.75e-3, n)
        b[:, 1:3] += rng.normal(0, 0.02, (n, 2))
        b[:, 3] += rng.normal(0, 1.75e-3, n)
        r = solve_hand_eye(relative_motions(a), relative_motions(b))
        return math.hypot(r.tx - x_true.tx, r.ty - x_true.ty)

    medians = [
        statistics.median(noisy_error(n, k) for k in range(20))
        for n in (100, 400, 1600)
    ]
    decreasing = medians[0] > medians[1] > medians[2]
    elapsed = time.monotonic() - t0
    ok = clean_err <= 1e-9 and decreasing and elapsed < 60.0
    criterion(
        8, "hand-eye calibration", ok,
        f"clean err={clean_err:.1e} (<=1e-9), noisy medians "
        f"{[f'{m:.4f}' for m in medians]} decreasing={decreasing}, {elapsed:.1f}s",
    )


def test_09_kinematic_consistency():
    """Relative velocity equals the central difference of relative position."""
    t0 = time.monotonic()
    dt = 1e-4
    worst = 0.0
    for k in range(1000):
        rng = np.random.default_rng((59, k))
        ego, target = in_envelope_pair(rng)

        def advance(s: States, rate: float, h: float) -> States:
            return States(
                t=s.t + h, x=s.x + s.vx * h, y=s.y + s.vy * h,
                vx=s.vx, vy=s.vy, psi=wrap_angle(s.psi + rate * h),
                psi_dot=s.psi_dot,
            )

        rel = relative_state(ego, target)
        minus = relative_state(advance(ego, ego.psi_dot, -dt), advance(target, 0.0, -dt))
        plus = relative_state(advance(ego, ego.psi_dot, dt), advance(target, 0.0, dt))
        dx = (plus.x - minus.x) / (2 * dt)
        dy = (plus.y - minus.y) / (2 * dt)
        worst = max(worst, abs(dx - rel.vx), abs(dy - rel.vy))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    criterion(
        9, "kinematic consistency", ok,
        f"1000 states, dt=1e-4, max |d(pos)/dt - vel|={worst:.2e} m/s "
        f"(<=1e-5), {elapsed:.1f}s",
    )


def test_10_deterministic_outputs(tmp_path, capsys):
    """simulate/validate/generate are byte-identical across runs."""
    import json

    t0 = time.monotonic()
    scenario = {
        "seed": 13,
        "noise": {"sigma_pos": 0.02, "sigma_vel": 0.02, "sigma_psi": 0.00175},
        "vehicles": [
            {"id": "ego", "duration": 4.0, "rate": 50.0,
             "speed_profile": [[0.0, 25.0]]},
            {"id": "lead", "duration": 4.0, "rate": 50.0, "start_offset": 30.0,
             "speed_profile": [[0.0, 25.0]]},
        ],
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    (tmp_path / "noise.json").write_text(json.dumps(
        {"sigma_pos": 0.02, "sigma_vel": 0.02, "sigma_psi": 0.00175}
    ))
    (tmp_path / "geometry.json").write_text(json.dumps({"length": 4.0, "width": 2.0}))

    outputs = []
    for attempt in range(2):
        out_dir = tmp_path / f"run_{attempt}"
        rc = cli.main([
            "simulate", "--config", str(tmp_path / "scenario.json"),
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        capsys.readouterr()
        gt = out_dir / "gt.jsonl"
        rc = cli.main([
            "generate", "--ego", str(out_dir / "ego_noisy.csv"),
            "--target", str(out_dir / "lead_noisy.csv"),
            "--rate", "10", "--geometry", str(tmp_path / "geometry.json"),
            "--out", str(gt),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = cli.main([
            "validate", "--noise", str(tmp_path / "noise.json"),
            "--samples", "20000", "--seed", "5",
        ])
        assert rc == 0
        validate_out = capsys.readouterr().out
        blob = b"".join(
            (out_dir / name).read_bytes()
            for name in ("ego_clean.csv", "ego_noisy.csv",
                         "lead_clean.csv", "lead_noisy.csv", "gt.jsonl")
        ) + validate_out.encode()
        outputs.append(blob)
    identical = outputs[0] == outputs[1]
    elapsed = time.monotonic() - t0
    ok = identical and elapsed < 120.0
    with capsys.disabled():
        criterion(
            10, "deterministic outputs", ok,
            f"2 runs byte-identical={identical}, {elapsed:.1f}s",
        )
