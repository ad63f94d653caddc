"""Command-line interface.

Subcommands: simulate, generate, bounds, validate, calibrate, export-plot.
Exit codes: 0 on success, 1 when a computation or validation fails (failed
certification inequality, degenerate calibration motion, stamps outside
the data, ...), 2 for usage errors and malformed input files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__, gtgen, synth, uncert
from ._util import derived_rng, fmt_float, json_object, load_json_object
from .calib import parse_pose_stream, relative_motions, solve_hand_eye
from .errors import (
    CoordinateError,
    DegenerateMotion,
    GtForgeError,
    LengthMismatch,
    MissingYawRate,
    NonMonotonicTimestamps,
    OutOfSupport,
    ParseError,
    TooFewPoses,
    TooFewSamples,
    ZoneMismatch,
)
from .trajlog import (
    ClockModel,
    States,
    Trajectory,
    apply_clock_model,
    clock_model_from_mapping,
    parse_trajectory_log,
    write_trajectory_log,
)

# Problems with the input itself exit 2; insufficient or inconsistent data
# discovered during computation exits 1.
_INPUT_ERRORS = (
    ParseError,
    CoordinateError,
    NonMonotonicTimestamps,
    ZoneMismatch,
    ValueError,
)
_COMPUTE_ERRORS = (
    OutOfSupport,
    TooFewSamples,
    TooFewPoses,
    MissingYawRate,
    LengthMismatch,
    DegenerateMotion,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _round9(value: float) -> float:
    return float(fmt_float(float(value)))


def _print_json(data) -> None:
    sys.stdout.write(json.dumps(data, indent=2) + "\n")


def _cov_report(cov: uncert.CovBound2) -> dict:
    return {
        "a": _round9(cov.a),
        "b": _round9(cov.b),
        "c": _round9(cov.c),
        "rms": _round9(uncert.rms_from_cov(cov)),
    }


# ---------------------------------------------------------------------------
# simulate

def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = synth.load_scenario(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    logs = synth.run_scenario(scenario)
    for vehicle_id in sorted(logs):
        clean, recorded = logs[vehicle_id]
        clean_path = out_dir / f"{vehicle_id}_clean.csv"
        noisy_path = out_dir / f"{vehicle_id}_noisy.csv"
        write_trajectory_log(clean, clean_path)
        write_trajectory_log(recorded, noisy_path)
        sys.stdout.write(f"{clean_path}\n{noisy_path}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate

_GEOMETRY_KEYS = ("length", "width", "ref_to_center")


def _load_geometry(path: str) -> gtgen.VehicleGeometry | dict[str, gtgen.VehicleGeometry]:
    data = load_json_object(path)

    def one(obj: Mapping, where: str) -> gtgen.VehicleGeometry:
        obj = json_object(obj, where, _GEOMETRY_KEYS)
        try:
            return gtgen.VehicleGeometry(
                length=float(obj["length"]),
                width=float(obj["width"]),
                ref_to_center=tuple(obj.get("ref_to_center", (0.0, 0.0))),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(f"{where}: bad geometry: {err}")

    if not data.keys().isdisjoint(_GEOMETRY_KEYS):
        return one(data, path)
    return {key: one(value, f"{path}[{key!r}]") for key, value in data.items()}


def _load_clocks(path: str) -> dict[str, ClockModel]:
    return {
        vehicle_id: clock_model_from_mapping(model, f"{path}[{vehicle_id!r}]")
        for vehicle_id, model in load_json_object(path).items()
    }


def _overlap_window(trajectories: Sequence[Trajectory]) -> tuple[float, float]:
    t0 = max(traj.support[0] for traj in trajectories)
    t1 = min(traj.support[1] for traj in trajectories)
    if t1 < t0:
        raise OutOfSupport(f"trajectory supports do not overlap: [{t0:g}, {t1:g}]")
    return t0, t1


def _cmd_generate(args: argparse.Namespace) -> int:
    ego = parse_trajectory_log(args.ego, frame=args.frame, forced_zone=args.zone)
    targets = [
        parse_trajectory_log(path, frame=args.frame, forced_zone=args.zone)
        for path in args.target
    ]
    geometry = _load_geometry(args.geometry)
    clocks = _load_clocks(args.clock) if args.clock else {}
    noise = uncert.load_noise_model(args.noise) if args.noise else None
    envelope = uncert.load_envelope(args.envelope) if args.envelope else None

    ids = [traj.vehicle_id for traj in (ego, *targets)]
    unknown = sorted(set(clocks) - set(ids))
    if unknown:
        raise ParseError(f"{args.clock}: clock id(s) {unknown} match no log; log ids are {ids}")

    # Retime once; the stamp window and the records both use the result.
    ego, *targets = [
        apply_clock_model(traj, clocks[traj.vehicle_id])
        if traj.vehicle_id in clocks else traj
        for traj in (ego, *targets)
    ]
    if args.stamps is not None:
        stamps = gtgen.read_stamps(args.stamps)
    else:
        stamps = gtgen.make_stamps(args.rate, *_overlap_window([ego, *targets]))

    records = gtgen.generate_records(
        ego,
        targets,
        stamps,
        geometry,
        noise=noise,
        envelope=envelope,
        convention=args.convention,
    )
    gtgen.write_records_jsonl(records, args.out)
    sys.stdout.write(f"{args.out}: {len(records)} records\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds

def _cmd_bounds(args: argparse.Namespace) -> int:
    nm = uncert.load_noise_model(args.noise)
    env = uncert.load_envelope(args.envelope)
    report = {
        "convention": args.convention,
        "position": _cov_report(uncert.position_bound(nm, env, args.convention)),
        "velocity": _cov_report(uncert.velocity_bound(nm, env, args.convention)),
        "yaw": {
            "var": _round9(uncert.yaw_variance(nm)),
            "rms": _round9(math.sqrt(uncert.yaw_variance(nm))),
        },
    }
    _print_json(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate

_TRIG_GRID_MEANS = (0.0, 0.5, -0.5, math.pi / 2.0, -math.pi / 2.0, 3.0)
_TRIG_GRID_STDS = (0.001, 0.01, 0.1, 1.0)


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
    dx = float(rng.uniform(-limit, limit))
    dy = float(rng.uniform(-limit, limit))
    dvx = float(rng.uniform(-env.v_max, env.v_max))
    dvy = float(rng.uniform(-env.v_max, env.v_max))
    target = States(
        t=0.0,
        x=ego.x + dx,
        y=ego.y + dy,
        vx=ego.vx + dvx,
        vy=ego.vy + dvy,
        psi=float(rng.uniform(-math.pi, math.pi)),
        psi_dot=math.nan,
    )
    return ego, target


def _check_exact_covariance(
    nm: uncert.NoiseModel,
    env: uncert.ScenarioEnvelope,
    samples: int,
    seed: int,
    configs: int = 10,
) -> tuple[dict, dict]:
    worst_pos = 0.0
    worst_yaw = 0.0
    for i in range(configs):
        rng = derived_rng(seed, 500 + i)
        ego, target = _random_state_pair(rng, env)
        mc = uncert.monte_carlo_covariance(ego, target, nm, samples, seed + 7000 + i)
        exact = uncert.position_covariance_exact(
            target.x - ego.x,
            target.y - ego.y,
            math.sqrt(2.0) * nm.sigma_pos,
            uncert.GaussianMoments(ego.psi, nm.sigma_psi),
        )
        for name in ("a", "b", "c"):
            gap = abs(getattr(mc.position, name) - getattr(exact, name))
            se = getattr(mc.position_se, name)
            if se > 0.0:
                worst_pos = max(worst_pos, gap / se)
        yaw_gap = abs(mc.yaw_var - uncert.yaw_variance(nm))
        if mc.yaw_var_se > 0.0:
            worst_yaw = max(worst_yaw, yaw_gap / mc.yaw_var_se)
    pos_check = {
        "name": "exact_position_covariance",
        "passed": bool(worst_pos <= 5.0),
        "configs": configs,
        "samples_per_config": samples,
        "max_abs_z": _round9(worst_pos),
    }
    yaw_check = {
        "name": "yaw_variance",
        "passed": bool(worst_yaw <= 5.0),
        "configs": configs,
        "samples_per_config": samples,
        "max_abs_z": _round9(worst_yaw),
    }
    return pos_check, yaw_check


def _check_domination(
    nm: uncert.NoiseModel,
    env: uncert.ScenarioEnvelope,
    samples: int,
    seed: int,
    convention: str,
    configs: int = 100,
    mc_configs: int = 10,
) -> dict:
    pos_b = uncert.position_bound(nm, env, convention)
    vel_b = uncert.velocity_bound(nm, env, convention)
    violations = 0
    min_margin = math.inf
    for i in range(configs):
        rng = derived_rng(seed, 2000 + i)
        ego, target = _random_state_pair(rng, env)
        exact = uncert.position_covariance_exact(
            target.x - ego.x,
            target.y - ego.y,
            math.sqrt(2.0) * nm.sigma_pos,
            uncert.GaussianMoments(ego.psi, nm.sigma_psi),
        )
        for value, bound in ((exact.a, pos_b.a), (exact.b, pos_b.b)):
            min_margin = min(min_margin, bound - value)
            if value > bound:
                violations += 1
        if i < mc_configs:
            mc = uncert.monte_carlo_covariance(
                ego, target, nm, samples, seed + 9000 + i
            )
            for value, bound in ((mc.velocity.a, vel_b.a), (mc.velocity.b, vel_b.b)):
                min_margin = min(min_margin, bound - value)
                if value > bound:
                    violations += 1
    return {
        "name": "bound_domination",
        "passed": bool(violations == 0),
        "convention": convention,
        "configs": configs,
        "velocity_mc_configs": mc_configs,
        "violations": violations,
        "min_margin": _round9(min_margin),
    }


def _check_trig_mix(samples: int, seed: int, configs: int = 10) -> dict:
    violations = 0
    min_margin = math.inf
    for i in range(configs):
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
        margin = bound + 5.0 * se - var
        min_margin = min(min_margin, margin)
        if margin < 0.0:
            violations += 1
    return {
        "name": "trig_mix_bound",
        "passed": bool(violations == 0),
        "configs": configs,
        "samples_per_config": samples,
        "violations": violations,
        "min_margin": _round9(min_margin),
    }


def run_validation(
    nm: uncert.NoiseModel,
    env: uncert.ScenarioEnvelope,
    samples: int,
    seed: int,
    convention: str = uncert.DEFAULT_CONVENTION,
) -> dict:
    """The Monte Carlo certification suite behind `gtforge validate`.

    Deterministic for fixed (samples, seed); every stream is derived from
    the seed and a fixed stream id, so worker count never changes results.
    """
    pos_check, yaw_check = _check_exact_covariance(nm, env, samples, seed)
    checks = [
        _check_trig_grid(samples, seed),
        pos_check,
        yaw_check,
        _check_domination(nm, env, samples, seed, convention),
        _check_trig_mix(samples, seed),
    ]
    return {
        "samples": samples,
        "seed": seed,
        "convention": convention,
        "noise": {k: _round9(v) for k, v in uncert.to_mapping(nm).items()},
        "envelope": {k: _round9(v) for k, v in uncert.to_mapping(env).items()},
        "checks": checks,
        "passed": bool(all(c["passed"] for c in checks)),
    }


def _cmd_validate(args: argparse.Namespace) -> int:
    nm = uncert.load_noise_model(args.noise)
    env = (
        uncert.load_envelope(args.envelope)
        if args.envelope
        else uncert.ANALYSIS_ENVELOPE
    )
    report = run_validation(nm, env, args.samples, args.seed, args.convention)
    _print_json(report)
    return EXIT_OK if report["passed"] else EXIT_FAILURE


# ---------------------------------------------------------------------------
# calibrate

def _cmd_calibrate(args: argparse.Namespace) -> int:
    poses_a = parse_pose_stream(args.stream_a)
    poses_b = parse_pose_stream(args.stream_b)
    result = solve_hand_eye(relative_motions(poses_a), relative_motions(poses_b))
    _print_json(
        {
            "theta": _round9(result.transform.theta),
            "tx": _round9(result.transform.tx),
            "ty": _round9(result.transform.ty),
            "rotation_residual_rms": _round9(result.rotation_residual_rms),
            "translation_residual_rms": _round9(result.translation_residual_rms),
            "n_increments": result.n_increments,
            "total_rotation": _round9(result.total_rotation),
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# export-plot

_PLOT_CHANNELS = ("x", "y", "vx", "vy", "psi")


def _cmd_export_plot(args: argparse.Namespace) -> int:
    records = gtgen.read_records_jsonl(args.gt)
    keep = np.ones(len(records), dtype=bool)
    if args.target is not None:
        keep = records.target_id == args.target
        if not keep.any():
            raise ValueError(f"no records for target {args.target!r}")
    rows = zip(records.t[keep].tolist(), getattr(records, args.channel)[keep].tolist())
    with Path(args.out).open("w", newline="") as stream:
        stream.write(f"t,{args.channel}\n")
        stream.writelines("%.9g,%.9g\n" % row for row in rows)
    sys.stdout.write(f"{args.out}: {int(keep.sum())} rows\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtforge",
        description=(
            "Turn synchronized multi-vehicle positioning logs into obstacle "
            "ground truth in the ego frame, with analytical uncertainty "
            "bounds and synthetic validation scenarios."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a synthetic scenario to CSV logs")
    p.add_argument("--config", required=True, help="scenario JSON")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("generate", help="generate ground-truth records")
    p.add_argument("--ego", required=True, help="ego trajectory CSV")
    p.add_argument(
        "--target", action="append", required=True,
        help="target trajectory CSV (repeatable)",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--stamps", help="stamp file, one timestamp per line")
    group.add_argument("--rate", type=float, help="synthesize stamps at this rate (Hz)")
    p.add_argument("--geometry", required=True, help="target geometry JSON")
    p.add_argument("--noise", help="noise model JSON (enables bounds with --envelope)")
    p.add_argument("--envelope", help="scenario envelope JSON (goes with --noise)")
    p.add_argument("--clock", help="per-vehicle clock model JSON")
    p.add_argument("--frame", choices=("utm", "geodetic"), default="utm")
    p.add_argument("--zone", type=int, help="force this UTM zone (geodetic input)")
    p.add_argument(
        "--convention", choices=uncert.CONVENTIONS,
        default=uncert.DEFAULT_CONVENTION,
    )
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("bounds", help="print covariance bounds for a config")
    p.add_argument("--noise", required=True, help="noise model JSON")
    p.add_argument("--envelope", required=True, help="scenario envelope JSON")
    p.add_argument(
        "--convention", choices=uncert.CONVENTIONS,
        default=uncert.DEFAULT_CONVENTION,
    )
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("validate", help="run the Monte Carlo certification suite")
    p.add_argument("--noise", required=True, help="noise model JSON")
    p.add_argument("--envelope", help="scenario envelope JSON (default: reference)")
    p.add_argument("--samples", type=int, required=True, help="MC samples per check")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument(
        "--convention", choices=uncert.CONVENTIONS,
        default=uncert.DEFAULT_CONVENTION,
    )
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("calibrate", help="planar hand-eye between pose streams")
    p.add_argument("--stream-a", required=True, help="pose CSV (t,x,y,theta)")
    p.add_argument("--stream-b", required=True, help="pose CSV (t,x,y,theta)")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("export-plot", help="extract (t, value) pairs from records")
    p.add_argument("--gt", required=True, help="ground-truth JSONL")
    p.add_argument("--channel", required=True, choices=_PLOT_CHANNELS)
    p.add_argument("--target", help="restrict to one target id")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=_cmd_export_plot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except _COMPUTE_ERRORS as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_FAILURE
    except _INPUT_ERRORS as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except GtForgeError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
