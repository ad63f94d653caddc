"""Command-line interface: argument wiring over the gtforge modules.

Subcommands: simulate, generate, bounds, validate (certify.run_validation,
also bound here as run_validation), calibrate, export-plot.
Exit codes: 0 on success; 2 for usage errors and bad input (ParseError,
CoordinateError, ValueError, OSError, and OverflowError from a value too
large to compute with); 1 when validation or a computation fails (a failed
certification inequality; any other GtForgeError, such as degenerate
calibration motion or stamps outside the data; MemoryError).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, gtgen, synth, uncert
from ._util import fmt_float, from_mapping, load_config, load_json_object, process_map
from .calib import parse_pose_stream, relative_motions, solve_hand_eye
from .certify import run_validation
from .errors import CoordinateError, GtForgeError, ParseError
from .trajlog import (
    FRAMES,
    ClockModel,
    Trajectory,
    apply_clock_model,
    parse_trajectory_log,
    write_trajectory_log,
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


def _bounds(
    nm: uncert.NoiseModel, env: uncert.ScenarioEnvelope, *paths: str
) -> tuple[uncert.CovBound2, uncert.CovBound2, float]:
    """The dataset-level (position, velocity, yaw_var) bounds; configs that
    give no finite bound or rms are an input error that names their files."""
    covs = []
    try:
        for bound in (uncert.position_bound, uncert.velocity_bound):
            covs.append(bound(nm, env))
            uncert.rms_from_cov(covs[-1])  # OverflowError past the float range
        yaw_var = uncert.yaw_variance(nm)
        if yaw_var == math.inf:
            raise OverflowError(f"yaw_var 2 sigma_psi^2 overflows at sigma_psi {nm.sigma_psi:g}")
    except (ValueError, OverflowError) as err:
        raise ValueError(f"{' and '.join(paths)}: values too large for finite bounds: {err}")
    return covs[0], covs[1], yaw_var


# ---------------------------------------------------------------------------
# simulate

def _cmd_simulate(args: argparse.Namespace) -> int:
    logs = synth.run_scenario(load_config(synth.Scenario, args.config))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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

def _load_geometry(
    path: str, target_ids: list[str]
) -> gtgen.VehicleGeometry | dict[str, gtgen.VehicleGeometry]:
    """One geometry for every target, or a mapping from each target id to one."""
    data = load_json_object(path)
    if not data.keys().isdisjoint(f.name for f in fields(gtgen.VehicleGeometry)):
        return from_mapping(gtgen.VehicleGeometry, data, path)
    unknown = sorted(set(data) - set(target_ids))
    if unknown:
        raise ParseError(
            f"{path}: geometry id(s) {unknown} match no target; target ids are {target_ids}"
        )
    missing = sorted(set(target_ids) - set(data))
    if missing:
        raise ParseError(f"{path}: no geometry given for target(s) {missing}")
    return {
        key: from_mapping(gtgen.VehicleGeometry, value, f"{path}[{key!r}]")
        for key, value in data.items()
    }


def _load_clocks(path: str) -> dict[str, ClockModel]:
    return {
        vehicle_id: from_mapping(ClockModel, model, f"{path}[{vehicle_id!r}]")
        for vehicle_id, model in load_json_object(path).items()
    }


def _overlap_window(trajectories: Sequence[Trajectory]) -> tuple[float, float]:
    t0 = max(traj.support[0] for traj in trajectories)
    t1 = min(traj.support[1] for traj in trajectories)
    if t1 < t0:
        raise GtForgeError(f"trajectory supports do not overlap: [{t0:g}, {t1:g}]")
    return t0, t1


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.zone is not None and args.frame != "geodetic":
        raise ValueError("--zone applies to geodetic input only (--frame geodetic)")
    if args.zone is not None and not 1 <= args.zone <= 60:
        raise ValueError(f"--zone must be in 1..60, got {args.zone}")
    if args.noise and not args.envelope:
        raise ValueError("a noise model needs a scenario envelope to form bounds")
    if args.envelope and not args.noise:
        raise ValueError("a scenario envelope needs a noise model to form bounds")
    bounds = None
    if args.noise:
        bounds = _bounds(load_config(uncert.NoiseModel, args.noise),
                         load_config(uncert.ScenarioEnvelope, args.envelope),
                         args.noise, args.envelope)
    # The logs parse on a worker process per CPU; an error names the first
    # bad log in argument order, as a plain loop would.
    ego, *targets = process_map(
        lambda path: parse_trajectory_log(path, frame=args.frame, forced_zone=args.zone),
        [args.ego, *args.target],
    )
    geometry = _load_geometry(args.geometry, [traj.vehicle_id for traj in targets])
    clocks = _load_clocks(args.clock) if args.clock else {}

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

    records = gtgen.generate_records(ego, targets, stamps, geometry, bounds)
    gtgen.write_records_jsonl(records, args.out)
    sys.stdout.write(f"{args.out}: {len(records)} records\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds

def _cmd_bounds(args: argparse.Namespace) -> int:
    nm = load_config(uncert.NoiseModel, args.noise)
    env = load_config(uncert.ScenarioEnvelope, args.envelope)
    position, velocity, yaw_var = _bounds(nm, env, args.noise, args.envelope)
    report = {
        "convention": uncert.DEFAULT_CONVENTION,
        "position": _cov_report(position),
        "velocity": _cov_report(velocity),
        "yaw": {"var": _round9(yaw_var), "rms": _round9(math.sqrt(yaw_var))},
    }
    _print_json(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate

def _cmd_validate(args: argparse.Namespace) -> int:
    nm = load_config(uncert.NoiseModel, args.noise)
    if nm.sigma_pos == nm.sigma_psi == 0.0:
        # Every position draw would be the same value: nothing to certify.
        raise ValueError(f"{args.noise}: sigma_pos and sigma_psi are both 0, "
                         "so there is no position noise to certify")
    env = (load_config(uncert.ScenarioEnvelope, args.envelope) if args.envelope
           else uncert.ANALYSIS_ENVELOPE)
    _bounds(nm, env, *filter(None, [args.noise, args.envelope]))
    report = run_validation(nm, env, args.samples, args.seed)
    _print_json(report)
    return EXIT_OK if report["passed"] else EXIT_FAILURE


# ---------------------------------------------------------------------------
# calibrate

def _cmd_calibrate(args: argparse.Namespace) -> int:
    poses_a = parse_pose_stream(args.stream_a)
    poses_b = parse_pose_stream(args.stream_b)
    result = solve_hand_eye(relative_motions(poses_a), relative_motions(poses_b))
    _print_json({
        key: value if isinstance(value, int) else _round9(value)
        for key, value in asdict(result).items()
    })
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
    p.add_argument("--frame", choices=FRAMES, default="utm")
    p.add_argument("--zone", type=int, help="force this UTM zone (geodetic input)")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("bounds", help="print covariance bounds for a config")
    p.add_argument("--noise", required=True, help="noise model JSON")
    p.add_argument("--envelope", required=True, help="scenario envelope JSON")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("validate", help="run the Monte Carlo certification suite")
    p.add_argument("--noise", required=True, help="noise model JSON")
    p.add_argument("--envelope", help="scenario envelope JSON (default: reference)")
    p.add_argument("--samples", type=int, required=True, help="MC samples per check")
    p.add_argument("--seed", type=int, required=True, help="master seed")
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
    # Problems with the input itself exit 2; every other GtForgeError is data
    # the computation cannot use, and exits 1 as a failed allocation does.
    try:
        return args.fn(args)
    except (ParseError, CoordinateError, ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except OverflowError as err:  # a finite config value too large to square
        sys.stderr.write(f"error: an input value is too large: {err}\n")
        return EXIT_USAGE
    except (GtForgeError, MemoryError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
