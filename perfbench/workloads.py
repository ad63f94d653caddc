"""Seeded inputs, command sequences and output checks of the two workloads.

Every input is derived from the workload seed; the program under test only
ever sees the generated files. Ground truth comes from a closed-form model
of the stadium track written here, independently of ``gtforge.synth``, so
the checks do not trust the code they check.

A workload is a ``Workload`` object: ``setup`` writes its inputs (untimed)
and ``steps`` returns the command sequence of one pass. Each ``Step`` is one
CLI call plus the check of its output; the check raises ``CheckFailed`` or
returns the work counts the throughput metrics divide by wall time.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TAU = 2.0 * math.pi
STRAIGHT_LEN = 1100.0
CURVE_RADIUS = 1000.0 / TAU
RATE_HZ = 100.0

NOISE = {"sigma_pos": 0.02, "sigma_vel": 0.02, "sigma_psi": 0.00175,
         "sigma_psi_dot": 0.00175}
ENVELOPE = {"d_max": 50.0, "v_max": 36.0, "psi_dot_max": 1.0}

# Placement of the fleet track in UTM zone 32 north (central meridian 9 E),
# around 48 N.
FLEET_ZONE = 32
FLEET_EASTING = (450_000.0, 550_000.0)
FLEET_NORTHING = (5_300_000.0, 5_350_000.0)


class CheckFailed(Exception):
    """An output did not match what the inputs imply."""


@dataclass
class Step:
    """One CLI call of a pass and the check of what it wrote.

    ``check(stdout)`` returns the work counts of the call, for example
    ``{"records": 18002}``; ``outputs`` are hashed to prove that reruns are
    byte-identical.
    """

    name: str
    argv: list[str]
    check: Callable[[str], dict[str, int]]
    outputs: list[Path] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Closed-form truth on the stadium track.

def wrap(angle: np.ndarray) -> np.ndarray:
    out = np.mod(np.asarray(angle, dtype=float) + math.pi, TAU) - math.pi
    return np.where(out == -math.pi, math.pi, out)


def _stadium(s: np.ndarray):
    """(x, y, heading, curvature) at arc positions s, counter-clockwise from
    the origin along +x, first half-circle turning left."""
    ls, r = STRAIGHT_LEN, CURVE_RADIUS
    lap, u = np.divmod(s, 2.0 * ls + TAU * r)
    b0, b1, b2 = ls, ls + math.pi * r, 2.0 * ls + math.pi * r
    seg = np.select([u < b0, u < b1, u < b2], [0, 1, 2], 3)
    phi1 = (u - b0) / r
    phi3 = (u - b2) / r
    x = np.choose(seg, [u, ls + r * np.sin(phi1), ls - (u - b1), -r * np.sin(phi3)])
    y = np.choose(seg, [0.0 * u, r - r * np.cos(phi1), 0.0 * u + 2.0 * r,
                        r + r * np.cos(phi3)])
    heading = np.choose(seg, [0.0 * u, phi1, 0.0 * u + math.pi, math.pi + phi3])
    curvature = np.where((seg == 1) | (seg == 3), 1.0 / r, 0.0)
    return x, y, heading + TAU * lap, curvature


def _distance(t: np.ndarray, knots) -> np.ndarray:
    """Arc length driven in [0, t] under a piecewise-linear speed profile
    held constant outside its knots."""
    times, speeds = (np.array(c, dtype=float) for c in zip(*knots))
    area = np.concatenate(([0.0], np.cumsum(0.5 * (speeds[1:] + speeds[:-1])
                                            * np.diff(times))))

    def anti(tt: np.ndarray) -> np.ndarray:
        tc = np.clip(tt, times[0], times[-1])
        k = np.searchsorted(times, tc, side="right") - 1
        k = np.clip(k, 0, times.size - 1)
        inside = area[k] + 0.5 * (speeds[k] + np.interp(tc, times, speeds)) * (tc - times[k])
        return (inside + speeds[0] * np.minimum(tt - times[0], 0.0)
                + speeds[-1] * np.maximum(tt - times[-1], 0.0))

    t = np.asarray(t, dtype=float)
    return anti(t) - anti(np.zeros(1))


def true_states(t: np.ndarray, start: float, knots) -> dict[str, np.ndarray]:
    t = np.asarray(t, dtype=float)
    times, speeds = zip(*knots)
    v = np.interp(t, times, speeds)
    x, y, heading, curvature = _stadium(start + _distance(t, knots))
    return {"t": t, "x": x, "y": y, "vx": v * np.cos(heading),
            "vy": v * np.sin(heading), "psi": wrap(heading), "psi_dot": curvature * v}


def ego_frame(ego: dict, target: dict) -> tuple[np.ndarray, np.ndarray]:
    dx = target["x"] - ego["x"]
    dy = target["y"] - ego["y"]
    c, s = np.cos(ego["psi"]), np.sin(ego["psi"])
    return dx * c + dy * s, dy * c - dx * s


def cov_rms(a: float, b: float, c: float) -> float:
    """Scalar size of a 2x2 covariance, (a^2 + b^2 + 2 c^2)^(1/4)."""
    return (a * a + b * b + 2.0 * c * c) ** 0.25


def error_rms(ex: np.ndarray, ey: np.ndarray) -> float:
    return cov_rms(float(np.mean(ex * ex)), float(np.mean(ey * ey)),
                   float(np.mean(ex * ey)))


def position_bound_rms(noise: dict, envelope: dict) -> float:
    """The half-exponent position bound of the README, in closed form."""
    s2 = noise["sigma_psi"] ** 2
    d2 = envelope["d_max"] ** 2
    diag = 2.0 * noise["sigma_pos"] ** 2 + 2.0 * d2 * (1.0 - math.exp(-s2 / 2.0))
    cross = 1.5 * d2 * (1.0 - math.exp(-s2 / 2.0))
    return cov_rms(diag, diag, cross)


# ---------------------------------------------------------------------------
# Helpers for files.

def write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, indent=1) + "\n")
    return path


def read_csv_columns(path: Path) -> dict[str, np.ndarray]:
    with path.open(newline="") as stream:
        rows = list(csv.reader(stream))
    header, body = rows[0], [r for r in rows[1:] if r]
    return {name: np.array([float(r[i]) if r[i] else math.nan for r in body])
            for i, name in enumerate(header)}


def read_records(path: Path) -> list[dict]:
    with path.open() as stream:
        return [json.loads(line) for line in stream if line.strip()]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_records(records: list[dict], stamps: np.ndarray, truth: dict,
                  ego_truth: dict, bound_rms: float) -> None:
    """Count, order and accuracy of generate's records.

    ``truth`` maps target id to its true states at ``stamps``. The ego-frame
    position error against the closed form must not exceed the bound's size.
    """
    ids = sorted(truth)
    expect(len(records) == stamps.size * len(ids),
           f"{len(records)} records, expected {stamps.size} stamps x {len(ids)} targets")
    got_t = np.array([r["t"] for r in records], dtype=float).reshape(stamps.size, len(ids))
    expect(bool(np.all(np.abs(got_t - stamps[:, None]) <= 1e-8 * np.maximum(1.0, stamps[:, None]))),
           "record stamps differ from the requested stamps")
    expect([r["target_id"] for r in records[: len(ids)]] == ids,
           "records are not sorted by (t, target_id)")
    ex, ey = [], []
    for k, target_id in enumerate(ids):
        mine = records[k:: len(ids)]
        expect(all(r["target_id"] == target_id for r in mine), "records out of order")
        tx, ty = ego_frame(ego_truth, truth[target_id])
        ex.append(np.array([r["x"] for r in mine]) - tx)
        ey.append(np.array([r["y"] for r in mine]) - ty)
    rms = error_rms(np.concatenate(ex), np.concatenate(ey))
    expect(math.isfinite(rms) and rms <= bound_rms,
           f"ego-frame position error rms {rms:.4g} m exceeds the bound {bound_rms:.4g} m")


# ---------------------------------------------------------------------------
# Workloads.

class Workload:
    name = ""
    main_metric = ""

    def __init__(self, workdir: Path, seed: int, scale: float):
        self.workdir = workdir
        # Its own stream, apart from the seed the CLI itself is given.
        self.rng = np.random.default_rng([seed, 7919])
        self.seed = seed
        self.scale = scale

    def seconds(self, full: float) -> float:
        """A duration scaled by --scale, never below 4 s."""
        return max(4.0, round(full * self.scale))

    def setup(self) -> None:
        raise NotImplementedError

    def steps(self, pass_dir: Path) -> list[Step]:
        raise NotImplementedError


class SessionDense(Workload):
    """simulate -> generate (100 Hz, bounds, clock, per-target geometry) ->
    export-plot, on ego + 2 targets."""

    name = "session-dense"
    main_metric = "generate_records_per_s"

    def setup(self) -> None:
        rng = self.rng
        self.duration = self.seconds(90.0)
        speed = float(rng.uniform(20.0, 28.0))
        d = self.duration + 1.0   # targets outlive the ego: the ego bounds the window
        self.runs = {
            "ego": (0.0, [(0.0, speed)], d - 1.0),
            "lead": (float(rng.uniform(20.0, 40.0)), [(0.0, speed)], d),
            "side": (float(rng.uniform(15.0, 25.0)),
                     [(0.0, speed - 1.0), (d / 2.0, speed + 1.0), (d, speed - 1.0)], d),
        }
        offset = float(rng.uniform(-0.05, 0.05))
        drift = float(rng.uniform(-1e-4, 1e-4))
        vehicles = []
        for vid, (start, knots, duration) in self.runs.items():
            v = {"id": vid, "duration": duration, "rate": RATE_HZ,
                 "start_offset": start, "speed_profile": [list(k) for k in knots]}
            if vid == "lead":
                v["clock"] = {"offset": offset, "drift": drift}
            vehicles.append(v)
        w = self.workdir
        self.scenario = write_json(w / "scenario.json", {
            "seed": self.seed, "track": {"straight_len": STRAIGHT_LEN,
                                         "curve_radius": CURVE_RADIUS},
            "noise": NOISE, "vehicles": vehicles})
        self.targets = ["lead_noisy", "side_noisy"]
        self.geometry = write_json(w / "geometry.json", {
            "lead_noisy": {"length": 4.6, "width": 1.9, "ref_to_center": [1.4, 0.0]},
            "side_noisy": {"length": 12.0, "width": 2.5, "ref_to_center": [5.0, 0.0]}})
        # Undo the simulated clock error: the inverse of t -> t - o - d (t - t0).
        self.clock = write_json(w / "clock.json", {
            "lead_noisy": {"offset": -offset, "drift": -drift / (1.0 - drift)}})
        self.noise = write_json(w / "noise.json", NOISE)
        self.envelope = write_json(w / "envelope.json", ENVELOPE)
        self.plot_target = self.targets[int(rng.integers(len(self.targets)))]
        self.rows = {vid: int(math.floor(dur * RATE_HZ + 1e-9)) + 1
                     for vid, (_, _, dur) in self.runs.items()}
        self.ingest_rows = sum(self.rows.values())
        self.stamps = np.arange(self.rows["ego"]) / RATE_HZ
        self.truth = {f"{vid}_noisy": true_states(self.stamps, start, knots)
                      for vid, (start, knots, _) in self.runs.items()}

    def steps(self, pass_dir: Path) -> list[Step]:
        logs = pass_dir / "logs"
        gt = pass_dir / "gt.jsonl"
        plot = pass_dir / "plot.csv"
        written = [logs / f"{vid}_{kind}.csv" for vid in sorted(self.runs)
                   for kind in ("clean", "noisy")]
        targets = [a for tid in self.targets for a in ("--target", str(logs / f"{tid}.csv"))]

        def check_simulate(stdout: str) -> dict:
            rows = 0
            for path in written:
                cols = read_csv_columns(path)
                vid = path.stem.rsplit("_", 1)[0]
                expect(cols["t"].size == self.rows[vid], f"{path.name}: {cols['t'].size} rows")
                rows += cols["t"].size
                if path.stem.endswith("_clean"):
                    start, knots, _ = self.runs[vid]
                    ref = true_states(cols["t"], start, knots)
                    gap = max(float(np.max(np.abs(cols[c] - ref[c]))) for c in ("x", "y", "vx", "vy"))
                    expect(gap < 1e-6, f"{path.name} departs from the closed form by {gap:.3g}")
            return {"rows": rows}

        def check_generate(stdout: str) -> dict:
            records = read_records(gt)
            truth = {tid: self.truth[tid] for tid in self.targets}
            check_records(records, self.stamps, truth, self.truth["ego_noisy"],
                          cov_rms(**records[0]["pos_bound"]))
            return {"records": len(records), "rows": self.ingest_rows,
                    "bytes": gt.stat().st_size}

        def check_export(stdout: str) -> dict:
            records = read_records(gt)
            mine = [r for r in records if r["target_id"] == self.plot_target]
            cols = read_csv_columns(plot)
            expect(cols["t"].size == len(mine), "export-plot row count differs from the records")
            expect(bool(np.array_equal(cols["t"], [r["t"] for r in mine]))
                   and bool(np.array_equal(cols["x"], [r["x"] for r in mine])),
                   "export-plot values differ from the records")
            return {"records": len(records)}

        return [
            Step("simulate", ["simulate", "--config", str(self.scenario), "--out-dir", str(logs)],
                 check_simulate, written),
            Step("generate", ["generate", "--ego", str(logs / "ego_noisy.csv"), *targets,
                              "--rate", "100", "--geometry", str(self.geometry),
                              "--noise", str(self.noise), "--envelope", str(self.envelope),
                              "--clock", str(self.clock), "--out", str(gt)],
                 check_generate, [gt]),
            Step("export-plot", ["export-plot", "--gt", str(gt), "--channel", "x",
                                 "--target", self.plot_target, "--out", str(plot)],
                 check_export, [plot]),
        ]


class FleetCertify(Workload):
    """generate at sparse camera stamps over ego + 7 long geodetic logs,
    calibrate two ego antenna pose streams, then bounds and the Monte Carlo
    certification suite."""

    name = "fleet-certify"
    main_metric = "ingest_rows_per_s"
    n_targets = 7

    def setup(self) -> None:
        from gtforge.trajlog import trajectory_from_arrays, write_trajectory_log

        rng = self.rng
        w = self.workdir
        duration = self.seconds(60.0)
        t = np.arange(int(math.floor(duration * RATE_HZ + 1e-9)) + 1) / RATE_HZ
        knots = [(0.0, float(rng.uniform(15.0, 25.0)))]
        gaps = rng.uniform(5.0, 45.0, self.n_targets) * rng.choice([-1.0, 1.0], self.n_targets)
        easting = float(rng.uniform(*FLEET_EASTING))
        northing = float(rng.uniform(*FLEET_NORTHING))
        start = 400.0   # mid-straight, so targets behind the ego stay on the track
        self.paths = {}
        self.rows = 0
        for k, gap in enumerate([0.0, *gaps]):
            vid = "ego" if k == 0 else f"car{k}"
            s = true_states(t, start + gap, knots)
            n = t.size
            noisy = {
                "x": s["x"] + easting + rng.normal(0.0, NOISE["sigma_pos"], n),
                "y": s["y"] + northing + rng.normal(0.0, NOISE["sigma_pos"], n),
                "vx": s["vx"] + rng.normal(0.0, NOISE["sigma_vel"], n),
                "vy": s["vy"] + rng.normal(0.0, NOISE["sigma_vel"], n),
                "psi": wrap(s["psi"] + rng.normal(0.0, NOISE["sigma_psi"], n)),
                "psi_dot": s["psi_dot"] + rng.normal(0.0, NOISE["sigma_psi_dot"], n),
            }
            traj = trajectory_from_arrays(vid, t, zone=FLEET_ZONE, hemisphere="north", **noisy)
            self.paths[vid] = w / f"{vid}.csv"
            write_trajectory_log(traj, self.paths[vid], frame="geodetic")
            self.rows += n
        # Camera frames: about 1 Hz, jittered, inside every log.
        self.stamps = np.sort(np.arange(1, int(duration)) + rng.uniform(-0.3, 0.3, int(duration) - 1))
        self.stamp_file = w / "stamps.txt"
        self.stamp_file.write_text("".join(f"{v!r}\n" for v in self.stamps.tolist()))
        self.truth = {vid: true_states(self.stamps, start + gap, knots)
                      for vid, gap in zip(self.paths, [0.0, *gaps])}
        self.geometry = write_json(w / "geometry.json", {"length": 4.5, "width": 1.8})
        self.bound_rms = position_bound_rms(NOISE, ENVELOPE)

        # Two antennas on the ego: stream b is stream a composed with the
        # mounting transform X (b = a * X).
        tc = np.arange(int(self.seconds(200.0) * RATE_HZ) + 1) / RATE_HZ
        a = true_states(tc, STRAIGHT_LEN - 100.0, [(0.0, float(rng.uniform(10.0, 20.0)))])
        self.mount = (float(rng.uniform(-math.pi, math.pi)),
                      float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
        theta, mx, my = self.mount
        c, s_ = np.cos(a["psi"]), np.sin(a["psi"])
        b = {"x": a["x"] + c * mx - s_ * my, "y": a["y"] + s_ * mx + c * my,
             "psi": wrap(a["psi"] + theta)}
        self.poses = 2 * tc.size
        self.pose_paths = []
        for tag, p in (("a", a), ("b", b)):
            path = w / f"antenna_{tag}.csv"
            rows = np.stack([tc, p["x"], p["y"], p["psi"]], axis=1)
            path.write_text("t,x,y,theta\n" + "".join(
                f"{r[0]!r},{r[1]!r},{r[2]!r},{r[3]!r}\n" for r in rows.tolist()))
            self.pose_paths.append(path)

        self.samples = max(1000, int(round(200_000 * self.scale)))
        self.noise = write_json(w / "noise.json", NOISE)
        self.envelope = write_json(w / "envelope.json", ENVELOPE)

    def steps(self, pass_dir: Path) -> list[Step]:
        gt = pass_dir / "gt.jsonl"
        targets = [a for vid in self.paths if vid != "ego"
                   for a in ("--target", str(self.paths[vid]))]

        def check_generate(stdout: str) -> dict:
            records = read_records(gt)
            truth = {vid: v for vid, v in self.truth.items() if vid != "ego"}
            check_records(records, self.stamps, truth, self.truth["ego"], self.bound_rms)
            return {"records": len(records), "rows": self.rows, "bytes": gt.stat().st_size}

        def check_calibrate(stdout: str) -> dict:
            got = json.loads(stdout)
            theta, mx, my = self.mount
            err = max(abs(float(wrap(got["theta"] - theta))), abs(got["tx"] - mx),
                      abs(got["ty"] - my))
            expect(err < 1e-6, f"calibrate missed the mounting transform by {err:.3g}")
            expect(got["n_increments"] == self.poses // 2 - 1, "wrong increment count")
            return {"poses": self.poses}

        def check_bounds(stdout: str) -> dict:
            got = json.loads(stdout)
            expect(abs(got["yaw"]["var"] - 2.0 * NOISE["sigma_psi"] ** 2) <= 1e-12,
                   "yaw variance is not 2 sigma_psi^2")
            want = position_bound_rms(NOISE, ENVELOPE)
            expect(abs(got["position"]["rms"] - want) <= 1e-8 * want,
                   "position bound differs from its closed form")
            return {}

        def check_validate(stdout: str) -> dict:
            got = json.loads(stdout)
            expect(got["passed"] is True, "validate did not pass")
            expect(got["samples"] == self.samples and got["seed"] == self.seed,
                   "validate echoes other settings")
            return {"draws": validate_draws(got)}

        return [
            Step("generate", ["generate", "--ego", str(self.paths["ego"]), *targets,
                              "--stamps", str(self.stamp_file), "--frame", "geodetic",
                              "--geometry", str(self.geometry), "--out", str(gt)],
                 check_generate, [gt]),
            Step("calibrate", ["calibrate", "--stream-a", str(self.pose_paths[0]),
                               "--stream-b", str(self.pose_paths[1])], check_calibrate),
            Step("bounds", ["bounds", "--noise", str(self.noise),
                            "--envelope", str(self.envelope)], check_bounds),
            Step("validate", ["validate", "--noise", str(self.noise),
                              "--envelope", str(self.envelope),
                              "--samples", str(self.samples), "--seed", str(self.seed)],
                 check_validate),
        ]


def validate_draws(report: dict) -> int:
    """Monte Carlo draws behind a validate report.

    Sums points x samples over the checks that draw: the trig grid, the
    exact-covariance configs, the velocity MC configs of the domination
    check and the trig-mix configs. The yaw check reuses the exact-covariance
    draws and adds none.
    """
    total = 0
    for check in report["checks"]:
        if check["name"] == "yaw_variance":
            continue
        points = check.get("grid_points", check.get("velocity_mc_configs", check.get("configs", 0)))
        per = check.get("samples_per_point", check.get("samples_per_config", report["samples"]))
        total += int(points) * int(per)
    return total


WORKLOADS = {cls.name: cls for cls in (SessionDense, FleetCertify)}
