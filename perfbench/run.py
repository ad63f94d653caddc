"""gtforge benchmark: CLI workloads timed end to end, and a traced per-layer
breakdown.

    python3 perfbench/run.py --workload session-dense --seed 1 --seconds 50 --trace 0

Run it from anywhere inside a checkout; it finds ``src/gtforge`` next to its
own directory and works in ``.perfbench_work/`` there, which it removes.

``--trace 0`` runs the real CLI in child processes, one at a time, and
repeats the workload's command sequence (a pass) until ``--seconds`` have
passed. It reports medians over the passes of:

  setup_s           median wall time of ``gtforge --version`` (import plus
                    parser build), taken twice up front and once per pass
  wall_s            wall time of one pass (sum of its CLI calls)
  main_items_per_s  throughput of the workload's main command (see README)
  peak_rss_mb       largest peak RSS of any CLI child in a pass (os.wait4)

``--trace 1`` runs the same commands in this process through
``gtforge.cli.main``, untraced and traced in turn, plus one cProfile pass
for ``prof.calls`` and ``python -X importtime`` for the import breakdown,
and reports the per-layer metrics of BENCHMARK.json.

Every CLI call is one operation: it fails if it exits non-zero, if its
output check fails, or if an output's SHA-256 differs from the first pass.
The last line of stdout is one JSON object (correct, attempted, failed,
metrics); the lines above it are a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, CheckFailed, Step, Workload
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 2
IMPORT_REPS = 3
CHILD_TIMEOUT_S = 100.0
DEADLINE_S = 140.0
# Monte Carlo worker threads. One: on a shared 2-vCPU host, validate on two
# threads spread 0.26 run to run (IQR/median, 30 runs alternating with one
# thread) against 0.05 on one.
THREADS = 1
CLI = "import sys; from gtforge.cli import main; sys.exit(main())"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "main_items_per_s": "items/s",
                    "peak_rss_mb": "MB"}

# (step, work count) -> (throughput metric, unit)
RATES = {
    ("simulate", "rows"): ("simulate_rows_per_s", "rows/s"),
    ("generate", "records"): ("generate_records_per_s", "records/s"),
    ("generate", "rows"): ("ingest_rows_per_s", "rows/s"),
    ("export-plot", "records"): ("export_plot_records_per_s", "records/s"),
    ("calibrate", "poses"): ("calibrate_poses_per_s", "poses/s"),
    ("validate", "draws"): ("validate_draws_per_s", "draws/s"),
}


@dataclass
class StepResult:
    name: str
    wall_s: float
    counts: dict[str, int] = field(default_factory=dict)
    rss_mb: float = 0.0

    def rates(self) -> dict[str, float]:
        return {RATES[(self.name, k)][0]: v / self.wall_s
                for k, v in self.counts.items() if (self.name, k) in RATES}


@dataclass
class PassResult:
    steps: list[StepResult]

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)

    def rates(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for step in self.steps:
            out.update(step.rates())
        return out

    def step(self, name: str) -> StepResult | None:
        return next((s for s in self.steps if s.name == name), None)


class Bench:
    """One benchmark run: the operation tally, the output digests, and the
    two ways of executing a step (child process or in-process)."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC), GT_FORGE_THREADS=str(THREADS))

    def record(self, ok: bool, what: str, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)

    def run_child(self, argv: list[str], out_dir: Path, extra: tuple[str, ...] = ()):
        """Run one CLI call; returns (exit code, wall s, peak RSS MB, stdout, stderr)."""
        out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *extra, "-c", CLI, *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=out_dir)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                out_path.read_text(), err_path.read_text())

    def finish_step(self, step: Step, rc: int, wall: float, stdout: str, stderr: str,
                    rss_mb: float = 0.0) -> StepResult:
        result = StepResult(step.name, wall, rss_mb=rss_mb)
        if rc != 0:
            self.record(False, step.name, f"exit {rc}: {stderr.strip()[-500:]}")
            return result
        try:
            result.counts = step.check(stdout)
            outputs = step.outputs or [None]
            for path in outputs:
                data = stdout.encode() if path is None else path.read_bytes()
                key = f"{step.name}:{'stdout' if path is None else path.name}"
                digest = hashlib.sha256(data).hexdigest()
                if self.digests.setdefault(key, digest) != digest:
                    raise CheckFailed(f"{key} differs from the first pass")
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as err:
            self.record(False, step.name, f"{type(err).__name__}: {err}")
            return result
        self.record(True, step.name)
        return result

    def child_pass(self, pass_dir: Path) -> PassResult:
        pass_dir.mkdir()
        results = []
        for step in self.workload.steps(pass_dir):
            rc, wall, rss, out, err = self.run_child(step.argv, pass_dir)
            results.append(self.finish_step(step, rc, wall, out, err, rss))
        shutil.rmtree(pass_dir)
        return PassResult(results)

    def inprocess_pass(self, pass_dir: Path, tracer: tracing.Tracer | None = None,
                       profiler: cProfile.Profile | None = None) -> PassResult:
        from gtforge import cli

        profiling = profiler if profiler is not None else contextlib.nullcontext()

        pass_dir.mkdir()
        results = []
        for step in self.workload.steps(pass_dir):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.scope = step.name
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), profiling:
                    rc = cli.main(step.argv)
            except Exception:
                rc = -1
                err.write(traceback.format_exc())
            wall = time.perf_counter() - start
            results.append(self.finish_step(step, rc, wall, out.getvalue(), err.getvalue()))
        shutil.rmtree(pass_dir)
        return PassResult(results)

    def setup_time(self, out_dir: Path) -> float:
        rc, wall, _, out, err = self.run_child(["--version"], out_dir)
        self.record(rc == 0 and out.strip() != "", "--version", err.strip()[-500:])
        return wall

    def import_times(self, out_dir: Path) -> tuple[float, float]:
        totals, scipys = [], []
        for _ in range(IMPORT_REPS):
            rc, _, _, _, err = self.run_child(["--version"], out_dir, ("-X", "importtime"))
            self.record(rc == 0, "-X importtime --version", err[-500:])
            total, scipy = tracing.import_breakdown(err)
            totals.append(total)
            scipys.append(scipy)
        return statistics.median(totals), statistics.median(scipys)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# --trace 0

def end_to_end(bench: Bench, work: Path, seconds: float, started: float) -> dict:
    # Set-up is sampled before the passes and again before each one, so its
    # median spans the same stretch of time as the passes.
    setup = [bench.setup_time(work) for _ in range(SETUP_REPS)]
    passes: list[PassResult] = []
    window = time.perf_counter()
    while not passes or time.perf_counter() - window < seconds:
        if time.perf_counter() - started > DEADLINE_S:
            break
        setup.append(bench.setup_time(work))
        passes.append(bench.child_pass(work / f"pass-{len(passes)}"))

    main = bench.workload.main_metric
    series = {
        "setup_s": setup,
        "wall_s": [p.wall_s for p in passes],
        "main_items_per_s": [p.rates().get(main, 0.0) for p in passes],
        "peak_rss_mb": [max(s.rss_mb for s in p.steps) for p in passes],
    }
    for name in passes[0].rates():
        series[name] = [p.rates().get(name, 0.0) for p in passes]

    units = dict(END_TO_END_UNITS)
    units.update({metric: unit for metric, unit in RATES.values()})
    print(f"workload {bench.workload.name}: {len(passes)} passes, GT_FORGE_THREADS={THREADS}, "
          f"main_items_per_s = {main}")
    print(f"{'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s}  unit      n")
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        print(f"{name:28s} {med:14.6g} {q1:14.6g} {q3:14.6g}  {units[name]:9s} {len(values)}")
    return {name: {"value": statistics.median(series[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


# ---------------------------------------------------------------------------
# --trace 1

# Layers whose self time adds up to generate's wall time.
GENERATE_LAYERS = ("trajlog.parse_utm", "trajlog.parse_geodetic", "geodesy.wgs84_to_utm",
                   "trajlog.apply_clock_model", "resample.build_interpolant",
                   "resample.states_at", "egokin.relative_state", "gtgen.bbox_footprint",
                   "gtgen.generate_records", "gtgen.record_to_json",
                   "gtgen.write_records_jsonl")


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tr: tracing.Tracer, traced: PassResult, untraced: PassResult
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    A metric built on a probe whose function no longer exists is left out.
    """
    g = tr.get
    parse = [g("trajlog.parse_utm"), g("trajlog.parse_geodetic")]
    gen = traced.step("generate")
    gen_self = tr.self_seconds("generate")
    table = [
        # (metric, unit, probes it needs, value)
        ("synth.run_scenario_s", "s", ["synth.run_scenario"], lambda: g("synth.run_scenario").total_s),
        ("trajlog.write_s", "s", ["trajlog.write_trajectory_log"],
         lambda: g("trajlog.write_trajectory_log").total_s),
        ("trajlog.write_rows_per_s", "rows/s", ["trajlog.write_trajectory_log"],
         lambda: ratio(g("trajlog.write_trajectory_log").work, g("trajlog.write_trajectory_log").total_s)),
        ("trajlog.parse_utm_s", "s", ["trajlog.parse_{frame}"], lambda: parse[0].total_s),
        ("trajlog.parse_geodetic_s", "s", ["trajlog.parse_{frame}"], lambda: parse[1].total_s),
        ("trajlog.parse_rows_per_s", "rows/s", ["trajlog.parse_{frame}"],
         lambda: ratio(sum(p.work for p in parse), sum(p.total_s for p in parse))),
        ("trajlog.apply_clock_model_s", "s", ["trajlog.apply_clock_model"],
         lambda: g("trajlog.apply_clock_model").total_s),
        ("geodesy.wgs84_to_utm.calls", "count", ["geodesy.wgs84_to_utm"],
         lambda: g("geodesy.wgs84_to_utm").calls),
        ("geodesy.wgs84_to_utm_s", "s", ["geodesy.wgs84_to_utm"], lambda: g("geodesy.wgs84_to_utm").total_s),
        ("resample.build_s", "s", ["resample.build_interpolant"], lambda: g("resample.build_interpolant").total_s),
        ("resample.eval_s", "s", ["resample.states_at"], lambda: g("resample.states_at").total_s),
        ("resample.eval_points_per_s", "points/s", ["resample.states_at"],
         lambda: ratio(g("resample.states_at").work, g("resample.states_at").total_s)),
        ("egokin.relative_state.calls", "count", ["egokin.relative_state"],
         lambda: g("egokin.relative_state").calls),
        ("egokin.transform_s", "s", ["egokin.relative_state"], lambda: g("egokin.relative_state").total_s),
        ("gtgen.generate_records_self_s", "s", ["gtgen.generate_records"],
         lambda: g("gtgen.generate_records").self_s),
        ("gtgen.bbox_footprint.calls", "count", ["gtgen.bbox_footprint"],
         lambda: g("gtgen.bbox_footprint").calls),
        ("gtgen.bbox_footprint_s", "s", ["gtgen.bbox_footprint"], lambda: g("gtgen.bbox_footprint").total_s),
        ("gtgen.record_to_json.calls", "count", ["gtgen.record_to_json"],
         lambda: g("gtgen.record_to_json").calls),
        ("gtgen.record_to_json_s", "s", ["gtgen.record_to_json"], lambda: g("gtgen.record_to_json").total_s),
        ("gtgen.write_jsonl_s", "s", ["gtgen.write_records_jsonl"],
         lambda: g("gtgen.write_records_jsonl").total_s),
        ("gtgen.jsonl_bytes_per_record", "bytes/record", [],
         lambda: ratio(gen.counts.get("bytes", 0), gen.counts.get("records", 0)) if gen else 0.0),
        ("gtgen.read_jsonl_s", "s", ["gtgen.read_records_jsonl"], lambda: g("gtgen.read_records_jsonl").total_s),
        ("util.fmt_float.calls", "count", ["util.fmt_float"], lambda: g("util.fmt_float").calls),
        ("util.ordered_map.batches", "count", ["util.ordered_map"], lambda: g("util.ordered_map").work),
        ("cli.run_validation_self_s", "s", ["cli.run_validation"], lambda: g("cli.run_validation").self_s),
        ("cli.export_plot_self_s", "s", ["cli.export_plot"], lambda: g("cli.export_plot").self_s),
        ("calib.parse_pose_stream_s", "s", ["calib.parse_pose_stream"],
         lambda: g("calib.parse_pose_stream").total_s),
        ("calib.relative_motions_s", "s", ["calib.relative_motions"], lambda: g("calib.relative_motions").total_s),
        ("calib.solve_hand_eye_s", "s", ["calib.solve_hand_eye"], lambda: g("calib.solve_hand_eye").total_s),
        ("trace.wall_s", "s", [], lambda: traced.wall_s),
        ("trace.untraced_wall_s", "s", [], lambda: untraced.wall_s),
        ("trace.overhead_s", "s", [], lambda: traced.wall_s - untraced.wall_s),
        ("trace.generate_wall_s", "s", [], lambda: gen.wall_s if gen else 0.0),
        ("trace.generate_unattributed_s", "s", [],
         lambda: gen.wall_s - sum(gen_self.get(n, 0.0) for n in GENERATE_LAYERS) if gen else 0.0),
    ]
    for kernel in ("trig_moments_mc", "monte_carlo_covariance", "mixed_trig_variance_mc"):
        stat = g(f"uncert.{kernel}")
        table.append((f"uncert.{kernel}_s", "s", [f"uncert.{kernel}"], lambda s=stat: s.total_s))
        table.append((f"uncert.{kernel}_draws_per_s", "draws/s", [f"uncert.{kernel}"],
                      lambda s=stat: ratio(s.work, s.total_s)))
    untraced_rates = untraced.rates()
    for metric, unit in RATES.values():
        table.append((f"cli.{metric}", unit, [], lambda m=metric: untraced_rates.get(m, 0.0)))
    return {name: (value(), unit) for name, unit, probes, value in table
            if not tr.missing.intersection(probes)}


def per_layer(bench: Bench, work: Path, seconds: float, started: float) -> dict:
    # The call count comes from one cProfile pass, kept apart from timing; it
    # also warms up this process for the timed passes. It counts towards
    # --seconds, so that a traced run takes no longer than an untraced one.
    os.environ["GT_FORGE_THREADS"] = str(THREADS)
    window = time.perf_counter()
    profiler = cProfile.Profile()
    bench.inprocess_pass(work / "profiled", profiler=profiler)
    calls = tracing.call_count(profiler)

    samples: list[dict[str, tuple[float, str]]] = []
    last = None
    while not samples or time.perf_counter() - window < seconds:
        if time.perf_counter() - started > DEADLINE_S / 2:
            break
        untraced = bench.inprocess_pass(work / f"untraced-{len(samples)}")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = bench.inprocess_pass(work / f"traced-{len(samples)}", tracer)
        finally:
            tracer.uninstall()
        samples.append(layer_metrics(tracer, traced, untraced))
        last = tracer, traced

    import_total, import_scipy = bench.import_times(work)

    metrics = {"import.total_s": (import_total, "s"), "import.scipy_s": (import_scipy, "s"),
               "prof.calls": (calls, "count")}
    for name, (value, unit) in samples[0].items():
        values = [s[name][0] for s in samples]
        metrics[name] = (value if unit == "count" else statistics.median(values), unit)

    tracer, traced = last
    print(f"workload {bench.workload.name}: {len(samples)} traced passes, "
          f"GT_FORGE_THREADS={THREADS}")
    if tracer.missing:
        print(f"probes without a target (metrics dropped): {sorted(tracer.missing)}")
    gen = traced.step("generate")
    if gen is not None:
        print(f"generate traced wall {gen.wall_s:.4f} s, self time by layer:")
        for name, value in sorted(tracer.self_seconds("generate").items(), key=lambda kv: -kv[1]):
            print(f"  {name:32s} {value:10.4f} s {100 * value / gen.wall_s:6.1f}%")
        rest = metrics["trace.generate_unattributed_s"][0]
        print(f"  {'unattributed':32s} {rest:10.4f} s {100 * rest / gen.wall_s:6.1f}%")
    for name, (value, unit) in metrics.items():
        shown = f"{value:16d}" if unit == "count" else f"{value:16.6g}"
        print(f"{name:40s} {shown} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test uses a small one)")
    args = parser.parse_args(argv)

    if not (SRC / "gtforge" / "cli.py").is_file():
        print(f"error: no gtforge sources at {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.scale)
        workload.setup()
        bench = Bench(workload)
        run = per_layer if args.trace else end_to_end
        metrics = run(bench, work, args.seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(f"failed_frac {bench.failed}/{bench.attempted} = "
          f"{ratio(bench.failed, bench.attempted):.6g} ratio")
    for key, digest in sorted(bench.digests.items()):
        print(f"sha256 {key} {digest}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
