"""Smoke test of the benchmark at a tiny input size.

    python3 perfbench/smoke.py

For every workload it runs one untraced and two traced one-pass runs of the
same seed and checks that:

  * each run exits 0, reports correct outputs and no failed operation;
  * the metrics are exactly those BENCHMARK.json names, each with its unit;
  * the counts (``*.calls``, ``prof.calls`` and the other ``count`` metrics)
    repeat exactly between the two traced runs;
  * every output's SHA-256 is the same in all three runs.

It also checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / HERE.name / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess, what: str) -> tuple[dict, list[str]]:
    """The metrics of a run and the output digests its summary printed."""
    if proc.returncode != 0:
        raise SystemExit(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise SystemExit(f"{what}: incorrect outputs\n{proc.stderr[-2000:]}")
    return result["metrics"], [line for line in lines if line.startswith("sha256 ")]


def check_names(metrics: dict, spec: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        raise SystemExit(f"{what}: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {[n for n in want if n in got and got[n] != want[n]]}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            raise SystemExit(f"{what}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        base = ("--workload", workload, "--seed", "3", "--seconds", "0", "--scale", SCALE)
        metrics, digests = result_of(run(ROOT, *base, "--trace", "0"), workload)
        check_names(metrics, spec["end_to_end"], f"{workload} --trace 0")
        traced = []
        for _ in range(2):
            metrics, again = result_of(run(ROOT, *base, "--trace", "1"), workload)
            check_names(metrics, spec["per_layer"], f"{workload} --trace 1")
            if again != digests:
                raise SystemExit(f"{workload}: outputs differ between runs of one seed")
            traced.append(metrics)
        for name, m in traced[0].items():
            if m["unit"] == "count" and m["value"] != traced[1][name]["value"]:
                raise SystemExit(f"{workload}: count {name} differs between runs: "
                                 f"{m['value']} vs {traced[1][name]['value']}")
        print(f"ok {workload}")

    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = run(bare, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit("the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
