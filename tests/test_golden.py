"""Byte-exact golden outputs of every CLI subcommand.

Small fixed inputs run through ``cli.main`` in-process; every file written
and every stdout line is compared byte for byte with ``tests/golden/``.
Temporary paths in stdout are replaced by ``<tmp>`` before comparison.

Regenerate the expected files only for a change that moves output bytes on
purpose, and say which bytes moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import redirect_stdout
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from gtforge import _util, uncert
from gtforge.cli import main
from gtforge.trajlog import trajectory_from_arrays, write_trajectory_log

GOLDEN = Path(__file__).parent / "golden"

NOISE = {"sigma_pos": 0.02, "sigma_vel": 0.02, "sigma_psi": 0.00175,
         "sigma_psi_dot": 0.00175}
ENVELOPE = {"d_max": 50.0, "v_max": 36.0, "psi_dot_max": 1.0}
SCENARIO = {
    "seed": 11,
    "noise": NOISE,
    "track": {"straight_len": 60.0, "curve_radius": 25.0},
    "vehicles": [
        {"id": "ego", "duration": 6.0, "rate": 20.0,
         "speed_profile": [[0.0, 12.0], [3.0, 15.0]]},
        {"id": "lead", "duration": 6.0, "rate": 20.0, "start_offset": 20.0,
         "speed_profile": [[0.0, 13.0]],
         "clock": {"offset": 0.05, "drift": 2e-4}},
        {"id": "tail", "duration": 6.0, "rate": 25.0, "start_offset": 150.0,
         "speed_profile": [[0.0, 11.0], [4.0, 9.0]]},
    ],
}
# Vehicle ids are the log file stems.
LEAD = {"length": 4.5, "width": 1.8, "ref_to_center": [1.2, 0.1]}
TAIL = {"length": 12.0, "width": 2.5}
GEOMETRY = {"lead_noisy": LEAD, "tail_noisy": TAIL}
GEOMETRY_GEO = {"lead_geo": LEAD, "tail_geo": TAIL}
CLOCKS = {"lead_noisy": {"offset": -0.05, "drift": -2e-4}, "ego_noisy": {"offset": 0.01}}
STAMPS = "0.5\n1.25\n\n2.0\n2.05\n3.999\n5.5\n"
# Zone 31 north, about 48.8 N 2.3 E.
GEO_ORIGIN = (448_000.0, 5_405_000.0)


def _write_inputs(work: Path) -> None:
    for name, data in (("noise", NOISE), ("envelope", ENVELOPE),
                       ("scenario", SCENARIO), ("geometry", GEOMETRY),
                       ("geometry_geo", GEOMETRY_GEO),
                       ("clocks", CLOCKS),
                       ("noise_outage", asdict(uncert.POSITIONING_PRESETS["outage_300s"]))):
        (work / f"{name}.json").write_text(json.dumps(data))
    (work / "stamps.txt").write_text(STAMPS)
    t = np.arange(200) * 0.05
    theta = 0.4 * np.sin(0.7 * t)
    a = np.stack([t, 3.0 * t, np.sin(t), theta], axis=1)
    c, s = np.cos(a[:, 3]), np.sin(a[:, 3])
    b = a.copy()
    b[:, 1] = a[:, 1] + c * 0.8 - s * 0.3
    b[:, 2] = a[:, 2] + s * 0.8 + c * 0.3
    b[:, 3] = a[:, 3] + 0.05
    for name, poses in (("poses_a", a), ("poses_b", b)):
        rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in poses)
        (work / f"{name}.csv").write_text("t,x,y,theta\n" + rows)


def _run(argv: list[str], work: Path) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv)
    assert rc == 0, argv
    return out.getvalue().replace(str(work), "<tmp>")


def produce(work: Path) -> dict[str, bytes]:
    """Run every subcommand on the fixed inputs; name -> output bytes."""
    _write_inputs(work)
    sim = work / "sim"
    stdout = {}
    stdout["simulate"] = _run(
        ["simulate", "--config", str(work / "scenario.json"), "--out-dir", str(sim)],
        work,
    )
    logs = ["--ego", str(sim / "ego_noisy.csv"),
            "--target", str(sim / "lead_noisy.csv"),
            "--target", str(sim / "tail_noisy.csv")]
    stdout["generate_bounds"] = _run(
        ["generate", *logs, "--rate", "10", "--geometry", str(work / "geometry.json"),
         "--noise", str(work / "noise.json"), "--envelope", str(work / "envelope.json"),
         "--clock", str(work / "clocks.json"), "--out", str(work / "gt_bounds.jsonl")],
        work,
    )
    stdout["generate_stamps"] = _run(
        ["generate", *logs, "--stamps", str(work / "stamps.txt"),
         "--geometry", str(work / "geometry.json"), "--out", str(work / "gt_stamps.jsonl")],
        work,
    )

    # The same session moved into a UTM zone and written in the geodetic schema.
    for vid in ("ego", "lead", "tail"):
        with (sim / f"{vid}_noisy.csv").open(newline="") as stream:
            rows = list(csv.DictReader(stream))
        t, x, y, vx, vy, psi, psi_dot = (
            np.array([float(row[c]) for row in rows])
            for c in ("t", "x", "y", "vx", "vy", "psi_rad", "psi_dot")
        )
        moved = trajectory_from_arrays(
            vid, t, x + GEO_ORIGIN[0], y + GEO_ORIGIN[1], vx, vy, psi, psi_dot,
            zone=31, hemisphere="north",
        )
        write_trajectory_log(moved, work / f"{vid}_geo.csv", frame="geodetic")
    stdout["generate_geodetic"] = _run(
        ["generate", "--frame", "geodetic", "--ego", str(work / "ego_geo.csv"),
         "--target", str(work / "lead_geo.csv"), "--target", str(work / "tail_geo.csv"),
         "--rate", "4", "--geometry", str(work / "geometry_geo.json"),
         "--noise", str(work / "noise.json"), "--envelope", str(work / "envelope.json"),
         "--out", str(work / "gt_geodetic.jsonl")],
        work,
    )
    stdout["export_plot"] = _run(
        ["export-plot", "--gt", str(work / "gt_bounds.jsonl"), "--channel", "vy",
         "--target", "tail_noisy", "--out", str(work / "plot.csv")],
        work,
    )
    stdout["bounds"] = _run(
        ["bounds", "--noise", str(work / "noise.json"),
         "--envelope", str(work / "envelope.json")],
        work,
    )
    stdout["calibrate"] = _run(
        ["calibrate", "--stream-a", str(work / "poses_a.csv"),
         "--stream-b", str(work / "poses_b.csv")],
        work,
    )
    stdout["validate"] = _run(
        ["validate", "--noise", str(work / "noise.json"),
         "--envelope", str(work / "envelope.json"),
         "--samples", "2000", "--seed", "3"],
        work,
    )
    # The printed convention's domination path on a large-sigma_pos model.
    stdout["validate_printed"] = _run(
        ["validate", "--noise", str(work / "noise_outage.json"),
         "--envelope", str(work / "envelope.json"), "--convention", "printed",
         "--samples", "2000", "--seed", "4"],
        work,
    )

    files = {
        f"{vid}_{kind}.csv": (sim / f"{vid}_{kind}.csv").read_bytes()
        for vid in ("ego", "lead", "tail") for kind in ("clean", "noisy")
    }
    for name in ("ego_geo.csv", "lead_geo.csv", "tail_geo.csv", "gt_bounds.jsonl",
                 "gt_stamps.jsonl", "gt_geodetic.jsonl", "plot.csv"):
        files[name] = (work / name).read_bytes()
    for name, text in stdout.items():
        files[f"stdout_{name}.txt"] = text.encode()
    return files


def test_outputs_match_golden_files(tmp_path):
    got = produce(tmp_path)
    expected = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(got) == expected
    differ = [name for name in expected if (GOLDEN / name).read_bytes() != got[name]]
    assert differ == []


def test_records_do_not_depend_on_the_process_pool(tmp_path, monkeypatch):
    """generate parses and interpolates each log on _util.process_map's
    workers; forced onto one process it writes the same bytes."""
    monkeypatch.setattr(_util, "usable_cpus", lambda: 1)
    produce(tmp_path)
    for name in ("gt_bounds.jsonl", "gt_stamps.jsonl", "gt_geodetic.jsonl"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("name", ["gt_bounds.jsonl", "gt_stamps.jsonl", "gt_geodetic.jsonl"])
def test_golden_records_are_plausible(name):
    """Guard against pinning a broken run: every line is a finite record."""
    lines = (GOLDEN / name).read_text().splitlines()
    assert len(lines) > 10
    for line in lines:
        record = json.loads(line)
        assert all(math.isfinite(record[k]) for k in ("t", "x", "y", "vx", "vy", "psi"))
        assert len(record["bbox"]) == 4


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = produce(Path(tmp))
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for name, data in outputs.items():
        (GOLDEN / name).write_bytes(data)
    sys.stdout.write(f"wrote {len(outputs)} files to {GOLDEN}\n")
