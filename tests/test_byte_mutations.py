"""Hostile input at the byte level: a valid file with a few bytes flipped,
inserted, deleted or cut off, a BOM, a CR, a NUL or a 0xff byte put in,
run through the CLI. The run exits 0, 1 (data the computation cannot use,
where a subcommand can meet such data) or 2 with one error line; an exit 2
names the spoiled file. It never raises."""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gtforge import synth
from gtforge._util import load_config
from gtforge.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from gtforge.errors import ParseError

GOLDEN = Path(__file__).parent / "golden"
RECORDS = b"".join((GOLDEN / "gt_bounds.jsonl").read_bytes().splitlines(keepends=True)[:3])
CONFIGS = {
    "noise": json.dumps({"sigma_pos": 0.02, "sigma_vel": 0.02, "sigma_psi": 0.00175,
                         "sigma_psi_dot": 0.00175}, indent=1).encode(),
    "envelope": json.dumps({"d_max": 50.0, "v_max": 36.0, "psi_dot_max": 1.0},
                           indent=1).encode(),
}
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
# The readers behind generate, calibrate and simulate: 100 examples each.
READER_SETTINGS = settings(SETTINGS, max_examples=100)


def head(name: str, rows: int = 40) -> bytes:
    """The header and the first rows of a golden file."""
    return b"".join((GOLDEN / name).read_bytes().splitlines(keepends=True)[:rows + 1])


def poses(offset: tuple[float, float, float]) -> bytes:
    """40 poses at 20 Hz, moved by the rigid offset (dx, dy, dtheta)."""
    lines = ["t,x,y,theta\n"]
    for k in range(40):
        t = 0.05 * k
        theta = 0.4 * math.sin(0.7 * t)
        c, s = math.cos(theta), math.sin(theta)
        x = 3.0 * t + c * offset[0] - s * offset[1]
        y = math.sin(t) + s * offset[0] + c * offset[1]
        lines.append(f"{t!r},{x!r},{y!r},{theta + offset[2]!r}\n")
    return "".join(lines).encode()


# Every input file of a generate run over UTM logs (--frame utm), one over
# geodetic logs (--frame geodetic), a calibrate run and a simulate run.
GENERATE_UTM = {
    "ego.csv": head("ego_noisy.csv"),
    "lead.csv": head("lead_noisy.csv"),
    "stamps.txt": b"0.5\n1.25\n\n1.5\n",
    "geometry.json": json.dumps({"length": 4.5, "width": 1.8,
                                 "ref_to_center": [1.2, 0.1]}).encode(),
    "clocks.json": json.dumps({"lead": {"offset": -0.05, "drift": -2e-4}}).encode(),
}
GENERATE_GEODETIC = {
    "ego_geo.csv": head("ego_geo.csv"),
    "lead_geo.csv": head("lead_geo.csv"),
    "stamps.txt": GENERATE_UTM["stamps.txt"],
    "geometry.json": GENERATE_UTM["geometry.json"],
}
CALIBRATE = {"a.csv": poses((0.0, 0.0, 0.0)), "b.csv": poses((0.8, 0.3, 0.05))}
SIMULATE = {"scenario.json": json.dumps({
    "seed": 3,
    "noise": json.loads(CONFIGS["noise"]),
    "track": {"straight_len": 60.0, "curve_radius": 25.0},
    "vehicles": [
        {"id": "ego", "duration": 2.0, "rate": 10.0, "speed_profile": [[0.0, 12.0]]},
        {"id": "lead", "duration": 2.0, "rate": 10.0, "start_offset": 20.0,
         "speed_profile": [[0.0, 13.0], [1.0, 14.0]], "clock": {"offset": 0.05}},
    ],
}, indent=1).encode()}


def mutate(data: bytes, kind: str, pos: int, byte: int) -> bytes:
    """data with one mutation of the given kind at pos (taken modulo its size)."""
    pos %= len(data) + 1
    if kind == "flip":
        pos = min(pos, len(data) - 1)
        return data[:pos] + bytes([data[pos] ^ (byte or 1)]) + data[pos + 1:]
    if kind == "delete":
        return data[:pos] + data[pos + 1:]
    if kind == "truncate":
        return data[:pos]
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    inserted = {"insert": bytes([byte]), "cr": b"\r", "nul": b"\0", "ff": b"\xff"}[kind]
    return data[:pos] + inserted + data[pos:]


mutations = st.lists(
    st.tuples(
        st.sampled_from(["flip", "insert", "delete", "truncate", "bom", "cr", "nul", "ff"]),
        st.integers(0, 2**16),
        st.integers(0, 255),
    ),
    min_size=1, max_size=3,
)


def spoiled(data: bytes, steps) -> bytes:
    for step in steps:
        data = mutate(data, *step) if data else data
    return data


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_mutate_covers_every_kind():
    data = b"abc"
    assert mutate(data, "flip", 1, 1) == b"acc"
    assert mutate(data, "insert", 1, 0x41) == b"aAbc"
    assert mutate(data, "delete", 1, 0) == b"ac"
    assert mutate(data, "truncate", 6, 0) == b"ab"  # 6 % 4
    assert mutate(data, "bom", 2, 0) == b"\xef\xbb\xbfabc"
    assert mutate(data, "cr", 3, 0) == b"abc\r"
    assert mutate(data, "nul", 0, 0) == b"\0abc"
    assert mutate(data, "ff", 2, 0) == b"ab\xffc"


@SETTINGS
@given(mutations)
def test_records_through_export_plot(tmp_path, steps):
    gt = tmp_path / "gt.jsonl"
    gt.write_bytes(spoiled(RECORDS, steps))
    code, out, err = run(["export-plot", "--gt", str(gt), "--channel", "x",
                          "--out", str(tmp_path / "x.csv")])
    assert code in (EXIT_OK, EXIT_USAGE), err
    if code == EXIT_USAGE:
        assert err.startswith(f"error: {gt}: ") and err.count("\n") == 1, err
    else:
        assert not err and out.startswith(f"{tmp_path / 'x.csv'}: ")


@SETTINGS
@given(st.sampled_from(sorted(CONFIGS)), mutations)
def test_configs_through_bounds(tmp_path, which, steps):
    paths = {}
    for name, data in CONFIGS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(spoiled(data, steps) if name == which else data)
    code, out, err = run(["bounds", "--noise", str(paths["noise"]),
                          "--envelope", str(paths["envelope"])])
    assert code in (EXIT_OK, EXIT_USAGE), err
    if code == EXIT_USAGE:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(paths[which]) in err, err
    else:
        assert not err and json.loads(out)["convention"]


def write_inputs(tmp_path, files: dict[str, bytes], spoil: str, steps) -> dict[str, str]:
    """Write files under tmp_path, the one named spoil mutated; name -> path."""
    paths = {}
    for name, data in files.items():
        (tmp_path / name).write_bytes(spoiled(data, steps) if name == spoil else data)
        paths[name] = str(tmp_path / name)
    return paths


def check_run(argv: list[str], spoiled_path: str) -> None:
    """The run exits 0 quietly, or 1 or 2 with one error line; 2 names the
    spoiled file."""
    code, out, err = run(argv)
    assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE), err
    if code == EXIT_OK:
        assert not err and out
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == EXIT_USAGE:
        assert spoiled_path in err, err


@READER_SETTINGS
@pytest.mark.parametrize("spoil", ["ego.csv", "stamps.txt", "geometry.json", "clocks.json"])
@given(steps=mutations)
def test_utm_inputs_through_generate(tmp_path, spoil, steps):
    paths = write_inputs(tmp_path, GENERATE_UTM, spoil, steps)
    check_run(["generate", "--ego", paths["ego.csv"], "--target", paths["lead.csv"],
               "--stamps", paths["stamps.txt"], "--geometry", paths["geometry.json"],
               "--clock", paths["clocks.json"], "--out", str(tmp_path / "gt.jsonl")],
              paths[spoil])


@READER_SETTINGS
@given(steps=mutations)
def test_geodetic_log_through_generate(tmp_path, steps):
    paths = write_inputs(tmp_path, GENERATE_GEODETIC, "lead_geo.csv", steps)
    check_run(["generate", "--frame", "geodetic", "--ego", paths["ego_geo.csv"],
               "--target", paths["lead_geo.csv"], "--stamps", paths["stamps.txt"],
               "--geometry", paths["geometry.json"], "--out", str(tmp_path / "gt.jsonl")],
              paths["lead_geo.csv"])


@READER_SETTINGS
@given(steps=mutations)
def test_pose_stream_through_calibrate(tmp_path, steps):
    paths = write_inputs(tmp_path, CALIBRATE, "b.csv", steps)
    check_run(["calibrate", "--stream-a", paths["a.csv"], "--stream-b", paths["b.csv"]],
              paths["b.csv"])


@READER_SETTINGS
@given(steps=mutations)
def test_scenario_through_simulate(tmp_path, steps):
    paths = write_inputs(tmp_path, SIMULATE, "scenario.json", steps)
    # A spoiled file can still be a valid scenario that asks for a long run
    # (say "duration": 2.0e9); that is a large job, not hostile input.
    try:
        scenario = load_config(synth.Scenario, paths["scenario.json"])
    except ParseError:
        scenario = None
    if scenario is not None:
        assume(sum(v.duration * v.rate for v in scenario.vehicles) <= 10_000)
    check_run(["simulate", "--config", paths["scenario.json"],
               "--out-dir", str(tmp_path / "sim")], paths["scenario.json"])
