"""Hostile input at the byte level: a valid file with a few bytes flipped,
inserted, deleted or cut off, a BOM, a CR, a NUL or a 0xff byte put in,
run through the CLI. The run exits 0, or 2 with one error line; it never
raises."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gtforge.cli import EXIT_OK, EXIT_USAGE, main

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
    else:
        assert not err and json.loads(out)["convention"]
