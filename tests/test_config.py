"""The one JSON config rule: a config object's keys are the fields of its
dataclass, fields with defaults may be left out, and each value is read as
its field's annotation."""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import pytest

from gtforge._util import from_mapping
from gtforge.cli import EXIT_USAGE, main
from gtforge.errors import ParseError
from gtforge.gtgen import VehicleGeometry
from gtforge.synth import RunSpec, Scenario, StadiumTrack
from gtforge.trajlog import ClockModel
from gtforge.uncert import NoiseModel, ScenarioEnvelope

README = Path(__file__).resolve().parent.parent / "README.md"
SCENARIO = {
    "seed": 3,
    "vehicles": [{"id": "ego", "duration": 1.0, "rate": 10.0, "speed_profile": [[0.0, 5.0]]}],
}


@pytest.mark.parametrize("config", [
    NoiseModel(sigma_pos=0.02, sigma_vel=0.03, sigma_psi=0.00175, sigma_psi_dot=0.002),
    ScenarioEnvelope(d_max=50.0, v_max=36.0, psi_dot_max=1.0),
    ClockModel(offset=-0.05, drift=2e-4),
    VehicleGeometry(length=4.5, width=1.8, ref_to_center=(1.2, 0.1)),
    StadiumTrack(straight_len=60.0, curve_radius=25.0),
], ids=lambda config: type(config).__name__)
def test_round_trip(config):
    assert from_mapping(type(config), asdict(config), "src") == config


def test_readme_scenario_example_parses():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.DOTALL)
    (example,) = [block for block in blocks if '"vehicles"' in block]
    scenario = from_mapping(Scenario, json.loads(example), "README.md")
    assert [v.id for v in scenario.vehicles] == ["ego", "lead"]
    assert scenario.track == StadiumTrack(straight_len=1100.0, curve_radius=159.155)
    assert scenario.vehicles[1].clock == ClockModel(offset=0.001)


@pytest.mark.parametrize("config, key", [
    (NoiseModel(sigma_pos=0.02, sigma_vel=0.03, sigma_psi=0.00175), "sigma_pos"),
    (ScenarioEnvelope(d_max=50.0, v_max=36.0, psi_dot_max=1.0), "psi_dot_max"),
    (ClockModel(offset=-0.05), "drift"),
], ids=lambda value: type(value).__name__ if not isinstance(value, str) else value)
def test_boolean_is_not_a_number(config, key):
    data = dict(asdict(config), **{key: True})
    with pytest.raises(ParseError, match=rf"^src: {key} must be a number, got True$"):
        from_mapping(type(config), data, "src")


def test_boolean_noise_config_exits_2(tmp_path, capsys):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"sigma_pos": True, "sigma_vel": 0.02, "sigma_psi": 0.00175}))
    envelope = tmp_path / "envelope.json"
    envelope.write_text(json.dumps({"d_max": 50.0, "v_max": 36.0, "psi_dot_max": 1.0}))
    rc = main(["bounds", "--noise", str(noise), "--envelope", str(envelope)])
    assert rc == EXIT_USAGE
    assert "sigma_pos must be a number, got True" in capsys.readouterr().err


@pytest.mark.parametrize("config, key, value", [
    (NoiseModel(sigma_pos=0.02, sigma_vel=0.03, sigma_psi=0.00175), "sigma_pos", "0.02"),
    (NoiseModel(sigma_pos=0.02, sigma_vel=0.03, sigma_psi=0.00175), "sigma_vel", 10**400),
    (ClockModel(offset=-0.05), "offset", "-0.05"),
    (ScenarioEnvelope(d_max=50.0, v_max=36.0, psi_dot_max=1.0), "v_max", None),
], ids=["NoiseModel-string", "NoiseModel-huge-int", "ClockModel-string", "ScenarioEnvelope-null"])
def test_only_a_json_number_is_a_number(config, key, value):
    data = dict(asdict(config), **{key: value})
    with pytest.raises(ParseError, match=rf"^src: {key} must be a number, got {re.escape(repr(value))}$"):
        from_mapping(type(config), data, "src")


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    noise = tmp_path / "noise.json"
    noise.write_text("[" * 100_000)
    envelope = tmp_path / "envelope.json"
    envelope.write_text(json.dumps({"d_max": 50.0, "v_max": 36.0, "psi_dot_max": 1.0}))
    rc = main(["bounds", "--noise", str(noise), "--envelope", str(envelope)])
    assert rc == EXIT_USAGE
    assert "noise.json: invalid JSON: maximum recursion" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [True, 1.7, 1.0, "1"])
def test_scenario_seed_must_be_an_integer(seed):
    data = dict(SCENARIO, seed=seed)
    with pytest.raises(ParseError, match=rf"^scenario: seed must be an integer, got {re.escape(repr(seed))}$"):
        from_mapping(Scenario, data, "scenario")


def test_scenario_fractional_seed_exits_2(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(dict(SCENARIO, seed=1.7)))
    rc = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "sim")])
    assert rc == EXIT_USAGE
    assert "seed must be an integer, got 1.7" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


# A scenario with every field set, a noise model and a clock included.
FULL_SCENARIO = Scenario(
    vehicles=(
        RunSpec(id="ego", duration=2.0, rate=50.0, speed_profile=((0.0, 10.0), (1.5, 12.5))),
        RunSpec(id="lead", duration=3.0, rate=20.0, speed_profile=((0.5, 11.0),),
                start_offset=40.0, clock=ClockModel(offset=0.002, drift=-1e-4)),
    ),
    track=StadiumTrack(straight_len=60.0, curve_radius=25.0),
    noise=NoiseModel(sigma_pos=0.02, sigma_vel=0.03, sigma_psi=0.00175, sigma_psi_dot=0.002),
    seed=17,
)


@pytest.mark.parametrize("config", [
    NoiseModel(sigma_pos=0.02, sigma_vel=0.03, sigma_psi=0.00175, sigma_psi_dot=0.002),
    ScenarioEnvelope(d_max=50.0, v_max=36.0, psi_dot_max=1.0),
    ClockModel(offset=-0.05, drift=2e-4),
    VehicleGeometry(length=4.5, width=1.8, ref_to_center=(1.2, 0.1)),
    StadiumTrack(straight_len=60.0, curve_radius=25.0),
    FULL_SCENARIO.vehicles[1],
    FULL_SCENARIO,
], ids=lambda config: type(config).__name__)
def test_round_trip_through_json_text(config):
    data = json.loads(json.dumps(asdict(config)))
    assert from_mapping(type(config), data, "src") == config


@pytest.mark.parametrize("patch, message", [
    ({"speed_profile": [[True, 5.0]]},
     "scenario.vehicles[0]: speed_profile[0][0] must be a number, got True"),
    ({"speed_profile": [[0.0, 5.0], [1.0, "7"]]},
     "scenario.vehicles[0]: speed_profile[1][1] must be a number, got '7'"),
    ({"speed_profile": [[0.0, 5.0, 1.0]]},
     "scenario.vehicles[0]: speed_profile[0] must be an array of 2 items, got [0.0, 5.0, 1.0]"),
    ({"speed_profile": 5.0},
     "scenario.vehicles[0]: speed_profile must be an array, got 5.0"),
    ({"id": None}, "scenario.vehicles[0]: id must be a string, got None"),
    ({"id": 5}, "scenario.vehicles[0]: id must be a string, got 5"),
], ids=["bool-knot", "string-knot", "3-item-knot", "number-profile", "null-id", "int-id"])
def test_vehicle_values_are_read_by_annotation(patch, message):
    data = dict(SCENARIO, vehicles=[dict(SCENARIO["vehicles"][0], **patch)])
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        from_mapping(Scenario, data, "scenario")


def test_nested_source_names_the_vehicle_index():
    data = asdict(FULL_SCENARIO)
    data["vehicles"][1]["clock"]["drift"] = True
    with pytest.raises(ParseError, match=re.escape(
        "scenario.vehicles[1].clock: drift must be a number, got True"
    )):
        from_mapping(Scenario, data, "scenario")


def test_vehicles_must_be_an_array():
    with pytest.raises(ParseError, match="^scenario: vehicles must be an array, got 5$"):
        from_mapping(Scenario, dict(SCENARIO, vehicles=5), "scenario")


@pytest.mark.parametrize("offset, message", [
    ([True, 0.5], "ref_to_center[0] must be a number, got True"),
    ([1.0], "ref_to_center must be an array of 2 items, got [1.0]"),
    ([1.0, 0.5, 0.0], "ref_to_center must be an array of 2 items, got [1.0, 0.5, 0.0]"),
], ids=["bool", "1-item", "3-item"])
def test_ref_to_center_is_two_numbers(offset, message):
    data = {"length": 4.0, "width": 2.0, "ref_to_center": offset}
    with pytest.raises(ParseError, match=f"^src: {re.escape(message)}$"):
        from_mapping(VehicleGeometry, data, "src")


@dataclass(frozen=True)
class _ListConfig:
    values: list[float]


def test_unsupported_annotation_is_a_programming_error():
    with pytest.raises(TypeError, match="cannot read values"):
        from_mapping(_ListConfig, {"values": [1.0]}, "src")
