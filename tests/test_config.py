"""The one JSON config rule: a config object's keys are the fields of its
dataclass, and fields with defaults may be left out."""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from gtforge._util import from_mapping
from gtforge.gtgen import VehicleGeometry
from gtforge.synth import StadiumTrack, scenario_from_mapping
from gtforge.trajlog import ClockModel
from gtforge.uncert import NoiseModel, ScenarioEnvelope

README = Path(__file__).resolve().parent.parent / "README.md"


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
    scenario = scenario_from_mapping(json.loads(example), "README.md")
    assert [v.vehicle_id for v in scenario.vehicles] == ["ego", "lead"]
    assert scenario.track == StadiumTrack(straight_len=1100.0, curve_radius=159.155)
    assert scenario.vehicles[1].clock == ClockModel(offset=0.001)
