"""Command-line interface: subcommand behavior and exit codes."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from gtforge import _util, certify, cli, errors, uncert
from gtforge.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from helpers import Transform, compose, write_pose_stream

NOISE = {"sigma_pos": 0.02, "sigma_vel": 0.02, "sigma_psi": 0.00175,
         "sigma_psi_dot": 0.00175}
ENVELOPE = {"d_max": 50.0, "v_max": 36.0, "psi_dot_max": 1.0}
SCENARIO = {
    "seed": 7,
    "vehicles": [
        {"id": "ego", "duration": 6.0, "rate": 20.0,
         "speed_profile": [[0.0, 25.0]]},
        {"id": "lead", "duration": 6.0, "rate": 20.0, "start_offset": 30.0,
         "speed_profile": [[0.0, 25.0]]},
    ],
}


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "noise.json").write_text(json.dumps(NOISE))
    (tmp_path / "envelope.json").write_text(json.dumps(ENVELOPE))
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    (tmp_path / "geometry.json").write_text(
        json.dumps({"length": 4.0, "width": 2.0})
    )
    return tmp_path


def simulate(workspace):
    rc = main([
        "simulate", "--config", str(workspace / "scenario.json"),
        "--out-dir", str(workspace / "sim"),
    ])
    assert rc == EXIT_OK
    return workspace / "sim"


class TestSimulate:
    def test_writes_clean_and_noisy_logs(self, workspace, capsys):
        sim = simulate(workspace)
        names = sorted(p.name for p in sim.iterdir())
        assert names == [
            "ego_clean.csv", "ego_noisy.csv", "lead_clean.csv", "lead_noisy.csv"
        ]
        out = capsys.readouterr().out
        assert "ego_clean.csv" in out

    def test_no_noise_means_identical_logs(self, workspace):
        sim = simulate(workspace)
        assert (sim / "ego_clean.csv").read_bytes() == (sim / "ego_noisy.csv").read_bytes()

    def test_missing_config(self, workspace):
        rc = main(["simulate", "--config", str(workspace / "nope.json"),
                   "--out-dir", str(workspace / "sim")])
        assert rc == EXIT_USAGE

    def test_invalid_config(self, workspace):
        bad = workspace / "bad.json"
        bad.write_text("{")
        rc = main(["simulate", "--config", str(bad),
                   "--out-dir", str(workspace / "sim")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("patch", [
        {"track": 5},
        {"vehicles": [dict(SCENARIO["vehicles"][0], clock=3)]},
    ])
    def test_malformed_config_is_usage_error(self, workspace, capsys, patch):
        bad = workspace / "bad.json"
        bad.write_text(json.dumps(dict(SCENARIO, **patch)))
        rc = main(["simulate", "--config", str(bad),
                   "--out-dir", str(workspace / "sim")])
        assert rc == EXIT_USAGE
        assert "expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("vehicle_id", ["../escape", "a\\b", ""])
    def test_vehicle_id_must_be_a_file_stem(self, workspace, capsys, vehicle_id):
        bad = workspace / "bad.json"
        bad.write_text(json.dumps(
            dict(SCENARIO, vehicles=[dict(SCENARIO["vehicles"][0], id=vehicle_id)])
        ))
        rc = main(["simulate", "--config", str(bad), "--out-dir", str(workspace / "sim")])
        assert rc == EXIT_USAGE
        assert "bad.json.vehicles[0]: id must be a file stem" in capsys.readouterr().err
        assert not list(workspace.rglob("*.csv"))

    def test_nul_in_a_later_id_writes_nothing(self, workspace, capsys):
        bad = workspace / "bad.json"
        bad.write_text(json.dumps(dict(SCENARIO, vehicles=[
            dict(SCENARIO["vehicles"][0], id="a"), dict(SCENARIO["vehicles"][1], id="b\u0000"),
        ])))
        out = workspace / "sim"
        out.mkdir()
        rc = main(["simulate", "--config", str(bad), "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        assert "bad.json.vehicles[1]: id must be a file stem" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_run_beyond_any_array_is_usage_error(self, workspace, capsys):
        huge = workspace / "huge.json"
        huge.write_text(json.dumps(dict(SCENARIO, vehicles=[
            SCENARIO["vehicles"][0], dict(SCENARIO["vehicles"][1], duration=1e20, rate=100.0),
        ])))
        rc = main(["simulate", "--config", str(huge), "--out-dir", str(workspace / "sim")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "huge.json.vehicles[1]: duration * rate gives 1e+22 samples, more than 2**59\n"
        )
        assert not (workspace / "sim").exists()

    def test_allocation_failure_exits_1(self, workspace, capsys):
        """10^17 samples need 711 PiB, beyond any 57-bit address space, so
        the allocation fails without touching memory."""
        huge = workspace / "huge.json"
        huge.write_text(json.dumps(
            dict(SCENARIO, vehicles=[dict(SCENARIO["vehicles"][0], duration=1e15, rate=100.0)])
        ))
        rc = main(["simulate", "--config", str(huge), "--out-dir", str(workspace / "sim")])
        assert rc == EXIT_FAILURE
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not (workspace / "sim").exists()


class TestGenerate:
    def generate(self, workspace, *extra):
        sim = simulate(workspace)
        out = workspace / "gt.jsonl"
        rc = main([
            "generate",
            "--ego", str(sim / "ego_clean.csv"),
            "--target", str(sim / "lead_clean.csv"),
            "--rate", "10",
            "--geometry", str(workspace / "geometry.json"),
            "--out", str(out),
            *extra,
        ])
        return rc, out

    def test_basic_run(self, workspace):
        rc, out = self.generate(workspace)
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 61
        first = json.loads(lines[0])
        assert first["target_id"] == "lead_clean"
        assert first["x"] == pytest.approx(30.0, abs=1e-6)
        assert "pos_bound" not in first

    def test_with_bounds(self, workspace):
        rc, out = self.generate(
            workspace,
            "--noise", str(workspace / "noise.json"),
            "--envelope", str(workspace / "envelope.json"),
        )
        assert rc == EXIT_OK
        first = json.loads(out.read_text().splitlines()[0])
        assert first["pos_bound"]["a"] == pytest.approx(0.00845624414)
        assert first["yaw_var"] == pytest.approx(6.125e-6)

    def test_noise_without_envelope_is_usage_error(self, workspace):
        rc, _ = self.generate(workspace, "--noise", str(workspace / "noise.json"))
        assert rc == EXIT_USAGE

    def test_envelope_without_noise_is_usage_error(self, workspace):
        rc, out = self.generate(workspace, "--envelope", str(workspace / "envelope.json"))
        assert rc == EXIT_USAGE
        assert not out.exists()

    def test_stamps_file(self, workspace):
        sim = simulate(workspace)
        stamps = workspace / "stamps.txt"
        stamps.write_text("1.0\n2.0\n3.0\n")
        out = workspace / "gt.jsonl"
        rc = main([
            "generate", "--ego", str(sim / "ego_clean.csv"),
            "--target", str(sim / "lead_clean.csv"),
            "--stamps", str(stamps),
            "--geometry", str(workspace / "geometry.json"),
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert len(out.read_text().splitlines()) == 3

    def test_rate_window_end_is_a_stamp(self, workspace, capsys):
        """Logs on [0.01, 90.3] at 100 Hz: the last stamp lands on 90.3."""
        t = np.linspace(0.01, 90.3, 200).tolist()
        for name, x0 in (("ego", 0.0), ("lead", 30.0)):
            rows = "".join(f"{v!r},{x0 + 10.0 * v!r},0.0,,10.0,0.0,0.0,0.0\n" for v in t)
            (workspace / f"{name}.csv").write_text("t,x,y,alt,vx,vy,psi_rad,psi_dot\n" + rows)
        out = workspace / "gt.jsonl"
        rc = main([
            "generate", "--ego", str(workspace / "ego.csv"),
            "--target", str(workspace / "lead.csv"), "--rate", "100",
            "--geometry", str(workspace / "geometry.json"), "--out", str(out),
        ])
        assert rc == EXIT_OK, capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert len(lines) == 9030
        assert json.loads(lines[-1])["t"] == 90.3

    def test_out_of_support_stamp_fails(self, workspace):
        sim = simulate(workspace)
        stamps = workspace / "stamps.txt"
        stamps.write_text("99.0\n")
        rc = main([
            "generate", "--ego", str(sim / "ego_clean.csv"),
            "--target", str(sim / "lead_clean.csv"),
            "--stamps", str(stamps),
            "--geometry", str(workspace / "geometry.json"),
            "--out", str(workspace / "gt.jsonl"),
        ])
        assert rc == EXIT_FAILURE

    def test_malformed_log_is_usage_error(self, workspace):
        bad = workspace / "bad.csv"
        bad.write_text("t,x,y\n0,1,2\n")
        rc = main([
            "generate", "--ego", str(bad), "--target", str(bad),
            "--rate", "10",
            "--geometry", str(workspace / "geometry.json"),
            "--out", str(workspace / "gt.jsonl"),
        ])
        assert rc == EXIT_USAGE

    def test_repeated_stamp_names_its_line(self, workspace, capsys):
        sim = simulate(workspace)
        rows = "".join(f"{t},{t},0,,1,0,0,0\n" for t in (0, 1, 1))
        (workspace / "dup_log.csv").write_text("t,x,y,alt,vx,vy,psi_rad,psi_dot\n" + rows)
        rc = main([
            "generate", "--ego", str(sim / "ego_clean.csv"),
            "--target", str(workspace / "dup_log.csv"), "--rate", "10",
            "--geometry", str(workspace / "geometry.json"),
            "--out", str(workspace / "gt.jsonl"),
        ])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {workspace / 'dup_log.csv'}: line 4: t=1.0 does not increase past t=1.0 "
            "on line 3\n"
        )

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_malformed_log_is_named(self, workspace, capsys, monkeypatch, cpus):
        """With the 2nd and 3rd of three logs malformed, the 2nd is named, as
        a plain loop over the logs names it, whichever process parsed them."""
        monkeypatch.setattr(_util, "usable_cpus", lambda: cpus)
        sim = simulate(workspace)
        second, third = workspace / "second.csv", workspace / "third.csv"
        rows = "".join(f"{t},{t},0,,1,0,0,0\n" for t in range(4))
        second.write_text(UTM_HEADER + rows + "4,x,0,,1,0,0,0\n")
        third.write_text(UTM_HEADER + "0,y,0,,1,0,0,0\n")
        rc = main([
            "generate", "--ego", str(sim / "ego_clean.csv"), "--target", str(second),
            "--target", str(third), "--rate", "10",
            "--geometry", str(workspace / "geometry.json"), "--out", str(workspace / "gt.jsonl"),
        ])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {second}: line 6: column 'x' is not a number: 'x'\n"
        )

    def test_bad_geodetic_target_names_its_line(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr(_util, "usable_cpus", lambda: 2)  # the target parses in a worker
        ego, bad = workspace / "ego_geo.csv", workspace / "bad_geo.csv"
        header = "t,lat,lon,alt,ve,vn,heading_deg,yaw_rate\n"
        ego.write_text(header + "0,48.8,2.13,,0,1,0,0\n0.1,48.8,2.13,,0,1,0,0\n")
        bad.write_text(header + "0,48.8,2.13,,0,1,0,0\n0.1,95.0,2.13,,0,1,0,0\n")
        rc = main([
            "generate", "--frame", "geodetic", "--ego", str(ego), "--target", str(bad),
            "--rate", "10", "--geometry", str(workspace / "geometry.json"),
            "--out", str(workspace / "gt.jsonl"),
        ])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {bad}: line 3: lat must be in [-90, 90], got 95.0\n"
        )

    def test_dead_worker_exits_1(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
        parse = cli.parse_trajectory_log
        sim = simulate(workspace)
        lead = str(sim / "lead_clean.csv")

        def die_on_lead(path, **kwargs):
            if path == lead:
                os._exit(3)
            return parse(path, **kwargs)

        monkeypatch.setattr(cli, "parse_trajectory_log", die_on_lead)
        rc = main([
            "generate", "--ego", str(sim / "ego_clean.csv"), "--target", lead,
            "--rate", "10", "--geometry", str(workspace / "geometry.json"),
            "--out", str(workspace / "gt.jsonl"),
        ])
        assert rc == EXIT_FAILURE
        assert "exited with status 3 before sending its results" in capsys.readouterr().err
        assert not (workspace / "gt.jsonl").exists()

    def test_overlong_cell_is_usage_error(self, workspace, capsys):
        sim = simulate(workspace)
        lines = (sim / "lead_clean.csv").read_text().splitlines(keepends=True)
        lines[3] = "1" * 131_073 + lines[3][lines[3].index(","):]
        bad = workspace / "long.csv"
        bad.write_text("".join(lines))
        rc = main([
            "generate", "--ego", str(sim / "ego_clean.csv"), "--target", str(bad),
            "--rate", "10",
            "--geometry", str(workspace / "geometry.json"),
            "--out", str(workspace / "gt.jsonl"),
        ])
        assert rc == EXIT_USAGE
        assert "line 4: malformed CSV: field larger than field limit" in capsys.readouterr().err

    def test_per_target_clock(self, workspace):
        sim = simulate(workspace)
        clock = workspace / "clock.json"
        clock.write_text(json.dumps({"lead_clean": {"offset": 0.001}}))
        out = workspace / "gt.jsonl"
        rc = main([
            "generate", "--ego", str(sim / "ego_clean.csv"),
            "--target", str(sim / "lead_clean.csv"),
            "--rate", "10",
            "--geometry", str(workspace / "geometry.json"),
            "--clock", str(clock),
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        first = json.loads(out.read_text().splitlines()[0])
        # 25 m/s * 1 ms sampling advance
        assert first["x"] - 30.0 == pytest.approx(0.025, abs=1e-6)

    def test_unknown_clock_key_is_usage_error(self, workspace, capsys):
        clock = workspace / "clock.json"
        clock.write_text(json.dumps({"lead_clean": {"ofset": 0.01}}))
        rc, _ = self.generate(workspace, "--clock", str(clock))
        assert rc == EXIT_USAGE
        assert "'ofset'" in capsys.readouterr().err

    def test_clock_id_matching_no_log_is_usage_error(self, workspace, capsys):
        sim = simulate(workspace)
        clock = workspace / "clock.json"
        clock.write_text(json.dumps({"lead": {"offset": 0.5}}))
        rc = main([
            "generate", "--ego", str(sim / "ego_noisy.csv"),
            "--target", str(sim / "lead_noisy.csv"), "--rate", "10",
            "--geometry", str(workspace / "geometry.json"), "--clock", str(clock),
            "--out", str(workspace / "gt.jsonl"),
        ])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "['lead']" in err and "['ego_noisy', 'lead_noisy']" in err

    @pytest.mark.parametrize("geometry", [
        {"lenght": 4.0, "width": 2.0},
        {"lead_clean": {"length": 4.0, "width": 2.0, "lenght": 5.0}},
    ])
    def test_unknown_geometry_key_is_usage_error(self, workspace, capsys, geometry):
        (workspace / "geometry.json").write_text(json.dumps(geometry))
        rc, _ = self.generate(workspace)
        assert rc == EXIT_USAGE
        assert "'lenght'" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["1e300", "1e308"])
    def test_rate_past_2_59_stamps_names_the_rate(self, workspace, capsys, rate):
        """Refused before any stamp is made: 6 s of logs at this rate."""
        rc, out = self.generate(workspace, "--rate", rate)
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: rate {float(rate):g} Hz over [0, 6] gives more than 2**59 stamps\n"
        )
        assert not out.exists()

    def test_geometry_id_matching_no_target_is_usage_error(self, workspace, capsys):
        (workspace / "geometry.json").write_text(json.dumps({
            "lead_clean": {"length": 4.0, "width": 2.0},
            "lead": {"length": 9.0, "width": 3.0},
        }))
        rc, _ = self.generate(workspace)
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "geometry.json: geometry id(s) ['lead'] match no target" in err
        assert "target ids are ['lead_clean']" in err

    @pytest.mark.parametrize("blank, expected", [("ego", EXIT_FAILURE), ("lead", EXIT_OK)])
    def test_bounds_need_a_logged_ego_yaw_rate(self, workspace, capsys, blank, expected):
        """Without one, the ego yaw rate is the derivative of the noisy yaw
        and vel_bound, which assumes sigma_psi_dot, would not hold."""
        sim = simulate(workspace)
        for name in ("ego", "lead"):
            lines = (sim / f"{name}_noisy.csv").read_text().splitlines(keepends=True)
            if name == blank:
                lines[1:] = [line.rsplit(",", 1)[0] + ",\n" for line in lines[1:]]
            (workspace / f"{name}.csv").write_text("".join(lines))
        out = workspace / "gt.jsonl"
        rc = main([
            "generate", "--ego", str(workspace / "ego.csv"),
            "--target", str(workspace / "lead.csv"), "--rate", "10",
            "--geometry", str(workspace / "geometry.json"),
            "--noise", str(workspace / "noise.json"),
            "--envelope", str(workspace / "envelope.json"), "--out", str(out),
        ])
        assert rc == expected
        if expected == EXIT_FAILURE:
            assert "ego 'ego' has no yaw rate" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert "vel_bound" in json.loads(out.read_text().splitlines()[0])

    def test_zone_with_utm_input_is_usage_error(self, workspace, capsys):
        rc, out = self.generate(workspace, "--frame", "utm", "--zone", "99")
        assert rc == EXIT_USAGE
        assert "--zone applies to geodetic input only" in capsys.readouterr().err
        assert not out.exists()

    def test_zone_out_of_range_is_flag_error(self, workspace, capsys):
        rc, out = self.generate(workspace, "--frame", "geodetic", "--zone", "99")
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == "error: --zone must be in 1..60, got 99\n"
        assert not out.exists()


class TestBounds:
    def test_reference_output(self, workspace, capsys):
        rc = main(["bounds", "--noise", str(workspace / "noise.json"),
                   "--envelope", str(workspace / "envelope.json")])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["convention"] == "half_exponent"
        assert report["position"]["rms"] == pytest.approx(0.120231025)
        assert report["velocity"]["rms"] == pytest.approx(0.300713692)
        assert report["velocity"]["c"] == pytest.approx(
            report["velocity"]["a"] * report["velocity"]["b"], rel=1e-6
        )
        assert report["yaw"]["var"] == pytest.approx(6.125e-6)

    def test_printed_convention(self, workspace, capsys):
        rc = main(["bounds", "--noise", str(workspace / "noise.json"),
                   "--envelope", str(workspace / "envelope.json"),
                   "--convention", "printed"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["position"]["rms"] == pytest.approx(0.155532213)

    def test_bad_noise_file(self, workspace):
        bad = workspace / "n.json"
        bad.write_text(json.dumps({"sigma_pos": 0.02}))
        rc = main(["bounds", "--noise", str(bad),
                   "--envelope", str(workspace / "envelope.json")])
        assert rc == EXIT_USAGE


class TestValidate:
    def test_passes_and_reports(self, workspace, capsys):
        rc = main(["validate", "--noise", str(workspace / "noise.json"),
                   "--samples", "20000", "--seed", "123"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "trig_moments_grid", "exact_position_covariance", "yaw_variance",
            "bound_domination", "trig_mix_bound",
        ]
        assert all(c["passed"] for c in report["checks"])

    def test_deterministic_output(self, workspace, capsys):
        args = ["validate", "--noise", str(workspace / "noise.json"),
                "--samples", "20000", "--seed", "9"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_run_validation_is_certify_binding(self):
        assert cli.run_validation is certify.run_validation

    def test_one_covariance_run_per_config(self, monkeypatch):
        calls = []
        kernel = uncert.monte_carlo_covariance

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(uncert, "monte_carlo_covariance", counting)
        report = cli.run_validation(uncert.ANALYSIS_NOISE, uncert.ANALYSIS_ENVELOPE, 2000, 5)
        assert len(calls) == 10
        assert report["passed"] is True

    def test_domination_reads_the_shared_runs(self, monkeypatch):
        nm, env = uncert.ANALYSIS_NOISE, uncert.ANALYSIS_ENVELOPE
        vel_b = uncert.velocity_bound(nm, env, uncert.DEFAULT_CONVENTION)
        # Position a, b, c, yaw, velocity a, b, c: estimates, then standard errors.
        over = (np.array([1e-4, 1e-4, 0.0, uncert.yaw_variance(nm),
                          vel_b.a + 1.0, vel_b.b + 1.0, 0.0]),
                np.array([1e-4, 1e-4, 0.0, 1e-6, 1e-4, 1e-4, 0.0]))
        kernel = uncert.monte_carlo_covariance

        def exact_check_runs_over(*args):
            # Only the exact check's MC seeds, seed + 7000 + i, read over the bound.
            return over if 7000 <= args[-1] - 5 < 7010 else kernel(*args)

        monkeypatch.setattr(uncert, "monte_carlo_covariance", exact_check_runs_over)
        report = cli.run_validation(nm, env, 2000, 5)
        (check,) = [c for c in report["checks"] if c["name"] == "bound_domination"]
        assert check["velocity_mc_configs"] == 10
        assert check["violations"] == 20
        assert check["min_margin"] == pytest.approx(-1.0)
        assert check["passed"] is False
        assert report["passed"] is False

    @pytest.mark.parametrize("check_name", ["exact_position_covariance", "yaw_variance"])
    def test_zero_se_with_a_gap_fails(self, monkeypatch, check_name):
        """An estimate off the exact value with a standard error of exactly
        0 reads z = inf and fails, as on the trig grid."""
        kernel = uncert.monte_carlo_covariance
        entries = [3] if check_name == "yaw_variance" else [0, 1, 2]

        def exact_se(*args):
            mc, se = kernel(*args)
            se[entries] = 0.0
            return mc, se

        monkeypatch.setattr(uncert, "monte_carlo_covariance", exact_se)
        report = cli.run_validation(uncert.ANALYSIS_NOISE, uncert.ANALYSIS_ENVELOPE, 2000, 5)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks[check_name]["max_abs_z"] == float("inf")
        assert checks[check_name]["passed"] is False
        assert report["passed"] is False

    def test_zero_se_without_a_gap_passes(self, monkeypatch):
        nm, env = uncert.ANALYSIS_NOISE, uncert.ANALYSIS_ENVELOPE
        kernel = uncert.monte_carlo_covariance

        def exact_run(ego, target, *args):
            mc, se = kernel(ego, target, *args)
            mc[:3] = certify._exact_position_covariance(nm, [(ego, target)])[:, 0]
            mc[3] = uncert.yaw_variance(nm)
            se[:4] = 0.0
            return mc, se

        monkeypatch.setattr(uncert, "monte_carlo_covariance", exact_run)
        report = cli.run_validation(nm, env, 2000, 5)
        checks = {c["name"]: c for c in report["checks"]}
        for name in ("exact_position_covariance", "yaw_variance"):
            assert checks[name]["max_abs_z"] == 0.0 and checks[name]["passed"] is True


    @pytest.mark.parametrize("noise", [
        {"sigma_pos": 0.0, "sigma_vel": 0.0, "sigma_psi": 0.0, "sigma_psi_dot": 0.0},
        {**NOISE, "sigma_pos": 0.0, "sigma_psi": 0.0},
    ])
    def test_no_position_noise_is_refused(self, tmp_path, capsys, monkeypatch, noise):
        """Every position draw would be the same value, whose Monte Carlo
        variance is round-off: refused before any draw, naming the file."""
        path = tmp_path / "still.json"
        path.write_text(json.dumps(noise))
        monkeypatch.setattr(cli, "run_validation", lambda *args: pytest.fail("ran"))
        rc = main(["validate", "--noise", str(path), "--samples", "2000", "--seed", "1"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (f"error: {path}: sigma_pos and sigma_psi are both 0, "
                       "so there is no position noise to certify\n")

    @pytest.mark.parametrize("sigma_psi, seed", [(0.0, 3), (1e-9, 1)])
    def test_tiny_yaw_noise_passes(self, tmp_path, capsys, sigma_psi, seed):
        """With no or almost no yaw noise the bound diagonal ties the exact
        variance; the closed forms keep that tie on the right side."""
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({**NOISE, "sigma_psi": sigma_psi}))
        rc = main(["validate", "--noise", str(path), "--samples", "2000",
                   "--seed", str(seed)])
        report = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in report["checks"] if not c["passed"]] == []
        assert rc == EXIT_OK


class TestCalibrate:
    def test_recovers_transform(self, workspace, capsys):
        x = Transform(theta=0.3, tx=1.2, ty=-0.4)
        t = np.arange(150) * 0.1
        poses = np.stack([t, 2.0 * t, np.sin(t), 1.5 * np.sin(0.7 * t)], axis=1)
        write_pose_stream(poses, workspace / "a.csv")
        write_pose_stream(compose(poses, x), workspace / "b.csv")
        rc = main(["calibrate", "--stream-a", str(workspace / "a.csv"),
                   "--stream-b", str(workspace / "b.csv")])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["theta"] == pytest.approx(0.3, abs=1e-9)
        assert report["tx"] == pytest.approx(1.2, abs=1e-9)
        assert report["ty"] == pytest.approx(-0.4, abs=1e-9)

    def test_degenerate_motion_fails(self, workspace):
        t = np.arange(50) * 0.1
        poses = np.stack([t, 2.0 * t, np.zeros_like(t), np.zeros_like(t)], axis=1)
        write_pose_stream(poses, workspace / "a.csv")
        write_pose_stream(poses, workspace / "b.csv")
        rc = main(["calibrate", "--stream-a", str(workspace / "a.csv"),
                   "--stream-b", str(workspace / "b.csv")])
        assert rc == EXIT_FAILURE

    def test_overlong_cell_is_usage_error(self, workspace, capsys):
        t = np.arange(20) * 0.1
        write_pose_stream(np.stack([t, t, t, np.sin(t)], axis=1), workspace / "a.csv")
        lines = (workspace / "a.csv").read_text().splitlines(keepends=True)
        lines[5] = lines[5].rstrip("\n") + "9" * 131_073 + "\n"
        (workspace / "b.csv").write_text("".join(lines))
        rc = main(["calibrate", "--stream-a", str(workspace / "a.csv"),
                   "--stream-b", str(workspace / "b.csv")])
        assert rc == EXIT_USAGE
        assert "line 6: malformed CSV: field larger than field limit" in capsys.readouterr().err

    def test_repeated_stamp_names_its_line(self, workspace, capsys):
        t = np.arange(20) * 0.1
        write_pose_stream(np.stack([t, t, t, np.sin(t)], axis=1), workspace / "a.csv")
        t[2] = t[1]
        write_pose_stream(np.stack([t, t, t, np.sin(t)], axis=1), workspace / "b.csv")
        rc = main(["calibrate", "--stream-a", str(workspace / "a.csv"),
                   "--stream-b", str(workspace / "b.csv")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {workspace / 'b.csv'}: line 4: pose timestamps must increase strictly\n"
        )


class TestExportPlot:
    def test_channel_csv(self, workspace, capsys):
        sim = simulate(workspace)
        gt = workspace / "gt.jsonl"
        main([
            "generate", "--ego", str(sim / "ego_clean.csv"),
            "--target", str(sim / "lead_clean.csv"), "--rate", "10",
            "--geometry", str(workspace / "geometry.json"), "--out", str(gt),
        ])
        out = workspace / "x.csv"
        rc = main(["export-plot", "--gt", str(gt), "--channel", "x",
                   "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == 62
        assert float(lines[1].split(",")[1]) == pytest.approx(30.0, abs=1e-6)

    def test_unknown_target_fails(self, workspace):
        sim = simulate(workspace)
        gt = workspace / "gt.jsonl"
        main([
            "generate", "--ego", str(sim / "ego_clean.csv"),
            "--target", str(sim / "lead_clean.csv"), "--rate", "10",
            "--geometry", str(workspace / "geometry.json"), "--out", str(gt),
        ])
        rc = main(["export-plot", "--gt", str(gt), "--channel", "x",
                   "--target", "ghost", "--out", str(workspace / "x.csv")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("yaw_var", ["-1.0", "NaN"])
    def test_bad_yaw_var_is_usage_error(self, workspace, capsys, yaw_var):
        gt = workspace / "gt.jsonl"
        gt.write_text(
            '{"t": 1.5, "target_id": "lead", "x": 30, "y": 0, "vx": 0, "vy": 0, "psi": 0, '
            '"bbox": [[32, 1], [32, -1], [28, -1], [28, 1]], '
            '"pos_bound": {"a": 0.0085, "b": 0.0085, "c": 0.0057}, '
            f'"vel_bound": {{"a": 0.064, "b": 0.064, "c": 0.0041}}, "yaw_var": {yaw_var}}}\n'
        )
        rc = main(["export-plot", "--gt", str(gt), "--channel", "x",
                   "--out", str(workspace / "x.csv")])
        assert rc == EXIT_USAGE
        assert "line 1: bad record: yaw_var must be >= 0 and finite" in capsys.readouterr().err

    def test_bad_channel_rejected(self, workspace, capsys):
        rc = main(["export-plot", "--gt", "x", "--channel", "altitude",
                   "--out", "y"])
        assert rc == EXIT_USAGE


UTM_HEADER = "t,x,y,alt,vx,vy,psi_rad,psi_dot\n"
RECORD = ('{"t": 1.5, "target_id": "lead", "x": 30, "y": 0, "vx": 0, "vy": 0, '
          '"psi": %s, "bbox": [[32, 1], [32, -1], [28, -1], [28, 1]]}\n')
GENERATE = ["generate", "--ego", "{sim}/ego_clean.csv", "--target", "{sim}/lead_clean.csv",
            "--geometry", "{ws}/geometry.json", "--out", "{ws}/gt.jsonl"]


class TestInputErrorsNameTheirFile:
    """An error found in an input file names that file."""

    # (file name, its malformed text, the arguments that read it, with
    # {bad} its path, {ws} the workspace and {sim} the simulated logs, and
    # the message that follows "error: <path>: ")
    @pytest.mark.parametrize("name, text, argv, message", [
        pytest.param(
            "tail.csv", UTM_HEADER + "0,0,0,,10,0,0,0\n0.1,1,0,,10,0,0,0\n0.2,abc,0,,10,0,0,0\n",
            [*GENERATE, "--target", "{bad}", "--rate", "10"],
            "line 4: column 'x' is not a number: 'abc'", id="utm-log-cell"),
        pytest.param(
            "tail.csv", UTM_HEADER + "0,0,0,,10,0,0,0\n0.1,1,0,,10,0,0,0\n0.1,2,0,,10,0,0,0\n",
            [*GENERATE, "--target", "{bad}", "--rate", "10"],
            "line 4: t=0.1 does not increase past t=0.1 on line 3", id="utm-log-time-order"),
        pytest.param(
            "ego_geo.csv", "t,lat,lon,alt,ve,vn,heading_deg,yaw_rate\n"
            "0,48.8,2.13,,0,1,0,0\n0.1,95.0,2.13,,0,1,0,0\n",
            ["generate", "--frame", "geodetic", "--ego", "{bad}", "--target",
             "{sim}/lead_clean.csv", "--geometry", "{ws}/geometry.json", "--out", "{ws}/gt.jsonl",
             "--rate", "10"],
            "line 3: lat must be in [-90, 90], got 95.0", id="geodetic-log"),
        pytest.param("stamps.txt", "1.0\nx\n", [*GENERATE, "--stamps", "{bad}"],
                     "line 2: bad stamp 'x'", id="stamps-bad"),
        pytest.param("stamps.txt", "\n\n", [*GENERATE, "--stamps", "{bad}"],
                     "line 1: stamp file has no values", id="stamps-empty"),
        pytest.param(
            "gt.jsonl", RECORD % "0" + RECORD % "4.0",
            ["export-plot", "--gt", "{bad}", "--channel", "x", "--out", "{ws}/x.csv"],
            "line 2: bad record: psi must be in (-pi, pi], got 4.0", id="records-psi"),
        pytest.param(
            "gt.jsonl", RECORD % "0" + RECORD.replace("[28, 1]]", "[28, NaN]]") % "0",
            ["export-plot", "--gt", "{bad}", "--channel", "x", "--out", "{ws}/x.csv"],
            "line 2: bad record: bbox[3][1] must be finite, got nan", id="records-bbox"),
        pytest.param(
            "gt.jsonl", RECORD % "0" + RECORD % "x",
            ["export-plot", "--gt", "{bad}", "--channel", "x", "--out", "{ws}/x.csv"],
            "line 2: invalid JSON: Expecting value: line 1 column 75 (char 74)",
            id="records-json"),
        pytest.param(
            "poses.csv", "t,x,y,theta\n0,0,0,0\n0.1,1,0,q\n",
            ["calibrate", "--stream-a", "{bad}", "--stream-b", "{bad}"],
            "line 3: column 'theta' is not a number: 'q'", id="pose-stream"),
        pytest.param("geometry.json", "{}", [*GENERATE, "--rate", "10"],
                     "no geometry given for target(s) ['lead_clean']", id="geometry-empty"),
        pytest.param(
            "geometry.json", '{"lead_clean": {"length": 4.0, "width": 2.0}}',
            [*GENERATE, "--target", "{sim}/lead_noisy.csv", "--rate", "10"],
            "no geometry given for target(s) ['lead_noisy']", id="geometry-partial"),
        pytest.param(
            "noise_bad.json", '{"sigma_pos": 0.02}',
            [*GENERATE, "--rate", "10", "--noise", "{bad}", "--envelope", "{ws}/envelope.json"],
            "missing required field(s) ['sigma_psi', 'sigma_vel']", id="noise"),
        pytest.param(
            "envelope_bad.json", "{oops}",
            [*GENERATE, "--rate", "10", "--noise", "{ws}/noise.json", "--envelope", "{bad}"],
            "invalid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)", id="envelope"),
        pytest.param(
            "clock.json", '{"lead": {"offset": 0.5}}',
            [*GENERATE, "--rate", "10", "--clock", "{bad}"],
            "clock id(s) ['lead'] match no log; log ids are ['ego_clean', 'lead_clean']",
            id="clock"),
    ])
    def test_malformed_input_exits_2_naming_it(
        self, workspace, capsys, name, text, argv, message
    ):
        sim = simulate(workspace)
        bad = workspace / name
        bad.write_text(text)
        assert main([arg.format(bad=bad, ws=workspace, sim=sim) for arg in argv]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_short_pose_stream(self, workspace, capsys):
        t = np.arange(20) * 0.1
        poses = np.stack([t, t, t, np.sin(t)], axis=1)
        write_pose_stream(poses, workspace / "a.csv")
        write_pose_stream(poses[:1], workspace / "b.csv")
        rc = main(["calibrate", "--stream-a", str(workspace / "a.csv"),
                   "--stream-b", str(workspace / "b.csv")])
        assert rc == EXIT_FAILURE
        assert capsys.readouterr().err == (
            f"error: {workspace / 'b.csv'}: need at least 2 poses, got 1\n"
        )


class TestHugeConfigValue:
    """A finite config value that gives no finite bound exits 2 with one error
    line naming the configs, before any other work: 1e200 overflows as it is
    squared, 1e154 squares to a finite value but gives an infinite bound, and
    1e60 gives finite bounds whose rms overflows."""

    @pytest.mark.parametrize("config, value, argv", [
        ("envelope", {"d_max": 1e200}, ["bounds", "--noise", "{ws}/noise.json"]),
        ("noise", {"sigma_pos": 1e200}, ["bounds", "--envelope", "{ws}/envelope.json"]),
        ("noise", {"sigma_pos": 1e200}, ["validate", "--samples", "100", "--seed", "1"]),
        ("envelope", {"d_max": 1e200}, [*GENERATE, "--rate", "10", "--noise", "{ws}/noise.json"]),
        ("envelope", {"d_max": 1e154}, ["bounds", "--noise", "{ws}/noise.json"]),
        ("envelope", {"d_max": 1e154},
         ["validate", "--samples", "100", "--seed", "1", "--noise", "{ws}/noise.json"]),
        ("envelope", {"d_max": 1e154}, [*GENERATE, "--rate", "10", "--noise", "{ws}/noise.json"]),
        ("envelope", {"d_max": 1e60}, ["bounds", "--noise", "{ws}/noise.json"]),
    ], ids=["bounds-d_max", "bounds-sigma_pos", "validate-sigma_pos", "generate-d_max",
            "bounds-d_max-inf", "validate-d_max-inf", "generate-d_max-inf", "bounds-rms"])
    def test_exits_2(self, workspace, capsys, config, value, argv):
        sim = simulate(workspace)
        capsys.readouterr()
        huge = workspace / f"huge_{config}.json"
        huge.write_text(json.dumps({**(NOISE if config == "noise" else ENVELOPE), **value}))
        argv = [arg.format(ws=workspace, sim=sim) for arg in [*argv, f"--{config}", str(huge)]]
        configs = [argv[argv.index(flag) + 1] for flag in ("--noise", "--envelope")
                   if flag in argv]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {' and '.join(configs)}: values too large for finite bounds: "
        )
        assert captured.err.count("\n") == 1 and not captured.out
        assert not (workspace / "gt.jsonl").exists()

    def test_generate_checks_the_bounds_before_the_logs(self, workspace, capsys):
        huge = workspace / "huge_envelope.json"
        huge.write_text(json.dumps({**ENVELOPE, "d_max": 1e154}))
        argv = [arg.format(ws=workspace, sim=workspace / "none") for arg in GENERATE]
        assert main([*argv, "--rate", "10", "--noise", str(workspace / "noise.json"),
                     "--envelope", str(huge)]) == EXIT_USAGE
        assert "values too large for finite bounds" in capsys.readouterr().err


class TestNotUtf8:
    """A byte that is not UTF-8 names the file, its line and its offset in
    the file, also past the reader's first chunk."""

    @staticmethod
    def spoil(path, line_no):
        """Put a 0xff byte at the start of line line_no; (line, offset)."""
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line_no - 1] = b"\xff" + lines[line_no - 1]
        data = b"".join(lines)
        path.write_bytes(data)
        return line_no, data.index(b"\xff")

    @staticmethod
    def expect(capsys, path, where):
        line, offset = where
        assert capsys.readouterr().err == (
            f"error: {path}: line {line}: not utf-8 text: byte 0xff at offset {offset}\n"
        )

    def generate(self, workspace, sim, *extra):
        return main([
            "generate", "--ego", str(sim / "ego_clean.csv"),
            "--target", str(sim / "lead_clean.csv"),
            "--geometry", str(workspace / "geometry.json"),
            "--out", str(workspace / "gt.jsonl"), *(extra or ("--rate", "10")),
        ])

    def test_log(self, workspace, capsys):
        sim = simulate(workspace)
        where = self.spoil(sim / "lead_clean.csv", 100)
        assert self.generate(workspace, sim) == EXIT_USAGE
        self.expect(capsys, sim / "lead_clean.csv", where)

    def test_pose_stream(self, workspace, capsys):
        t = np.arange(4000) * 0.1
        poses = np.stack([t, t, np.sin(t), np.sin(t)], axis=1)
        write_pose_stream(poses, workspace / "a.csv")
        write_pose_stream(poses, workspace / "b.csv")
        where = self.spoil(workspace / "a.csv", 3002)
        assert where[1] > 65536  # well past the text reader's first chunk
        rc = main(["calibrate", "--stream-a", str(workspace / "a.csv"),
                   "--stream-b", str(workspace / "b.csv")])
        assert rc == EXIT_USAGE
        self.expect(capsys, workspace / "a.csv", where)

    @pytest.mark.parametrize("end", ["\r", "\r\n"])
    def test_line_ends(self, workspace, capsys, end):
        rows = "".join(f"{i},{i},0,0{end}" for i in range(6))
        (workspace / "a.csv").write_text(f"t,x,y,theta{end}{rows}", newline="")
        (workspace / "b.csv").write_text(f"t,x,y,theta{end}{rows}", newline="")
        where = self.spoil(workspace / "a.csv", 4)
        rc = main(["calibrate", "--stream-a", str(workspace / "a.csv"),
                   "--stream-b", str(workspace / "b.csv")])
        assert rc == EXIT_USAGE
        self.expect(capsys, workspace / "a.csv", where)

    def test_stamps(self, workspace, capsys):
        sim = simulate(workspace)
        stamps = workspace / "stamps.txt"
        stamps.write_text("1.0\n2.0\n3.0\n")
        where = self.spoil(stamps, 2)
        assert self.generate(workspace, sim, "--stamps", str(stamps)) == EXIT_USAGE
        self.expect(capsys, stamps, where)

    def test_json_config(self, workspace, capsys):
        sim = simulate(workspace)
        geometry = workspace / "geometry.json"
        geometry.write_text('{\n"length": 4.0,\n"width": 2.0}\n')
        where = self.spoil(geometry, 3)
        assert self.generate(workspace, sim) == EXIT_USAGE
        self.expect(capsys, geometry, where)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_version(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out.strip()


# Input errors exit 2; every other toolkit error is a computation failure.
EXIT_CODES = {
    errors.GtForgeError: EXIT_FAILURE,
    errors.CoordinateError: EXIT_USAGE,
    errors.ParseError: EXIT_USAGE,
    ValueError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    MemoryError: EXIT_FAILURE,
}

# Error classes since folded into the kept ones: the type their raise sites
# use now, and the exit code they had, which must not change.
FOLDED = {
    "InvalidCoordinate": (errors.CoordinateError, EXIT_USAGE),
    "OutOfZone": (errors.CoordinateError, EXIT_USAGE),
    "MissingColumn": (errors.ParseError, EXIT_USAGE),
    "NonMonotonicTimestamps": (ValueError, EXIT_USAGE),
    "ZoneMismatch": (ValueError, EXIT_USAGE),
    "TooFewSamples": (errors.GtForgeError, EXIT_FAILURE),
    "OutOfSupport": (errors.GtForgeError, EXIT_FAILURE),
    "MissingYawRate": (errors.GtForgeError, EXIT_FAILURE),
    "TooFewPoses": (errors.GtForgeError, EXIT_FAILURE),
    "LengthMismatch": (errors.GtForgeError, EXIT_FAILURE),
    "DegenerateMotion": (errors.GtForgeError, EXIT_FAILURE),
}


@pytest.mark.parametrize(
    ("error", "code"),
    [pytest.param(c, EXIT_CODES[c], id=c.__name__)
     for c in [*vars(errors).values(), ValueError, OSError, MemoryError]
     if isinstance(c, type) and issubclass(c, Exception)]
    + [pytest.param(*case, id=name) for name, case in FOLDED.items()],
)
def test_every_error_class_has_its_exit_code(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_bounds", fail)
    assert main(["bounds", "--noise", "n.json", "--envelope", "e.json"]) == code
    assert "error: boom" in capsys.readouterr().err
