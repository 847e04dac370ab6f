import argparse
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import resource
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gevrey_bbm
from gevrey_bbm import analytics, errors, evolution
from gevrey_bbm.cli import (
    COMMANDS,
    EXIT_CONFIG,
    _parse,
    apply_overrides,
    load_config,
    main,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
README = pathlib.Path(__file__).parents[1] / "README.md"


def run_child(*args):
    """Run python with args in a child that imports this package, capped at
    1.5 GB and 60 s, so that a runaway fails instead of taking the host's
    memory."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2)

    package_root = str(pathlib.Path(gevrey_bbm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60, env=env, preexec_fn=cap_memory)


def run(tmp_path, command, **overrides):
    """Invoke the CLI in-process, returning (exit_code, parsed_json)."""
    out = tmp_path / "out.json"
    argv = [command, "--output_json", str(out)]
    for key, value in overrides.items():
        argv += [f"--{key}", str(value)]
    code = main(argv)
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


class TestConfigHandling:
    def test_missing_file_exits_2(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_dangling_override_exits_2(self, capsys):
        assert main(["simulate", "--t_end"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_initial_data_exits_2(self, capsys):
        assert main(["simulate", "--data", "square-wave"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nn_points = 64\nt_end = 0.5\n")
        config = load_config(str(cfg))
        assert config["n_points"] == "64"
        config = apply_overrides(config, ["--t_end", "1.5"])
        assert config["t_end"] == "1.5"
        # untouched keys keep their defaults
        assert config["alpha"] == "2.0"

    def test_config_file_keys_keep_their_case(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[schedule]\nT = 0.5\nC1 = 1.0\nC2 = 1.0\n")
        code, payload = run(tmp_path, "schedule", config=cfg)
        assert code == 0
        assert payload["horizon_T"] == 0.5
        assert payload["delta"] == 0.125  # from C1 = 1, not the shipped C1

    @pytest.mark.parametrize("flag", ["--n_point", "--jobs", "--kind", "--s",
                                      "--linear"])
    def test_unknown_override_exits_2(self, flag, capsys):
        assert main(["simulate", flag, "64"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_flat_file_runs(self, tmp_path):
        # no [section] line: configparser refused it (exit 1, traceback)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# schedule\n\nT = 0.5\nC1 = 1.0\n")
        code, payload = run(tmp_path, "schedule", config=cfg)
        assert code == 0 and payload["delta"] == 0.125

    def test_repeated_key_and_section_take_the_last_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nT = 0.5\n[run]\nT = 0.75\n")
        code, payload = run(tmp_path, "schedule", config=cfg)
        assert code == 0 and payload["horizon_T"] == 0.75

    def test_percent_in_a_value_is_plain_text(self, tmp_path):
        out = tmp_path / "r%1.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output_json = {out}\n")
        assert main(["schedule", "--config", str(cfg)]) == 0
        assert json.loads(out.read_text())["config"]["output_json"] == str(out)

    @pytest.mark.parametrize("text, line", [
        ("T = 0.5\nn_points 64\n", 2),  # no '='
        ("n_points: 64\n", 1),  # 'key: value' is not read
        ("; a comment\n", 1),  # nor are ';' comments
        ("T = 0.5\n    more\n", 2),  # nor continuation lines
        ("= 64\n", 1),  # no key
    ])
    def test_malformed_line_is_one_line_exit_2(self, tmp_path, text, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        done = run_child("-m", "gevrey_bbm.cli", "schedule", "--config",
                         str(cfg))
        bad = text.splitlines()[line - 1].strip()
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (f"config error: {cfg}, line {line}: expected "
                               f"key = value, got {bad!r}\n")

    @pytest.mark.parametrize("argv", [
        ["schedule", "--output_json", "/nonexistent/x.json"],
        ["simulate", "--output_csv", "/nonexistent/x.csv"],
        # a blowup's report cannot be written either
        ["simulate", "--amplitude", "1e13", "--output_json", "/nonexistent/x.json"],
        ["schedule", "--config", "/"],  # a directory is no config file
    ])
    def test_unusable_path_is_one_line_exit_2(self, argv):
        # an unwritable output was a FileNotFoundError traceback (exit 1)
        # after the whole run
        done = run_child("-m", "gevrey_bbm.cli", *argv, "--n_points", "64",
                         "--dt", "0.01", "--t_end", "0.1")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("config error: ")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

    @pytest.mark.parametrize("key", ["output_csv", "output_json"])
    def test_unusable_path_exits_2_before_the_run(self, key, tmp_path,
                                                  monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(evolution, "_march",
                            lambda *args: calls.append(args))
        for path in (tmp_path / "missing" / "x.out", tmp_path):
            assert main(["simulate", f"--{key}", str(path)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {key} = ") and err.count("\n") == 1
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_path_broken_during_the_run_exits_2(self, tmp_path, monkeypatch,
                                                capsys):
        out = tmp_path / "gone"
        out.mkdir()
        march = evolution._march

        def removing_march(*args):
            out.rmdir()
            return march(*args)

        monkeypatch.setattr(evolution, "_march", removing_march)
        assert main(["simulate", "--n_points", "64", "--t_end", "0.1",
                     "--output_csv", str(out / "x.csv")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_file_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nn_point = 64\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--sigma", "nan"],
        ["simulate", "--alpha", "inf"],
        ["conservation", "--delta", "0.1", "--C1", "nan"],
        ["conservation", "--C2", "nan"],
        ["conservation", "--sigma_grid", "nan"],
        ["conservation", "--sigma_grid", "inf"],
        ["verify-identities", "--fab_sigmas", "0.1,inf"],
    ])
    def test_non_finite_value_exits_2(self, argv, capsys):
        # each of these once ran: a NaN report (not JSON), a non-finite one,
        # or a false "overflows" exit 3
        assert main([*argv, "--n_points", "64"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["radius", "--noise_floor", "-1"],
        ["simulate", "--noise_floor", "-1"],
        ["simulate", "--width", "0"],
        ["conservation", "--width", "0"],
        ["conservation", "--sigma_grid", "0.1,0.1,0.1,0.1"],
    ])
    def test_out_of_range_value_exits_2(self, argv, capsys):
        # a negative noise floor once fitted log|0|; a zero width made a
        # non-finite state; a repeated sigma once fitted a meaningless slope
        assert main([*argv, "--n_points", "64", "--dt", "0.01", "--t_end",
                     "0.1", "--sample_every", "1", "--delta", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and argv[1][2:] in err

    @pytest.mark.parametrize("command", ["conservation", "sweep", "schedule"])
    @pytest.mark.parametrize("key", ["C1", "C2", "delta"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_constant_or_window_exits_2(self, command, key, value,
                                                     capsys):
        # a C2 <= 0 once gave a bound <= 0 that the defect could not meet,
        # and with delta given a C1 <= 0 was echoed as the calibration's c1;
        # the key's own flag comes last, so it wins over the delta given
        argv = [command, "--n_points", "64", "--sigma_grid", "0.1",
                "--delta", "0.1", f"--{key}", value]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: {key} = {value!r}: must be > 0\n")

    @pytest.mark.parametrize("argv", [
        ["conservation", "--sigma_grid", "0.1"],
        ["conservation"],
        ["sweep"],
    ])
    def test_zero_datum_asks_for_delta(self, argv, capsys):
        # its lifespan is infinite; the error once named t_end, which the
        # user never set, or an infinite delta, which the user never gave
        assert main([*argv, "--amplitude", "0", "--n_points", "64"]) == 2
        assert capsys.readouterr().err == (
            "config error: zero data has an infinite lifespan: set delta\n")

    @pytest.mark.parametrize("command", ["sweep", "conservation"])
    @pytest.mark.parametrize("dt", ["0", "-1e-3"])
    def test_non_positive_dt_exits_2(self, command, dt):
        done = run_child("-m", "gevrey_bbm.cli", command, "--dt", dt,
                         "--n_points", "64")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("config error: ") and "dt" in done.stderr
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

    @pytest.mark.parametrize("argv", [
        ["conservation", "--amplitude", "0"],
        ["sweep", "--amplitude", "0"],
        ["conservation", "--delta", "inf"],
        ["conservation", "--dt", "1e-3", "--delta", "4e-4"],
        ["radius", "--t_end", "inf"],
        ["simulate", "--t_end", "inf"],
        ["radius", "--t_end", "nan"],
        ["simulate", "--t_end", "nan"],
        ["simulate", "--t_end", "1e300", "--dt", "1e-10"],
        ["radius", "--t_end", "1e300", "--dt", "1e-10"],
        ["conservation", "--delta", "1e300", "--dt", "1e-10"],
        ["conservation", "--delta", "1e300"],
        ["simulate", "--t_end", "1e12", "--sample_every", "1000000000000"],
    ])
    def test_infinite_window_exits_2(self, argv):
        # zero data has an infinite lifespan, a non-finite horizon or one
        # whose quotient by dt overflows has no step count, a window under
        # half a step takes no step, and more than MAX_STEPS steps would
        # never finish: none can be simulated, and none may hang
        done = run_child("-m", "gevrey_bbm.cli", *argv, "--n_points", "64",
                         "--sigma_grid", "0.1")
        assert done.returncode == 2
        assert "config error" in done.stderr and done.stdout == ""


class TestSimulate:
    def test_csv_header_and_rows(self, tmp_path):
        csv_path = tmp_path / "run.csv"
        code, payload = run(tmp_path, "simulate", n_points=64, dt=0.01,
                            t_end=0.1, sample_every=5, output_csv=csv_path)
        assert code == 0
        with open(csv_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "l2", "h1", "energy", "h1_invariant", "sigma_est"]
        assert len(rows) > 2
        assert payload["final"]["t"] == pytest.approx(0.1)

    def test_zero_horizon_single_row(self, tmp_path):
        csv_path = tmp_path / "run.csv"
        code, _ = run(tmp_path, "simulate", n_points=64, dt=0.01, t_end=0.0,
                      output_csv=csv_path)
        assert code == 0
        with open(csv_path) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 2  # header + t = 0

    def test_too_many_samples_exits_2_at_once(self):
        # 10^8 steps at sample_every 100 are 10^6 + 1 samples: refused before
        # the sample set is built or a step is taken
        done = run_child("-m", "gevrey_bbm.cli", "simulate", "--n_points",
                         "64", "--t_end", "1e5")
        assert done.returncode == 2
        assert "config error" in done.stderr and done.stdout == ""

    def test_blowup_exits_3(self, tmp_path, capsys):
        code, payload = run(tmp_path, "simulate", n_points=64, dt=0.01,
                            t_end=0.1, amplitude=1e13)
        assert code == 3
        assert payload["error"] == "blowup"
        assert "simulation failure" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["-W", "error"]])
    def test_overflowing_data_exits_3_with_one_line(self, flags):
        # u^2 overflows on the first step: the blowup is the one line on
        # stderr, with no numpy warning before it (under -W error, no
        # traceback and exit 1 in its place)
        done = run_child(*flags, "-m", "gevrey_bbm.cli", "simulate",
                         "--n_points", "64", "--amplitude", "1e200",
                         "--t_end", "0.01")
        assert done.returncode == 3
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("simulation failure: non-finite state")
        assert json.loads(done.stdout)["error"] == "blowup"

    @pytest.mark.parametrize("flags", [[], ["-W", "error"]])
    def test_overflowing_wavenumbers_exit_2_with_one_line(self, flags):
        # at L = 1e-320, pi n / L overflows: the grid is a config error, not
        # three RuntimeWarnings and a non-finite state (exit 3)
        done = run_child(*flags, "-m", "gevrey_bbm.cli", "simulate",
                         "--n_points", "64", "--t_end", "0.01",
                         "--domain_length", "1e-320")
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: domain_length")
        assert done.stdout == ""


class TestVerifyIdentities:
    def test_small_run(self, tmp_path):
        code, payload = run(tmp_path, "verify-identities", k_max=3,
                            coordinate_range=3, symbolic_k_max=2,
                            fab_samples=500, fab_sigmas="0.1")
        assert code == 0
        identity = payload["identity"]
        assert identity["all_equal"] is True
        assert identity["max_defect"] == "0"
        assert identity["special_cases"]["k=1"] == "3·ξ₁ξ₂ξ₃"
        assert identity["special_cases"]["k=2"] == "−5·ξ₁ξ₂ξ₃·e₂"
        assert payload["series_bound"]["0.1"]["max_ratio"] > 0

    def test_negative_symbolic_k_max_exits_2(self, tmp_path, capsys):
        code, payload = run(tmp_path, "verify-identities", k_max=1,
                            coordinate_range=2, symbolic_k_max=-3)
        assert code == 2 and payload is None
        assert "config error" in capsys.readouterr().err

    def test_large_sigma_has_a_finite_ratio(self, tmp_path):
        # sigma*|xi| up to 200: far past direct summation, fine in closed form
        code, payload = run(tmp_path, "verify-identities", k_max=1,
                            coordinate_range=2, symbolic_k_max=0, fab_sigmas=5)
        assert code == 0
        assert math.isfinite(payload["series_bound"]["5.0"]["max_ratio"])

    def test_overflowing_sigma_exits_3(self, tmp_path, capsys):
        code, payload = run(tmp_path, "verify-identities", k_max=1,
                            coordinate_range=2, symbolic_k_max=0, fab_sigmas=20)
        err = capsys.readouterr().err
        assert code == 3 and payload is None
        assert "simulation failure" in err and "overflow" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fab_sigmas, code", [
        ("0.1,20", 3), ("20,-1", 3), ("-1,20", 2), ("0.1,1e-200", 2)])
    def test_each_sigma_is_checked_in_order(self, fab_sigmas, code, tmp_path,
                                            capsys):
        # one draw serves every sigma; the first failing sigma sets the code
        assert run(tmp_path, "verify-identities", k_max=1, coordinate_range=2,
                   symbolic_k_max=0, fab_sigmas=fab_sigmas) == (code, None)
        assert capsys.readouterr().err.count("\n") == 1


class TestConservation:
    def test_sigma_zero_below_floor(self, tmp_path):
        code, payload = run(tmp_path, "conservation", n_points=128, dt=2e-3,
                            delta=1.0, sigma_grid="0.0")
        assert code == 0
        assert payload["slope"] is None
        (report,) = payload["reports"]
        assert report["sigma"] == 0.0
        assert report["bound_satisfied"] is True
        assert report["defect_abs"] < 1e-8

    @pytest.mark.parametrize("command", ["conservation", "sweep"])
    def test_overflowing_window_exits_3(self, command, tmp_path, capsys):
        # a Gaussian of width 4 dx reaches |coeff| ~ 5e-9 at the band's
        # largest xi, 33.5; at sigma = 12 its energy, about e^768, overflows,
        # which is no report
        code, payload = run(tmp_path, command, n_points=1024, delta=0.05,
                            width=0.25, sigma_grid=12)
        err = capsys.readouterr().err
        assert code == 3 and payload is None
        assert "simulation failure" in err and "overflow" in err

    @pytest.mark.parametrize("sigma", [20])
    def test_overflowing_lifespan_exits_3(self, sigma, tmp_path, capsys):
        # at sigma = 20 on L = 32 (sigma times the band's largest xi ~ 1340)
        # a Gaussian of width 4 dx has ||I u0|| ~ e^1321, past double range
        # even summed in the log domain
        code, payload = run(tmp_path, "conservation", sigma=sigma,
                            n_points=1024, domain_length=32, width=0.125,
                            sigma_grid=0.1)
        err = capsys.readouterr().err
        assert code == 3 and payload is None
        assert "simulation failure" in err and "Traceback" not in err
        assert "||I u0|| overflows" in err

    def test_tiny_finite_lifespan_exits_2(self, tmp_path, capsys):
        # at sigma = 8 (sigma * xi_max ~ 402) the linear weights overflow but
        # the norm of a Gaussian of width 4 dx, about 7e107, does not: the
        # window is real and takes no step of dt, which is a config error,
        # not an overflow
        code, payload = run(tmp_path, "conservation", sigma=8, n_points=1024,
                            width=0.25, sigma_grid=0.1)
        err = capsys.readouterr().err
        assert code == 2 and payload is None
        assert "delta = 8.532" in err and "e-109 rounds to zero steps" in err


    def test_tiny_data_is_not_zero_data(self, tmp_path, capsys):
        # ||I u0|| of amplitude 1e-170 once underflowed to 0, so the
        # datum was refused as zero data; its window is ~1.3e170
        code, payload = run(tmp_path, "conservation", amplitude=1e-170,
                            sigma_grid=0.1)
        err = capsys.readouterr().err
        assert code == 2 and payload is None
        assert "zero data" not in err and "steps" in err


class TestRadius:
    def test_check_exponent_follows_alpha(self, tmp_path):
        # at alpha = 3 the pointwise check runs against t^(-1/2), not the
        # alpha = 2 exponent 2/3
        code, payload = run(tmp_path, "radius", alpha=3, n_points=256, dt=0.1,
                            t_end=24, sample_every=12)
        assert code == 0
        t0, s0 = next((t, s) for t, s, r2 in payload["samples"]
                      if r2 >= analytics.FIT_R2_MIN and t >= analytics.FIT_T_MIN
                      and s > 0)
        assert payload["c_check"] == analytics.POINTWISE_SLACK * s0 * t0**0.5

    def test_report_does_not_depend_on_sigma(self, tmp_path):
        # the fit reads no energy: an overflowing one at --sigma once ended
        # the whole run with exit 3
        config = dict(n_points=256, dt=0.05, t_end=20, sample_every=20)
        code, default = run(tmp_path, "radius", **config)
        assert code == 0
        code, huge = run(tmp_path, "radius", sigma="1e308", **config)
        assert code == 0
        assert huge.pop("config")["sigma"] == "1e308"
        default.pop("config")
        assert huge == default

    def test_single_mode_band_exits_5(self, tmp_path, capsys):
        # one mode inside default_band's window is no band: every sample is
        # skipped, which is insufficient data (5), not a config error (2)
        config = dict(data="cosine", amplitude=1e-3, n_points=64, t_end=2,
                      dt=0.01, sample_every=1)
        code, payload = run(tmp_path, "radius", **config)
        assert code == 5 and payload is None
        assert "insufficient data" in capsys.readouterr().err
        code, payload = run(tmp_path, "simulate", **config)
        assert code == 0 and payload["samples"] == 201


class TestSchedule:
    def test_staircase_matches_formula(self, tmp_path):
        for T in (0.2, 0.5, 1.0, 5.0):
            code, payload = run(tmp_path, "schedule", T=T, sigma0=5.0,
                                C1=1.0, C2=1.0)
            assert code == 0
            n = math.floor(T / 0.125)
            expected = min(5.0, (2.0 / (n + 1)) ** (2.0 / 3.0))
            assert payload["n_steps"] == n
            assert payload["sigma_assigned"] == pytest.approx(expected)
            assert payload["all_checks_ok"] is True

    def test_huge_horizon_exits_0_at_once(self):
        # 8e300 windows cost one check, so the report stays small
        done = run_child("-m", "gevrey_bbm.cli", "schedule", "--T", "1e300")
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.encode()) < 2048
        payload = json.loads(done.stdout)
        assert len(payload["per_step_checks"]) == 1 and payload["all_checks_ok"]

    @pytest.mark.parametrize("flag", ["--T", "--sigma0", "--u0_norm", "--C1"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_input_exits_2(self, flag, value, capsys):
        assert main(["schedule", flag, value]) == 2
        assert "config error" in capsys.readouterr().err


class TestSweep:
    def test_small_sweep_reports_bounds(self, tmp_path):
        code, payload = run(tmp_path, "sweep", n_points=64, dt=5e-3,
                            delta=0.5, sigma_grid="0.05,0.1",
                            alpha_grid="2.0,3.0")
        assert code == 0
        results = payload["results"]
        assert len(results) == 4
        assert all(r["bound_satisfied"] for r in results.values())

    @pytest.mark.parametrize("key", ["alpha_grid", "sigma_grid", "fab_sigmas"])
    def test_empty_grid_exits_2(self, key, tmp_path, capsys):
        command = "verify-identities" if key == "fab_sigmas" else "sweep"
        code, payload = run(tmp_path, command, n_points=64, delta=0.1,
                            **{key: ",,"})
        assert code == 2 and payload is None
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, command", [
        ("alpha_grid", "sweep"), ("sigma_grid", "sweep"),
        ("fab_sigmas", "verify-identities")])
    def test_repeated_grid_value_exits_2(self, key, command, tmp_path,
                                         monkeypatch, capsys):
        # a repeated value was computed again and its result overwritten
        # under the same key, at exit 0
        def no_run(*args):
            raise AssertionError("stepped a run")

        monkeypatch.setattr(analytics, "_march", no_run)
        code, payload = run(tmp_path, command, n_points=64, dt=5e-3, delta=0.5,
                            **{key: "0.1,0.2,0.1" if key != "alpha_grid"
                               else "2.0,3.0,2.00"})
        assert code == 2 and payload is None
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "repeats" in err

    @pytest.mark.parametrize("alpha_grid", ["2.0", "2.0,3.0"])
    def test_simulates_once(self, alpha_grid, tmp_path, monkeypatch):
        # every alpha is a row of one batched run
        calls = []

        def counting_march(*args):
            calls.append(args)
            return evolution._march(*args)

        monkeypatch.setattr(analytics, "_march", counting_march)
        code, payload = run(tmp_path, "sweep", n_points=64, dt=5e-3,
                            delta=0.5, alpha_grid=alpha_grid)
        assert code == 0
        assert len(payload["results"]) == 6 * len(alpha_grid.split(","))
        assert len(calls) == 1

    def test_cosine_matches_conservation(self, tmp_path):
        # both subcommands must measure the same initial data
        common = dict(data="cosine", n_points=64, dt=5e-3, delta=0.5,
                      sigma_grid="0.1")
        code, sweep = run(tmp_path, "sweep", alpha_grid="2.0", **common)
        assert code == 0
        code, conservation = run(tmp_path, "conservation", alpha=2.0, **common)
        assert code == 0
        (result,) = sweep["results"].values()
        (report,) = conservation["reports"]
        assert result["defect_abs"] == report["defect_abs"]


@pytest.mark.parametrize("argv", [
    ["conservation", "--n_points", "1024", "--delta", "0.05", "--width", "0.25",
     "--sigma_grid", "8"],
    ["sweep", "--n_points", "1024", "--delta", "0.05", "--width", "0.25",
     "--sigma_grid", "8"],
    ["simulate", "--width", "1e308"],
    ["radius", "--width", "1e308"],
    ["conservation", "--width", "1e308"],
    ["sweep", "--width", "1e308"],
    ["conservation", "--sigma", "20", "--n_points", "1024", "--domain_length", "32",
     "--width", "0.125"],
    ["conservation", "--n_points", "1024", "--delta", "0.05", "--width", "0.25",
     "--sigma_grid", "12"],
    ["conservation", "--n_points", "64", "--delta", "0.1", "--sigma_grid", "2.5",
     "--C2", "1e308"],
    ["simulate", "--n_points", "64", "--t_end", "0.1", "--sigma", "1e308"],
    ["schedule", "--u0_norm", "1e103", "--T", "1e-100"],
    ["schedule", "--T", "1e307", "--C1", "1", "--C2", "10"],
])
def test_an_overflow_is_one_line_exit_3(argv):
    # Python's OverflowError from a float power (||I u0||^3 in the bound or
    # the schedule's increment, width^2 in the data), numpy's overflow
    # warnings, a bound or increment whose product overflows (C2 = 1e308,
    # inf * 0 at T = 1e307) and a simulate energy that once read NaN at exit
    # 0 alike: exit 3 with one line, no traceback, no RuntimeWarning
    done = run_child("-m", "gevrey_bbm.cli", *argv)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("simulation failure: ")
    assert done.stderr.count("\n") == 1 and "overflows" in done.stderr
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr


# Only the value keys and the horizon T are fuzzed: schedule's cost does not
# grow with T.  The size and step keys (n_points, dt, t_end, delta,
# sample_every, k_max, coordinate_range, symbolic_k_max, fab_samples) are
# left out: a valid value of one can make a run arbitrarily long or large.
FUZZ_BASE = {"n_points": "64", "dt": "0.01", "t_end": "0.2",
             "sample_every": "2", "k_max": "3", "coordinate_range": "2",
             "symbolic_k_max": "2", "fab_samples": "100",
             "output_json": os.devnull}
FUZZ_KEYS = ["sigma", "sigma_grid", "alpha", "alpha_grid", "amplitude",
             "width", "noise_floor", "C1", "C2", "u0_norm", "sigma0", "T",
             "fab_sigmas", "seed", "data"]
NON_FINITE = ["nan", "inf", "-inf"]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)),
       key=st.sampled_from(FUZZ_KEYS),
       value=st.sampled_from(NON_FINITE + ["-1", "0", "1e308", "1e-308", "x",
                                           ""]))
def test_fuzzed_config_exits_cleanly(command, key, value):
    # the delta is the lifespan, so C1 and sigma shape the run's window
    argv = [command]
    for name, text in {**FUZZ_BASE, key: value}.items():
        argv += [f"--{name}", text]
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5, 6)
    if value in NON_FINITE:
        assert code == EXIT_CONFIG


def test_the_package_loads_no_scipy():
    # the runtime dependencies are numpy only: no scipy and no sympy
    done = run_child("-c", "import sys, gevrey_bbm.cli; print(sorted(m for m in "
                     "sys.modules if m.split('.')[0] in ('scipy', 'sympy')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Each command's report at a small config, byte for byte: written to stdout
# (output_json empty) from a working directory that holds simulate's CSV.
GOLDEN_CASES = {
    "simulate": ["simulate", "--n_points", "64", "--t_end", "0.5",
                 "--output_csv", "run.csv"],
    "verify-identities": ["verify-identities", "--k_max", "3",
                          "--coordinate_range", "3", "--symbolic_k_max", "2",
                          "--fab_samples", "500", "--fab_sigmas", "0.1,0.5"],
    "conservation": ["conservation", "--n_points", "64", "--dt", "5e-3",
                     "--delta", "0.5"],
    "conservation-one-sigma": ["conservation", "--n_points", "64", "--dt",
                               "5e-3", "--delta", "0.5", "--sigma_grid", "0.1"],
    "radius": ["radius", "--n_points", "256", "--dt", "0.05", "--t_end", "20",
               "--sample_every", "20"],
    "schedule": ["schedule"],
    "sweep": ["sweep", "--n_points", "64", "--dt", "5e-3", "--delta", "0.5",
              "--sigma_grid", "0.05,0.1", "--alpha_grid", "2.0,3.0"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_report_matches_golden_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(GOLDEN_CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
    csv_golden = GOLDEN / f"{name}.csv"
    assert (tmp_path / "run.csv").exists() == csv_golden.exists()
    if csv_golden.exists():
        assert (tmp_path / "run.csv").read_bytes() == csv_golden.read_bytes()


def test_main_builds_no_parser_per_call(tmp_path, monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise AssertionError("an ArgumentParser was built per call")

    monkeypatch.setattr(argparse, "ArgumentParser", refused)
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        for name in ("verify-identities", "schedule"):
            assert main(GOLDEN_CASES[name]) == 0
            assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
    with pytest.raises(SystemExit) as caught:
        main(["no-such-command"])
    assert caught.value.code == 2
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err


def _error_classes(cls=errors.GevreyBBMError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", list(_error_classes()),
                         ids=lambda cls: cls.__name__)
def test_every_error_class_has_an_exit_code(error, monkeypatch, capsys):
    # a new error class that main does not map would exit 1 with a traceback
    def failing(v):
        raise error("planted")

    monkeypatch.setitem(COMMANDS, "schedule", failing)
    assert main(["schedule"]) in (2, 3, 4, 5, 6)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "planted" in err


@pytest.mark.parametrize("argv", [
    ["verify-identities", "--fab_samples", "1000000000000000"],
    ["radius", "--n_points", "1000000000000000"],
    ["verify-identities", "--coordinate_range", "1000000000000000"],
])
def test_a_size_too_large_to_allocate_is_one_line_exit_2(argv):
    # numpy refuses an array of 10^15 elements at once, using no memory; it
    # was exit 1 with a traceback, and a scan of 3*10^30 triads never ends
    done = run_child("-m", "gevrey_bbm.cli", *argv)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("config error: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def readme_examples():
    """The argument lists of the `gevrey-bbm ...` examples in README's
    "Command line" section, with `\\` continuations joined; the synopsis,
    whose command is a `<simulate|...>` placeholder, is skipped."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in section.splitlines()
            if line.startswith("gevrey-bbm ") and "<" not in line]


def test_every_readme_example_resolves():
    # a key renamed or removed in the program cannot stay in the examples:
    # each one resolves through the CLI's own override and value readers
    examples = readme_examples()
    assert {command for command, *_ in examples} == set(COMMANDS)
    for command, *flags in examples:
        _parse(apply_overrides(load_config(None), flags))
