import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oqmarkov
from oqmarkov.cli import main
from oqmarkov.serialize import load_schema

jsonschema = pytest.importorskip("jsonschema")


def run(argv):
    return main(argv)


class TestAnalyze:
    def test_eternal_divisibility_pair(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["analyze", "--model", "eternal",
                    "--criteria", "divisibility,distinguishability",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema())
        verdicts = {r["criterion"]: r["verdict"] for r in payload["reports"]}
        assert verdicts == {"divisibility": "fail", "distinguishability": "pass"}

    def test_assert_pass_exit_code(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["analyze", "--model", "eternal", "--criteria", "divisibility",
                    "--assert-pass", "--out", str(out)])
        assert code == 1

    def test_unknown_model_exit_2(self, tmp_path):
        assert run(["analyze", "--model", "nope", "--criteria", "qrf",
                    "--out", str(tmp_path / "x.json")]) == 2

    def test_unknown_criterion_exit_2(self, tmp_path):
        assert run(["analyze", "--model", "tam", "--criteria", "sorcery",
                    "--out", str(tmp_path / "x.json")]) == 2

    def test_usage_error_exit_2(self):
        assert run(["analyze", "--bogus-flag"]) == 2

    def test_afl_qrf_gqrf_pair(self, tmp_path):
        out = tmp_path / "afl.json"
        code = run(["analyze", "--model", "afl", "--criteria", "qrf,gqrf",
                    "--t1", "0.5", "--t2", "1.0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        verdicts = {r["criterion"]: r["verdict"] for r in payload["reports"]}
        assert verdicts == {"qrf": "pass", "gqrf": "fail"}

    def test_tam_nib_triple(self, tmp_path):
        out = tmp_path / "nib.json"
        code = run(["analyze", "--model", "tam", "--criteria", "nib",
                    "--t0", "0", "--t1", "1", "--t2", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        rep = payload["reports"][0]
        assert rep["verdict"] == "fail"
        assert rep["witnesses"]["min_residual"] > 1e-3
        assert "best_sigma_diag" in rep["witnesses"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["analyze", "--model", "eternal",
                "--criteria", "divisibility,distinguishability", "--seed", "11"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(["analyze", "--model", "eternal", "--criteria", "divisibility",
                    "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "criterion,verdict,tolerance,witness,value"
        assert len(lines) > 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "eternal",
                                   "criteria": "divisibility", "seed": 4}))
        out = tmp_path / "r.json"
        code = run(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["model"] == "eternal"
        # flag overrides config
        out2 = tmp_path / "r2.json"
        code = run(["analyze", "--config", str(cfg), "--criteria",
                    "distinguishability", "--out", str(out2)])
        assert code == 0
        payload2 = json.loads(out2.read_text())
        assert payload2["config"]["criteria"] == ["distinguishability"]

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OQS_SEED", "99")
        out = tmp_path / "r.json"
        assert run(["analyze", "--model", "eternal", "--criteria",
                    "distinguishability", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["seed"] == 99



class TestAnalyzeSettings:
    """`analyze` runs the model's declared settings; flags override them."""

    def reports(self, tmp_path, argv):
        out = tmp_path / "r.json"
        assert run(["analyze"] + argv + ["--out", str(out)]) == 0
        return {r["criterion"]: r for r in json.loads(out.read_text())["reports"]}

    def test_explicit_zero_tolerance_is_kept(self, tmp_path):
        rep = self.reports(tmp_path, ["--model", "tam", "--criteria", "qrf", "--tol", "0"])
        assert rep["qrf"]["tolerance"] == 0.0

    def test_tolerance_flag_replaces_declared_tolerance(self, tmp_path):
        rep = self.reports(tmp_path, ["--model", "tam", "--criteria", "nib,divisibility",
                                      "--tol", "1e-3"])
        assert rep["nib"]["tolerance"] == rep["divisibility"]["tolerance"] == 1e-3

    @pytest.mark.parametrize("tol", ["-1e-9", "nan", "inf", "-inf"])
    def test_bad_tolerance_exit_2(self, tmp_path, tol):
        assert run(["analyze", "--model", "tam", "--criteria", "qrf", f"--tol={tol}",
                    "--out", str(tmp_path / "x.json")]) == 2

    def test_bad_tolerance_in_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "tam", "criteria": "qrf", "tol": -1.0}))
        assert run(["analyze", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("key, value, kind", [
        ("tol", "1e-9", "a real number"), ("tol", [1e-9], "a real number"),
        ("tol", True, "a real number"), ("t1", [1], "a real number"),
        ("seed", "7", "an integer")])
    def test_config_value_of_wrong_type_exit_2(self, tmp_path, key, value, kind, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "tam", "criteria": "qrf", key: value}))
        assert run(["analyze", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 2
        assert f"error: {key} must be {kind}, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("grid", ["0:1:0", "0:1:-0.5", "1:0:0.5", "0:inf:1",
                                      "0,1,1", "1,0.5", "0,nan"])
    def test_bad_grid_exit_2(self, tmp_path, grid):
        assert run(["analyze", "--model", "eternal", "--criteria", "divisibility",
                    f"--grid={grid}", "--out", str(tmp_path / "x.json")]) == 2

    def test_one_point_grid_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["analyze", "--model", "tam", "--criteria",
                    "divisibility,distinguishability", "--grid", "0.5",
                    "--out", str(out)]) == 2
        assert "1 grid maps given, at least 2 needed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid,n_maps", [("0:2:0.5", 5), ("0,0.5,1", 3), ("0:1:0.6", 2),
                                             ("0:0.3:0.1", 4)])
    def test_grid_flag_replaces_declared_grid(self, tmp_path, grid, n_maps):
        rep = self.reports(tmp_path, ["--model", "eternal", "--criteria",
                                      "divisibility", "--grid", grid])
        assert rep["divisibility"]["grid"].startswith(f"{n_maps} grid maps")

    def test_grid_step_stops_within_the_slots(self, tmp_path):
        # 0:6:4 is [0, 4]: a point at 8 would lie beyond collision's slots
        rep = self.reports(tmp_path, ["--model", "collision", "--criteria",
                                      "divisibility", "--grid", "0:6:4"])
        assert rep["divisibility"]["grid"].startswith("2 grid maps")

    @pytest.mark.parametrize("criteria, flags, window", [
        ("nib", ["--t1", "2", "--t2", "1"], "0.0, 2.0, 1.0"),
        ("fa", ["--t1", "1.0", "--t2", "0.5"], "0.0, 1.0, 0.5"),
        ("nib", ["--t1", "3"], "0.0, 3.0, 2.0"),
        ("nib", ["--t1", "1", "--t2", "1"], "0.0, 1.0, 1.0")],
        ids=["t2-below-t1", "fa-t2-below-t1", "t1-past-default-t2", "t1-equals-t2"])
    def test_window_not_increasing_exit_2(self, tmp_path, capsys, criteria, flags, window):
        out = tmp_path / "x.json"
        assert run(["analyze", "--model", "tam", "--criteria", criteria, *flags,
                    "--out", str(out)]) == 2
        assert f"window t0, t1, t2 = {window}: the times must strictly increase" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_time_flag_replaces_declared_times_only(self, tmp_path):
        rep = self.reports(tmp_path, ["--model", "tam", "--criteria", "nib", "--t1", "0.5"])
        assert rep["nib"]["grid"].startswith("triple=[0.0, 0.5, 2.0]")
        assert rep["nib"]["tolerance"] == 1e-4    # tam's declared nib tolerance

    def test_undeclared_criterion_runs_on_the_window(self, tmp_path):
        rep = self.reports(tmp_path, ["--model", "tam", "--criteria", "nqib"])
        assert rep["nqib"]["grid"] == "triple=[0.0, 1.0, 2.0]"
        rep = self.reports(tmp_path, ["--model", "tam", "--criteria", "nqib", "--t2", "3"])
        assert rep["nqib"]["grid"] == "triple=[0.0, 1.0, 3.0]"
        assert rep["nqib"]["verdict"] == "inconclusive"

    @pytest.mark.parametrize("model, criteria", [("tam", "composability,nib"),
                                                 ("collision", "fa,nqib")])
    def test_t0_other_than_the_model_initial_time_exit_2(self, tmp_path, monkeypatch,
                                                         capsys, model, criteria):
        import oqmarkov.criteria
        ran = []
        monkeypatch.setattr(oqmarkov.criteria, "run_criterion", lambda *a: ran.append(a))
        out = tmp_path / "x.json"
        assert run(["analyze", "--model", model, "--criteria", criteria, "--t0", "0.5",
                    "--out", str(out)]) == 2
        assert "t0 = 0.5: maps are defined from the model's initial time 0.0" \
            in capsys.readouterr().err
        assert ran == [] and not out.exists()


class TestHierarchy:
    def test_nqib_table(self, tmp_path):
        out = tmp_path / "h.json"
        code = run(["hierarchy", "--model", "nqib", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema())
        verdicts = {r["criterion"]: r["verdict"] for r in payload["reports"]}
        assert verdicts["nqib"] == "pass" and verdicts["nib"] == "fail"
        assert payload["consistent"] is True

    def test_unknown_model(self, tmp_path):
        assert run(["hierarchy", "--model", "zzz",
                    "--out", str(tmp_path / "x.json")]) == 2

    def test_tol_is_an_analyze_flag(self, tmp_path):
        out = tmp_path / "h.json"
        assert run(["hierarchy", "--model", "eternal", "--tol", "0.5",
                    "--out", str(out)]) == 2
        assert not out.exists()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run(["hierarchy", "--model", "eternal", "--format", "csv",
                    "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "criterion,verdict,tolerance,witness,value"

    @pytest.mark.parametrize("command", ["hierarchy", "analyze"])
    def test_timing_flag_embeds_the_wall_time(self, tmp_path, command):
        out = tmp_path / "h.json"
        extra = ["--criteria", "semigroup"] if command == "analyze" else []
        assert run([command, "--model", "eternal", *extra, "--timing", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema())
        assert payload["timing"]["seconds"] > 0


SAMPLERS = [["mcwf", "--spec", "decay", "--tmax", "0.1"],
            ["mcsm", "--spec", "ou", "--tmax", "0.1"]]


class TestSamplerFlags:
    @pytest.mark.parametrize("argv", SAMPLERS, ids=["mcwf", "mcsm"])
    def test_format_is_not_a_sampler_flag(self, tmp_path, argv):
        assert run(argv + ["--M", "4", "--format", "json",
                           "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", SAMPLERS, ids=["mcwf", "mcsm"])
    def test_timing_is_not_a_sampler_flag(self, tmp_path, argv):
        """A sampler's summary has no timing field, so the flag is a usage
        error rather than silently ignored."""
        assert run(argv + ["--M", "4", "--timing", "--out", str(tmp_path / "x")]) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", SAMPLERS, ids=["mcwf", "mcsm"])
    @pytest.mark.parametrize("m", [0, -3])
    def test_non_positive_sample_count_exit_2(self, tmp_path, argv, m, capsys):
        assert run(argv + ["--M", str(m), "--out", str(tmp_path / "x")]) == 2
        assert "M must be a positive number of samples" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": m}))
        assert run(argv + ["--config", str(cfg), "--out", str(tmp_path / "y")]) == 2
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "y.csv").exists()

    @pytest.mark.parametrize("argv", SAMPLERS, ids=["mcwf", "mcsm"])
    @pytest.mark.parametrize("flags", [["--dt", "0"], ["--dt", "-0.01"], ["--dt", "inf"],
                                       ["--dt", "nan"], ["--tmax=-1"], ["--tmax", "inf"]],
                             ids=["dt0", "dt-neg", "dt-inf", "dt-nan", "tmax-neg", "tmax-inf"])
    def test_bad_step_or_horizon_exit_2(self, tmp_path, argv, flags, capsys):
        assert run(argv + ["--M", "4"] + flags + ["--out", str(tmp_path / "x")]) == 2
        name = flags[0].split("=")[0].lstrip("-")
        assert f"error: {name} must be a finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_step_in_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": 0}))
        assert run(SAMPLERS[0] + ["--M", "4", "--config", str(cfg),
                                  "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv", SAMPLERS, ids=["mcwf", "mcsm"])
    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_exit_2(self, tmp_path, argv, jobs, capsys):
        assert run(argv + ["--M", "4", "--jobs", str(jobs),
                           "--out", str(tmp_path / "x")]) == 2
        assert "jobs must be a positive number of chunks" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": jobs}))
        assert run(argv + ["--M", "4", "--config", str(cfg),
                           "--out", str(tmp_path / "y")]) == 2
        assert not list(tmp_path.glob("[xy].*"))

    # a config value of the wrong JSON type: exit 2 before sampling, not a
    # traceback (exit 1) or a silently truncated run
    @pytest.mark.parametrize("argv", SAMPLERS, ids=["mcwf", "mcsm"])
    @pytest.mark.parametrize("key, value, kind", [
        ("M", [4], "an integer"), ("M", 2.7, "an integer"), ("M", True, "an integer"),
        ("jobs", 1.5, "an integer"), ("jobs", "2", "an integer"),
        ("dt", "0.01", "a real number"), ("dt", [0.01], "a real number"),
        ("tmax", None, "a real number"), ("tmax", False, "a real number"),
        ("seed", [4], "an integer"), ("seed", 2.7, "an integer"),
    ], ids=["M-list", "M-float", "M-bool", "jobs-float", "jobs-str", "dt-str", "dt-list",
            "tmax-null", "tmax-bool", "seed-list", "seed-float"])
    def test_config_value_of_wrong_type_exit_2(self, tmp_path, argv, key, value, kind,
                                               capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 4, "tmax": 0.1, key: value}))
        assert run(argv[:3] + ["--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"error: {key} must be {kind}, got {value!r}" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    def test_integral_config_values_are_kept(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 4, "jobs": 2, "dt": 0.01, "tmax": 1}))
        assert run(SAMPLERS[1][:3] + ["--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
        config = json.loads((tmp_path / "x.json").read_text())["config"]
        assert (config["M"], config["dt"], config["tmax"]) == (4, 0.01, 1.0)

    def test_unknown_method_in_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "bogus"}))
        assert run(SAMPLERS[0] + ["--M", "4", "--config", str(cfg),
                                  "--out", str(tmp_path / "x")]) == 2
        assert "unknown method 'bogus'" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    # exit 2: decidable from the arguments, so nothing is sampled; exit 1: the
    # sampler raised while it ran (a step probability of 0.1 or more, or a
    # negative rate)
    @pytest.mark.parametrize("argv, code", [
        (["mcwf", "--dt", "0.007"], 2),
        (["mcsm", "--dt", "0.007"], 2),
        (["mcwf", "--tmax", "0"], 2),
        (["mcsm", "--tmax", "0"], 2),
        (["mcwf", "--spec", "decay", "--dt", "0.1"], 1),
        (["mcsm", "--spec", "poisson", "--dt", "0.2"], 1),
        (["mcwf", "--spec", "eternal"], 1),
    ], ids=["mcwf-dt-span", "mcsm-dt-span", "mcwf-tmax0", "mcsm-tmax0",
            "mcwf-step-prob", "mcsm-step-prob", "mcwf-negative-rate"])
    def test_exit_code_table(self, tmp_path, argv, code, capsys):
        assert run(argv + ["--M", "4", "--out", str(tmp_path / "x")]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())


class TestMcwf:
    def test_decay_run_and_files(self, tmp_path):
        stem = tmp_path / "run"
        code = run(["mcwf", "--spec", "decay", "--M", "400", "--tmax", "0.5",
                    "--dt", "0.002", "--seed", "8", "--out", str(stem)])
        assert code == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["within_3_sigma"] is True
        csv_lines = (tmp_path / "run.csv").read_text().splitlines()
        assert csv_lines[0].startswith("time,trajectory,weight")

    def test_negative_rate_spec_exit_1(self, tmp_path):
        code = run(["mcwf", "--spec", "eternal", "--M", "10", "--tmax", "0.2",
                    "--dt", "0.002", "--seed", "8",
                    "--out", str(tmp_path / "x")])
        assert code == 1

    def test_single_trajectory_no_verdict(self, tmp_path):
        """One sample resolves no grid time, so neither command has a verdict."""
        for command, spec in (("mcwf", "decay"), ("mcsm", "ou")):
            stem = tmp_path / f"one-{command}"
            code = run([command, "--spec", spec, "--M", "1", "--tmax", "0.2",
                        "--dt", "0.002", "--seed", "8", "--assert-pass", "--out", str(stem)])
            assert code == 0
            summary = json.loads((tmp_path / f"one-{command}.json").read_text())
            assert summary["within_3_sigma"] is None
            assert summary["max_sigma_deviation"] is None

    def test_unknown_spec(self, tmp_path):
        assert run(["mcwf", "--spec", "plasma", "--out", str(tmp_path / "x")]) == 2

    def test_tol_is_an_analyze_flag(self, tmp_path):
        assert run(["mcwf", "--spec", "decay", "--M", "4", "--tmax", "0.1",
                    "--tol", "0.5", "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["mcwf", "--spec", "decay", "--M", "64", "--tmax", "0.3",
                "--dt", "0.003", "--seed", "21"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestMcsm:
    def test_ou_run(self, tmp_path):
        stem = tmp_path / "ou"
        code = run(["mcsm", "--spec", "ou", "--M", "2000", "--tmax", "1.0",
                    "--dt", "0.002", "--seed", "3", "--out", str(stem)])
        assert code == 0
        summary = json.loads((tmp_path / "ou.json").read_text())
        assert summary["within_3_sigma"] is True
        lines = (tmp_path / "ou.csv").read_text().splitlines()
        assert lines[0].startswith("time,mean,variance")

    def test_unknown_spec(self, tmp_path):
        assert run(["mcsm", "--spec", "weird", "--out", str(tmp_path / "x")]) == 2

    def test_tol_is_an_analyze_flag(self, tmp_path):
        assert run(["mcsm", "--spec", "ou", "--M", "4", "--tol", "0.5",
                    "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x.csv").exists()


SAMPLERS_WITHOUT_SCIPY = """
import sys
from oqmarkov.cli import main
assert main(["mcwf", "--spec", "decay", "--M", "8", "--tmax", "0.05", "--out", "w"]) == 0
assert main(["mcwf", "--spec", "decay", "--method", "diffusive", "--M", "8",
             "--tmax", "0.05", "--out", "d"]) == 0
assert main(["mcsm", "--spec", "ou", "--M", "8", "--tmax", "0.05", "--out", "o",
             "--paths-out", "p.csv"]) == 0
assert main(["mcsm", "--spec", "poisson", "--M", "8", "--tmax", "0.05", "--out", "q"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


PRESETS_WITHOUT_SCIPY = """
import sys
from oqmarkov.criteria import hierarchy_report
from oqmarkov.models import PRESETS, make_model
models = {name: make_model(name) for name in PRESETS}
assert hierarchy_report(models["collision"]).consistent
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _scipy_modules_after(script, cwd):
    """The scipy modules loaded once `script` has run in a fresh interpreter."""
    src = str(Path(oqmarkov.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_samplers_never_load_scipy(tmp_path):
    """The samplers run on numpy alone."""
    assert _scipy_modules_after(SAMPLERS_WITHOUT_SCIPY, tmp_path) == "[]"


def test_presets_and_collision_hierarchy_never_load_scipy(tmp_path):
    """Building every preset and running collision's hierarchy, whose
    queries all fall on slot boundaries, import no scipy module."""
    assert _scipy_modules_after(PRESETS_WITHOUT_SCIPY, tmp_path) == "[]"
