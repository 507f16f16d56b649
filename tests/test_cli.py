import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from factordescent.cli import ConfigError, main, parse_config_text


class TestUsage:
    def test_no_arguments_exits_2(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_exits_2(self):
        assert main(["tune"]) == 2

    def test_bad_flag_value_exits_2(self):
        assert main(["run", "--n", "ten"]) == 2

    def test_bad_init_spec_exits_2(self, capsys):
        assert main(["run", "--init", "close:0.5"]) == 2
        assert "near" in capsys.readouterr().err

    def test_out_of_range_safety_exits_2(self):
        assert main(["run", "--init", "near:2.0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--init", "far:nan"], ["--init", "far:inf"], ["--init", "far:1e308"],
        ["--init", "near:nan"], ["--rel-tol", "nan"],
        ["--policy", "fgd", "--delta-rho", "0.25"], ["--seed", "-1"],
        ["--policy", "fgd", "--policy", "fgd"],
    ])
    def test_unusable_value_exits_2(self, argv, tmp_path, capsys):
        assert main(["run", "--n", "10", "--out", str(tmp_path), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_help_exits_0(self):
        assert main(["--help"]) == 0


class TestRunCommand:
    def test_flags_only(self, tmp_path, capsys):
        code = main(["run", "--n", "25", "--r", "2", "--seed", "3",
                     "--init", "near:0.5", "--policy", "fgd",
                     "--policy", "adaptive-practical", "--max-iters", "300",
                     "--rel-tol", "1e-8", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fgd.csv").exists()
        assert (tmp_path / "adaptive-practical.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "plot.gp").exists()
        out = capsys.readouterr().out
        assert "fgd" in out and "wrote" in out

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "experiment.cfg"
        cfg.write_text(
            "# demo configuration\n"
            "n = 25\n"
            "r = 2\n"
            "seed = 3\n"
            "init = near:0.5\n"
            "policy = fgd\n"
            "policy = adaptive-practical\n"
            "max_iters = 300\n"
            "rel_tol = 1e-8\n"
            "checks = false\n"
            f"out = {tmp_path / 'results'}\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "results" / "summary.json").exists()

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "experiment.cfg"
        cfg.write_text("n = 25\nr = 2\nseed = 3\nmax_iters = 300\n"
                       f"out = {tmp_path / 'file-out'}\n")
        override = tmp_path / "flag-out"
        assert main(["run", "--config", str(cfg), "--out", str(override),
                     "--seed", "9"]) == 0
        assert override.exists()
        assert not (tmp_path / "file-out").exists()
        summary = json.loads((override / "summary.json").read_text())
        assert summary["config"]["seed"] == 9
        assert summary["config"]["n"] == 25

    def test_missing_config_file_exits_2(self):
        assert main(["run", "--config", "/nonexistent/path.cfg"]) == 2

    def test_checks_flag_failures_counted(self, tmp_path):
        code = main(["run", "--n", "25", "--r", "2", "--seed", "3",
                     "--policy", "fgd", "--checks", "--max-iters", "300",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "checks.csv").exists()


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code = main(["verify", "--seed", "1..2", "--n", "25", "--r", "2",
                     "--max-iters", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed 1" in out and "seed 2" in out and "0 failures" in out

    def test_single_seed(self):
        assert main(["verify", "--seed", "7", "--n", "20", "--r", "2",
                     "--max-iters", "150"]) == 0

    def test_bad_seed_range_exits_2(self):
        assert main(["verify", "--seed", "5..x"]) == 2

    @pytest.mark.parametrize("argv", [["--safety", "2"], ["--max-iters", "0"],
                                      ["--seed", "-1..1"]])
    def test_out_of_range_config_exits_2(self, argv, capsys):
        assert main(["verify", *argv]) == 2
        assert "error" in capsys.readouterr().err

    def test_out_dumps_csvs(self, tmp_path):
        code = main(["verify", "--seed", "3", "--n", "20", "--r", "2",
                     "--max-iters", "150", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "seed-3" / "checks.csv").exists()


class TestReproduceFiguresCommand:
    @pytest.mark.parametrize("argv", [["--n", "1"], ["--max-iters", "0"],
                                      ["--rel-tol", "nan"], ["--seed", "-2"]])
    def test_out_of_range_config_exits_2(self, argv, tmp_path, capsys):
        assert main(["reproduce-figures", "--out", str(tmp_path / "out"), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_value_error_in_a_run_exits_1(self, monkeypatch, tmp_path):
        import factordescent.experiments as experiments

        def failing(config):
            raise ValueError("raised while running")

        monkeypatch.setattr(experiments, "run_comparison", failing)
        assert main(["reproduce-figures", "--out", str(tmp_path), "--n", "40"]) == 1

    def test_smoke_scale(self, tmp_path, capsys):
        code = main(["reproduce-figures", "--out", str(tmp_path), "--n", "40",
                     "--max-iters", "400", "--rel-tol", "1e-8"])
        assert code == 0
        for label in ("r2-near", "r2-far", "r5-near", "r5-far"):
            assert (tmp_path / label / "fgd.csv").exists()
            assert (tmp_path / label / "adaptive-practical.csv").exists()
            assert (tmp_path / label / "summary.json").exists()
            assert (tmp_path / label / "plot.gp").exists()
        assert "r5-far" in capsys.readouterr().out

    def test_byte_identical_reruns_at_smoke_scale(self, tmp_path):
        args = ["reproduce-figures", "--n", "40", "--max-iters", "400",
                "--rel-tol", "1e-8", "--seed", "2"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for label in ("r2-near", "r2-far", "r5-near", "r5-far"):
            for name in ("fgd.csv", "adaptive-practical.csv", "summary.json"):
                assert ((tmp_path / "a" / label / name).read_bytes()
                        == (tmp_path / "b" / label / name).read_bytes())

    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        # the full-scale default (n = 1000) in fresh processes with one and
        # two BLAS threads: every output file is the same byte for byte
        src = str(Path(__file__).resolve().parents[1] / "src")
        trees = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / f"threads-{threads}"
            subprocess.run([sys.executable, "-m", "factordescent.cli", "reproduce-figures",
                            "--seed", "1", "--out", str(out)],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            trees[threads] = {path.relative_to(out): path.read_bytes()
                              for path in sorted(out.rglob("*")) if path.is_file()}
        assert len(trees["1"]) == 16
        assert trees["1"] == trees["2"]


class TestFailureExitCodes:
    @staticmethod
    def _fake_artifact(checks):
        from types import SimpleNamespace
        return SimpleNamespace(
            trajectories={}, reports={}, failures={}, problem=None,
            summary={"policies": {}, "iteration_ratios": {},
                     "checks": checks, "failed": {}})

    def test_verify_exits_1_when_checks_fail(self, monkeypatch):
        import factordescent.cli as cli_mod
        fake = self._fake_artifact({"fgd": {"total": 7, "applicable": 5,
                                            "failures": 2}})
        monkeypatch.setattr(cli_mod, "run_comparison", lambda cfg: fake)
        assert cli_mod.main(["verify", "--seed", "1"]) == 1

    def test_verify_exits_1_when_the_direction_is_negated(self, monkeypatch, capsys):
        # an uphill direction breaks the inequalities while every run still
        # completes: the failures verify counts are the checks'
        from factordescent import (ExperimentConfig, Objective, run_comparison,
                                   trajectory_reports)
        original = Objective.evaluate

        def uphill(self, u):
            point = original(self, u)
            point.direction = -point.direction
            return point

        monkeypatch.setattr(Objective, "evaluate", uphill)
        assert main(["verify", "--seed", "1..2", "--n", "20", "--r", "2",
                     "--max-iters", "30"]) == 1
        total = capsys.readouterr().out.splitlines()[-1]
        check_failures = 0
        for seed in (1, 2):
            artifact = run_comparison(ExperimentConfig(
                n=20, r=2, seed=seed, policies=("fgd", "adaptive-exact"), max_iters=30,
                delta_rho=0.5, checks_enabled=True))
            assert not artifact.failures
            check_failures += sum(entry["failures"]
                                  for entry in artifact.summary["checks"].values())
        assert check_failures > 0
        assert f", {check_failures} failures across 2 seed(s)" in total
        traj = artifact.trajectories["fgd"]
        failing = {rep.name for rep in trajectory_reports(artifact.problem, traj)
                   if rep.applicable and not rep.holds}
        assert {"regularity", "descent_quadratic"} <= failing

    def test_run_exits_1_when_a_policy_fails(self, monkeypatch, tmp_path):
        import factordescent.cli as cli_mod
        fake = self._fake_artifact({})
        fake.failures = {"fgd": "non-finite update at iteration 3"}
        fake.summary["failed"] = dict(fake.failures)
        monkeypatch.setattr(cli_mod, "run_comparison", lambda cfg: fake)
        monkeypatch.setattr(cli_mod, "export_csv", lambda art, out=None: [])
        assert cli_mod.main(["run", "--n", "10", "--out", str(tmp_path)]) == 1

    def test_overflowing_far_start_fails_the_policy(self, tmp_path, capsys):
        code = main(["run", "--n", "100", "--r", "2", "--init", "far:1e77",
                     "--policy", "adaptive-practical", "--out", str(tmp_path)])
        assert code == 1
        assert "adaptive-practical: FAILED (" in capsys.readouterr().err

    def test_out_of_memory_exits_1(self, monkeypatch, capsys):
        import factordescent.cli as cli_mod

        def no_memory(config):
            raise MemoryError("Unable to allocate 29.1 TiB")

        monkeypatch.setattr(cli_mod, "run_comparison", no_memory)
        assert cli_mod.main(["run", "--n", "2000000", "--r", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


class TestConfigGrammar:
    def test_comments_and_blanks(self):
        values = parse_config_text("\n# header\n n = 10 # trailing\n\nr = 2\n")
        assert values == {"n": "10", "r": "2"}

    def test_policy_accumulates(self):
        values = parse_config_text("policy = fgd\npolicy = adaptive-exact, adaptive-practical\n")
        assert values["policy"] == ["fgd", "adaptive-exact", "adaptive-practical"]

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("momentum = 0.9\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("n 10\n")

    def test_duplicate_scalar_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("n = 10\nn = 20\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config_text("n =\n")
