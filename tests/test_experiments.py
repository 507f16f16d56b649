import json

import numpy as np
import pytest

from factordescent import (ExperimentConfig, check_init_condition, export_csv,
                           figure_configs, generate_instance, policy_from_name,
                           run_comparison, write_plot_script)
from factordescent.experiments import CHECKS_HEADER, ITERATE_HEADER


def small_config(**overrides):
    base = dict(n=25, r=2, seed=5, init_kind="near", init_param=0.5,
                policies=("fgd", "adaptive-practical"), max_iters=600,
                rel_tol=1e-8)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_dimension_order(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=2, r=3, seed=0)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            small_config(policies=("newton",))

    def test_rho_range(self):
        with pytest.raises(ValueError):
            small_config(delta_rho=0.6)

    def test_empty_policies(self):
        with pytest.raises(ValueError):
            small_config(policies=())

    def test_near_safety_bounded(self):
        with pytest.raises(ValueError):
            small_config(init_kind="near", init_param=2.0)

    @pytest.mark.parametrize("overrides", [
        dict(init_kind="far", init_param=float("nan")),
        dict(init_kind="far", init_param=float("inf")),
        dict(init_kind="far", init_param=1e308),  # 2 * scale overflows
        dict(init_kind="near", init_param=float("nan")),
        dict(rel_tol=float("nan")),
        dict(rel_tol=float("inf")),
        dict(policies=("fgd",), delta_rho=0.25),  # no policy reads the noise
        dict(seed=-1),  # numpy's seed sequences take non-negative entropy
    ])
    def test_rejects_unusable_values(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)

    def test_accepts_large_finite_far_scale(self):
        assert small_config(init_kind="far", init_param=1e77).init_param == 1e77


class TestGenerateInstance:
    def test_deterministic(self):
        a = generate_instance(small_config())
        b = generate_instance(small_config())
        np.testing.assert_array_equal(a.u_star, b.u_star)
        np.testing.assert_array_equal(a.u0, b.u0)

    def test_seed_changes_instance(self):
        a = generate_instance(small_config(seed=5))
        b = generate_instance(small_config(seed=6))
        assert np.any(a.u_star != b.u_star)

    def test_truth_entries_uniform_in_unit_box(self):
        problem = generate_instance(small_config(n=200, r=3))
        assert np.max(np.abs(problem.u_star)) <= 1.0
        # crude uniformity check: mean near 0, spread near 1/sqrt(3)
        assert abs(problem.u_star.mean()) < 0.1
        assert abs(problem.u_star.std() - 1.0 / np.sqrt(3.0)) < 0.05

    def test_near_start_satisfies_condition(self):
        problem = generate_instance(small_config())
        assert check_init_condition(problem).holds

    def test_far_start_violates_condition(self):
        problem = generate_instance(small_config(init_kind="far", init_param=1.0))
        assert not check_init_condition(problem).holds

    def test_constants(self):
        problem = generate_instance(small_config())
        assert (problem.objective.m, problem.objective.M) == (2.0, 2.0)


class TestRunComparison:
    def test_policies_share_the_start(self):
        art = run_comparison(small_config())
        assert set(art.trajectories) == {"fgd", "adaptive-practical"}
        g0 = {t.records[0].g_value for t in art.trajectories.values()}
        assert len(g0) == 1

    def test_single_policy(self):
        art = run_comparison(small_config(policies=("fgd",)))
        assert list(art.trajectories) == ["fgd"]
        assert art.summary["iteration_ratios"] == {}

    def test_adaptive_not_slower(self):
        art = run_comparison(small_config(n=50, r=3))
        pol = art.summary["policies"]
        assert (pol["adaptive-practical"]["iterations_to_tolerance"]
                <= pol["fgd"]["iterations_to_tolerance"])

    def test_checks_attached_and_pass(self):
        art = run_comparison(small_config(checks_enabled=True))
        for label in art.trajectories:
            entry = art.summary["checks"][label]
            assert entry["applicable"] > 0
            assert entry["failures"] == 0

    def test_one_anchored_step_per_instance(self, monkeypatch):
        # eta_fixed takes two n x n SVDs; every policy of a comparison, and
        # the checks, share the one computed for the instance
        from factordescent import stepsize
        calls = []
        original = stepsize.eta_fixed

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(stepsize, "eta_fixed", counted)
        art = run_comparison(small_config(checks_enabled=True))
        assert set(art.trajectories) == {"fgd", "adaptive-practical"}
        assert len(calls) == 1

    def test_duplicate_policy_labels(self):
        # each policy names its output file, so a repeat is rejected up front
        with pytest.raises(ValueError, match="distinct"):
            small_config(policies=("fgd", "adaptive-exact", "fgd"))


class TestExportCsv:
    def test_files_and_headers(self, tmp_path):
        art = run_comparison(small_config(checks_enabled=True))
        paths = export_csv(art, tmp_path)
        names = {p.name for p in paths}
        assert names == {"fgd.csv", "adaptive-practical.csv", "checks.csv",
                         "summary.json"}
        fgd = (tmp_path / "fgd.csv").read_text().splitlines()
        assert fgd[0] == ITERATE_HEADER
        checks = (tmp_path / "checks.csv").read_text().splitlines()
        assert checks[0] == CHECKS_HEADER

    def test_first_row_relative_error_is_exactly_one(self, tmp_path):
        art = run_comparison(small_config())
        export_csv(art, tmp_path)
        row = (tmp_path / "fgd.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "0"
        assert row[2] == "1.0"

    def test_round_trip_to_exact_floats(self, tmp_path):
        art = run_comparison(small_config())
        export_csv(art, tmp_path)
        lines = (tmp_path / "fgd.csv").read_text().splitlines()[1:]
        traj = art.trajectories["fgd"]
        for line, rec in zip(lines, traj.records):
            cells = line.split(",")
            assert int(cells[0]) == rec.k
            assert float(cells[1]) == rec.g_value
            assert float(cells[2]) == rec.rel_error
            assert float(cells[3]) == rec.dist_sq
            assert float(cells[4]) == rec.eta
            assert float(cells[5]) == rec.grad_norm_sq
            assert float(cells[6]) == rec.delta

    def test_plotter_friendly_columns(self, tmp_path):
        art = run_comparison(small_config())
        export_csv(art, tmp_path)
        lines = (tmp_path / "adaptive-practical.csv").read_text().splitlines()
        assert all(lines)  # no blank lines
        iters = [int(line.split(",")[0]) for line in lines[1:]]
        assert iters == list(range(len(iters)))

    def test_summary_contents(self, tmp_path):
        art = run_comparison(small_config())
        export_csv(art, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["n"] == 25
        assert summary["config"]["init"] == "near:0.5"
        ratio = summary["iteration_ratios"]["fgd_over_adaptive-practical"]
        assert ratio is not None and ratio >= 1.0

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = small_config(checks_enabled=True)
        export_csv(run_comparison(cfg), tmp_path / "a")
        export_csv(run_comparison(cfg), tmp_path / "b")
        for name in ("fgd.csv", "adaptive-practical.csv", "checks.csv",
                     "summary.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_io_error_carries_path(self, tmp_path):
        art = run_comparison(small_config(policies=("fgd",)))
        target = tmp_path / "blocked"
        target.mkdir()
        (target / "fgd.csv").mkdir()  # collides with the file to be written
        with pytest.raises(OSError, match="fgd.csv"):
            export_csv(art, target)


class TestPlotScript:
    def test_script_references_every_policy(self, tmp_path):
        path = write_plot_script(tmp_path, ["fgd", "adaptive-practical"], title="demo")
        text = path.read_text()
        assert '"fgd.csv"' in text and '"adaptive-practical.csv"' in text
        assert "logscale y" in text


class TestFigureConfigs:
    def test_four_configurations(self, tmp_path):
        configs = figure_configs(tmp_path)
        assert set(configs) == {"r2-near", "r2-far", "r5-near", "r5-far"}
        for label, cfg in configs.items():
            assert cfg.n == 1000
            assert cfg.policies == ("fgd", "adaptive-practical")
            assert label in cfg.output_dir

    def test_rank_and_start_match_labels(self, tmp_path):
        configs = figure_configs(tmp_path)
        assert configs["r2-near"].r == 2
        assert configs["r5-far"].r == 5
        assert configs["r2-far"].init_kind == "far"
        assert configs["r5-near"].init_kind == "near"


class TestPolicyFromName:
    def test_known_names(self):
        assert policy_from_name("fgd").kind == "fgd"
        assert policy_from_name("adaptive-exact", 0.25).delta_rho == 0.25

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            policy_from_name("bfgs")
