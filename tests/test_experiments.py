import json
import math
import struct
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factordescent import (CHECK_CONTRACTION_EXACT_LOCAL, CHECK_CONTRACTION_EXACT_OPTIMAL,
                           ConfigError, ExperimentConfig, FactorDescentError,
                           Objective, RunArtifact, Trajectory,
                           check_init_condition, export_csv, figure_configs,
                           generate_instance, policy_from_name, run_comparison,
                           write_plot_script)
from factordescent.bounds import _CHECKS, REPORT_FIELDS
from factordescent.descent import RECORD_FIELDS, Table
from factordescent.experiments import CHECKS_HEADER, ITERATE_HEADER

# any float but NaN, with extra weight on subnormals, signed zeros and the
# largest magnitudes
FLOATS = (st.floats(allow_nan=False)
          | st.floats(min_value=-2.3e-308, max_value=2.3e-308)
          | st.floats(min_value=1e307, allow_infinity=False)
          | st.floats(max_value=-1e307, allow_infinity=False))


def small_config(**overrides):
    base = dict(n=25, r=2, seed=5, init_kind="near", init_param=0.5,
                policies=("fgd", "adaptive-practical"), max_iters=600,
                rel_tol=1e-8)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_dimension_order(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n=2, r=3, seed=0)

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            small_config(policies=("newton",))

    def test_rho_range(self):
        with pytest.raises(ConfigError):
            small_config(delta_rho=0.6)

    def test_empty_policies(self):
        with pytest.raises(ConfigError):
            small_config(policies=())

    def test_near_safety_bounded(self):
        with pytest.raises(ConfigError):
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
        dict(n=2 ** 59, r=1),  # the 16 n r bytes of [U, U*] exceed any array
    ])
    def test_rejects_unusable_values(self, overrides):
        with pytest.raises(ConfigError) as info:
            small_config(**overrides)
        assert isinstance(info.value, FactorDescentError)

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


def applicable_and_failed(delta_rho):
    """Applicable and failed rows per check over seeds 1 and 2 of the fixed
    and exact policies at n = 20, r = 2."""
    applicable, failed = Counter(), Counter()
    for seed in (1, 2):
        art = run_comparison(ExperimentConfig(
            n=20, r=2, seed=seed, policies=("fgd", "adaptive-exact"),
            delta_rho=delta_rho, checks_enabled=True, max_iters=200))
        assert art.failures == {}
        for rep in (rep for reports in art.reports.values() for rep in reports):
            applicable[rep.name] += rep.applicable
            failed[rep.name] += rep.applicable and not rep.holds
    return applicable, failed


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

    def test_exact_step_exercises_every_check(self):
        # the exact-step contractions apply only where the step taken is eta*
        # itself, which needs delta_rho = 0; verify's default 0.5 leaves them
        # without an applicable row
        applicable, failed = applicable_and_failed(0.0)
        assert all(applicable[name] > 0 for name in _CHECKS)
        assert sum(failed.values()) == 0
        noisy, _ = applicable_and_failed(0.5)
        assert noisy[CHECK_CONTRACTION_EXACT_LOCAL] == 0
        assert noisy[CHECK_CONTRACTION_EXACT_OPTIMAL] == 0
        assert sum(noisy.values()) > 0

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

    def test_summary_counts_are_the_report_columns(self, monkeypatch):
        # m = 20 overstates the contraction rates, so some applicable rows fail
        monkeypatch.setattr(Objective, "m", 20.0)
        art = run_comparison(ExperimentConfig(
            n=20, r=2, seed=1, policies=("fgd", "adaptive-exact"), max_iters=30,
            delta_rho=0.5, checks_enabled=True))
        assert set(art.reports) == set(art.summary["checks"]) == {"fgd", "adaptive-exact"}
        failures = 0
        for label, reports in art.reports.items():
            entry = art.summary["checks"][label]
            assert entry == {
                "total": len(reports),
                "applicable": np.count_nonzero(reports.applicable),
                "failures": np.count_nonzero(reports.applicable & ~reports.holds)}
            assert all(type(count) is int for count in entry.values())
            failures += entry["failures"]
        assert failures > 0

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

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(st.tuples(FLOATS, FLOATS, st.none() | FLOATS, FLOATS, FLOATS,
                                      FLOATS), min_size=1, max_size=4),
           reports=st.lists(st.tuples(FLOATS, FLOATS, FLOATS), max_size=4))
    def test_written_floats_parse_back_bit_for_bit(self, records, reports):
        def bits(x):
            return struct.pack("<d", x)

        # a missing distance (no ground truth) is NaN in the table
        rows = [(k, *(math.nan if x is None else x for x in fields), False)
                for k, fields in enumerate(records)]
        table = np.rec.fromarrays(list(zip(*rows)), names=RECORD_FIELDS).view(Table)
        traj = Trajectory(records=table, terminated="max_iters")
        n = len(reports)
        rows = np.rec.fromarrays([np.arange(n), np.full(n, "regularity"),
                                  *np.array(reports, dtype=float).reshape(n, 3).T,
                                  np.ones(n, bool), np.ones(n, bool)], names=REPORT_FIELDS)
        art = RunArtifact(config=small_config(policies=("fgd",)), problem=None,
                          trajectories={"fgd": traj}, reports={"fgd": rows})
        with tempfile.TemporaryDirectory() as out:
            export_csv(art, out)
            lines = (Path(out) / "fgd.csv").read_text().splitlines()[1:]
            checks = (Path(out) / "checks.csv").read_text().splitlines()[1:]
        assert len(lines) == len(records) and len(checks) == len(reports)
        for line, fields in zip(lines, records):
            cells = line.split(",")[1:]
            assert (cells[2] == "") == (fields[2] is None)
            assert [bits(float(cell)) for cell in cells if cell] == [
                bits(x) for x in fields if x is not None]
        for line, fields in zip(checks, reports):
            assert [bits(float(cell)) for cell in line.split(",")[2:5]] == list(map(bits, fields))

    def test_rows_match_joined_cells(self, tmp_path):
        # each row is the cells joined by commas: str for ints and names,
        # repr(float) for floats, lower-case booleans, "" for no distance
        art = run_comparison(small_config(checks_enabled=True))
        export_csv(art, tmp_path)
        expected = [CHECKS_HEADER]
        for label, traj in art.trajectories.items():
            rows = [ITERATE_HEADER] + [",".join([
                str(rec.k), *(repr(float(x)) for x in (rec.g_value, rec.rel_error)),
                "" if math.isnan(rec.dist_sq) else repr(float(rec.dist_sq)),
                *(repr(float(x)) for x in (rec.eta, rec.grad_norm_sq, rec.delta))])
                for rec in traj.records]
            assert (tmp_path / f"{label}.csv").read_text() == "\n".join(rows) + "\n"
            expected += [",".join([
                str(rep.k), rep.name, *(repr(float(x)) for x in (rep.lhs, rep.rhs, rep.slack)),
                str(rep.holds).lower(), str(rep.applicable).lower()])
                for rep in art.reports[label]]
        assert (tmp_path / "checks.csv").read_text() == "\n".join(expected) + "\n"

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
