"""Tests of the benchmark itself.

* A tiny-size run of each workload, traced and untraced, through run.py:
  every metric of BENCHMARK.json is reported with its unit and the outputs
  pass the checks. This is also the quick mode of the benchmark.
* Mutation tests: the replay and the method-property checks fail on a
  corrupted record or a mutated descent step, so they are not vacuous.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import replay  # noqa: E402
import workloads  # noqa: E402
from factordescent import descent, generate_instance  # noqa: E402
from factordescent.cli import main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = _bench(tmp_path, "--workload", "figures", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _write_round(workload: str, out: Path):
    spec = workloads.build(workload, 5, workloads.TINY, out)
    return spec, main(spec.argv)


@pytest.fixture(scope="module")
def verify_round(tmp_path_factory):
    return _write_round(workloads.VERIFY, tmp_path_factory.mktemp("verify") / "out")


@pytest.fixture(scope="module")
def figures_round(tmp_path_factory):
    return _write_round(workloads.FIGURES, tmp_path_factory.mktemp("figures") / "out")


def _copy(workload: str, spec, tmp_path: Path):
    """The same round, copied so a test can corrupt its files."""
    src = Path(spec.argv[spec.argv.index("--out") + 1])
    shutil.copytree(src, tmp_path / "copy")
    return workloads.build(workload, 5, workloads.TINY, tmp_path / "copy")


def _edit_csv(path: Path, row: int, column: str, change) -> None:
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_summary(path: Path, change) -> None:
    summary = json.loads(path.read_text())
    change(summary)
    path.write_text(json.dumps(summary))


def test_unchanged_outputs_pass(verify_round, figures_round):
    for spec, code in (verify_round, figures_round):
        result = replay.check_round(spec, code)
        assert result.problems == []
        assert result.failed == 0
        assert result.attempted == sum(len(c.policies) for c, _ in spec.runs)
        assert 0.0 < result.worst <= replay.REPLAY_RTOL


@pytest.mark.parametrize("factor", [1.0001, -1.0])
def test_scaled_or_flipped_step_fails_the_replay(verify_round, tmp_path, factor):
    spec = _copy(workloads.VERIFY, verify_round[0], tmp_path)
    _edit_csv(spec.runs[1][1] / "adaptive-exact.csv", 3, "eta", lambda v: v * factor)
    problems = replay.check_round(spec, 0).problems
    assert problems and "eta at iterate 3" in problems[0]


def test_flipped_direction_in_the_program_fails_the_replay(tmp_path, monkeypatch):
    original = descent.step

    def flipped_once(u, *args, k=0, **kwargs):
        u_next, record = original(u, *args, k=k, **kwargs)
        return (2.0 * u - u_next if k == 2 else u_next), record

    monkeypatch.setattr(descent, "step", flipped_once)
    spec, code = _write_round(workloads.EXACT, tmp_path / "out")
    problems = replay.check_round(spec, code).problems
    assert problems and "at iterate 3" in problems[0]


def test_stalled_distance_fails_the_contraction_check(verify_round):
    spec = verify_round[0]
    config, out_dir = spec.runs[0]
    table = replay.read_table(out_dir / "fgd.csv")
    problem = generate_instance(config)
    clean = replay.replay(config, problem.u0, problem.u_star, "fgd", table)
    eta0, sigma_r = clean.eta0, clean.sigma_r_xstar
    assert replay.contraction_failures(table, eta0, replay.CURV_M, sigma_r) == []
    table["dist_sq"][5] = table["dist_sq"][4]
    assert replay.contraction_failures(table, eta0, replay.CURV_M, sigma_r) == [4]


def test_bad_termination_and_slow_adaptive_step_fail(figures_round, tmp_path):
    spec = _copy(workloads.FIGURES, figures_round[0], tmp_path)
    near, far = spec.runs[0][1], spec.runs[1][1]

    def stationary(summary):
        summary["policies"]["adaptive-practical"]["terminated"] = "stationary"

    def slow(summary):
        fgd = summary["policies"]["fgd"]["iterations_to_tolerance"]
        summary["policies"]["adaptive-practical"]["iterations_to_tolerance"] = fgd

    _edit_summary(near / "summary.json", stationary)
    _edit_summary(far / "summary.json", slow)
    problems = "\n".join(replay.check_round(spec, 0).problems)
    assert "adaptive run ended stationary" in problems
    assert "adaptive-practical needs" in problems


def test_failing_check_row_and_missing_trajectory(verify_round, tmp_path):
    spec = _copy(workloads.VERIFY, verify_round[0], tmp_path)
    checks = spec.runs[0][1] / "checks.csv"
    checks.write_text(checks.read_text().replace(",true,true\n", ",false,true\n", 1))
    (spec.runs[2][1] / "fgd.csv").unlink()
    result = replay.check_round(spec, 0)
    assert result.failed == 1
    assert any("1 applicable checks fail" in p for p in result.problems)
