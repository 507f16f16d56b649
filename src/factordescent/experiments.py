"""Benchmark harness: instance generation, comparison runs, CSV export.

Instances follow the standard matrix-factorization benchmark: the entries of
the ground-truth factor U* are i.i.d. Uniform(-1, 1), the target is
A = U* U*^T (held as its factor U*, never formed), and the start is either
pinned near U* (inside the start radius) or drawn independently far from it. All randomness flows from one
64-bit seed through numpy's SeedSequence into PCG64 generators (numpy's
default_rng), so a config reproduces its instance, its runs, and its output
files byte for byte.

CSV schemas (fixed):

  per-policy trajectory  iter,g_value,rel_error,dist_sq,eta,grad_norm_sq,delta
  checks.csv             iter,name,lhs,rhs,slack,holds,applicable

Floats are printed in their shortest round-trip form, so parsing the files
recovers the exact binary values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import InequalityReport, trajectory_reports
from .descent import Problem, Trajectory, init_far, init_near, make_problem, run
from .errors import FactorDescentError
from .objectives import matrix_factorization
from .stepsize import ADAPTIVE_PRACTICAL, FIXED_FGD, POLICY_KINDS, StepPolicy

INIT_NEAR = "near"
INIT_FAR = "far"

ITERATE_HEADER = "iter,g_value,rel_error,dist_sq,eta,grad_norm_sq,delta"
CHECKS_HEADER = "iter,name,lhs,rhs,slack,holds,applicable"


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run: instance dimensions, a non-negative seed, start,
    distinct policies (each names its output file), budgets.

    init_param is the safety factor (fraction of the start radius) for a
    near start and the entry scale for a far one; a far scale s must keep
    the width 2 s of its uniform law finite. delta_rho is forwarded to the
    adaptive policies as the synthetic estimation-noise amplitude, so it
    needs at least one of them.
    """

    n: int
    r: int
    seed: int
    init_kind: str = INIT_NEAR
    init_param: float = 0.5
    policies: tuple[str, ...] = (FIXED_FGD, ADAPTIVE_PRACTICAL)
    max_iters: int = 1000
    rel_tol: float = 1e-8
    delta_rho: float = 0.0
    checks_enabled: bool = False
    output_dir: str = "."

    def __post_init__(self):
        if not self.n >= self.r >= 1:
            raise ValueError(f"need n >= r >= 1, got n={self.n}, r={self.r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.init_kind not in (INIT_NEAR, INIT_FAR):
            raise ValueError(f"unknown init kind {self.init_kind!r}")
        if not self.init_param > 0.0:  # also rejects NaN
            raise ValueError(f"init_param must be positive, got {self.init_param}")
        if self.init_kind == INIT_NEAR and self.init_param > 1.0:
            raise ValueError("near-start safety factor must lie in (0, 1]")
        if not math.isfinite(2.0 * self.init_param):
            raise ValueError(f"far-start scale {self.init_param} overflows the range 2 * scale")
        if not self.policies:
            raise ValueError("at least one policy is required")
        for name in self.policies:
            if name not in POLICY_KINDS:
                raise ValueError(f"unknown policy {name!r}")
        if len(set(self.policies)) != len(self.policies):
            raise ValueError(f"policies must be distinct, got {list(self.policies)}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive and finite")
        if not 0.0 <= self.delta_rho <= 0.5:
            raise ValueError("delta_rho must lie in [0, 1/2]")
        if self.delta_rho > 0.0 and all(name == FIXED_FGD for name in self.policies):
            raise ValueError("delta_rho > 0 needs an adaptive policy")

    def describe_init(self) -> str:
        return f"{self.init_kind}:{self.init_param}"


@dataclass
class RunArtifact:
    """Everything a comparison produced: the shared problem, one trajectory
    per policy name, optional check reports, per-policy failures, and a
    JSON-ready summary."""

    config: ExperimentConfig
    problem: Problem
    trajectories: dict[str, Trajectory] = field(default_factory=dict)
    reports: dict[str, list[InequalityReport]] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


def policy_from_name(name: str, delta_rho: float = 0.0) -> StepPolicy:
    """CLI policy names to StepPolicy values; delta_rho applies to both
    adaptives."""
    return StepPolicy(name, 0.0 if name == FIXED_FGD else delta_rho)


def _seed_streams(seed: int):
    # one child stream each for: ground truth, start, estimation noise
    return np.random.SeedSequence(seed).spawn(3)


def generate_instance(config: ExperimentConfig) -> Problem:
    """Build the benchmark instance for a config, deterministically."""
    star_ss, init_ss, _ = _seed_streams(config.seed)
    rng = np.random.default_rng(star_ss)
    u_star = rng.uniform(-1.0, 1.0, size=(config.n, config.r))
    objective = matrix_factorization(target_factor=u_star)
    if config.init_kind == INIT_NEAR:
        u0 = init_near(u_star, init_ss, safety=config.init_param,
                       kappa=objective.kappa)
    else:
        u0 = init_far(u_star, init_ss, scale=config.init_param)
    return make_problem(objective, u0, u_star=u_star)


def run_comparison(config: ExperimentConfig) -> RunArtifact:
    """Run every requested policy from the same start on the same instance.

    A policy that fails (e.g. diverges at the first evaluation) is recorded
    in artifact.failures without aborting the others. Check reports are
    attached per policy when the config enables them.
    """
    problem = generate_instance(config)
    _, _, delta_ss = _seed_streams(config.seed)
    artifact = RunArtifact(config=config, problem=problem)
    audit = config.checks_enabled and problem.u_star is not None
    for name in config.policies:
        policy = policy_from_name(name, config.delta_rho)
        try:
            traj = run(problem, policy, max_iters=config.max_iters,
                       rel_tol=config.rel_tol, delta_seed=delta_ss, audit=audit)
        except FactorDescentError as exc:
            artifact.failures[name] = str(exc)
            continue
        artifact.trajectories[name] = traj
        if audit:
            artifact.reports[name] = trajectory_reports(problem, traj)
    artifact.summary = _summarize(artifact)
    return artifact


def _summarize(artifact: RunArtifact) -> dict:
    config = artifact.config
    policies = {}
    for label, traj in artifact.trajectories.items():
        policies[label] = {
            "iterations_to_tolerance": traj.iterations_to(config.rel_tol),
            "iterations_run": traj.final.k,
            "terminated": traj.terminated,
            "final_rel_error": traj.final.rel_error,
        }
    ratios = {}
    fgd = policies.get(FIXED_FGD, {}).get("iterations_to_tolerance")
    for label, entry in policies.items():
        if label == FIXED_FGD:
            continue
        it = entry["iterations_to_tolerance"]
        ratios[f"fgd_over_{label}"] = (
            fgd / it if fgd is not None and it not in (None, 0) else None)
    checks = {}
    for label, reports in artifact.reports.items():
        applicable = [rep for rep in reports if rep.applicable]
        checks[label] = {
            "total": len(reports),
            "applicable": len(applicable),
            "failures": sum(1 for rep in applicable if not rep.holds),
        }
    return {
        "config": {
            "n": config.n,
            "r": config.r,
            "seed": config.seed,
            "init": config.describe_init(),
            "policies": list(config.policies),
            "max_iters": config.max_iters,
            "rel_tol": config.rel_tol,
            "delta_rho": config.delta_rho,
            "checks": config.checks_enabled,
        },
        "policies": policies,
        "iteration_ratios": ratios,
        "checks": checks,
        "failed": dict(artifact.failures),
    }


def _fmt(x) -> str:
    # shortest representation that round-trips to the same binary float
    return repr(float(x))


def _iterate_rows(traj: Trajectory):
    for rec in traj.records:
        yield ",".join([
            str(rec.k),
            _fmt(rec.g_value),
            _fmt(rec.rel_error),
            "" if rec.dist_sq is None else _fmt(rec.dist_sq),
            _fmt(rec.eta),
            _fmt(rec.grad_norm_sq),
            _fmt(rec.delta),
        ])


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def export_csv(artifact: RunArtifact, out_dir=None) -> list[Path]:
    """Write one trajectory CSV per policy, a combined checks.csv when any
    reports exist, and summary.json. Returns the written paths."""
    out = Path(out_dir if out_dir is not None else artifact.config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for label, traj in artifact.trajectories.items():
        path = out / f"{label}.csv"
        _write_text(path, "\n".join([ITERATE_HEADER, *_iterate_rows(traj)]) + "\n")
        written.append(path)
    if artifact.reports:
        rows = [CHECKS_HEADER]
        for label in artifact.trajectories:
            for rep in artifact.reports.get(label, []):
                rows.append(",".join([
                    str(rep.k), rep.name, _fmt(rep.lhs), _fmt(rep.rhs),
                    _fmt(rep.slack), str(rep.holds).lower(),
                    str(rep.applicable).lower(),
                ]))
        path = out / "checks.csv"
        _write_text(path, "\n".join(rows) + "\n")
        written.append(path)
    path = out / "summary.json"
    _write_text(path, json.dumps(artifact.summary, indent=2, sort_keys=True) + "\n")
    written.append(path)
    return written


def write_plot_script(out_dir, labels, title: str = "") -> Path:
    """Emit a gnuplot template plotting relative error against iteration for
    each policy CSV in the directory."""
    out = Path(out_dir)
    curves = ", ".join(
        f'"{label}.csv" using 1:3 with lines title "{label}"' for label in labels)
    lines = [
        "# gnuplot template: relative error vs iteration",
        "set datafile separator comma",
        "set key autotitle columnhead",
        "set logscale y",
        'set xlabel "iteration"',
        'set ylabel "relative error g(U_k)/g(U_0)"',
        f'set title "{title}"',
        "plot " + curves,
    ]
    path = out / "plot.gp"
    _write_text(path, "\n".join(lines) + "\n")
    return path


def figure_configs(out_root, seed: int = 1, n: int = 1000, max_iters: int = 2000,
                   rel_tol: float = 1e-10) -> dict[str, ExperimentConfig]:
    """The four benchmark configurations: rank 2 and 5, near and far starts."""
    configs = {}
    for r in (2, 5):
        for kind, param in ((INIT_NEAR, 0.5), (INIT_FAR, 1.0)):
            label = f"r{r}-{kind}"
            configs[label] = ExperimentConfig(
                n=n, r=r, seed=seed, init_kind=kind, init_param=param,
                policies=(FIXED_FGD, ADAPTIVE_PRACTICAL),
                max_iters=max_iters, rel_tol=rel_tol,
                output_dir=str(Path(out_root) / label))
    return configs


def reproduce_figures(out_root, seed: int = 1, n: int = 1000, max_iters: int = 2000,
                      rel_tol: float = 1e-10) -> dict[str, dict]:
    """Run all four benchmark configurations and export CSVs, summaries, and
    gnuplot templates under out_root. Returns the per-config summaries."""
    results = {}
    for label, config in figure_configs(out_root, seed=seed, n=n,
                                        max_iters=max_iters, rel_tol=rel_tol).items():
        artifact = run_comparison(config)
        export_csv(artifact)
        write_plot_script(config.output_dir, list(artifact.trajectories), title=label)
        results[label] = artifact.summary
    return results
