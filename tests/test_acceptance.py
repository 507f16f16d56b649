"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible under ``pytest -s`` or in failure output).

The heavy fixtures (fifty near-start runs at n=50 and the full-scale
benchmark reproductions) are shared across criteria via module scope.
"""

import time
from collections import defaultdict

import numpy as np
import pytest

from factordescent import (CHECK_CONTRACTION_ADAPTIVE, CHECK_CONTRACTION_FIXED,
                           CHECK_DESCENT_QUADRATIC, CHECK_REGULARITY,
                           ExperimentConfig, StepContext, StepPolicy,
                           check_local_step_floor, check_optimal_step, dist,
                           init_near, make_problem, matrix_factorization,
                           mf_grad, mf_value, prepare, run, run_comparison, step,
                           step_context_at, trajectory_reports)
from factordescent.cli import main

from oracles import brute_force_dist, central_difference, random_orthonormal


def report(num, passed, detail):
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def near_instance(n, r, seed, safety=0.5):
    rng = np.random.default_rng(seed)
    u_star = rng.uniform(-1.0, 1.0, (n, r))
    objective = matrix_factorization(u_star @ u_star.T)
    u0 = init_near(u_star, np.random.SeedSequence(seed).spawn(1)[0],
                   safety=safety, kappa=objective.kappa)
    return make_problem(objective, u0, u_star=u_star)


@pytest.fixture(scope="module")
def near_fgd_runs():
    """Fifty near-start fixed-step runs (n=50, r=3, safety 0.5) with their
    full report lists."""
    out = []
    for seed in range(50):
        problem = near_instance(50, 3, 10_000 + seed)
        traj = run(problem, StepPolicy.fixed(), max_iters=500, rel_tol=1e-8,
                   audit=True)
        out.append((problem, traj, trajectory_reports(problem, traj)))
    return out


@pytest.fixture(scope="module")
def near_estimated_runs():
    """Fifty near-start exact-adaptive runs with estimation noise at the
    maximal admissible amplitude (rho = 0.5)."""
    out = []
    for seed in range(50):
        problem = near_instance(50, 3, 20_000 + seed)
        policy = StepPolicy.adaptive_exact(delta_rho=0.5)
        traj = run(problem, policy, max_iters=500, rel_tol=1e-8,
                   delta_seed=seed, audit=True)
        out.append((problem, traj, trajectory_reports(problem, traj)))
    return out


def test_c01_procrustes_matches_brute_force_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(200):
        r = 1 if i % 2 == 0 else 2
        n = int(rng.integers(r + 2, 9))
        u = rng.standard_normal((n, r))
        v = rng.standard_normal((n, r))
        worst = max(worst, abs(dist(u, v) - brute_force_dist(u, v)))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-6 and elapsed < 30.0,
           f"200 pairs, max |dist - oracle| = {worst:.2e}, {elapsed:.1f}s")


def test_c02_gradient_matches_central_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        a = rng.standard_normal((6, 6))
        a = a + a.T
        x = rng.standard_normal((6, 6))
        x = x + x.T
        e = rng.standard_normal((6, 6))
        e = e + e.T
        numeric = central_difference(lambda z: mf_value(a, z), x, e, t=1e-5)
        analytic = float(np.sum(mf_grad(a, x) * e))
        worst = max(worst, abs(numeric - analytic))
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-8 and elapsed < 5.0,
           f"50 directions, max error = {worst:.2e}, {elapsed:.1f}s")


def test_c03_local_step_floor_sweep():
    start = time.perf_counter()
    checked = 0
    worst = np.inf
    ok = True
    for i in range(100):
        r = (i % 3) + 1
        problem = near_instance(50, r, 30_000 + i)
        # at the start and again after ten fixed steps
        policy = StepPolicy.fixed()
        state = prepare(problem, policy)
        u10 = problem.u0
        for k in range(10):
            u10, _ = step(u10, policy, problem, state=state, k=k)
        for u in (problem.u0, u10):
            rep = check_local_step_floor(problem, u)
            ok = ok and rep.applicable and rep.holds
            worst = min(worst, rep.slack)
            checked += 1
    elapsed = time.perf_counter() - start
    report(3, ok and elapsed < 30.0,
           f"{checked} compliant iterates over r in {{1,2,3}}, "
           f"min slack = {worst:.2e}, {elapsed:.1f}s")


def test_c04_regularity_along_near_runs(near_fgd_runs):
    total = 0
    worst = np.inf
    ok = True
    for _, _, reports in near_fgd_runs:
        for rep in reports:
            if rep.name == CHECK_REGULARITY:
                ok = ok and rep.applicable and rep.holds
                worst = min(worst, rep.slack)
                total += 1
    report(4, ok and total > 0,
           f"inner-product inequality at {total} iterates of 50 runs, "
           f"min slack = {worst:.2e}")


def test_c05_quadratic_distance_bound(near_fgd_runs, near_estimated_runs):
    total = 0
    ok = True
    for _, _, reports in (*near_fgd_runs, *near_estimated_runs):
        for rep in reports:
            if rep.name == CHECK_DESCENT_QUADRATIC:
                ok = ok and rep.applicable and rep.holds
                total += 1
    report(5, ok and total > 0,
           f"realized next distance below the quadratic bound at {total} steps")


def test_c06_optimal_step_property(near_fgd_runs):
    rng = np.random.default_rng(6)
    ok = True
    for i in range(1000):
        ctx = StepContext(eta_fixed=0.0,
                          eta_local=float(rng.uniform(1e-4, 0.1)), m=2.0,
                          sigma_r=float(rng.uniform(0.1, 10.0)),
                          dist_sq=float(rng.uniform(0.0, 5.0)),
                          grad_norm_sq=float(rng.uniform(0.1, 100.0)))
        ok = ok and check_optimal_step(ctx, seed=i)
    from_runs = 0
    for problem, traj, _ in near_fgd_runs:
        for k in range(len(traj.records) - 1):
            ctx = step_context_at(problem, traj, k)
            if ctx.grad_norm_sq > ctx.grad_floor:
                ok = ok and check_optimal_step(ctx, seed=k)
                from_runs += 1
    report(6, ok, f"1000 random contexts plus {from_runs} run contexts")


def test_c07_contraction_inequalities(near_fgd_runs, near_estimated_runs):
    fixed_total = 0
    ok = True
    for _, _, reports in near_fgd_runs:
        for rep in reports:
            if rep.name == CHECK_CONTRACTION_FIXED:
                ok = ok and rep.applicable and rep.holds
                fixed_total += 1
    adaptive_total = 0
    noise_seen = False
    for _, traj, reports in near_estimated_runs:
        noise_seen = noise_seen or any(rec.delta != 0.0 for rec in traj.records)
        for rep in reports:
            if rep.name == CHECK_CONTRACTION_ADAPTIVE:
                ok = ok and rep.applicable and rep.holds
                adaptive_total += 1
    report(7, ok and fixed_total > 0 and adaptive_total > 0 and noise_seen,
           f"fixed-step factor at {fixed_total} steps, estimated-step factor "
           f"at {adaptive_total} steps (rho = 0.5 noise injected)")


def test_c08_adaptive_beats_fixed_at_benchmark_scale():
    start = time.perf_counter()
    ok = True
    lines = []
    ratios = defaultdict(list)
    for r in (2, 5):
        for kind, param in (("near", 0.5), ("far", 1.0)):
            for seed in (1, 2, 3):
                config = ExperimentConfig(
                    n=1000, r=r, seed=seed, init_kind=kind, init_param=param,
                    policies=("fgd", "adaptive-practical"),
                    max_iters=2000, rel_tol=1e-8)
                summary = run_comparison(config).summary["policies"]
                fgd = summary["fgd"]["iterations_to_tolerance"]
                adaptive = summary["adaptive-practical"]["iterations_to_tolerance"]
                ok = ok and adaptive is not None and (fgd is None or adaptive < fgd)
                if fgd is not None and adaptive:
                    ratios[f"r{r}-{kind}"].append(fgd / adaptive)
                lines.append(f"r{r}-{kind} seed {seed}: fgd={fgd} adaptive={adaptive}")
    elapsed = time.perf_counter() - start
    for line in lines:
        print("   ", line)
    summary = ", ".join(f"{k} x{np.mean(v):.1f}" for k, v in ratios.items())
    report(8, ok and elapsed < 300.0,
           f"adaptive strictly faster in all 12 runs ({summary}), {elapsed:.0f}s")


def test_c09_figure_reproduction_is_byte_identical(tmp_path):
    start = time.perf_counter()
    args = ["reproduce-figures", "--seed", "1"]
    code_a = main(args + ["--out", str(tmp_path / "a")])
    code_b = main(args + ["--out", str(tmp_path / "b")])
    identical = True
    compared = 0
    for label in ("r2-near", "r2-far", "r5-near", "r5-far"):
        for name in ("fgd.csv", "adaptive-practical.csv", "summary.json",
                     "plot.gp"):
            one = (tmp_path / "a" / label / name).read_bytes()
            two = (tmp_path / "b" / label / name).read_bytes()
            identical = identical and one == two
            compared += 1
    elapsed = time.perf_counter() - start
    report(9, code_a == 0 and code_b == 0 and identical,
           f"two full reproductions, {compared} files byte-identical, {elapsed:.0f}s")


def test_c10_rotation_equivariance_of_runs():
    rng = np.random.default_rng(10)
    u_star = rng.uniform(-1.0, 1.0, (200, 2))
    objective = matrix_factorization(u_star @ u_star.T)
    u0 = rng.uniform(-1.0, 1.0, (200, 2))
    rot = random_orthonormal(rng, 2)
    base = make_problem(objective, u0, u_star=u_star)
    rotated = make_problem(objective, u0 @ rot, u_star=u_star)

    def worst_rel(policy, horizon):
        one = run(base, policy, max_iters=horizon, rel_tol=1e-300)
        two = run(rotated, policy, max_iters=horizon, rel_tol=1e-300)
        assert len(one) == len(two) == horizon + 1
        return max(abs(ra.g_value - rb.g_value) / abs(ra.g_value)
                   for ra, rb in zip(one.records, two.records))

    fixed_drift = worst_rel(StepPolicy.fixed(), 100)
    # the adaptive run reaches machine-zero objective values well before 100
    # iterations, so its comparison stops inside the descending phase
    adaptive_drift = worst_rel(StepPolicy.adaptive_practical(), 40)
    report(10, fixed_drift <= 1e-9 and adaptive_drift <= 1e-9,
           f"g-values agree to {fixed_drift:.2e} (fixed, 100 iterations) and "
           f"{adaptive_drift:.2e} (adaptive, 40 iterations) relative")
