"""The benchmark's tracer wraps package functions by name and rebuilds the
objective with ``dataclasses.replace``; a change that breaks either breaks
every traced benchmark run. The benchmark's own tests take long, so these
fast checks guard the contract here."""

import dataclasses
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from factordescent import (StepPolicy, init_near, make_problem, matrix_factorization, run,
                           trajectory_reports)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_tracer().TRACED
    assert traced
    for module, function, _ in traced:
        assert callable(getattr(importlib.import_module(f"factordescent.{module}"), function))


def test_objective_callables_are_replaceable():
    u = np.random.default_rng(0).uniform(-1.0, 1.0, (6, 2))
    objective = matrix_factorization(target_factor=u)
    replaced = dataclasses.replace(objective, value=lambda x: 0.0, grad=lambda x: x)
    assert replaced.value(u @ u.T) == 0.0
    np.testing.assert_array_equal(replaced.basis, objective.basis)


def test_report_counters_read_the_check_result():
    # bounds.reports and bounds.applicable are the length and the applicable
    # column of trajectory_reports' result, read off a real audited run
    u_star = np.random.default_rng(1).uniform(-1.0, 1.0, (12, 2))
    objective = matrix_factorization(target_factor=u_star)
    problem = make_problem(objective, init_near(u_star, 2, safety=0.5, kappa=objective.kappa),
                           u_star=u_star)
    traj = run(problem, StepPolicy.adaptive_exact(delta_rho=0.5), max_iters=20,
               rel_tol=1e-12, audit=True)
    result = trajectory_reports(problem, traj)
    counts = Counter()
    load_tracer()._count_reports(counts, (problem, traj), {}, result)
    assert counts["applicable"] > 0
    assert counts == {"reports": len(result),
                      "applicable": np.count_nonzero(result.applicable),
                      "audited_transitions": len(traj.records) - 1}
