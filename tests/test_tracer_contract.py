"""The benchmark's tracer wraps package functions by name and rebuilds the
objective with ``dataclasses.replace``; a change that breaks either breaks
every traced benchmark run. The benchmark's own tests take long, so these
fast checks guard the contract here."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from factordescent import matrix_factorization

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
