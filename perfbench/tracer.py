"""Outside-in tracing of the factordescent layers.

``install`` wraps each layer's public functions from the benchmark process:
every module namespace of the package that holds a traced function gets the
wrapper, so calls made through ``from .geometry import dist`` are seen as
well as calls through ``stepsize.eta_local``. The objective's ``value`` and
``grad`` are wrapped on the Objective that ``experiments`` builds. The
program itself is not changed.

A span is (name, start, end, parent). Spans are kept in flat arrays in
memory; self time is a span's duration minus the durations of its direct
children. Counters that need an argument or a result (bytes passed in,
iterations per policy, reports) are updated after the span has ended.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

MIB = float(2 ** 20)

# (module, function, span name); the three adaptive step rules share a span
TRACED = [
    ("geometry", "dist", "geometry.dist"),
    ("geometry", "procrustes_align", "geometry.procrustes_align"),
    ("geometry", "spectral_norm", "geometry.spectral_norm"),
    ("geometry", "sigma_min_positive", "geometry.sigma_min_positive"),
    ("stepsize", "eta_fixed", "stepsize.eta_fixed"),
    ("stepsize", "eta_local", "stepsize.eta_local"),
    ("stepsize", "eta_practical", "stepsize.rule"),
    ("stepsize", "eta_estimated", "stepsize.rule"),
    ("stepsize", "eta_optimal", "stepsize.rule"),
    ("descent", "prepare", "descent.prepare"),
    ("descent", "step", "descent.step"),
    ("descent", "init_near", "descent.init_near"),
    ("descent", "run", "descent.run"),
    ("bounds", "trajectory_reports", "bounds.trajectory_reports"),
    ("bounds", "step_context_at", "bounds.step_context_at"),
    ("bounds", "check_optimal_step", "bounds.check_optimal_step"),
    ("experiments", "generate_instance", "experiments.generate_instance"),
    ("experiments", "run_comparison", "experiments.run_comparison"),
    ("experiments", "reproduce_figures", "experiments.reproduce_figures"),
    ("experiments", "export_csv", "experiments.export_csv"),
    ("cli", "main", "cli.main"),
]

POLICIES = ("fgd", "adaptive-practical", "adaptive-exact")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, after=None):
        """fn recorded as a span; after(counts, args, kwargs, result) runs
        once the span has ended."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return traced

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.intc),
                np.frombuffer(self.parent, dtype=np.intc),
                np.frombuffer(self.start, dtype=float),
                np.frombuffer(self.end, dtype=float))

    def save(self, path: Path) -> None:
        ids, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=ids, parent=parent,
                 start=start, end=end)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times derived from the spans."""
        ids, parent, start, end = self._arrays()
        width = len(self.names)
        dur = end - start
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        calls = np.bincount(ids, minlength=width)
        self_s = np.bincount(ids, weights=self_time, minlength=width)
        total_s = np.bincount(ids, weights=dur, minlength=width)
        index = {name: i for i, name in enumerate(self.names)}

        def of(table, name):
            return float(table[index[name]]) if name in index else 0.0

        metrics: dict[str, float] = {}
        for name in ("geometry.dist", "geometry.procrustes_align",
                     "geometry.spectral_norm", "geometry.sigma_min_positive",
                     "objectives.value", "objectives.grad",
                     "stepsize.eta_fixed", "stepsize.eta_local", "stepsize.rule",
                     "descent.prepare", "descent.step",
                     "bounds.step_context_at", "bounds.check_optimal_step",
                     "experiments.generate_instance"):
            metrics[f"{name}.calls"] = of(calls, name)
            metrics[f"{name}.s"] = of(self_s, name)
        for name in ("descent.init_near", "bounds.trajectory_reports",
                     "experiments.export_csv"):
            metrics[f"{name}.s"] = of(self_s, name)
        metrics["geometry.spectral_norm.input_mb"] = self.counts["spectral_norm_bytes"] / MIB
        metrics["objectives.input_mb"] = self.counts["objective_bytes"] / MIB
        for policy in POLICIES:
            metrics[f"descent.iters.{policy}"] = float(self.counts[f"iters.{policy}"])
        metrics["bounds.reports"] = float(self.counts["reports"])
        metrics["bounds.applicable"] = float(self.counts["applicable"])

        # eta_local calls made on behalf of the checks, per audited transition
        is_bounds = np.array([name.startswith("bounds.") for name in self.names], dtype=bool)
        under = np.zeros(len(ids), dtype=bool)  # some ancestor is a bounds span
        while True:
            above = np.zeros(len(ids), dtype=bool)
            above[child] = (is_bounds[ids] | under)[parent[child]]
            if np.array_equal(above, under):
                break
            under = above
        local = ids == index.get("stepsize.eta_local", -1)
        audited = self.counts["audited_transitions"]
        metrics["bounds.eta_local_per_transition"] = (
            float(np.sum(local & under)) / audited if audited else 0.0)
        bounds_self = float(np.sum(self_time[is_bounds[ids]]))
        run_s = of(total_s, "descent.run")
        metrics["bounds.check_over_run"] = bounds_self / run_s if run_s else 0.0

        metrics["experiments.export_mb"] = self.counts["export_bytes"] / MIB
        metrics["cli.self_s"] = of(self_s, "cli.main")
        return metrics


def _count_spectral(counts, args, kwargs, result):
    counts["spectral_norm_bytes"] += getattr(args[0], "nbytes", 0)


def _count_objective(counts, args, kwargs, result):
    counts["objective_bytes"] += getattr(args[0], "nbytes", 0)


def _count_run(counts, args, kwargs, result):
    policy = args[1] if len(args) > 1 else kwargs["policy"]
    counts[f"iters.{policy.kind}"] += len(result.records) - 1


def _count_reports(counts, args, kwargs, result):
    traj = args[1] if len(args) > 1 else kwargs["traj"]
    counts["reports"] += len(result)
    counts["applicable"] += sum(1 for rep in result if rep.applicable)
    counts["audited_transitions"] += len(traj.records) - 1


def _count_export(counts, args, kwargs, result):
    counts["export_bytes"] += sum(Path(p).stat().st_size for p in result)


AFTER = {
    "geometry.spectral_norm": _count_spectral,
    "descent.run": _count_run,
    "bounds.trajectory_reports": _count_reports,
    "experiments.export_csv": _count_export,
}


def _replace_everywhere(original, replacement) -> None:
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "factordescent" or name.startswith("factordescent.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every package namespace that holds it,
    and the objective callables of every Objective that experiments builds."""
    import factordescent.cli  # noqa: F401  (loads every layer module)

    for module, fname, span in TRACED:
        original = getattr(sys.modules[f"factordescent.{module}"], fname)
        _replace_everywhere(original, tracer.wrap(span, original, AFTER.get(span)))

    build = sys.modules["factordescent.experiments"].matrix_factorization

    def traced_objective(*args, **kwargs):
        objective = build(*args, **kwargs)
        return dataclasses.replace(
            objective,
            value=tracer.wrap("objectives.value", objective.value, _count_objective),
            grad=tracer.wrap("objectives.grad", objective.grad, _count_objective))

    _replace_everywhere(build, traced_objective)
