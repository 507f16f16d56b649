"""Executable checks of the convergence analysis on concrete trajectories.

Every check compares the two sides of a proven inequality and returns an
InequalityReport with slack = rhs - lhs; slack >= 0 up to a small floating
point tolerance means the inequality holds. Checks whose hypotheses fail at
a given iterate (start radius exceeded, step of the wrong kind, estimation
error out of range) are marked not applicable instead of failed, so sweeps
over mixed trajectories never count vacuous cases either way.

Contraction factors verified per transition, with D2 = squared distance:

* fixed step eta:       D2 shrinks by at least 1 - (3/10)  m eta       sigma_r
* local step floor:     eta_local >= (5/6) eta everywhere in the radius
* optimal step eta*:    factors  1 - (12/25) m eta_local sigma_r
                        and      1 - (3/20)  m eta*      sigma_r
* estimated step:       factor   1 - (9/80)  m eta*      sigma_r,
                        valid whenever |eta_k - eta*| <= eta* / 2
                        (guaranteed by |delta| <= D2 / 2).

Eight checks in all: two per iterate (local step floor, regularity) and six
per transition (quadratic bound at the step taken, the four contraction
factors, and the optimal-step audit: the quadratic bound at eta* is no
larger than its minimum over a sample of steps in [0, 2 eta*]).

One function builds every report of an iterate from its check data: the
step context, the correlation <grad f(X) U, U - U* R> and the radius test.
An audited run (``run(..., audit=True)``) keeps that data from the very
evaluation its step rule used, so the trajectory checks evaluate nothing;
they read the next squared distance off the records. The point checks build
the same data for an arbitrary factor through the same helper, and the
public ``check_*`` functions select their report from those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import stepsize
from .descent import Problem, Trajectory, _check_data, _evaluate, prepare
from .stepsize import StepContext, StepPolicy

TOL_ABS = 1e-9
TOL_REL = 1e-9

CHECK_LOCAL_STEP_FLOOR = "local_step_floor"
CHECK_REGULARITY = "regularity"
CHECK_DESCENT_QUADRATIC = "descent_quadratic"
CHECK_CONTRACTION_FIXED = "contraction_fixed_step"
CHECK_CONTRACTION_ADAPTIVE = "contraction_adaptive_step"
CHECK_CONTRACTION_EXACT_LOCAL = "contraction_exact_local"
CHECK_CONTRACTION_EXACT_OPTIMAL = "contraction_exact_optimal"
CHECK_OPTIMAL_STEP = "optimal_step"

# variant argument of check_contraction -> report name
CONTRACTION_VARIANTS = {
    "fixed": CHECK_CONTRACTION_FIXED,
    "adaptive": CHECK_CONTRACTION_ADAPTIVE,
    "exact_local": CHECK_CONTRACTION_EXACT_LOCAL,
    "exact_optimal": CHECK_CONTRACTION_EXACT_OPTIMAL,
}


@dataclass(frozen=True)
class InequalityReport:
    """One inequality instance: holds iff slack >= -(tol_abs + tol_rel |rhs|)."""

    k: int
    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    applicable: bool


def make_report(k: int, name: str, lhs: float, rhs: float, applicable: bool = True,
                tol_abs: float = TOL_ABS, tol_rel: float = TOL_REL) -> InequalityReport:
    slack = rhs - lhs
    holds = bool(slack >= -(tol_abs + tol_rel * abs(rhs)))
    return InequalityReport(k=int(k), name=name, lhs=float(lhs), rhs=float(rhs),
                            slack=float(slack), holds=holds, applicable=bool(applicable))


def _regularity_lhs(eta_local, grad_norm_sq, m, sigma_r, dist_sq):
    return 0.8 * eta_local * grad_norm_sq + 0.15 * m * sigma_r * dist_sq


def dist_sq_upper_bound(eta: float, *, dist_sq: float, grad_norm_sq: float,
                        eta_local: float, m: float, sigma_r: float) -> float:
    """Quadratic-in-eta upper bound on the next squared factor distance,
    valid inside the start radius for any step length eta."""
    return (eta * eta * grad_norm_sq + dist_sq
            - 2.0 * eta * _regularity_lhs(eta_local, grad_norm_sq, m, sigma_r, dist_sq))


def _bound(ctx: StepContext, eta):
    return dist_sq_upper_bound(eta, dist_sq=ctx.dist_sq, grad_norm_sq=ctx.grad_norm_sq,
                               eta_local=ctx.eta_local, m=ctx.m, sigma_r=ctx.sigma_r)


@lru_cache(maxsize=256)
def _unit_draws(random_draws: int, seed) -> np.ndarray:
    draws = np.random.default_rng(seed).random(random_draws)
    draws.flags.writeable = False  # shared by every caller
    return draws


def _step_sample(eta_opt: float, grid_points: int, random_draws: int, seed) -> np.ndarray:
    """linspace(0, 2 eta*, grid_points) and then uniform(0, 2 eta*,
    random_draws) from a fresh generator on seed, bit for bit, with the unit
    draws made once per (random_draws, seed)."""
    top = 2.0 * eta_opt
    grid = np.arange(grid_points) * (top / max(grid_points - 1, 1))
    if grid_points > 1:
        grid[-1] = top  # linspace's exact endpoint
    return np.concatenate([grid, top * _unit_draws(random_draws, seed)])


def _optimal_step_report(k: int, ctx: StepContext, eta_opt: float, grid_points: int = 41,
                         random_draws: int = 20, seed=0, tol: float = 1e-12) -> InequalityReport:
    """The bound at eta* against its minimum over a grid of [0, 2 eta*] plus
    uniform draws; applicable while the gradient is above its floor."""
    etas = _step_sample(eta_opt, grid_points, random_draws, seed)
    return make_report(k, CHECK_OPTIMAL_STEP, lhs=_bound(ctx, eta_opt),
                       rhs=float(np.min(_bound(ctx, etas))),
                       applicable=ctx.grad_norm_sq > ctx.grad_floor,
                       tol_abs=tol, tol_rel=0.0)


def _reports(k: int, data, transition=None) -> list[InequalityReport]:
    """Every check at iterate k. The point checks always; the transition
    checks when transition = (step taken, next squared distance) is given.
    The contraction hypotheses are those listed in check_contraction; the
    optimal-step audit needs no radius, only a gradient above its floor."""
    ctx, correlation, inside = data
    m, sigma_r, eta0, dist_sq = ctx.m, ctx.sigma_r, ctx.eta_fixed, ctx.dist_sq
    reports = [
        make_report(k, CHECK_LOCAL_STEP_FLOOR, lhs=(5.0 / 6.0) * eta0,
                    rhs=ctx.eta_local, applicable=inside),
        make_report(k, CHECK_REGULARITY,
                    lhs=_regularity_lhs(ctx.eta_local, ctx.grad_norm_sq, m, sigma_r, dist_sq),
                    rhs=correlation, applicable=inside),
    ]
    if transition is None:
        return reports
    eta, dist_sq_next = transition
    eta_opt = stepsize.eta_optimal(ctx)
    step_is_optimal = abs(eta - eta_opt) <= 1e-9 * eta_opt
    step_near_optimal = abs(eta - eta_opt) <= 0.5 * eta_opt * (1.0 + 1e-9)
    step_is_fixed = abs(eta - eta0) <= 1e-12 * eta0
    # (name, right-hand side, step hypothesis); the left side is always D2_{k+1}
    for name, rhs, hypothesis in (
            (CHECK_DESCENT_QUADRATIC, _bound(ctx, eta), True),
            (CHECK_CONTRACTION_FIXED, (1.0 - 0.3 * m * eta0 * sigma_r) * dist_sq,
             step_is_fixed or step_near_optimal),
            (CHECK_CONTRACTION_ADAPTIVE, (1.0 - (9.0 / 80.0) * m * eta_opt * sigma_r) * dist_sq,
             step_near_optimal),
            (CHECK_CONTRACTION_EXACT_LOCAL,
             (1.0 - (12.0 / 25.0) * m * ctx.eta_local * sigma_r) * dist_sq, step_is_optimal),
            (CHECK_CONTRACTION_EXACT_OPTIMAL, (1.0 - 0.15 * m * eta_opt * sigma_r) * dist_sq,
             step_is_optimal)):
        reports.append(make_report(k, name, lhs=dist_sq_next, rhs=rhs,
                                   applicable=inside and hypothesis))
    reports.append(_optimal_step_report(k, ctx, eta_opt))
    return reports


def _require_audit(traj: Trajectory) -> None:
    if traj.audit is None:
        raise ValueError("trajectory has no audit data; rerun with audit=True")


def _reports_at(traj: Trajectory, k: int) -> list[InequalityReport]:
    """All reports of iterate k, with the outgoing transition unless k is last."""
    if k == len(traj.records) - 1:
        return _reports(k, traj.audit[k])
    return _reports(k, traj.audit[k], (traj.records[k].eta, traj.records[k + 1].dist_sq))


def _select(reports: list[InequalityReport], name: str) -> InequalityReport:
    return next(rep for rep in reports if rep.name == name)


def _transition_report(traj: Trajectory, k: int, name: str) -> InequalityReport:
    _require_audit(traj)
    if not 0 <= k < len(traj.records) - 1:
        raise IndexError(f"transition {k} out of range (0..{len(traj.records) - 2})")
    return _select(_reports_at(traj, k), name)


def _point_report(problem: Problem, u, k: int, name: str) -> InequalityReport:
    eta0 = prepare(problem, StepPolicy.fixed()).eta0
    return _select(_reports(k, _check_data(problem, _evaluate(problem, u), eta0)), name)


def check_local_step_floor(problem: Problem, u, k: int = 0) -> InequalityReport:
    """The local step at the iterate is at least 5/6 of the anchored fixed
    step. Applicable only inside the start radius."""
    return _point_report(problem, u, k, CHECK_LOCAL_STEP_FLOOR)


def check_regularity(problem: Problem, u, k: int = 0) -> InequalityReport:
    """The descent direction correlates with the aligned error at least as
    strongly as the weighted sum of gradient energy and squared distance:

        <grad f(X) U, U - U* R>  >=  0.8 eta_local ||grad f(X) U||_F^2
                                      + (3/20) m sigma_r dist^2
    """
    return _point_report(problem, u, k, CHECK_REGULARITY)


def check_descent_bound(problem: Problem, traj: Trajectory, k: int) -> InequalityReport:
    """The realized next squared distance sits below the quadratic bound
    evaluated at the step actually taken. Reads the audit of traj, which
    must be a run on problem."""
    return _transition_report(traj, k, CHECK_DESCENT_QUADRATIC)


def check_contraction(problem: Problem, traj: Trajectory, k: int,
                      variant: str = "fixed") -> InequalityReport:
    """Per-transition contraction of the squared distance.

    Variants and their hypotheses, all additionally requiring the iterate to
    sit inside the start radius:

    * "fixed":         factor 1 - (3/10) m eta0 sigma_r; the step must be the
                       anchored fixed one, or within half of the optimal step.
    * "adaptive":      factor 1 - (9/80) m eta* sigma_r; the step must lie
                       within half of the optimal step (the estimation model
                       with |delta| <= dist^2 / 2 guarantees this).
    * "exact_local":   factor 1 - (12/25) m eta_local sigma_r; exact optimal
                       step only.
    * "exact_optimal": factor 1 - (3/20) m eta* sigma_r; exact optimal step
                       only.
    """
    if variant not in CONTRACTION_VARIANTS:
        raise ValueError(f"unknown contraction variant {variant!r}")
    return _transition_report(traj, k, CONTRACTION_VARIANTS[variant])


def check_optimal_step(ctx: StepContext, grid_points: int = 41,
                       random_draws: int = 20, seed=0, tol: float = 1e-12) -> bool:
    """The optimal step really minimizes the quadratic bound: no sampled step
    in [0, 2 eta*] beats it by more than tol."""
    return _optimal_step_report(0, ctx, stepsize.eta_optimal(ctx), grid_points,
                                random_draws, seed, tol).holds


def step_context_at(problem: Problem, traj: Trajectory, k: int) -> StepContext:
    """The step context at a recorded iterate (true distance, no estimation
    error), as the audited run kept it, e.g. to audit the optimal-step
    property."""
    _require_audit(traj)
    return traj.audit[k][0]


def trajectory_reports(problem: Problem, traj: Trajectory) -> list[InequalityReport]:
    """Every check at every recorded iterate of a trajectory.

    Point checks (step floor, regularity) run at each iterate; transition
    checks (quadratic bound, all four contraction factors, optimal step) at
    each recorded transition. Requires an audited run on problem; nothing is
    evaluated again.
    """
    _require_audit(traj)
    reports: list[InequalityReport] = []
    for k in range(len(traj.records)):
        reports += _reports_at(traj, k)
    return reports
