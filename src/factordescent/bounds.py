"""Executable checks of the convergence analysis on concrete trajectories.

Every check compares the two sides of a proven inequality, with slack =
rhs - lhs; slack >= 0 up to a small floating point tolerance means it holds.
Checks whose hypotheses fail at a given iterate (start radius exceeded, step
of the wrong kind, estimation error out of range) are marked not applicable
instead of failed, so sweeps over mixed trajectories never count vacuous
cases either way.

Contraction factors verified per transition, with D2 = squared distance,
each applicable inside the start radius and for the steps listed:

* fixed step eta0:      factor   1 - (3/10)  m eta0      sigma_r,
                        for the anchored fixed step or any step within
                        eta* / 2 of the optimal one
* local step floor:     eta_local >= (5/6) eta0 everywhere in the radius
* optimal step eta*:    factors  1 - (12/25) m eta_local sigma_r
                        and      1 - (3/20)  m eta*      sigma_r,
                        for the exact optimal step only
* estimated step:       factor   1 - (9/80)  m eta*      sigma_r,
                        valid whenever |eta_k - eta*| <= eta* / 2
                        (guaranteed by |delta| <= D2 / 2).

Eight checks in all: two per iterate (local step floor, regularity) and six
per transition (quadratic bound at the step taken, the four contraction
factors, and the optimal-step audit: the quadratic bound at eta* is no
larger than its minimum over a sample of steps in [0, 2 eta*]).

One function evaluates all eight as arrays over a table with a row per
iterate: the step taken, D2 and ||grad f(X) U||_F^2 off the record, then the
four floats of ``descent._check_data``, which an audited run (``run(...,
audit=True)``) keeps from the very evaluation its step rule used, so the
trajectory checks evaluate nothing; eta0, m and sigma_r(X*) are the
problem's. Transition k runs from row k to row k + 1, and eta* is one
column. The result is one numpy record array with a row (k, name, lhs, rhs,
slack, holds, applicable) per check and iterate, in (k, check) order; the
check of transition k is the row (k, CHECK_*). Index it for a row of numpy
scalars or read a field as a column; it has no truth value, so test it with
len(), and .tolist() gives Python values. The point checks return one row.
"""

from __future__ import annotations

import numpy as np

from . import stepsize
from .descent import Problem, Trajectory, _check_data, _evaluate
from .geometry import as_factor
from .stepsize import StepContext

TOL_ABS = 1e-9
TOL_REL = 1e-9

# the optimal-step audit's sample of [0, 2 eta*] (grid points, then uniform
# draws) and its absolute tolerance
GRID_POINTS = 41
RANDOM_DRAWS = 20
OPTIMAL_STEP_TOL = 1e-12

CHECK_LOCAL_STEP_FLOOR = "local_step_floor"
CHECK_REGULARITY = "regularity"
CHECK_DESCENT_QUADRATIC = "descent_quadratic"
CHECK_CONTRACTION_FIXED = "contraction_fixed_step"
CHECK_CONTRACTION_ADAPTIVE = "contraction_adaptive_step"
CHECK_CONTRACTION_EXACT_LOCAL = "contraction_exact_local"
CHECK_CONTRACTION_EXACT_OPTIMAL = "contraction_exact_optimal"
CHECK_OPTIMAL_STEP = "optimal_step"

# the checks of one iterate in report order: two point checks, then the six
# transition checks, with the absolute and relative tolerance of each
_CHECKS = (CHECK_LOCAL_STEP_FLOOR, CHECK_REGULARITY, CHECK_DESCENT_QUADRATIC,
           CHECK_CONTRACTION_FIXED, CHECK_CONTRACTION_ADAPTIVE,
           CHECK_CONTRACTION_EXACT_LOCAL, CHECK_CONTRACTION_EXACT_OPTIMAL, CHECK_OPTIMAL_STEP)
_TOL_ABS, _TOL_REL = np.array([[TOL_ABS] * 7 + [OPTIMAL_STEP_TOL], [TOL_REL] * 7 + [0.0]])
_NAMES = np.array(_CHECKS)
REPORT_FIELDS = ("k", "name", "lhs", "rhs", "slack", "holds", "applicable")


def _regularity_lhs(eta_local, grad_norm_sq, m, sigma_r, dist_sq):
    return 0.8 * eta_local * grad_norm_sq + 0.15 * m * sigma_r * dist_sq


def dist_sq_upper_bound(eta: float, *, dist_sq: float, grad_norm_sq: float,
                        eta_local: float, m: float, sigma_r: float) -> float:
    """Quadratic-in-eta upper bound on the next squared factor distance,
    valid inside the start radius for any step length eta."""
    return (eta * eta * grad_norm_sq + dist_sq
            - 2.0 * eta * _regularity_lhs(eta_local, grad_norm_sq, m, sigma_r, dist_sq))


def _step_sample(eta_opt, seed) -> np.ndarray:
    """linspace(0, 2 eta*, GRID_POINTS) and then uniform(0, 2 eta*,
    RANDOM_DRAWS) from a fresh generator on seed, bit for bit: one row per
    entry of an array of eta*."""
    top = 2.0 * np.asarray(eta_opt, dtype=float)
    draws = top[..., None] * np.random.default_rng(seed).random(RANDOM_DRAWS)
    return np.concatenate([np.linspace(0.0, top, GRID_POINTS, axis=-1), draws], axis=-1)


def _reports(eta0, m, sigma_r, table, k0: int = 0, seed=0) -> np.recarray:
    """Every check over the table rows k0, k0 + 1, ..., in (k, check) order.
    A row is (step taken, D2, ||grad f(X) U||_F^2, eta_local, gradient floor,
    correlation, radius flag). The point checks run at every row; the
    transition checks at every row but the last. The contraction hypotheses
    are those in the module docstring; the optimal-step audit needs no
    radius, only a gradient above its floor."""
    n_rows, n_steps = len(table), max(len(table) - 1, 0)
    columns = np.array(table, dtype=float).reshape(n_rows, 7)
    _, dist_sq, grad_sq, local, _, correlation, inside = columns.T
    lhs, rhs = np.zeros((2, n_rows, len(_CHECKS)))
    applicable = np.repeat(inside[:, None] > 0.0, len(_CHECKS), axis=1)
    lhs[:, 0], rhs[:, 0] = (5.0 / 6.0) * eta0, local
    lhs[:, 1], rhs[:, 1] = _regularity_lhs(local, grad_sq, m, sigma_r, dist_sq), correlation

    # the transition rows, as columns of shape (n_steps, 1)
    eta, dist_sq, grad_sq, local, floor = columns[:n_steps, :5].T[..., None]
    # eta_optimal's eta*: 0.8 eta_local at or below the floor, where the quotient is dropped
    with np.errstate(divide="ignore", invalid="ignore"):
        eta_opt = np.where(grad_sq > floor,
                           stepsize._distance_step(0.8 * local, m, sigma_r, dist_sq, grad_sq),
                           0.8 * local)
    step_is_optimal = np.abs(eta - eta_opt) <= 1e-9 * eta_opt
    step_near_optimal = np.abs(eta - eta_opt) <= 0.5 * eta_opt * (1.0 + 1e-9)
    step_is_fixed = np.abs(eta - eta0) <= 1e-12 * eta0
    # the quadratic bound at the step taken, at eta* and over the audit's sample
    bound = dist_sq_upper_bound(np.hstack([eta, eta_opt, _step_sample(eta_opt[:, 0], seed)]),
                                dist_sq=dist_sq, grad_norm_sq=grad_sq, eta_local=local, m=m,
                                sigma_r=sigma_r)
    lhs[:n_steps, 2:] = columns[1:, 1:2]  # the next squared distance
    lhs[:n_steps, 7] = bound[:, 1]
    rhs[:n_steps, 2:] = np.hstack([
        bound[:, :1], (1.0 - 0.3 * m * eta0 * sigma_r) * dist_sq,
        (1.0 - (9.0 / 80.0) * m * eta_opt * sigma_r) * dist_sq,
        (1.0 - (12.0 / 25.0) * m * local * sigma_r) * dist_sq,
        (1.0 - 0.15 * m * eta_opt * sigma_r) * dist_sq,
        np.min(bound[:, 2:], axis=1, keepdims=True)])
    applicable[:n_steps, 3:7] &= np.hstack([step_is_fixed | step_near_optimal,
                                            step_near_optimal, step_is_optimal, step_is_optimal])
    applicable[:n_steps, 7] = (grad_sq > floor)[:, 0]

    present = (np.arange(n_rows)[:, None] < n_steps) | (np.arange(len(_CHECKS)) < 2)
    ks, checks = np.nonzero(present)
    lhs, rhs, applicable = lhs[present], rhs[present], applicable[present]
    slack = rhs - lhs
    holds = slack >= -(_TOL_ABS[checks] + _TOL_REL[checks] * np.abs(rhs))
    return np.rec.fromarrays([ks + k0, _NAMES[checks], lhs, rhs, slack, holds, applicable],
                             names=REPORT_FIELDS)


def _require_audit(problem: Problem, traj: Trajectory) -> None:
    if traj.audit is None:
        raise ValueError("trajectory has no audit data; rerun with audit=True")
    problem._start_radius  # raises without a ground truth, as an audited run does


def _point_report(problem: Problem, u, k: int, name: str) -> np.record:
    point = _evaluate(problem, as_factor(u))
    row = (0.0, point.dist_sq, point.f.grad_norm_sq, *_check_data(problem, point))
    return _reports(problem._anchor[0], problem.objective.m, problem.sigma_r_xstar, [row],
                    k0=k)[_CHECKS.index(name)]


def check_local_step_floor(problem: Problem, u, k: int = 0) -> np.record:
    """The local step at the iterate is at least 5/6 of the anchored fixed
    step. Applicable only inside the start radius."""
    return _point_report(problem, u, k, CHECK_LOCAL_STEP_FLOOR)


def check_regularity(problem: Problem, u, k: int = 0) -> np.record:
    """The descent direction correlates with the aligned error at least as
    strongly as the weighted sum of gradient energy and squared distance:

        <grad f(X) U, U - U* R>  >=  0.8 eta_local ||grad f(X) U||_F^2
                                      + (3/20) m sigma_r dist^2
    """
    return _point_report(problem, u, k, CHECK_REGULARITY)


def check_optimal_step(ctx: StepContext, seed=0) -> bool:
    """The optimal step really minimizes the quadratic bound: no sampled step
    in [0, 2 eta*] beats it by more than OPTIMAL_STEP_TOL. Raises
    ZeroGradientError at a zero gradient with no floor."""
    stepsize.eta_optimal(ctx)  # for its ZeroGradientError
    row = (0.0, ctx.dist_sq, ctx.grad_norm_sq, ctx.eta_local, ctx.grad_floor, 0.0, 0.0)
    return _reports(ctx.eta_fixed, ctx.m, ctx.sigma_r, [row, row],  # a transition from row 0
                    seed=seed).holds.tolist()[_CHECKS.index(CHECK_OPTIMAL_STEP)]


def step_context_at(problem: Problem, traj: Trajectory, k: int) -> StepContext:
    """The step context at a recorded iterate (true distance, no estimation
    error), read off its record, its audit row and the problem, e.g. to
    audit the optimal-step property."""
    _require_audit(problem, traj)
    rec, (local, floor, _, _) = traj.records[k], traj.audit[k]
    return StepContext(eta_fixed=problem._anchor[0], eta_local=local, m=problem.objective.m,
                       sigma_r=problem.sigma_r_xstar, dist_sq=rec.dist_sq,
                       grad_norm_sq=rec.grad_norm_sq, grad_floor=floor)


def trajectory_reports(problem: Problem, traj: Trajectory) -> np.recarray:
    """Every check at every recorded iterate of a trajectory, as one record
    array (see the module docstring).

    Point checks (step floor, regularity) run at each iterate; transition
    checks (quadratic bound, all four contraction factors, optimal step) at
    each recorded transition, in (k, check) order: check NAME at iterate k
    is the row with (rep.k, rep.name) == (k, NAME). Requires an audited run
    on problem; nothing is evaluated again.
    """
    _require_audit(problem, traj)
    table = [(rec.eta, rec.dist_sq, rec.grad_norm_sq, *row)
             for rec, row in zip(traj.records, traj.audit, strict=True)]
    return _reports(problem._anchor[0], problem.objective.m, problem.sigma_r_xstar, table)
