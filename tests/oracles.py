"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: the alignment oracle
enumerates the orthogonal group directly (sign flip for r=1, a fine rotation
grid times an optional reflection for r=2), the derivative oracle uses
central differences, the dense reference forms X = U U^T, X - A and
grad f(X) as n x n arrays and takes their full SVDs, and the report
reference evaluates the inequality checks one iterate and one report at a
time in plain Python floats.
"""

from collections import namedtuple

import numpy as np

from factordescent import StepContext, StepPolicy, prepare, stepsize
from factordescent.bounds import (CHECK_CONTRACTION_ADAPTIVE, CHECK_CONTRACTION_EXACT_LOCAL,
                                  CHECK_CONTRACTION_EXACT_OPTIMAL, CHECK_CONTRACTION_FIXED,
                                  CHECK_DESCENT_QUADRATIC, CHECK_LOCAL_STEP_FLOOR,
                                  CHECK_OPTIMAL_STEP, CHECK_REGULARITY, GRID_POINTS,
                                  OPTIMAL_STEP_TOL, RANDOM_DRAWS, REPORT_FIELDS, TOL_ABS,
                                  TOL_REL)

ROTATION_GRID_STEP = 1e-4

# one reference report: the fields of a row of bounds.trajectory_reports
Report = namedtuple("Report", REPORT_FIELDS)


def brute_force_dist(u, v, step=ROTATION_GRID_STEP):
    """min ||U - V R||_F over orthonormal r x r R, for r in {1, 2}.

    Uses ||U - V R||_F^2 = ||U||^2 + ||V||^2 - 2 tr(R^T B) with B = V^T U.
    For r=1 the group is {+1, -1}; for r=2 every element is a rotation
    R(t) = [[c, -s], [s, c]] or a reflection R(t) @ diag(1, -1), and the
    trace term is a sinusoid in t maximized over a dense grid.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    r = u.shape[1]
    base = float(np.sum(u * u) + np.sum(v * v))
    b = v.T @ u
    if r == 1:
        best = abs(float(b[0, 0]))
    elif r == 2:
        t = np.arange(0.0, 2.0 * np.pi, step)
        c, s = np.cos(t), np.sin(t)
        rotations = c * (b[0, 0] + b[1, 1]) + s * (b[1, 0] - b[0, 1])
        reflections = c * (b[0, 0] - b[1, 1]) + s * (b[0, 1] + b[1, 0])
        best = float(max(rotations.max(), reflections.max()))
    else:
        raise ValueError("oracle only enumerates r in {1, 2}")
    return float(np.sqrt(max(base - 2.0 * best, 0.0)))


def central_difference(f, x, direction, t=1e-5):
    """Directional derivative of f at x along direction, to O(t^2)."""
    return (f(x + t * direction) - f(x - t * direction)) / (2.0 * t)


def random_orthonormal(rng, r):
    """Haar-ish orthonormal r x r matrix from the QR of a Gaussian draw."""
    q, rr = np.linalg.qr(rng.standard_normal((r, r)))
    return q * np.sign(np.diag(rr))


def dense_eta_fixed(big_m, x, grad):
    """1 / (16 (M ||X||_2 + ||grad||_2)) from full SVDs of the n x n
    matrices."""
    norms = [np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)[0] for m in (x, grad)]
    return 1.0 / (16.0 * (big_m * norms[0] + norms[1]))


def dense_evaluation(a, u, big_m=2.0):
    """g, the direction grad f(X) U, its squared norm, eta_fixed and eta_local
    of ||X - A||_F^2 at X = U U^T, all from dense n x n arithmetic."""
    u = np.asarray(u, dtype=float)
    x = u @ u.T
    residual = x - np.asarray(a, dtype=float)
    grad = 2.0 * residual
    direction = grad @ u
    return {"g": float(np.sum(residual * residual)), "direction": direction,
            "grad_norm_sq": float(np.sum(direction * direction)),
            "eta_fixed": dense_eta_fixed(big_m, x, grad),
            "eta_local": dense_eta_local(big_m, grad, u)}


def dense_eta_local(big_m, grad, u):
    """1 / (16 (M ||U U^T||_2 + ||G Q Q^T||_2)) from full SVDs of the n x n
    matrices, with Q the left singular vectors of U above the usual rank
    tolerance."""
    u = np.asarray(u, dtype=float)
    grad = np.asarray(grad, dtype=float)
    left, sigma, _ = np.linalg.svd(u, full_matrices=False)
    q = left[:, sigma > max(u.shape) * np.finfo(float).eps * sigma[0]]
    x_norm = np.linalg.svd(u @ u.T, compute_uv=False)[0]
    projected_norm = np.linalg.svd(grad @ q @ q.T, compute_uv=False)[0]
    return 1.0 / (16.0 * (big_m * x_norm + projected_norm))


def make_report(k, name, lhs, rhs, applicable=True, tol_abs=TOL_ABS, tol_rel=TOL_REL):
    slack = rhs - lhs
    holds = bool(slack >= -(tol_abs + tol_rel * abs(rhs)))
    return Report(k=int(k), name=name, lhs=float(lhs), rhs=float(rhs), slack=float(slack),
                  holds=holds, applicable=bool(applicable))


def _regularity_lhs(eta_local, grad_norm_sq, m, sigma_r, dist_sq):
    return 0.8 * eta_local * grad_norm_sq + 0.15 * m * sigma_r * dist_sq


def _bound(ctx, eta):
    """The quadratic bound on the next squared distance at step eta."""
    return (eta * eta * ctx.grad_norm_sq + ctx.dist_sq
            - 2.0 * eta * _regularity_lhs(ctx.eta_local, ctx.grad_norm_sq, ctx.m,
                                          ctx.sigma_r, ctx.dist_sq))


def _step_sample(eta_opt, seed):
    """GRID_POINTS steps of linspace(0, 2 eta*), then RANDOM_DRAWS uniform
    draws in [0, 2 eta*] from a fresh generator on seed."""
    top = 2.0 * eta_opt
    return np.concatenate([np.linspace(0.0, top, GRID_POINTS),
                           np.random.default_rng(seed).uniform(0.0, top, RANDOM_DRAWS)])


def _optimal_step_report(k, ctx, eta_opt, seed=0):
    """The bound at eta* against its minimum over a grid of [0, 2 eta*] plus
    uniform draws; applicable while the gradient is above its floor."""
    return make_report(k, CHECK_OPTIMAL_STEP, lhs=_bound(ctx, eta_opt),
                       rhs=float(np.min(_bound(ctx, _step_sample(eta_opt, seed)))),
                       applicable=ctx.grad_norm_sq > ctx.grad_floor,
                       tol_abs=OPTIMAL_STEP_TOL, tol_rel=0.0)


def _reports(k, ctx, correlation, inside, transition=None):
    """Every check at iterate k from its step context, correlation and radius
    flag, with eta* from the scalar rule. The point checks always; the
    transition checks when transition = (step taken, next squared distance)
    is given."""
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


def reference_reports(problem, traj):
    """Every report of an audited trajectory on problem, built iterate by
    iterate from the record, the audit row and the problem's constants: the
    reference that bounds.trajectory_reports must equal row for row."""
    reports = []
    eta0, last = prepare(problem, StepPolicy.fixed()).eta0, len(traj.records) - 1
    for k, (rec, row) in enumerate(zip(traj.records, traj.audit, strict=True)):
        local, floor, correlation, inside = row
        ctx = StepContext(eta_fixed=eta0, eta_local=local, m=problem.objective.m,
                          sigma_r=problem.sigma_r_xstar, dist_sq=rec.dist_sq,
                          grad_norm_sq=rec.grad_norm_sq, grad_floor=floor)
        transition = None if k == last else (rec.eta, traj.records[k + 1].dist_sq)
        reports += _reports(k, ctx, correlation, inside, transition)
    return reports
