"""The iteration engine: starting points, the update rule, stop rules, and
full trajectory recording.

The update is

    U_{k+1} = U_k - eta_k * grad f(U_k U_k^T) @ U_k

with eta_k chosen by a StepPolicy: the anchored fixed step, the exact
per-iteration optimal step (optionally with synthetic distance-estimation
noise), or the practical variant. A run records one IterateRecord per
iterate, including the final one, whose eta is the step that would have been
taken next. An audited run also keeps, per iterate, the data the checks in
``bounds`` read, taken from the same evaluation the step rule used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from . import stepsize
from .errors import (MissingGroundTruthError, NumericalBlowupError, ShapeMismatchError,
                     ZeroMatrixError)
from .geometry import as_factor, dist, procrustes_align, sigma_min_positive, spectral_norm
from .objectives import FactoredEvaluation, Objective
from .stepsize import ADAPTIVE_EXACT, FIXED_FGD, StepContext, StepPolicy

TERMINATED_TOLERANCE = "tolerance"
TERMINATED_MAX_ITERS = "max_iters"
TERMINATED_STATIONARY = "stationary"
TERMINATED_DIVERGED = "diverged"

# ||grad f(X) U||_F^2 below this scale-aware threshold counts as stationary.
_STOP_FLOOR = 1e-28


@dataclass(frozen=True)
class Problem:
    """Objective plus starting factor, with optional ground truth.

    sigma_r_xstar and sigma1_xstar are the smallest-positive and largest
    singular values of X* = U* U*^T; they are stored so per-iteration code
    never has to decompose an n x n matrix.
    """

    objective: Objective
    u0: np.ndarray
    u_star: np.ndarray | None = None
    sigma_r_xstar: float | None = None
    sigma1_xstar: float | None = None

    @cached_property
    def _anchor(self) -> tuple[float, float]:
        """(anchored fixed step, g(U0)), computed on first use and shared by
        every run on this instance: the one evaluation of U0, with the
        spectral norms of X0 and grad f(X0) read off its small QR core."""
        start = _evaluate(self, self.u0).f
        return stepsize.eta_fixed(self.objective.M, start.x_norm, start.grad_norm), start.g


def make_problem(objective: Objective, u0, u_star=None) -> Problem:
    """Build a Problem, deriving the spectrum of X* from U* when given.

    The singular values of X* are the squares of those of U*, so only the
    cheap n x r decomposition is ever taken. U0 must have the objective's n
    rows and be nonzero: the zero factor is a stationary point of every
    factored objective, so no step rule moves it.
    """
    u0 = as_factor(u0).copy()
    if u0.shape[0] != objective.basis.shape[0]:
        raise ShapeMismatchError(f"u0 has {u0.shape[0]} rows, the target "
                                 f"{objective.basis.shape[0]}")
    if not np.any(u0):
        raise ZeroMatrixError("u0 is zero, a stationary point of every factored objective")
    sigma_r = sigma1 = None
    if u_star is not None:
        u_star = as_factor(u_star).copy()
        if u_star.shape != u0.shape:
            raise ShapeMismatchError(
                f"u0 and u_star must share a shape: {u0.shape} vs {u_star.shape}")
        sigma_r = sigma_min_positive(u_star) ** 2
        sigma1 = spectral_norm(u_star) ** 2
    return Problem(objective=objective, u0=u0, u_star=u_star,
                   sigma_r_xstar=sigma_r, sigma1_xstar=sigma1)


@dataclass(frozen=True)
class IterateRecord:
    """Snapshot of one iterate: objective value, relative error, squared
    distance to the ground truth (None when unknown), the step used for the
    outgoing transition, squared gradient norm, the injected estimation
    error, and whether the gradient norm is below the stop floor."""

    k: int
    g_value: float
    rel_error: float
    dist_sq: float | None
    eta: float
    grad_norm_sq: float
    delta: float
    stationary: bool = False


@dataclass
class Trajectory:
    """All records of a run plus the termination reason; audit holds the
    check data of every recorded iterate (see ``step``) when the run was
    audited."""

    records: list[IterateRecord]
    terminated: str
    audit: list[tuple[StepContext, float, bool]] | None = None

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final(self) -> IterateRecord:
        return self.records[-1]

    def iterations_to(self, rel_tol: float):
        """First k with rel_error <= rel_tol, or None if never reached."""
        for rec in self.records:
            if rec.rel_error <= rel_tol:
                return rec.k
        return None


@dataclass(frozen=True)
class InitCheck:
    holds: bool
    lhs: float  # dist(U0, U*)
    rhs: float  # start radius


def _radius(sigma_r_xstar: float, sigma1_xstar: float, kappa: float) -> float:
    return float(np.sqrt(sigma_r_xstar) / (100.0 * kappa)
                 * sigma_r_xstar / sigma1_xstar)


def start_radius(u_star, kappa: float = 1.0) -> float:
    """Largest starting distance the contraction analysis tolerates:
    sqrt(sigma_r(X*)) / (100 kappa) * sigma_r(X*) / sigma_1(X*)."""
    u_star = as_factor(u_star)
    return _radius(sigma_min_positive(u_star) ** 2,
                   spectral_norm(u_star) ** 2, kappa)


def _problem_radius(problem: Problem) -> float:
    if problem.u_star is None:
        raise MissingGroundTruthError("start radius needs the ground-truth factor")
    return _radius(problem.sigma_r_xstar, problem.sigma1_xstar, problem.objective.kappa)


def check_init_condition(problem: Problem) -> InitCheck:
    """Whether dist(U0, U*) is within the start radius."""
    rhs = _problem_radius(problem)  # raises without a ground truth
    lhs = dist(problem.u0, problem.u_star)
    return InitCheck(holds=bool(lhs <= rhs), lhs=float(lhs), rhs=rhs)


def init_near(u_star, seed, safety: float = 0.5, kappa: float = 1.0) -> np.ndarray:
    """Random start at a pinned distance from the ground truth.

    Draws a Gaussian perturbation direction and scales it so that
    dist(U0, U*) equals safety * start_radius(U*). Because the aligned
    distance is slightly below the raw perturbation norm, the scale is
    found by root bracketing rather than plain division.
    """
    u_star = as_factor(u_star)
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(u_star.shape)
    direction /= np.linalg.norm(direction)
    target = safety * start_radius(u_star, kappa=kappa)

    def gap(t):
        return dist(u_star + t * direction, u_star) - target

    # gap(0) = -target < 0; dist >= t - 2 ||U*||_F makes the upper end positive
    hi = target + 2.0 * float(np.linalg.norm(u_star)) + 1.0
    scale = brentq(gap, 0.0, hi, xtol=1e-30, maxiter=200)
    return u_star + scale * direction


def _nonzero_uniform(rng, shape, scale):
    # the all-zero matrix is a stationary point of every factored objective,
    # so a (measure-zero) zero draw is rejected and redrawn
    u0 = rng.uniform(-scale, scale, size=shape)
    while not np.any(u0):
        u0 = rng.uniform(-scale, scale, size=shape)
    return u0


def init_far(u_star, seed, scale: float = 1.0) -> np.ndarray:
    """Start independent of the ground truth: i.i.d. Uniform(-scale, scale)
    entries, matching the law the benchmark instances use for U* itself.
    An all-zero draw is redrawn."""
    u_star = as_factor(u_star)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return _nonzero_uniform(np.random.default_rng(seed), u_star.shape, scale)


@dataclass(frozen=True)
class RunState:
    """Run-level constants: the anchored fixed step, the sigma_r the policy
    reads, and the starting objective value."""

    eta0: float
    sigma_r: float | None
    g0: float


@dataclass(frozen=True)
class _Evaluation:
    """One iterate U: the objective's evaluation f at U (g, the direction
    grad f(X) U, its squared norm and the spectral norms on demand), the
    gradient scale max(1, ||U||_F)^4 and, with a ground truth, the aligned
    error U - U* R and dist(U, U*)."""

    u: np.ndarray
    f: FactoredEvaluation
    scale: float
    error: np.ndarray | None
    dist: float | None
    dist_sq: float | None


def _evaluate(problem: Problem, u, k: int = 0) -> _Evaluation:
    """Everything the step rules and the checks read at iterate k. Raises
    NumericalBlowupError when g, the direction or the gradient scale is not
    finite."""
    u = as_factor(u)
    # overflow to inf is the divergence signal here, not a warning condition
    with np.errstate(over="ignore", invalid="ignore"):
        f = problem.objective.evaluate(u)
    if not (np.isfinite(f.g) and np.all(np.isfinite(f.direction))):
        raise NumericalBlowupError(f"objective or direction not finite at iteration {k}")
    scale = stepsize._gradient_scale(f.r1)  # ||R1||_F = ||U||_F
    error = distance = dist_sq = None
    if problem.u_star is not None:
        error = u - problem.u_star @ procrustes_align(u, problem.u_star)
        distance = float(np.linalg.norm(error))
        dist_sq = distance ** 2
    return _Evaluation(u=u, f=f, scale=scale, error=error, dist=distance, dist_sq=dist_sq)


def _eta_local(problem: Problem, point: _Evaluation) -> float:
    return stepsize.eta_local(problem.objective.M, point.f.x_norm, point.f.projected_grad_norm)


def _check_data(problem: Problem, point: _Evaluation, eta0: float, eta_local=None):
    """(step context, <grad f(X) U, U - U* R>, inside the start radius) at an
    evaluated iterate: everything the checks in ``bounds`` read. The context
    has the true distance, no estimation error, sigma_r of X* and the
    anchored fixed step eta0; eta_local is computed unless given."""
    radius = _problem_radius(problem)  # raises without a ground truth
    if eta_local is None:
        eta_local = _eta_local(problem, point)
    ctx = StepContext(eta_fixed=eta0, eta_local=eta_local, m=problem.objective.m,
                      sigma_r=problem.sigma_r_xstar, dist_sq=point.dist_sq,
                      grad_norm_sq=point.f.grad_norm_sq,
                      grad_floor=stepsize._GRAD_FLOOR * point.scale)
    return ctx, float(np.sum(point.f.direction * point.error)), point.dist <= radius


def prepare(problem: Problem, policy: StepPolicy) -> RunState:
    """Freeze the per-run quantities a policy needs before iterating."""
    eta0, g0 = problem._anchor
    sigma_r = None
    if policy.kind != FIXED_FGD:
        if problem.u_star is None:
            raise MissingGroundTruthError(
                "adaptive policies need the ground-truth factor to track the distance")
        if policy.kind == ADAPTIVE_EXACT:
            sigma_r = problem.sigma_r_xstar
        else:
            sigma_r = sigma_min_positive(problem.u0) ** 2
    return RunState(eta0=eta0, sigma_r=sigma_r, g0=g0)


def step(u, policy: StepPolicy, problem: Problem, *,
         state: RunState | None = None, k: int = 0, delta_rng=None, audit=None):
    """One update U - eta * grad f(U U^T) @ U under the given policy.

    Returns (next factor, record of the current iterate). state carries the
    run-level constants; passing None recomputes them from the problem.
    When audit is a list, the check data of the current iterate (see
    ``_check_data``) is appended to it once the update is known to be
    finite; an exact step lends it its own eta_local. Raises
    NumericalBlowupError when the iterate or the update is not finite.
    """
    if state is None:
        state = prepare(problem, policy)
    point = _evaluate(problem, u, k)

    eta_k, delta, local = state.eta0, 0.0, None
    if policy.kind != FIXED_FGD:
        if policy.delta_rho > 0.0:
            if delta_rng is None:
                raise ValueError("delta_rho > 0 requires a delta_rng")
            delta = policy.delta_rho * point.dist_sq * float(delta_rng.uniform(-1.0, 1.0))
        exact = policy.kind == ADAPTIVE_EXACT
        local = _eta_local(problem, point) if exact else None
        ctx = StepContext(eta_fixed=state.eta0, eta_local=local or 0.0, m=problem.objective.m,
                          sigma_r=state.sigma_r, dist_sq=point.dist_sq,
                          grad_norm_sq=point.f.grad_norm_sq, delta=delta,
                          grad_floor=stepsize._GRAD_FLOOR * point.scale)
        eta_k = stepsize.eta_estimated(ctx) if exact else stepsize.eta_practical(ctx)

    g = point.f.g
    if state.g0 > 0.0:
        rel = g / state.g0
    else:
        rel = 1.0 if g == state.g0 else float("inf")
    record = IterateRecord(k=int(k), g_value=g, rel_error=float(rel),
                           dist_sq=point.dist_sq, eta=float(eta_k),
                           grad_norm_sq=point.f.grad_norm_sq, delta=float(delta),
                           stationary=point.f.grad_norm_sq < _STOP_FLOOR * point.scale)

    with np.errstate(over="ignore", invalid="ignore"):
        u_next = point.u - eta_k * point.f.direction
    if not np.all(np.isfinite(u_next)):
        raise NumericalBlowupError(f"non-finite update at iteration {k}")
    if audit is not None:
        audit.append(_check_data(problem, point, state.eta0, local))
    return u_next, record


def run(problem: Problem, policy: StepPolicy, max_iters: int = 1000,
        rel_tol: float = 1e-8, *, delta_seed=0, audit: bool = False) -> Trajectory:
    """Iterate until rel_error <= rel_tol, the gradient is numerically
    stationary, the update blows up, or max_iters transitions have been taken.

    delta_seed feeds the synthetic distance-estimation noise when the policy
    requests it; identical seeds and configuration reproduce the trajectory
    exactly. audit=True keeps the check data of every recorded iterate in
    Trajectory.audit (needs the ground truth)."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not rel_tol > 0.0:  # also rejects NaN
        raise ValueError("rel_tol must be positive")
    state = prepare(problem, policy)
    delta_rng = np.random.default_rng(delta_seed)
    u = np.array(problem.u0, dtype=float)
    records: list[IterateRecord] = []
    entries: list | None = [] if audit else None
    terminated = TERMINATED_MAX_ITERS
    for k in range(max_iters + 1):
        try:
            u_next, record = step(u, policy, problem, state=state, k=k, delta_rng=delta_rng,
                                  audit=entries)
        except NumericalBlowupError:
            if not records:
                raise
            terminated = TERMINATED_DIVERGED
            break
        records.append(record)
        if record.rel_error <= rel_tol:
            terminated = TERMINATED_TOLERANCE
            break
        if record.stationary:
            terminated = TERMINATED_STATIONARY
            break
        u = u_next
    return Trajectory(records=records, terminated=terminated, audit=entries)
