"""Step-size rules for factored gradient descent.

Four step quantities appear, all positive:

* ``eta_fixed``: the conservative constant step
  1 / (16 (M ||X0||_2 + ||grad f(X0)||_2)), anchored at the starting point.
* ``eta_local``: the same expression at the current X except the gradient is
  first projected onto the column space of U. Projection can only shrink the
  spectral norm, so at X0 the local step is never below the fixed one.
* ``eta_optimal``: the per-iteration minimizer of the quadratic upper bound
  on the next squared factor distance,
  0.8 * eta_local + 3 m sigma_r dist^2 / (20 ||grad f(X) U||_F^2).
* ``eta_practical``: the cheap variant that keeps the anchored fixed step as
  the base term and reads sigma_r off X0, so only the gradient norm and the
  distance are recomputed while iterating.

``eta_estimated`` is ``eta_optimal`` with dist^2 replaced by the estimate
dist^2 + delta. Whenever |delta| <= dist^2 / 2, the result stays within
[eta_optimal / 2, 3 eta_optimal / 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateProblemError, NegativeEstimateError, NumericalBlowupError,
                     ZeroGradientError)
from .geometry import _frobenius

FIXED_FGD = "fgd"
ADAPTIVE_EXACT = "adaptive-exact"
ADAPTIVE_PRACTICAL = "adaptive-practical"
POLICY_KINDS = (FIXED_FGD, ADAPTIVE_EXACT, ADAPTIVE_PRACTICAL)


@dataclass(frozen=True)
class StepPolicy:
    """How the per-iteration step length is chosen.

    The exact policy reads sigma_r off X*, the practical one off X0.
    ``delta_rho > 0`` switches the distance term to a synthetic estimate: at
    each iteration the true squared distance D2 is replaced by D2 + delta
    with delta = delta_rho * D2 * u, u ~ Uniform(-1, 1), so the estimation
    error never exceeds half of D2 when delta_rho <= 1/2. The fixed step
    reads no distance, so it takes no delta_rho.
    """

    kind: str
    delta_rho: float = 0.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not 0.0 <= self.delta_rho <= 0.5:
            raise ValueError("delta_rho must lie in [0, 1/2]")
        if self.kind == FIXED_FGD and self.delta_rho != 0.0:
            raise ValueError("the fixed step takes no delta_rho")

    @classmethod
    def fixed(cls) -> "StepPolicy":
        return cls(kind=FIXED_FGD)

    @classmethod
    def adaptive_exact(cls, delta_rho=0.0) -> "StepPolicy":
        return cls(kind=ADAPTIVE_EXACT, delta_rho=delta_rho)

    @classmethod
    def adaptive_practical(cls, delta_rho=0.0) -> "StepPolicy":
        return cls(kind=ADAPTIVE_PRACTICAL, delta_rho=delta_rho)


@dataclass(frozen=True)
class StepContext:
    """The scalars an adaptive step rule reads at one iterate.

    delta is the (possibly negative) estimation error added to dist_sq;
    grad_floor, when positive, is the threshold below which grad_norm_sq is
    considered numerically zero and the distance-driven term is dropped.
    Every field but delta is nonnegative; NaN and an infinite delta are rejected.
    """

    eta_fixed: float
    eta_local: float
    m: float
    sigma_r: float
    dist_sq: float
    grad_norm_sq: float
    delta: float = 0.0
    grad_floor: float = 0.0

    def __post_init__(self):
        for name in ("eta_fixed", "eta_local", "m", "sigma_r", "dist_sq",
                     "grad_norm_sq", "grad_floor"):
            if not getattr(self, name) >= 0.0:  # also rejects NaN
                raise ValueError(f"{name} must be nonnegative")
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")


def _inverse_bound(M: float, x_norm: float, grad_norm: float) -> float:
    """1 / (16 (M ||X||_2 + ||G||_2)): the one formula of eta_fixed and
    eta_local."""
    denom = 16.0 * (M * x_norm + grad_norm)
    if denom <= 0.0:
        raise DegenerateProblemError(
            "step denominator vanishes: X and its gradient term are both zero")
    return 1.0 / denom


def eta_fixed(M: float, x_norm: float, grad_norm: float) -> float:
    """Constant step 1 / (16 (M ||X0||_2 + ||grad f(X0)||_2)), from the two
    spectral norms at the start."""
    return _inverse_bound(M, x_norm, grad_norm)


def eta_local(M: float, x_norm: float, projected_grad_norm: float) -> float:
    """The fixed-step formula at the current X = U U^T with the gradient
    projected onto col(U): 1 / (16 (M ||X||_2 + ||grad f(X) Q Q^T||_2)),
    Q an orthonormal basis of col(U)."""
    return _inverse_bound(M, x_norm, projected_grad_norm)


# ||grad f(X) U||_F^2 at or below _GRAD_FLOOR * max(1, ||U||_F)^4 is numerically 0
_GRAD_FLOOR = 1e-14


def _gradient_scale(u: np.ndarray) -> float:
    """max(1, ||U||_F)^4, the scale of ||grad f(X) U||_F^2 that the
    gradient floors are relative to. Raises NumericalBlowupError when it
    overflows."""
    try:
        scale = max(1.0, _frobenius(u)) ** 4
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise NumericalBlowupError("||U||_F^4 overflows")
    return scale


def _distance_step(base, m, sigma_r, dist_sq, grad_norm_sq):
    """base + 3 m sigma_r dist_sq / (20 grad_norm_sq), on floats or arrays: the
    one formula of every adaptive step above its gradient floor."""
    return base + 3.0 * m * sigma_r * dist_sq / (20.0 * grad_norm_sq)


def _adaptive_step(ctx: StepContext, base: float, dist_sq: float) -> float:
    """_distance_step, or base alone when the gradient is at or below its
    floor. dist_sq is the true or the estimated squared distance."""
    if dist_sq < 0.0:
        raise NegativeEstimateError(
            f"estimated squared distance is negative: {dist_sq}")
    if ctx.grad_norm_sq > ctx.grad_floor:
        return _distance_step(base, ctx.m, ctx.sigma_r, dist_sq, ctx.grad_norm_sq)
    # below the floor the quotient is meaningless; with no floor, 0 is an error
    if ctx.grad_floor > 0.0:
        return base
    raise ZeroGradientError("adaptive step undefined at zero gradient")


def eta_optimal(ctx: StepContext) -> float:
    """Minimizer of the quadratic bound on the next squared distance:
    0.8 * eta_local + 3 m sigma_r dist^2 / (20 grad_norm_sq). This is
    eta_estimated with delta = 0."""
    return _adaptive_step(ctx, 0.8 * ctx.eta_local, ctx.dist_sq)


def eta_estimated(ctx: StepContext) -> float:
    """eta_optimal evaluated with the estimated squared distance
    dist_sq + delta (rejected if negative)."""
    return _adaptive_step(ctx, 0.8 * ctx.eta_local, ctx.dist_sq + ctx.delta)


def eta_practical(ctx: StepContext) -> float:
    """Anchored fixed step plus the distance-driven term; never below
    eta_fixed. Uses the estimated distance when delta is nonzero."""
    return _adaptive_step(ctx, ctx.eta_fixed, ctx.dist_sq + ctx.delta)
