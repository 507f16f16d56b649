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

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateProblemError, NegativeEstimateError, NumericalBlowupError,
                     ZeroGradientError)
from .geometry import _column_basis, as_factor, as_matrix, spectral_norm

__all__ = [
    "FIXED_FGD",
    "ADAPTIVE_EXACT",
    "ADAPTIVE_PRACTICAL",
    "POLICY_KINDS",
    "StepPolicy",
    "StepContext",
    "eta_fixed",
    "eta_local",
    "eta_optimal",
    "eta_estimated",
    "eta_practical",
    "grad_floor",
]

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
    error never exceeds half of D2 when delta_rho <= 1/2.
    """

    kind: str
    delta_rho: float = 0.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not 0.0 <= self.delta_rho <= 0.5:
            raise ValueError("delta_rho must lie in [0, 1/2]")

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
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


def eta_fixed(M: float, x0, grad0) -> float:
    """Constant step 1 / (16 (M ||X0||_2 + ||grad f(X0)||_2))."""
    denom = 16.0 * (M * spectral_norm(x0) + spectral_norm(grad0))
    if denom <= 0.0:
        raise DegenerateProblemError(
            "step denominator vanishes: X0 and grad f(X0) are both zero")
    return 1.0 / denom


def eta_local(M: float, grad, u) -> float:
    """Fixed-step expression at X = U U^T with a projected gradient.

    Computes 1 / (16 (M ||X||_2 + ||grad f(X) Q Q^T||_2)) where Q spans
    col(U). ||X||_2 = sigma_1(U)^2, so only n x r decompositions are taken;
    U must be nonzero.
    """
    u = as_factor(u)
    grad = as_matrix(grad)
    q = _column_basis(u)
    # ||G Q Q^T||_2 == ||G Q||_2: right-multiplying by Q^T preserves the
    # nonzero singular values.
    projected = spectral_norm(grad @ q)
    return 1.0 / (16.0 * (M * spectral_norm(u) ** 2 + projected))


def _gradient_scale(u) -> float:
    """max(1, ||U||_F)^4, the scale of ||grad f(X) U||_F^2 that the
    gradient floors are relative to. Raises NumericalBlowupError when it
    overflows."""
    with np.errstate(over="ignore"):
        scale = np.float64(max(1.0, float(np.linalg.norm(u)))) ** 4
    if not np.isfinite(scale):
        raise NumericalBlowupError("||U||_F^4 overflows")
    return float(scale)


def grad_floor(u) -> float:
    """Threshold on ||grad f(X) U||_F^2 below which the distance-driven term
    of an adaptive step is numerically meaningless."""
    return 1e-14 * _gradient_scale(u)


def _adaptive_step(ctx: StepContext, base: float, dist_sq: float) -> float:
    """base + 3 m sigma_r dist_sq / (20 grad_norm_sq), or base alone when the
    gradient is at or below its floor: the one formula of every adaptive
    step. dist_sq is the true or the estimated squared distance."""
    if dist_sq < 0.0:
        raise NegativeEstimateError(
            f"estimated squared distance is negative: {dist_sq}")
    if ctx.grad_norm_sq > max(ctx.grad_floor, 0.0):
        return base + 3.0 * ctx.m * ctx.sigma_r * dist_sq / (20.0 * ctx.grad_norm_sq)
    # Below the floor the division in the distance term is meaningless; with
    # no floor configured a vanishing gradient is an error.
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
