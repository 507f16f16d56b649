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

from .errors import DegenerateProblemError, NegativeEstimateError, ZeroGradientError
from .geometry import _column_basis, as_factor, as_matrix, spectral_norm

__all__ = [
    "FIXED_FGD",
    "ADAPTIVE_EXACT",
    "ADAPTIVE_PRACTICAL",
    "POLICY_KINDS",
    "SIGMA_FROM_XSTAR",
    "SIGMA_FROM_X0",
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

SIGMA_FROM_XSTAR = "xstar"
SIGMA_FROM_X0 = "x0"
SIGMA_SOURCES = (SIGMA_FROM_XSTAR, SIGMA_FROM_X0)


@dataclass(frozen=True)
class StepPolicy:
    """How the per-iteration step length is chosen.

    ``delta_rho > 0`` switches the distance term to a synthetic estimate: at
    each iteration the true squared distance D2 is replaced by D2 + delta
    with delta = delta_rho * D2 * u, u ~ Uniform(-1, 1), so the estimation
    error never exceeds half of D2 when delta_rho <= 1/2.

    ``eta_override`` (fixed kind only) forces a literal constant step and
    ``eta_scale`` multiplies whatever step the rule produced; both exist for
    hand-checked examples and stress experiments.
    """

    kind: str
    sigma_r_source: str = SIGMA_FROM_XSTAR
    delta_rho: float = 0.0
    eta_override: float | None = None
    eta_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.sigma_r_source not in SIGMA_SOURCES:
            raise ValueError(f"unknown sigma_r source {self.sigma_r_source!r}")
        if not 0.0 <= self.delta_rho <= 0.5:
            raise ValueError("delta_rho must lie in [0, 1/2]")
        if self.eta_override is not None:
            if self.kind != FIXED_FGD:
                raise ValueError("eta_override only applies to the fixed policy")
            if self.eta_override <= 0.0:
                raise ValueError("eta_override must be positive")
        if self.eta_scale <= 0.0:
            raise ValueError("eta_scale must be positive")

    @classmethod
    def fixed(cls, eta_override=None, eta_scale=1.0) -> "StepPolicy":
        return cls(kind=FIXED_FGD, eta_override=eta_override, eta_scale=eta_scale)

    @classmethod
    def adaptive_exact(cls, sigma_r_source=SIGMA_FROM_XSTAR, delta_rho=0.0,
                       eta_scale=1.0) -> "StepPolicy":
        return cls(kind=ADAPTIVE_EXACT, sigma_r_source=sigma_r_source,
                   delta_rho=delta_rho, eta_scale=eta_scale)

    @classmethod
    def adaptive_practical(cls, sigma_r_source=SIGMA_FROM_X0, delta_rho=0.0,
                           eta_scale=1.0) -> "StepPolicy":
        return cls(kind=ADAPTIVE_PRACTICAL, sigma_r_source=sigma_r_source,
                   delta_rho=delta_rho, eta_scale=eta_scale)


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


def eta_local(M: float, x, grad, u) -> float:
    """Fixed-step expression at the current point with a projected gradient.

    Computes 1 / (16 (M ||X||_2 + ||grad f(X) Q Q^T||_2)) where Q spans
    col(U). X must equal U @ U.T (checked to ~1e-9); U must be nonzero.
    """
    u = as_factor(u)
    x = as_matrix(x)
    grad = as_matrix(grad)
    if not np.allclose(x, u @ u.T, rtol=1e-9, atol=1e-9):
        raise ValueError("x must equal u @ u.T")
    q = _column_basis(u)
    # ||G Q Q^T||_2 == ||G Q||_2: right-multiplying by Q^T preserves the
    # nonzero singular values.
    projected = spectral_norm(grad @ q)
    return 1.0 / (16.0 * (M * spectral_norm(x) + projected))


def grad_floor(u) -> float:
    """Threshold on ||grad f(X) U||_F^2 below which the distance-driven term
    of an adaptive step is numerically meaningless."""
    scale = max(1.0, float(np.linalg.norm(u)))
    return 1e-14 * scale ** 4


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
