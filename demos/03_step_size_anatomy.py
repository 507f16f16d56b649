#
# The four step-size quantities, computed on one near-start instance:
#
#   eta_fixed     anchored at X0, constant over the run
#   eta_local     same formula at the current X, gradient projected on col(U)
#   eta_optimal   minimizer of the quadratic bound on the next distance^2
#   eta_practical fixed base + the same distance-driven correction
#
# The distance-driven term grows when the gradient is small relative to the
# distance, which is exactly when a larger step is safe.
#

from dataclasses import replace

import numpy as np

from factordescent import (StepContext, dist, eta_estimated, eta_fixed,
                           eta_local, eta_optimal, eta_practical,
                           factored_gradient, init_near, matrix_factorization,
                           sigma_min_positive)

rng = np.random.default_rng(2)
n, r = 40, 2

u_star = rng.uniform(-1.0, 1.0, (n, r))
objective = matrix_factorization(u_star @ u_star.T)
u0 = init_near(u_star, seed=7, safety=0.5)

x0 = u0 @ u0.T
grad0 = objective.grad(x0)
direction = factored_gradient(objective, u0)

eta0 = eta_fixed(objective.M, x0, grad0)
local = eta_local(objective.M, grad0, u0)
print(f"eta_fixed  = {eta0:.6e}")
print(f"eta_local  = {local:.6e}   (>= eta_fixed at X0: {local >= eta0})")

ctx = StepContext(
    eta_fixed=eta0,
    eta_local=local,
    m=objective.m,
    sigma_r=sigma_min_positive(u_star) ** 2,
    dist_sq=dist(u0, u_star) ** 2,
    grad_norm_sq=float(np.sum(direction * direction)),
)
print(f"eta_optimal   = {eta_optimal(ctx):.6e}")
print(f"eta_practical = {eta_practical(ctx):.6e}")

# ---------------------------------------------------------------
# Estimation noise moves the step, but never by more than half of
# the optimal step while |delta| <= dist^2 / 2
# ---------------------------------------------------------------
print()
opt = eta_optimal(ctx)
for rho in (-0.5, -0.25, 0.25, 0.5):
    est = eta_estimated(replace(ctx, delta=rho * ctx.dist_sq))
    print(f"delta = {rho:+.2f} * dist^2 -> eta = {est:.6e} "
          f"(deviation {abs(est - opt) / opt:.1%} of optimal)")
