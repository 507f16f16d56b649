#
# The matrix-factorization objective f(X) = ||X - A||_F^2 and its factored
# form g(U) = f(U U^T). The descent direction is grad f(X) @ U, which for a
# symmetric gradient is exactly half the chain-rule gradient of g. The
# objective evaluates both at U without forming an n x n matrix.
#

import numpy as np

from factordescent import eta_fixed, matrix_factorization

rng = np.random.default_rng(1)
n, r = 8, 2

u_star = rng.uniform(-1.0, 1.0, (n, r))
objective = matrix_factorization(target_factor=u_star)
print("constants (m, M):", (objective.m, objective.M), " kappa:", objective.kappa)


def g_value(u):
    return objective.evaluate(u).g


def direction(u):
    return objective.evaluate(u).direction


# ---------------------------------------------------------------
# Finite differences vs the closed-form directional derivative
# ---------------------------------------------------------------
u = rng.standard_normal((n, r))
e = rng.standard_normal((n, r))
t = 1e-5
numeric = (g_value(u + t * e) - g_value(u - t * e)) / (2 * t)
analytic = 2.0 * float(np.sum(direction(u) * e))
print("directional derivative of g: numeric", numeric, " analytic", analytic)

# ---------------------------------------------------------------
# A tiny step along the direction always descends
# ---------------------------------------------------------------
point = objective.evaluate(u)
eta = 1e-4 * eta_fixed(objective.M, point.x_norm, point.grad_norm)
before = g_value(u)
after = g_value(u - eta * direction(u))
print(f"g before {before:.6f} -> after {after:.6f} (eta = {eta:.2e})")

# at the solution the direction vanishes
print("direction at the solution, max-abs:",
      np.max(np.abs(direction(u_star))))
