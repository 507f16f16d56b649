"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: the alignment oracle
enumerates the orthogonal group directly (sign flip for r=1, a fine rotation
grid times an optional reflection for r=2) and the derivative oracle uses
central differences.
"""

import numpy as np

ROTATION_GRID_STEP = 1e-4


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
