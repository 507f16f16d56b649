"""Dense factor-space geometry.

A "factor" is a tall n x r array U (r <= n) representing the PSD matrix
U @ U.T. Two factors describe the same PSD matrix exactly when they differ
by a right multiplication with an orthonormal r x r matrix, so factors are
compared modulo that rotation:

    dist(U, V) = min over orthonormal R of ||U - V R||_F

with the minimizer given in closed form by the orthogonal Procrustes
solution. Everything in this module is a pure function of its inputs;
matrices with NaN or Inf entries are rejected at the boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMatrixError, ShapeMismatchError, ZeroMatrixError

# Absolute floor below which a singular value never counts as positive,
# regardless of matrix scale.
_SIGMA_FLOOR = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d float array, rejecting NaN/Inf and empty axes."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise InvalidMatrixError(f"expected a 2-d array, got ndim={m.ndim}")
    if min(m.shape) < 1:
        raise InvalidMatrixError(f"matrix must be non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrixError("matrix entries must be finite")
    return m


def as_factor(a) -> np.ndarray:
    """Coerce to a valid factor: 2-d, finite, and tall (r <= n)."""
    u = as_matrix(a)
    n, r = u.shape
    if r > n:
        raise InvalidMatrixError(f"factor matrices are tall (cols <= rows), got shape {u.shape}")
    return u


def require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")


def spectral_norm(m) -> float:
    """Largest singular value, computed from a full SVD."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


def _positive_tol(shape: tuple[int, int], sigma: np.ndarray) -> float:
    # standard numerical-rank convention, with an absolute floor
    return max(max(shape) * np.finfo(float).eps * float(sigma[0]), _SIGMA_FLOOR)


def sigma_min_positive(m) -> float:
    """Smallest singular value that counts as strictly positive.

    Raises ZeroMatrixError when every singular value sits below the rank
    tolerance (max(rows, cols) * sigma_1 * machine epsilon, floored at 1e-12).
    """
    m = as_matrix(m)
    sigma = np.linalg.svd(m, compute_uv=False)
    positive = sigma[sigma > _positive_tol(m.shape, sigma)]
    if positive.size == 0:
        raise ZeroMatrixError("matrix has no strictly positive singular values")
    return float(positive[-1])


def procrustes_align(u, v) -> np.ndarray:
    """Orthonormal r x r matrix R minimizing ||U - V R||_F.

    Closed form: with the SVD V.T @ U = P S Q^T the minimizer is R = P Q^T,
    the classical maximizer of tr(R^T V^T U). When V.T @ U is rank deficient
    the SVD bases are not unique, but every completion attains the same
    residual, so the returned R is always *a* minimizer.
    """
    u = as_factor(u)
    v = as_factor(v)
    require_same_shape(u, v)
    p, _, qt = np.linalg.svd(v.T @ u)
    return p @ qt


def dist(u, v) -> float:
    """Rotation-invariant factor distance min_R ||U - V R||_F.

    Symmetric in its arguments and zero exactly when V equals U times an
    orthonormal matrix.
    """
    u = as_factor(u)
    v = as_factor(v)
    require_same_shape(u, v)
    return float(np.linalg.norm(u - v @ procrustes_align(u, v)))

