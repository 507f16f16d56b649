"""The matrix-factorization objective, evaluated on the factor.

The optimization variable is a PSD matrix X written as U @ U.T and the
objective is the squared misfit f(X) = ||X - A||_F^2 to a symmetric target
A. The factored problem minimizes g(U) = f(U U^T), and the descent direction
used throughout this package is

    grad f(U U^T) @ U = 2 (X - A) U.

grad f is symmetric, so the chain-rule gradient of g is exactly twice that
product; the factor of two is absorbed by the step-size constants, so m and
M refer to f as a function of X. Its Hessian is 2 I on matrix space, so
m = M = 2 exactly.

The target is held as a signed factor A = V diag(s) V^T, and an iterate is
evaluated on n x r and small square arrays only. With the QR factorization
[U, V] = Q [R1 R2] and the core C = R1 R1^T - R2 diag(s) R2^T, X - A = Q C Q^T:

    g = ||C||_F^2,    direction = 2 Q C R1,    ||direction||_F^2 = 4 ||C R1||_F^2,
    ||X||_2 = sigma_1(R1)^2,    ||grad f(X)||_2 = 2 max |eig C|,
    ||grad f(X) P_U||_2 = 2 ||C W||_2    (W: left singular vectors of R1).

Q is never formed: Q C R1 = [U, V] D R^T R1 with D = diag(1, ..., 1, -s).
The three spectral norms are computed on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, ClassVar

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgesdd

from .errors import InvalidMatrixError, ZeroMatrixError
from .geometry import _positive_tol, as_factor, as_matrix, require_same_shape


def mf_value(a, x) -> float:
    """Squared Frobenius misfit ||X - A||_F^2."""
    a = as_matrix(a)
    x = as_matrix(x)
    require_same_shape(a, x)
    d = x - a
    return float(np.sum(d * d))


def mf_grad(a, x) -> np.ndarray:
    """Gradient 2 (X - A) of the squared misfit."""
    a = as_matrix(a)
    x = as_matrix(x)
    require_same_shape(a, x)
    return 2.0 * (x - a)


@lru_cache(maxsize=32)
def _upper(rows: int, cols: int) -> np.ndarray:
    """Read-only 0/1 mask of the upper trapezoid of a rows x cols array."""
    mask = np.triu(np.ones((rows, cols)))
    mask.flags.writeable = False
    return mask


def _lapack(routine, *args, **kwargs):
    """Call a LAPACK routine from scipy, raising on a nonzero info code."""
    *out, info = routine(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} failed with info={info}")
    return out


class FactoredEvaluation:
    """f, the direction grad f(X) U and the spectral norms at X = U U^T,
    read off the QR core of [U, V] (see the module docstring)."""

    def __init__(self, u: np.ndarray, basis: np.ndarray, weights: np.ndarray):
        n, r = u.shape
        stacked = np.concatenate((u, basis), axis=1)
        rows = min(n, stacked.shape[1])
        rr = _lapack(dgeqrf, stacked)[0][:rows] * _upper(rows, stacked.shape[1])
        rd = rr.copy()  # R D
        rd[:, r:] *= -weights
        self.shape = u.shape
        self.r1 = rr[:, :r]
        self.core = rd @ rr.T
        core_r1 = self.core @ self.r1
        self.g = float(np.vdot(self.core, self.core))
        self.grad_norm_sq = 4.0 * float(np.vdot(core_r1, core_r1))
        self.direction = 2.0 * (stacked @ (rd.T @ self.r1))

    @cached_property
    def _r1_svd(self):
        left, sigma, _ = _lapack(dgesdd, self.r1, full_matrices=0)
        return left, sigma

    @property
    def x_norm(self) -> float:
        """||X||_2 = sigma_1(U)^2."""
        return float(self._r1_svd[1][0]) ** 2

    @property
    def grad_norm(self) -> float:
        """||grad f(X)||_2 = 2 max |eig C|."""
        return 2.0 * float(np.max(np.abs(np.linalg.eigvalsh(self.core))))

    @property
    def projected_grad_norm(self) -> float:
        """||grad f(X) Q_U Q_U^T||_2 = 2 ||C W||_2, where W spans col(R1), one
        column per singular value of U above the rank tolerance; U must be
        nonzero."""
        left, sigma = self._r1_svd
        rank = int(np.count_nonzero(sigma > _positive_tol(self.shape, sigma)))
        if rank == 0:
            raise ZeroMatrixError("the zero matrix has no column space basis")
        # sigma is descending, so the kept singular vectors lead
        return 2.0 * float(_lapack(dgesdd, self.core @ left[:, :rank], compute_uv=0)[1][0])


@dataclass(frozen=True)
class Objective:
    """f(X) = ||X - A||_F^2 with the target held as A = V diag(s) V^T.

    value(X) and grad(X) take the full matrix variable and form A; the
    engine reads ``evaluate(U)`` instead, which forms no n x n array. The
    constants m = M = 2 are the strong-convexity and smoothness constants of
    f, with kappa = M / m; basis is V (n x k, k >= 0) and weights is s.
    """

    m: ClassVar[float] = 2.0
    M: ClassVar[float] = 2.0
    kappa: ClassVar[float] = M / m

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    basis: np.ndarray
    weights: np.ndarray

    def evaluate(self, u: np.ndarray) -> FactoredEvaluation:
        """The evaluation at a finite n x r factor U (not validated)."""
        return FactoredEvaluation(u, self.basis, self.weights)


def matrix_factorization(a=None, *, target_factor=None) -> Objective:
    """The objective ||X - A||_F^2, from exactly one of a symmetric target A
    or a target factor U* (A = U* U*^T, which is then never formed).

    A dense A is factored once with eigh, dropping eigenvalues at or below
    the rank tolerance. Bad data raise InvalidMatrixError.
    """
    if (a is None) == (target_factor is None):
        raise TypeError("give exactly one of a target A and a target_factor")
    if target_factor is not None:
        basis = as_factor(target_factor).copy()
        weights = np.ones(basis.shape[1])
    else:
        a = as_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise InvalidMatrixError(f"target must be square, got shape {a.shape}")
        if float(np.max(np.abs(a - a.T))) > 1e-9:
            raise InvalidMatrixError("target must be symmetric (max-abs asymmetry above 1e-9)")
        eigenvalues, vectors = np.linalg.eigh(a)
        magnitude = np.abs(eigenvalues)
        keep = magnitude > _positive_tol(a.shape, [np.max(magnitude)])
        basis, weights = vectors[:, keep], eigenvalues[keep]

    def target():
        return (basis * weights) @ basis.T

    return Objective(value=lambda x: mf_value(target(), x),
                     grad=lambda x: mf_grad(target(), x),
                     basis=basis, weights=weights)
