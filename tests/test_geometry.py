import numpy as np
import pytest

from factordescent import (ShapeMismatchError, ZeroMatrixError, dist,
                           matrix_factorization, procrustes_align,
                           sigma_min_positive, spectral_norm)

from oracles import brute_force_dist, random_orthonormal


def assert_orthonormal(r):
    np.testing.assert_allclose(r.T @ r, np.eye(r.shape[1]), rtol=0, atol=1e-10)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_nilpotent(self):
        # singular values of [[0, 2], [0, 0]] are {2, 0}
        assert spectral_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0)


class TestSingularValues:
    # spectral_norm is the largest of the full SVD's singular values
    def test_diagonal(self):
        assert spectral_norm(np.diag([5.0, 2.0, 0.0])) == pytest.approx(5.0, abs=1e-12)

    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_rank_one(self):
        assert spectral_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_transpose_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 6))
        assert spectral_norm(m) == pytest.approx(spectral_norm(m.T), rel=1e-10, abs=1e-10)


class TestSigmaMinPositive:
    def test_skips_zero_singular_value(self):
        assert sigma_min_positive(np.diag([5.0, 2.0, 0.0])) == pytest.approx(2.0)

    def test_scalar(self):
        assert sigma_min_positive([[7.0]]) == pytest.approx(7.0)

    def test_rank_one_gram(self):
        u = np.array([[1.0], [1.0]])
        assert sigma_min_positive(u @ u.T) == pytest.approx(2.0)

    def test_zero_matrix_raises(self):
        with pytest.raises(ZeroMatrixError):
            sigma_min_positive(np.zeros((3, 2)))


class TestColumnSpaceProjector:
    """The projector Q_U Q_U^T onto the column space of U, as the evaluation's
    projected_grad_norm = ||grad f(X) Q_U Q_U^T||_2 applies it."""

    @staticmethod
    def assert_projects(u, projector):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((u.shape[0], u.shape[0]))
        a = a + a.T
        grad = 2.0 * (u @ u.T - a)
        projected = matrix_factorization(a).evaluate(u).projected_grad_norm
        assert projected == pytest.approx(np.linalg.norm(grad @ projector, 2), rel=1e-12)

    def test_single_basis_vector(self):
        self.assert_projects(np.array([[1.0], [0.0], [0.0]]), np.diag([1.0, 0.0, 0.0]))

    def test_orthonormal_columns(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        self.assert_projects(u, u @ u.T)

    def test_rank_deficient(self):
        u = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
        q = np.array([1.0, 2.0, 0.0]) / np.sqrt(5.0)
        self.assert_projects(u, np.outer(q, q))

    @pytest.mark.parametrize("seed", range(8))
    def test_idempotent_and_fixes_columns(self, seed):
        # a target inside col(U) keeps grad f(X) = 2 U (I - B) U^T there, so
        # the projector leaves it as it is
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((7, 3))
        b = rng.standard_normal((3, 3))
        point = matrix_factorization(u @ (b + b.T) @ u.T).evaluate(u)
        assert point.projected_grad_norm == pytest.approx(point.grad_norm, rel=1e-9)

    def test_zero_raises(self):
        with pytest.raises(ZeroMatrixError):
            matrix_factorization(np.eye(4)).evaluate(np.zeros((4, 2))).projected_grad_norm


class TestProcrustesAlign:
    def test_same_matrix_zero_residual(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((5, 2))
        r = procrustes_align(u, u)
        assert_orthonormal(r)
        assert np.linalg.norm(u - u @ r) <= 1e-10

    def test_sign_flip(self):
        u = np.array([[1.0], [2.0], [3.0]])
        r = procrustes_align(u, -u)
        np.testing.assert_allclose(r, [[-1.0]])
        assert np.linalg.norm(u - (-u) @ r) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_grid_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        u = rng.standard_normal((4, 2))
        v = rng.standard_normal((4, 2))
        r = procrustes_align(u, v)
        residual = np.linalg.norm(u - v @ r)
        assert residual == pytest.approx(brute_force_dist(u, v), abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_beats_random_rotations(self, seed):
        rng = np.random.default_rng(200 + seed)
        u = rng.standard_normal((6, 3))
        v = rng.standard_normal((6, 3))
        best = np.linalg.norm(u - v @ procrustes_align(u, v))
        for _ in range(100):
            candidate = random_orthonormal(rng, 3)
            assert best <= np.linalg.norm(u - v @ candidate) + 1e-9

    def test_rank_deficient_cross_matrix(self):
        # V^T U singular: any SVD completion is a minimizer, residual well defined
        u = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        v = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        r = procrustes_align(u, v)
        assert_orthonormal(r)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            procrustes_align(np.ones((3, 1)), np.ones((4, 1)))


class TestDist:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((6, 2))
        assert dist(u, u) <= 1e-12

    def test_orthogonal_rank_one(self):
        u = np.array([[1.0], [0.0]])
        v = np.array([[0.0], [1.0]])
        # min(||u - v||, ||u + v||) = sqrt(2)
        assert dist(u, v) == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_rotation_of_second_argument(self, seed):
        rng = np.random.default_rng(300 + seed)
        u = rng.standard_normal((5, 3))
        r = random_orthonormal(rng, 3)
        assert dist(u, u @ r) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(400 + seed)
        u = rng.standard_normal((5, 2))
        v = rng.standard_normal((5, 2))
        assert abs(dist(u, v) - dist(v, u)) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_bounded_by_plain_distance(self, seed):
        # the identity aligner is always a candidate
        rng = np.random.default_rng(500 + seed)
        u = rng.standard_normal((6, 3))
        v = rng.standard_normal((6, 3))
        assert dist(u, v) ** 2 <= np.sum((u - v) ** 2) + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_rotation_invariance_first_argument(self, seed):
        rng = np.random.default_rng(600 + seed)
        u = rng.standard_normal((5, 2))
        v = rng.standard_normal((5, 2))
        r = random_orthonormal(rng, 2)
        assert abs(dist(u @ r, v) - dist(u, v)) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            dist(np.ones((3, 1)), np.ones((3, 2)))
