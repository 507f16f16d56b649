import numpy as np
import pytest

from factordescent import (ExperimentConfig, FactorDescentError, InvalidMatrixError,
                           Objective, ShapeMismatchError, StepPolicy, eta_fixed, eta_local,
                           generate_instance, make_problem, matrix_factorization, mf_grad,
                           mf_value, prepare, step)

from oracles import central_difference, dense_evaluation


def g_value(obj, u):
    return obj.evaluate(np.asarray(u, dtype=float)).g


def factored_gradient(obj, u):
    return obj.evaluate(np.asarray(u, dtype=float)).direction


def random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return m + m.T


class TestMfValue:
    def test_zero_at_target(self):
        a = np.diag([1.0, 2.0])
        assert mf_value(a, a) == 0.0

    def test_identity_vs_zero(self):
        assert mf_value(np.zeros((2, 2)), np.eye(2)) == pytest.approx(2.0)

    def test_swapped_diagonals(self):
        assert mf_value(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mf_value(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_midpoint_convexity(self, seed):
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, 4)
        x = random_symmetric(rng, 4)
        y = random_symmetric(rng, 4)
        mid = mf_value(a, 0.5 * (x + y))
        assert mid <= 0.5 * (mf_value(a, x) + mf_value(a, y)) + 1e-9


class TestMfGrad:
    def test_zero_at_target(self):
        a = np.diag([1.0, 2.0])
        np.testing.assert_array_equal(mf_grad(a, a), np.zeros((2, 2)))

    def test_identity_vs_zero(self):
        np.testing.assert_allclose(mf_grad(np.zeros((2, 2)), np.eye(2)), 2.0 * np.eye(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(40 + seed)
        a = random_symmetric(rng, 5)
        x = random_symmetric(rng, 5)
        e = random_symmetric(rng, 5)
        numeric = central_difference(lambda z: mf_value(a, z), x, e, t=1e-5)
        analytic = float(np.sum(mf_grad(a, x) * e))
        assert numeric == pytest.approx(analytic, abs=1e-8)


class TestMfConstants:
    def test_values(self):
        obj = matrix_factorization(np.eye(3))
        assert (obj.m, obj.M) == (2.0, 2.0)

    def test_kappa_one(self):
        obj = matrix_factorization(np.eye(3))
        assert obj.kappa == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_quadratic_expansion_is_exact(self, seed):
        # f(Y) = f(X) + <grad f(X), Y-X> + (m/2) ||Y-X||_F^2 with equality
        rng = np.random.default_rng(70 + seed)
        a = random_symmetric(rng, 4)
        x = random_symmetric(rng, 4)
        y = random_symmetric(rng, 4)
        m = matrix_factorization(a).m
        expansion = (mf_value(a, x) + np.sum(mf_grad(a, x) * (y - x))
                     + 0.5 * m * np.sum((y - x) ** 2))
        assert mf_value(a, y) == pytest.approx(expansion, rel=1e-12, abs=1e-12)


class TestGValue:
    def test_zero_at_solution(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((5, 2))
        obj = matrix_factorization(u @ u.T)
        assert g_value(obj, u) <= 1e-18

    def test_zero_factor(self):
        obj = matrix_factorization(np.eye(2))
        assert g_value(obj, np.zeros((2, 1))) == pytest.approx(2.0)


class TestFactoredGradient:
    def test_vanishes_at_solution(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((5, 2))
        obj = matrix_factorization(u @ u.T)
        assert np.max(np.abs(factored_gradient(obj, u))) <= 1e-9

    def test_zero_target(self):
        obj = matrix_factorization(np.zeros((2, 2)))
        np.testing.assert_allclose(factored_gradient(obj, np.eye(2)), 2.0 * np.eye(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_half_of_chain_rule_gradient(self, seed):
        # d/dt g(U + t E) at 0 equals <2 grad f(X) U, E> for symmetric grad f
        rng = np.random.default_rng(90 + seed)
        u = rng.standard_normal((5, 2))
        e = rng.standard_normal((5, 2))
        obj = matrix_factorization(random_symmetric(rng, 5))
        numeric = central_difference(lambda z: g_value(obj, z), u, e, t=1e-5)
        analytic = 2.0 * float(np.sum(factored_gradient(obj, u) * e))
        assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_small_step_descends(self, seed):
        rng = np.random.default_rng(120 + seed)
        u_star = rng.uniform(-1.0, 1.0, (8, 2))
        obj = matrix_factorization(u_star @ u_star.T)
        u = rng.standard_normal((8, 2))
        direction = factored_gradient(obj, u)
        assert np.any(direction)
        point = obj.evaluate(u)
        eta = 1e-4 * eta_fixed(obj.M, point.x_norm, point.grad_norm)
        assert g_value(obj, u - eta * direction) <= g_value(obj, u)


class TestObjectiveValidation:
    def test_requires_ordered_constants(self):
        # m and M are ordered constants of the class, not constructor arguments
        assert 0.0 < Objective.m <= Objective.M
        assert Objective.kappa == Objective.M / Objective.m
        with pytest.raises(TypeError):
            Objective(value=lambda x: 0.0, grad=lambda x: x, m=3.0, M=1.0,
                      basis=np.zeros((2, 0)), weights=np.zeros(0))

    def test_rejects_asymmetric_target(self):
        with pytest.raises(ValueError):
            matrix_factorization(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_symmetric_on_symmetric_input(self, seed):
        rng = np.random.default_rng(150 + seed)
        a = random_symmetric(rng, 4)
        obj = matrix_factorization(a)
        x = random_symmetric(rng, 4)
        grad = obj.grad(x)
        assert np.max(np.abs(grad - grad.T)) <= 1e-9


class TestTypedErrors:
    @pytest.mark.parametrize("target", [
        np.array([[np.nan, 0.0], [0.0, 1.0]]),       # not finite
        np.array([[0.0, 1.0], [0.0, 0.0]]),          # asymmetric
        np.ones((2, 3)),                             # not square
        np.ones(3),                                  # not 2-d
    ])
    def test_dense_target(self, target):
        with pytest.raises(InvalidMatrixError):
            matrix_factorization(target)

    @pytest.mark.parametrize("factor", [
        np.array([[np.inf], [1.0]]),                 # not finite
        np.ones((2, 3)),                             # wide
        np.ones(3),                                  # not 2-d
    ])
    def test_target_factor(self, factor):
        with pytest.raises(InvalidMatrixError):
            matrix_factorization(target_factor=factor)

    def test_errors_are_package_errors_and_value_errors(self):
        with pytest.raises(FactorDescentError):
            matrix_factorization(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert issubclass(InvalidMatrixError, ValueError)

    def test_exactly_one_target(self):
        with pytest.raises(TypeError):
            matrix_factorization()
        with pytest.raises(TypeError):
            matrix_factorization(np.eye(2), target_factor=np.ones((2, 1)))

    @pytest.mark.parametrize("build", [
        lambda: matrix_factorization(np.eye(5)),
        lambda: matrix_factorization(target_factor=np.ones((5, 2))),
    ])
    def test_start_must_match_the_target(self, build):
        with pytest.raises(ShapeMismatchError):
            make_problem(build(), np.ones((4, 2)))


def assert_matches_dense(obj, a, u, rel=1e-9):
    """The factored evaluation of obj at U against the dense reference."""
    point = obj.evaluate(u)
    dense = dense_evaluation(a, u)
    factored = {"g": point.g, "direction": point.direction,
                "grad_norm_sq": point.grad_norm_sq,
                "eta_fixed": eta_fixed(obj.M, point.x_norm, point.grad_norm),
                "eta_local": eta_local(obj.M, point.x_norm, point.projected_grad_norm)}
    for name, reference in dense.items():
        gap = np.linalg.norm(np.asarray(factored[name]) - reference)
        assert gap <= rel * np.linalg.norm(reference), name


class TestDenseAgreement:
    """Dense n x n arithmetic and the QR-core evaluation agree on g, the
    direction, its squared norm and both step formulas."""

    @pytest.mark.parametrize("n, r, kind, checked", [
        (50, 3, "near", (0, 10, 40)),
        (50, 3, "far", (0, 10, 40)),
        (1000, 5, "near", (0, 20)),
        (1000, 5, "far", (0, 20)),
    ])
    def test_along_runs(self, n, r, kind, checked):
        config = ExperimentConfig(n=n, r=r, seed=3, init_kind=kind,
                                  init_param=0.5 if kind == "near" else 1.0)
        problem = generate_instance(config)
        a = problem.u_star @ problem.u_star.T
        state = prepare(problem, StepPolicy.fixed())
        u = problem.u0
        for k in range(max(checked) + 1):
            if k in checked:
                assert_matches_dense(problem.objective, a, u)
            u, _ = step(u, StepPolicy.fixed(), problem, state=state, k=k)

    def test_fewer_rows_than_stacked_columns(self):
        # n < 2r: [U, U*] is wide and its QR core is n x n
        rng = np.random.default_rng(11)
        v = rng.uniform(-1.0, 1.0, (3, 2))
        assert_matches_dense(matrix_factorization(target_factor=v), v @ v.T,
                             rng.uniform(-1.0, 1.0, (3, 2)))

    def test_zero_column(self):
        rng = np.random.default_rng(12)
        v = rng.uniform(-1.0, 1.0, (20, 3))
        u = rng.uniform(-1.0, 1.0, (20, 3))
        u[:, 2] = 0.0
        assert_matches_dense(matrix_factorization(target_factor=v), v @ v.T, u)

    def test_zero_target(self):
        obj = matrix_factorization(np.zeros((15, 15)))
        assert obj.basis.shape == (15, 0)
        u = np.random.default_rng(13).uniform(-1.0, 1.0, (15, 2))
        assert_matches_dense(obj, np.zeros((15, 15)), u)

    @pytest.mark.parametrize("seed", range(3))
    def test_indefinite_dense_target(self, seed):
        rng = np.random.default_rng(14 + seed)
        a = random_symmetric(rng, 9)
        obj = matrix_factorization(a)
        assert np.any(obj.weights < 0) and np.any(obj.weights > 0)
        assert_matches_dense(obj, a, rng.standard_normal((9, 2)))

    def test_at_the_solution(self):
        # g and the direction vanish up to rounding; the steps still agree
        v = np.random.default_rng(15).uniform(-1.0, 1.0, (30, 2))
        obj = matrix_factorization(target_factor=v)
        point = obj.evaluate(v)
        scale = float(np.sum(v * v))
        assert point.g <= 1e-24 * scale ** 2
        assert np.max(np.abs(point.direction)) <= 1e-12 * scale ** 1.5
        dense = dense_evaluation(v @ v.T, v)
        assert eta_fixed(2.0, point.x_norm, point.grad_norm) == pytest.approx(
            dense["eta_fixed"], rel=1e-9)
        assert eta_local(2.0, point.x_norm, point.projected_grad_norm) == pytest.approx(
            dense["eta_local"], rel=1e-9)
