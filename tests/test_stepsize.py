import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factordescent import (DegenerateProblemError, NegativeEstimateError,
                           StepContext, StepPolicy, ZeroGradientError,
                           ZeroMatrixError, eta_estimated, eta_fixed, eta_local,
                           eta_optimal, eta_practical, matrix_factorization)
from factordescent.stepsize import _GRAD_FLOOR, _gradient_scale

from oracles import dense_eta_local


def make_ctx(**overrides):
    base = dict(eta_fixed=1.0 / 64.0, eta_local=1.0 / 64.0, m=2.0, sigma_r=1.0,
                dist_sq=1.0, grad_norm_sq=10.0, delta=0.0, grad_floor=0.0)
    base.update(overrides)
    return StepContext(**base)


class TestEtaFixed:
    def test_plug_in(self):
        # M ||X0||_2 = 2, ||grad||_2 = 2 -> 1/64
        assert eta_fixed(2.0, 1.0, 2.0) == pytest.approx(1.0 / 64.0)

    def test_zero_start_matrix_factorization(self):
        # at X0 = 0 with target I: ||X0||_2 = 0, ||grad f(0)||_2 = 2
        obj = matrix_factorization(np.eye(4))
        start = obj.evaluate(np.zeros((4, 1)))
        assert (start.x_norm, start.grad_norm) == (0.0, 2.0)
        assert eta_fixed(obj.M, start.x_norm, start.grad_norm) == pytest.approx(1.0 / 32.0)

    def test_halves_when_norms_double(self):
        one = eta_fixed(2.0, 1.0, 2.0)
        two = eta_fixed(2.0, 2.0, 4.0)
        assert two == pytest.approx(one / 2.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateProblemError):
            eta_fixed(2.0, 0.0, 0.0)
        # X0 = 0 and a zero target: both norms vanish
        start = matrix_factorization(np.zeros((2, 2))).evaluate(np.zeros((2, 1)))
        with pytest.raises(DegenerateProblemError):
            eta_fixed(2.0, start.x_norm, start.grad_norm)


def local_and_fixed(obj, u):
    point = obj.evaluate(u)
    return (eta_local(obj.M, point.x_norm, point.projected_grad_norm),
            eta_fixed(obj.M, point.x_norm, point.grad_norm))


class TestEtaLocal:
    def test_gradient_inside_column_space(self):
        # col(U) = R^n: the projector changes nothing, denominators agree;
        # grad f(I) = 2 (I - A) = diag(2, 1, 0.5)
        obj = matrix_factorization(np.diag([0.0, 0.5, 0.75]))
        local, fixed = local_and_fixed(obj, np.eye(3))
        assert local == pytest.approx(fixed)
        assert obj.evaluate(np.eye(3)).grad_norm == pytest.approx(2.0)

    def test_gradient_annihilated_by_projector(self):
        # grad f(X) = 2 (X - A) = diag(0, 0, 5) lives on the column
        # complementary to col(U): the projected term drops and only
        # M ||X||_2 remains in the denominator
        u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        obj = matrix_factorization(np.diag([1.0, 1.0, -2.5]))
        assert obj.evaluate(u).projected_grad_norm == pytest.approx(0.0, abs=1e-15)
        assert local_and_fixed(obj, u)[0] == pytest.approx(1.0 / 32.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_never_smaller_than_fixed_at_same_point(self, seed):
        # projection can only shrink the gradient's spectral norm
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((6, 2))
        a = rng.standard_normal((6, 6))
        local, fixed = local_and_fixed(matrix_factorization(a + a.T), u)
        assert local >= fixed - 1e-15

    @pytest.mark.parametrize("case", ["random", "zero_column", "symmetric_grad"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_reference(self, case, seed):
        # random: a rank-3 target given by its factor; zero_column: U with a
        # zero column; symmetric_grad: a full-rank indefinite target
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((12, 3))
        v = rng.standard_normal((12, 3))
        a = rng.standard_normal((12, 12))
        a = a + a.T
        if case == "random":
            obj, a = matrix_factorization(target_factor=v), v @ v.T
        else:
            obj = matrix_factorization(a)
        if case == "zero_column":
            u[:, 1] = 0.0
        point = obj.evaluate(u)
        local = eta_local(2.0, point.x_norm, point.projected_grad_norm)
        assert local == pytest.approx(dense_eta_local(2.0, 2.0 * (u @ u.T - a), u),
                                      rel=1e-12, abs=0)

    def test_zero_factor_raises(self):
        point = matrix_factorization(np.eye(3)).evaluate(np.zeros((3, 2)))
        with pytest.raises(ZeroMatrixError):
            point.projected_grad_norm


class TestEtaOptimal:
    def test_plug_in(self):
        # 0.8/64 + 3*2*1*1/(20*10) = 0.0125 + 0.03
        assert eta_optimal(make_ctx()) == pytest.approx(0.0425)

    def test_zero_distance_gives_base_term(self):
        assert eta_optimal(make_ctx(dist_sq=0.0)) == pytest.approx(0.8 / 64.0)

    def test_strictly_above_base_when_distant(self):
        assert eta_optimal(make_ctx()) > 0.8 / 64.0

    def test_zero_gradient_without_floor_raises(self):
        with pytest.raises(ZeroGradientError):
            eta_optimal(make_ctx(grad_norm_sq=0.0))

    def test_below_floor_falls_back_to_base(self):
        ctx = make_ctx(grad_norm_sq=1e-20, grad_floor=1e-14)
        assert eta_optimal(ctx) == pytest.approx(0.8 / 64.0)


class TestEtaPractical:
    def test_plug_in(self):
        assert eta_practical(make_ctx()) == pytest.approx(1.0 / 64.0 + 0.03)

    def test_zero_distance_reduces_to_fixed(self):
        assert eta_practical(make_ctx(dist_sq=0.0)) == pytest.approx(1.0 / 64.0)

    @given(dist_sq=st.floats(0.0, 1e3), grad=st.floats(1e-6, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_never_below_fixed(self, dist_sq, grad):
        ctx = make_ctx(dist_sq=dist_sq, grad_norm_sq=grad)
        assert eta_practical(ctx) >= ctx.eta_fixed


class TestEtaEstimated:
    def test_zero_error_matches_optimal(self):
        assert eta_estimated(make_ctx()) == eta_optimal(make_ctx())

    def test_positive_error_scales_distance_term(self):
        plain = eta_estimated(make_ctx())
        inflated = eta_estimated(make_ctx(delta=0.5))
        base = 0.8 / 64.0
        assert inflated - base == pytest.approx(1.5 * (plain - base))

    def test_negative_estimate_rejected(self):
        with pytest.raises(NegativeEstimateError):
            eta_estimated(make_ctx(dist_sq=1.0, delta=-1.5))

    @given(rho=st.floats(-0.5, 0.5), dist_sq=st.floats(1e-8, 1e4),
           grad=st.floats(1e-6, 1e6), local=st.floats(1e-8, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_within_half_of_optimal(self, rho, dist_sq, grad, local):
        # |delta| <= dist_sq / 2 keeps the estimated step in [opt/2, 3 opt/2]
        ctx = make_ctx(eta_local=local, dist_sq=dist_sq, grad_norm_sq=grad,
                       delta=rho * dist_sq)
        opt = eta_optimal(ctx)
        est = eta_estimated(ctx)
        assert abs(est - opt) <= opt / 2.0 * (1.0 + 1e-12)
        assert opt / 2.0 * (1.0 - 1e-12) <= est <= 1.5 * opt * (1.0 + 1e-12)


class TestMonotonicity:
    @pytest.mark.parametrize("rule", [eta_optimal, eta_practical])
    def test_decreasing_in_gradient_norm(self, rule):
        grads = np.linspace(0.5, 50.0, 20)
        values = [rule(make_ctx(grad_norm_sq=g)) for g in grads]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("rule", [eta_optimal, eta_practical])
    def test_increasing_in_distance(self, rule):
        dists = np.linspace(0.0, 5.0, 20)
        values = [rule(make_ctx(dist_sq=d)) for d in dists]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestGradFloor:
    def test_small_factor_uses_unit_scale(self):
        assert _GRAD_FLOOR * _gradient_scale(np.zeros((3, 1))) == pytest.approx(1e-14)

    def test_scales_with_fourth_power(self):
        u = np.full((4, 1), 2.0)  # ||u|| = 4
        assert _GRAD_FLOOR * _gradient_scale(u) == pytest.approx(1e-14 * 256.0)


class TestStepPolicy:
    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            StepPolicy.adaptive_exact(delta_rho=0.75)

    def test_fixed_step_takes_no_rho(self):
        # the fixed step reads no distance, so an estimation-noise amplitude
        # would be silently ignored
        with pytest.raises(ValueError, match="no delta_rho"):
            StepPolicy(kind="fgd", delta_rho=0.5)
        assert StepPolicy(kind="fgd", delta_rho=0.0) == StepPolicy.fixed()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StepPolicy(kind="momentum")

    def test_context_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            make_ctx(sigma_r=-1.0)

    @pytest.mark.parametrize("name", ["eta_fixed", "eta_local", "m", "sigma_r", "dist_sq",
                                      "grad_norm_sq", "grad_floor", "delta"])
    def test_context_rejects_nan(self, name):
        # NaN would otherwise leave the rules returning nan, or a NaN gradient
        # norm raising the zero-gradient error
        with pytest.raises(ValueError, match=f"^{name} must be"):
            make_ctx(**{name: math.nan})

    @pytest.mark.parametrize("delta", [math.inf, -math.inf])
    def test_context_rejects_infinite_delta(self, delta):
        with pytest.raises(ValueError, match="^delta must be finite$"):
            make_ctx(delta=delta)
