import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize

from factordescent import (InvalidMatrixError, MissingGroundTruthError, NumericalBlowupError,
                           Problem, ShapeMismatchError, StepPolicy, TERMINATED_DIVERGED,
                           TERMINATED_TOLERANCE, ZeroMatrixError,
                           check_init_condition, check_local_step_floor, dist,
                           init_far, init_near, make_problem,
                           matrix_factorization, prepare, run,
                           sigma_min_positive, start_radius, step, stepsize)
from factordescent import descent
from factordescent.descent import AUDIT_FIELDS, RECORD_FIELDS, Table

from oracles import random_orthonormal


def make_instance(n=20, r=2, seed=0, safety=0.5):
    rng = np.random.default_rng(seed)
    u_star = rng.uniform(-1.0, 1.0, (n, r))
    objective = matrix_factorization(u_star @ u_star.T)
    u0 = init_near(u_star, seed + 1, safety=safety, kappa=objective.kappa)
    return make_problem(objective, u0, u_star=u_star)


def diverging_run(monkeypatch, **kwargs):
    # a million-fold anchored step makes every fixed run blow up; the fresh
    # instance computes its anchor under the patch
    problem = make_instance(seed=37)
    with monkeypatch.context() as patch:
        patch.setattr(stepsize, "eta_fixed", lambda M, x0, grad0: 1e6)
        return run(problem, StepPolicy.fixed(), max_iters=50, rel_tol=1e-12, **kwargs)


class TestProblem:
    def test_derived_spectrum_matches_gram_matrix(self):
        rng = np.random.default_rng(3)
        u_star = rng.uniform(-1.0, 1.0, (15, 3))
        problem = make_problem(matrix_factorization(u_star @ u_star.T),
                               u_star, u_star=u_star)
        assert problem.sigma_r_xstar == pytest.approx(
            sigma_min_positive(u_star @ u_star.T), abs=1e-9)
        objective = problem.objective
        assert objective.m == 2.0 and objective.M == 2.0 and objective.kappa == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_problem(matrix_factorization(np.eye(4)),
                         np.ones((4, 2)), u_star=np.ones((4, 1)))

    def test_zero_start_rejected(self):
        # U0 = 0 is stationary for every policy, so no run starts from it
        with pytest.raises(ZeroMatrixError):
            make_problem(matrix_factorization(np.eye(4)), np.zeros((4, 2)),
                         u_star=np.eye(4)[:, :2])

    def test_three_fields(self):
        # sigma_r(X*) and the radius are derived from U*, not stored beside it
        assert [f.name for f in dataclasses.fields(Problem)] == ["objective", "u0", "u_star"]

    def test_replaced_ground_truth_rederives_spectrum_and_radius(self):
        problem = make_instance()
        scaled = 3.0 * problem.u_star
        replaced = dataclasses.replace(problem, u_star=scaled)
        built = make_problem(problem.objective, problem.u0, u_star=scaled)
        assert replaced.sigma_r_xstar == built.sigma_r_xstar
        assert replaced.sigma_r_xstar == pytest.approx(9.0 * problem.sigma_r_xstar)
        assert replaced._start_radius == built._start_radius
        assert check_init_condition(replaced).rhs == check_init_condition(built).rhs

    def test_direct_construction_matches_make_problem(self):
        made = make_instance()
        direct = Problem(made.objective, made.u0, u_star=made.u_star)
        assert direct.sigma_r_xstar == made.sigma_r_xstar
        assert direct._start_radius == made._start_radius
        assert check_init_condition(direct) == check_init_condition(made)
        policy = StepPolicy.adaptive_exact(delta_rho=0.5)
        runs = [run(p, policy, max_iters=100, rel_tol=1e-12, delta_seed=4, audit=True)
                for p in (made, direct)]
        assert runs[0].records.tobytes() == runs[1].records.tobytes()

    @pytest.mark.parametrize("u0, u_star, error", [
        (np.ones((5, 2)), None, ShapeMismatchError),  # U0 rows != target rows
        (np.zeros((4, 2)), None, ZeroMatrixError),
        (np.ones((4, 2)), np.ones((4, 1)), ShapeMismatchError),
        (np.ones((4, 2)), np.zeros((4, 2)), ZeroMatrixError),  # no positive sigma
    ])
    def test_direct_construction_validates(self, u0, u_star, error):
        with pytest.raises(error):
            Problem(matrix_factorization(np.eye(4)), u0, u_star=u_star)

    def test_direct_construction_copies(self):
        u0, u_star = np.ones((4, 2)), np.eye(4)[:, :2]
        problem = Problem(matrix_factorization(np.eye(4)), u0, u_star=u_star)
        u0[0, 0] = u_star[0, 0] = 7.0
        assert problem.u0[0, 0] == 1.0 and problem.u_star[0, 0] == 1.0

    def test_instances_compare_and_hash_by_identity(self):
        # the generated __eq__ would compare numpy fields and raise
        problem = make_instance(n=6)
        alike = Problem(problem.objective, problem.u0.copy(), problem.u_star.copy())
        assert problem != alike and problem == problem
        assert len({problem, alike, problem.objective}) == 3
        replaced = dataclasses.replace(problem.objective, value=lambda x: 0.0)
        assert replaced.value(None) == 0.0 and replaced.basis is problem.objective.basis


class TestInitCondition:
    def test_exact_start_holds(self):
        rng = np.random.default_rng(1)
        u_star = rng.uniform(-1.0, 1.0, (10, 2))
        problem = make_problem(matrix_factorization(u_star @ u_star.T),
                               u_star, u_star=u_star)
        report = check_init_condition(problem)
        assert report.holds
        assert report.lhs <= 1e-10

    def test_radius_for_orthonormal_truth(self):
        # sigma_r(X*) = sigma_1(X*) = 1 and kappa = 1 -> radius 1/100
        u_star = np.eye(5)[:, :2]
        assert start_radius(u_star, kappa=1.0) == pytest.approx(0.01)

    def test_half_radius_perturbation_holds(self):
        rng = np.random.default_rng(2)
        u_star = rng.uniform(-1.0, 1.0, (12, 2))
        radius = start_radius(u_star)
        noise = rng.standard_normal(u_star.shape)
        u0 = u_star + noise * (radius / 2.0) / np.linalg.norm(noise)
        problem = make_problem(matrix_factorization(u_star @ u_star.T),
                               u0, u_star=u_star)
        assert check_init_condition(problem).holds

    def test_requires_ground_truth(self):
        problem = make_problem(matrix_factorization(np.eye(3)), np.ones((3, 1)))
        with pytest.raises(MissingGroundTruthError):
            check_init_condition(problem)


class TestInitNear:
    @pytest.mark.parametrize("safety", [1.0, 0.5, 0.1])
    def test_distance_is_pinned(self, safety):
        rng = np.random.default_rng(7)
        u_star = rng.uniform(-1.0, 1.0, (25, 3))
        u0 = init_near(u_star, 11, safety=safety)
        target = safety * start_radius(u_star)
        assert dist(u0, u_star) == pytest.approx(target, abs=1e-9)

    def test_condition_holds_below_boundary(self):
        rng = np.random.default_rng(8)
        u_star = rng.uniform(-1.0, 1.0, (25, 3))
        u0 = init_near(u_star, 12, safety=0.5)
        problem = make_problem(matrix_factorization(u_star @ u_star.T),
                               u0, u_star=u_star)
        assert check_init_condition(problem).holds

    def test_bad_safety(self):
        with pytest.raises(ValueError):
            init_near(np.eye(3)[:, :1], 0, safety=1.5)

    def test_target_below_the_rounding_floor_is_named(self):
        # dist(U*, U*) rounds to about 1e-15, not 0: a target below it leaves
        # the root bracket without a sign change, and the error says why
        u_star = np.random.default_rng(4).uniform(-1.0, 1.0, (20, 2))
        floor = dist(u_star, u_star)
        assert 1e-14 * start_radius(u_star) < floor < 1e-12 * start_radius(u_star)
        with pytest.raises(ValueError, match=r"safety factor 1e-14 .* rounding floor "
                                             rf"{floor:.3g} of dist\(U\*, U\*\)$"):
            init_near(u_star, 0, safety=1e-14)
        u0 = init_near(u_star, 0, safety=1e-12)
        assert dist(u0, u_star) == pytest.approx(1e-12 * start_radius(u_star), rel=0.5)

    @pytest.mark.parametrize("kappa", [-1.0, math.inf, math.nan, 0.0])
    def test_kappa_must_be_positive_and_finite(self, kappa):
        u_star = np.random.default_rng(3).uniform(-1.0, 1.0, (10, 2))
        with pytest.raises(ValueError, match="^kappa must be positive and finite$"):
            start_radius(u_star, kappa=kappa)
        with pytest.raises(ValueError, match="^kappa must be positive and finite$"):
            init_near(u_star, 0, kappa=kappa)


class TestBrentq:
    """descent._brentq is a port of scipy.optimize.brentq and must return
    the same float."""

    @pytest.mark.parametrize("n, r", [(20, 2), (50, 3), (200, 5)])
    def test_equals_scipy_on_init_near_gaps(self, n, r, monkeypatch):
        port, ours, theirs = descent._brentq, [], []

        def both(f, a, b, **kwargs):
            ours.append(port(f, a, b, **kwargs))
            theirs.append(scipy.optimize.brentq(f, a, b, **kwargs))
            return ours[-1]

        monkeypatch.setattr(descent, "_brentq", both)
        for seed in range(200):
            u_star = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, r))
            for safety in (0.01, 0.5, 1.0):
                init_near(u_star, seed, safety=safety)
        assert len(ours) == 600
        assert ours == theirs

    def test_equals_scipy_on_random_cubics(self):
        rng = np.random.default_rng(0)
        brackets = 0
        for _ in range(2000):
            roots = np.sort(rng.uniform(-10.0, 10.0, 3))
            scale = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])

            def cubic(x):
                return scale * (x - roots[0]) * (x - roots[1]) * (x - roots[2])

            a, b = rng.uniform(-12.0, 12.0, 2)
            if cubic(a) * cubic(b) >= 0.0:
                continue
            for xtol, maxiter in ((2e-12, 100), (1e-30, 200), (1e-3, 100)):
                brackets += 1
                assert (descent._brentq(cubic, a, b, xtol=xtol, maxiter=maxiter)
                        == scipy.optimize.brentq(cubic, a, b, xtol=xtol, maxiter=maxiter))
        assert brackets > 1000

    def test_root_at_an_end_is_returned(self):
        assert descent._brentq(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12, maxiter=10) == 1.0
        assert descent._brentq(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-12, maxiter=10) == 3.0

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            descent._brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, maxiter=100)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            descent._brentq(lambda x: math.nan, 0.0, 1.0, xtol=1e-12, maxiter=100)

    def test_too_few_iterations_raise(self):
        for solver in (descent._brentq, scipy.optimize.brentq):
            with pytest.raises(RuntimeError, match="Failed to converge"):
                solver(lambda x: x ** 3 - 0.3, 0.0, 1.0, xtol=1e-30, maxiter=2)


class TestInitFar:
    def test_entries_within_scale(self):
        rng_star = np.random.default_rng(9)
        u_star = rng_star.uniform(-1.0, 1.0, (30, 2))
        u0 = init_far(u_star, 13, scale=1.0)
        assert u0.shape == u_star.shape
        assert np.max(np.abs(u0)) <= 1.0
        assert np.any(u0)

    def test_typically_outside_radius(self):
        rng_star = np.random.default_rng(10)
        u_star = rng_star.uniform(-1.0, 1.0, (50, 2))
        radius = start_radius(u_star)
        outside = sum(dist(init_far(u_star, 1000 + s), u_star) > radius
                      for s in range(20))
        assert outside == 20

    def test_bad_scale(self):
        # a scale that is not positive, or whose width 2 scale overflows
        for scale in (0.0, -1.0, np.nan, np.inf, 1e308):
            with pytest.raises(ValueError, match="scale must be positive"):
                init_far(np.eye(2), 0, scale=scale)

    def test_zero_draw_is_redrawn(self):
        from factordescent.descent import _nonzero_uniform

        class QueuedRng:
            def __init__(self, draws):
                self.draws = list(draws)

            def uniform(self, lo, hi, size):
                return self.draws.pop(0)

        good = np.ones((2, 2))
        rng = QueuedRng([np.zeros((2, 2)), good])
        np.testing.assert_array_equal(_nonzero_uniform(rng, (2, 2), 1.0), good)


class TestStep:
    @pytest.mark.parametrize("target", ["factor", "dense"])
    def test_solution_is_a_fixed_point(self, target):
        # the direction vanishes up to rounding, the step leaves U in place
        # to the last bits, and the run calls the iterate stationary
        rng = np.random.default_rng(4)
        u = rng.standard_normal((6, 2))
        objective = (matrix_factorization(target_factor=u) if target == "factor"
                     else matrix_factorization(u @ u.T))
        problem = make_problem(objective, u, u_star=u)
        u_next, record = step(u, StepPolicy.fixed(), problem)
        assert record.stationary
        np.testing.assert_allclose(u_next, u, rtol=0, atol=1e-15)

    def test_hand_computed_scalar_step(self):
        # n = r = 1, A = [[1]], U0 = [[2]]: X = 4, grad = 2 (4 - 1) = 6,
        # direction = 12, eta0 = 1 / (16 (2 * 4 + 6)) = 1/224, U' = 2 - 12/224
        objective = matrix_factorization([[1.0]])
        u = np.array([[2.0]])
        problem = make_problem(objective, u, u_star=np.array([[1.0]]))
        u_next, record = step(u, StepPolicy.fixed(), problem)
        assert record.eta == pytest.approx(1.0 / 224.0, rel=1e-15)
        assert u_next[0, 0] == pytest.approx(2.0 - 12.0 / 224.0, rel=1e-15)
        assert record.grad_norm_sq == pytest.approx(144.0)

    @pytest.mark.parametrize("bad", ["nan", "wide"])
    def test_invalid_iterate_raises(self, bad):
        problem = make_instance()
        u = problem.u0.copy()
        if bad == "nan":
            u[0, 0] = np.nan
        else:
            u = u.T
        with pytest.raises(InvalidMatrixError):
            step(u, StepPolicy.fixed(), problem)

    def test_monotone_descent_from_near_start(self):
        problem = make_instance(seed=21)
        traj = run(problem, StepPolicy.fixed(), max_iters=200, rel_tol=1e-10)
        g = np.array([rec.g_value for rec in traj.records])
        assert np.all(np.diff(g) <= 1e-12 * np.maximum(g[:-1], 1e-300))


class TestRun:
    def test_rejects_bad_budgets(self):
        problem = make_instance()
        with pytest.raises(ValueError):
            run(problem, StepPolicy.fixed(), max_iters=0)
        with pytest.raises(ValueError):
            run(problem, StepPolicy.fixed(), max_iters=10, rel_tol=0.0)

    def test_first_record_has_unit_relative_error(self):
        problem = make_instance(seed=30)
        traj = run(problem, StepPolicy.fixed(), max_iters=50, rel_tol=1e-12)
        assert traj.records[0].rel_error == 1.0
        assert traj.records[0].k == 0
        ks = np.array([rec.k for rec in traj.records])
        assert np.all(np.diff(ks) == 1)

    @pytest.mark.parametrize("policy", [StepPolicy.adaptive_exact(),
                                        StepPolicy.adaptive_practical()])
    def test_adaptive_beats_fixed_near_start(self, policy):
        problem = make_instance(n=50, r=3, seed=31)
        fixed = run(problem, StepPolicy.fixed(), max_iters=500, rel_tol=1e-8)
        adaptive = run(problem, policy, max_iters=500, rel_tol=1e-8)
        assert fixed.terminated == TERMINATED_TOLERANCE
        assert adaptive.terminated == TERMINATED_TOLERANCE
        assert adaptive.final.k < fixed.final.k

    def test_adaptive_requires_ground_truth(self):
        problem = make_instance(seed=32)
        blind = make_problem(problem.objective, problem.u0)
        with pytest.raises(MissingGroundTruthError):
            run(blind, StepPolicy.adaptive_practical(), max_iters=10)

    def test_deterministic_bitwise(self):
        problem = make_instance(seed=33)
        policy = StepPolicy.adaptive_exact(delta_rho=0.5)
        one = run(problem, policy, max_iters=80, rel_tol=1e-9, delta_seed=5)
        two = run(problem, policy, max_iters=80, rel_tol=1e-9, delta_seed=5)
        assert one.terminated == two.terminated
        assert one.records.tobytes() == two.records.tobytes()

    def test_delta_seed_changes_trajectory(self):
        problem = make_instance(seed=33)
        policy = StepPolicy.adaptive_exact(delta_rho=0.5)
        one = run(problem, policy, max_iters=80, rel_tol=1e-9, delta_seed=5)
        two = run(problem, policy, max_iters=80, rel_tol=1e-9, delta_seed=6)
        assert one.records.tobytes() != two.records.tobytes()

    def test_audit_aligns_with_records(self, monkeypatch):
        problem = make_instance(seed=34)
        traj = run(problem, StepPolicy.fixed(), max_iters=30, rel_tol=1e-12, audit=True)
        # one table: the record's columns, then what only the audit computes
        assert traj.records.dtype.names == RECORD_FIELDS + AUDIT_FIELDS
        # rows are namedtuples of Python values, the same iterated, indexed or stepped
        types = [int, *[float] * 6, bool, *[float] * 3, bool]
        for k, row in enumerate(traj.records):
            assert row._fields == RECORD_FIELDS + AUDIT_FIELDS and list(map(type, row)) == types
            assert row == traj.records[k] and row.k == k
        assert traj.records[-1] == traj.final
        _, first = step(problem.u0, StepPolicy.fixed(), problem, audit=True)
        assert first == traj.records[0]
        # a boolean mask or a slice keeps the class
        assert type(traj.records[traj.records.k % 2 == 0]) is type(traj.records[1:]) is Table
        unaudited = run(problem, StepPolicy.fixed(), max_iters=30, rel_tol=1e-12)
        assert unaudited.records.dtype.names == RECORD_FIELDS
        for name in RECORD_FIELDS:  # the shared columns agree to the bit
            assert unaudited.records[name].tobytes() == traj.records[name].tobytes()
        # a run that blows up still returns the audited rows of the iterates it left
        diverged = diverging_run(monkeypatch, audit=True)
        assert diverged.terminated == TERMINATED_DIVERGED
        assert diverged.records.dtype.names == RECORD_FIELDS + AUDIT_FIELDS
        assert diverged.records.k.tolist() == list(range(len(diverged)))

    def test_rotation_equivariance(self):
        problem = make_instance(n=25, r=2, seed=35)
        rng = np.random.default_rng(99)
        rot = random_orthonormal(rng, 2)
        rotated = make_problem(problem.objective, problem.u0 @ rot,
                               u_star=problem.u_star)
        policy = StepPolicy.fixed()
        base, other = problem.u0, rotated.u0
        base_state, other_state = prepare(problem, policy), prepare(rotated, policy)
        for k in range(60):
            # iterates themselves match after undoing the rotation
            np.testing.assert_allclose(other @ rot.T, base, rtol=1e-7, atol=1e-10)
            base, rb = step(base, policy, problem, state=base_state, k=k)
            other, ro = step(other, policy, rotated, state=other_state, k=k)
            assert ro.g_value == pytest.approx(rb.g_value, rel=1e-9, abs=1e-30)
            assert ro.dist_sq == pytest.approx(rb.dist_sq, rel=1e-9, abs=1e-15)

    def test_stationary_termination_at_exact_solution(self):
        rng = np.random.default_rng(36)
        u_star = rng.uniform(-1.0, 1.0, (10, 2))
        objective = matrix_factorization(u_star @ u_star.T)
        problem = make_problem(objective, u_star, u_star=u_star)
        traj = run(problem, StepPolicy.fixed(), max_iters=10, rel_tol=1e-8)
        # g0 = 0 keeps rel_error defined; the zero gradient stops the run
        assert traj.records[0].rel_error == 1.0
        assert traj.terminated in ("stationary", "tolerance")

    def test_diverges_with_huge_override(self, monkeypatch):
        assert diverging_run(monkeypatch).terminated == TERMINATED_DIVERGED

    @pytest.mark.parametrize("policy", [StepPolicy.fixed(),
                                        StepPolicy.adaptive_practical()])
    def test_overflowing_gradient_scale_is_a_blowup(self, policy):
        # g is finite (about 1.3e308) but ||U0||_F^4 overflows a float
        u_star = np.zeros((4, 2))
        u_star[:2] = np.eye(2)
        problem = make_problem(matrix_factorization(u_star @ u_star.T),
                               9e76 * u_star, u_star=u_star)
        with pytest.raises(NumericalBlowupError):
            run(problem, policy, max_iters=5)


class TestWithinStartRadius:
    def test_iterates_stay_inside_from_near_start(self):
        problem = make_instance(n=30, r=2, seed=38)
        traj = run(problem, StepPolicy.fixed(), max_iters=100, rel_tol=1e-9, audit=True)
        assert traj.records.inside.all()  # the row's radius flag
        # the audit's flag is the radius test a point check applies
        radius = check_init_condition(problem).rhs
        far = np.random.default_rng(5).uniform(-1.0, 1.0, problem.u0.shape)
        for u, inside in ((problem.u0, True), (far, False)):
            assert (dist(u, problem.u_star) <= radius) == inside
            assert check_local_step_floor(problem, u).applicable == inside

    def test_audit_requires_ground_truth(self):
        problem = make_instance(seed=39)
        blind = make_problem(problem.objective, problem.u0)
        # unaudited, the run goes on, and its distance column is NaN
        assert np.isnan(run(blind, StepPolicy.fixed(), max_iters=5).records.dist_sq).all()
        with pytest.raises(MissingGroundTruthError):
            run(blind, StepPolicy.fixed(), max_iters=5, audit=True)
        with pytest.raises(MissingGroundTruthError):
            check_local_step_floor(blind, problem.u0)


class TestPrepare:
    def test_sigma_source_from_start(self):
        problem = make_instance(n=20, r=2, seed=40)
        state = prepare(problem, StepPolicy.adaptive_practical())
        assert state.sigma_r == pytest.approx(
            sigma_min_positive(problem.u0) ** 2)

    def test_sigma_source_from_truth(self):
        problem = make_instance(n=20, r=2, seed=41)
        state = prepare(problem, StepPolicy.adaptive_exact())
        assert state.sigma_r == problem.sigma_r_xstar
