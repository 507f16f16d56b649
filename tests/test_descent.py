import numpy as np
import pytest

from factordescent import (MissingGroundTruthError, NumericalBlowupError, StepPolicy,
                           TERMINATED_DIVERGED, TERMINATED_TOLERANCE, ZeroMatrixError,
                           check_init_condition, check_local_step_floor, dist,
                           init_far, init_near, make_problem,
                           matrix_factorization, prepare, run,
                           sigma_min_positive, start_radius, step, stepsize)

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
    def test_stored_spectrum_matches_gram_matrix(self):
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
        with pytest.raises(ValueError):
            init_far(np.eye(2), 0, scale=0.0)

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
        assert one.records == two.records

    def test_delta_seed_changes_trajectory(self):
        problem = make_instance(seed=33)
        policy = StepPolicy.adaptive_exact(delta_rho=0.5)
        one = run(problem, policy, max_iters=80, rel_tol=1e-9, delta_seed=5)
        two = run(problem, policy, max_iters=80, rel_tol=1e-9, delta_seed=6)
        assert one.records != two.records

    def test_audit_aligns_with_records(self, monkeypatch):
        problem = make_instance(seed=34)
        traj = run(problem, StepPolicy.fixed(), max_iters=30, rel_tol=1e-12, audit=True)
        assert len(traj.audit) == len(traj.records)
        assert traj.audit[0][0].dist_sq == traj.records[0].dist_sq
        unaudited = run(problem, StepPolicy.fixed(), max_iters=30, rel_tol=1e-12)
        assert unaudited.audit is None and unaudited.records == traj.records
        # a run that blows up keeps no entry for the iterate it could not leave
        diverged = diverging_run(monkeypatch, audit=True)
        assert diverged.terminated == TERMINATED_DIVERGED
        assert len(diverged.audit) == len(diverged.records)

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
        assert all(inside for _, _, inside in traj.audit)
        # the audit's flag is the radius test a point check applies
        radius = check_init_condition(problem).rhs
        far = np.random.default_rng(5).uniform(-1.0, 1.0, problem.u0.shape)
        for u, inside in ((problem.u0, True), (far, False)):
            assert (dist(u, problem.u_star) <= radius) == inside
            assert check_local_step_floor(problem, u).applicable == inside

    def test_audit_requires_ground_truth(self):
        problem = make_instance(seed=39)
        blind = make_problem(problem.objective, problem.u0)
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
