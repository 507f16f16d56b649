import dataclasses

import numpy as np
import pytest

from factordescent import (CHECK_CONTRACTION_ADAPTIVE, CHECK_CONTRACTION_EXACT_LOCAL,
                           CHECK_CONTRACTION_EXACT_OPTIMAL, CHECK_CONTRACTION_FIXED,
                           CHECK_DESCENT_QUADRATIC, CHECK_LOCAL_STEP_FLOOR,
                           CHECK_OPTIMAL_STEP, CHECK_REGULARITY, InvalidMatrixError,
                           MissingGroundTruthError, StepContext, StepPolicy, ZeroGradientError,
                           check_local_step_floor, check_optimal_step, check_regularity,
                           dist_sq_upper_bound, eta_estimated, init_far, init_near, make_problem,
                           matrix_factorization, prepare, run, step, step_context_at,
                           trajectory_reports)
from factordescent import bounds, descent, stepsize
from factordescent.bounds import REPORT_FIELDS
from factordescent.descent import RECORD_FIELDS, TERMINATED_DIVERGED, Table, Trajectory

from oracles import Report, reference_reports


def make_instance(n=20, r=2, seed=0, safety=0.5):
    rng = np.random.default_rng(seed)
    u_star = rng.uniform(-1.0, 1.0, (n, r))
    objective = matrix_factorization(u_star @ u_star.T)
    u0 = init_near(u_star, seed + 1, safety=safety, kappa=objective.kappa)
    return make_problem(objective, u0, u_star=u_star)


def near_run(problem, policy, **kwargs):
    kwargs.setdefault("max_iters", 300)
    kwargs.setdefault("rel_tol", 1e-8)
    kwargs.setdefault("audit", True)
    return run(problem, policy, **kwargs)


def rows_of(problem, traj):
    """The trajectory's check reports keyed by (k, check name)."""
    return {(rep.k, rep.name): rep for rep in trajectory_reports(problem, traj)}


def iterates(problem, policy, count, delta_seed=0):
    """U_0, ..., U_{count-1} rebuilt with a manual step loop, as run makes them."""
    state = prepare(problem, policy)
    delta_rng = np.random.default_rng(delta_seed)
    u = np.array(problem.u0, dtype=float)
    for k in range(count):
        yield u
        if k < count - 1:
            u, _ = step(u, policy, problem, state=state, k=k, delta_rng=delta_rng)


class TestLocalStepFloor:
    def test_at_ground_truth(self):
        problem = make_instance(seed=1)
        report = check_local_step_floor(problem, problem.u_star)
        assert report.applicable and report.holds

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_sweep_of_compliant_instances(self, seed, r):
        problem = make_instance(n=30, r=r, seed=100 + seed)
        report = check_local_step_floor(problem, problem.u0)
        assert report.applicable and report.holds

    def test_nan_iterate_raises(self):
        problem = make_instance(seed=2)
        nan_u = problem.u0.copy()
        nan_u[1, 0] = np.nan
        with pytest.raises(InvalidMatrixError):
            check_local_step_floor(problem, nan_u)

    def test_far_iterate_not_applicable(self):
        problem = make_instance(seed=2)
        rng = np.random.default_rng(5)
        far = rng.uniform(-1.0, 1.0, problem.u0.shape)
        report = check_local_step_floor(problem, far)
        assert not report.applicable


class TestRegularity:
    def test_equality_at_ground_truth(self):
        problem = make_instance(seed=3)
        report = check_regularity(problem, problem.u_star)
        assert report.applicable and report.holds
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_holds_along_near_runs(self, seed):
        problem = make_instance(n=25, r=3, seed=200 + seed)
        traj = near_run(problem, StepPolicy.fixed(), audit=False)
        for k, u in enumerate(iterates(problem, StepPolicy.fixed(), len(traj.records))):
            report = check_regularity(problem, u, k=k)
            assert report.applicable and report.holds

    def test_inner_product_forms_agree(self):
        from factordescent import procrustes_align
        problem = make_instance(seed=4)
        u = problem.u0
        direction = problem.objective.evaluate(u).direction
        aligned = problem.u_star @ procrustes_align(u, problem.u_star)
        entrywise = float(np.sum(direction * (u - aligned)))
        trace_form = float(np.trace(direction.T @ (u - aligned)))
        assert entrywise == pytest.approx(trace_form, rel=1e-12, abs=1e-12)


class TestDistSqUpperBound:
    def test_zero_step_returns_distance(self):
        assert dist_sq_upper_bound(0.0, dist_sq=3.0, grad_norm_sq=5.0,
                                   eta_local=0.01, m=2.0, sigma_r=1.0) == 3.0

    def test_value_at_optimal_step(self):
        # at the vertex the bound equals D - (0.3 m sr D + 1.6 local G)^2 / (4 G)
        d, g, local, m, sr = 1.3, 7.0, 0.02, 2.0, 1.5
        eta_opt = 0.8 * local + 3.0 * m * sr * d / (20.0 * g)
        value = dist_sq_upper_bound(eta_opt, dist_sq=d, grad_norm_sq=g,
                                    eta_local=local, m=m, sigma_r=sr)
        closed = d - (0.3 * m * sr * d + 1.6 * local * g) ** 2 / (4.0 * g)
        assert value == pytest.approx(closed, rel=1e-12)

    def test_second_difference_is_quadratic_coefficient(self):
        d, g, local, m, sr = 0.7, 4.0, 0.05, 2.0, 2.0
        h = 1e-3
        vals = [dist_sq_upper_bound(eta, dist_sq=d, grad_norm_sq=g,
                                    eta_local=local, m=m, sigma_r=sr)
                for eta in (0.01, 0.01 + h, 0.01 + 2 * h)]
        second = (vals[2] - 2 * vals[1] + vals[0]) / h ** 2
        assert second == pytest.approx(2.0 * g, rel=1e-6)


class TestDescentBound:
    @pytest.mark.parametrize("policy", [StepPolicy.fixed(),
                                        StepPolicy.adaptive_exact(),
                                        StepPolicy.adaptive_practical()])
    def test_holds_along_near_runs(self, policy):
        problem = make_instance(n=25, r=3, seed=300)
        traj = near_run(problem, policy)
        rows = rows_of(problem, traj)
        for k in range(len(traj.records) - 1):
            report = rows[k, CHECK_DESCENT_QUADRATIC]
            assert report.applicable and report.holds

    def test_huge_step_still_bounded(self, monkeypatch):
        # descent fails with a 100x step, but the quadratic bound is valid
        # for any step length inside the radius
        problem = make_instance(n=25, r=2, seed=301)
        with monkeypatch.context() as patch:
            exact_rule = stepsize.eta_estimated
            patch.setattr(stepsize, "eta_estimated", lambda ctx: 100.0 * exact_rule(ctx))
            traj = run(problem, StepPolicy.adaptive_exact(), max_iters=3, rel_tol=1e-15,
                       audit=True)
        rows = rows_of(problem, traj)
        grew = False
        for k in range(len(traj.records) - 1):
            report = rows[k, CHECK_DESCENT_QUADRATIC]
            if report.applicable:
                assert report.holds
            if traj.records[k + 1].dist_sq > traj.records[k].dist_sq:
                grew = True
        assert grew  # the stress step really did overshoot

    def test_requires_stored_iterates(self):
        problem = make_instance(seed=302)
        traj = run(problem, StepPolicy.fixed(), max_iters=10, rel_tol=1e-12)
        with pytest.raises(ValueError):
            trajectory_reports(problem, traj)


class TestContraction:
    def test_fixed_factor_plug_in(self):
        # m = 2, eta = 1/64, sigma_r = 1 -> 1 - 6/640
        problem = make_instance(seed=400)
        traj = near_run(problem, StepPolicy.fixed(), max_iters=5, rel_tol=1e-15)
        report = rows_of(problem, traj)[0, CHECK_CONTRACTION_FIXED]
        d0 = traj.records[0].dist_sq
        eta0 = traj.records[0].eta
        expected = (1.0 - 0.3 * 2.0 * eta0 * problem.sigma_r_xstar) * d0
        assert report.rhs == pytest.approx(expected, rel=1e-12)

    def test_factor_value_for_reference_numbers(self):
        assert 1.0 - 0.3 * 2.0 * (1.0 / 64.0) * 1.0 == pytest.approx(0.990625)

    @pytest.mark.parametrize("seed", range(10))
    def test_fixed_contraction_on_near_runs(self, seed):
        problem = make_instance(n=25, r=3, seed=500 + seed)
        traj = near_run(problem, StepPolicy.fixed())
        rows = rows_of(problem, traj)
        for k in range(len(traj.records) - 1):
            report = rows[k, CHECK_CONTRACTION_FIXED]
            assert report.applicable and report.holds

    @pytest.mark.parametrize("seed", range(10))
    def test_adaptive_contraction_with_estimation_noise(self, seed):
        problem = make_instance(n=25, r=3, seed=600 + seed)
        traj = near_run(problem, StepPolicy.adaptive_exact(delta_rho=0.5),
                        delta_seed=seed)
        rows = rows_of(problem, traj)
        for k in range(len(traj.records) - 1):
            report = rows[k, CHECK_CONTRACTION_ADAPTIVE]
            assert report.applicable and report.holds

    def test_adaptive_check_not_vacuous_beyond_half_distance_noise(self, monkeypatch):
        # |delta| <= D2 / 2 keeps every estimated step within eta* / 2 of the
        # optimal one; with StepPolicy's bound lifted, rho = 0.95 pushes some
        # steps out, and the adaptive factor no longer holds for all of them
        monkeypatch.setattr(StepPolicy, "__post_init__", lambda self: None)
        problem = make_instance(n=25, r=3, seed=600)
        for rho, all_hold in ((0.5, True), (0.95, False)):
            traj = near_run(problem, StepPolicy.adaptive_exact(delta_rho=rho))
            rows = [rep for rep in trajectory_reports(problem, traj)
                    if rep.name == CHECK_CONTRACTION_ADAPTIVE]
            assert rows and all(rep.applicable and rep.holds for rep in rows) == all_hold

    @pytest.mark.parametrize("name", [CHECK_CONTRACTION_ADAPTIVE, CHECK_CONTRACTION_EXACT_LOCAL,
                                      CHECK_CONTRACTION_EXACT_OPTIMAL],
                             ids=["adaptive", "exact_local", "exact_optimal"])
    def test_exact_step_satisfies_all_adaptive_factors(self, name):
        problem = make_instance(n=25, r=3, seed=700)
        traj = near_run(problem, StepPolicy.adaptive_exact())
        rows = rows_of(problem, traj)
        for k in range(len(traj.records) - 1):
            report = rows[k, name]
            assert report.applicable and report.holds

    def test_fixed_factor_dominates_exact_local_factor(self):
        # since eta_local >= (5/6) eta0, the exact-step factor is never
        # larger than the fixed-step factor on the same data
        problem = make_instance(n=25, r=3, seed=701)
        traj = near_run(problem, StepPolicy.adaptive_exact())
        rows = rows_of(problem, traj)
        for k in range(len(traj.records) - 1):
            fixed = rows[k, CHECK_CONTRACTION_FIXED]
            local = rows[k, CHECK_CONTRACTION_EXACT_LOCAL]
            assert local.rhs <= fixed.rhs + 1e-12

    def test_fixed_check_not_applicable_to_scaled_steps(self):
        problem = make_instance(n=25, r=2, seed=703)
        traj = near_run(problem, StepPolicy.fixed(), max_iters=3, rel_tol=1e-15)
        assert rows_of(problem, traj)[0, CHECK_CONTRACTION_FIXED].applicable
        records = traj.records.copy()
        records.eta[0] *= 7.0
        scaled = dataclasses.replace(traj, records=records)
        assert not rows_of(problem, scaled)[0, CHECK_CONTRACTION_FIXED].applicable


class TestOptimalStep:
    def test_random_contexts(self):
        rng = np.random.default_rng(0)
        for i in range(200):
            ctx = StepContext(eta_fixed=0.0,
                              eta_local=float(rng.uniform(1e-4, 0.1)),
                              m=2.0, sigma_r=float(rng.uniform(0.1, 10.0)),
                              dist_sq=float(rng.uniform(0.0, 5.0)),
                              grad_norm_sq=float(rng.uniform(0.1, 100.0)))
            assert check_optimal_step(ctx, seed=i)

    def test_zero_distance_vertex(self):
        ctx = StepContext(eta_fixed=0.0, eta_local=0.02, m=2.0, sigma_r=1.0,
                          dist_sq=0.0, grad_norm_sq=3.0)
        assert check_optimal_step(ctx)

    def test_returns_a_python_bool(self):
        ctx = StepContext(eta_fixed=0.0, eta_local=0.02, m=2.0, sigma_r=1.0,
                          dist_sq=0.5, grad_norm_sq=3.0)
        assert type(check_optimal_step(ctx)) is bool

    def test_zero_gradient_without_floor_raises(self):
        # as eta_optimal does: with no floor, eta* is undefined at a zero gradient
        ctx = StepContext(eta_fixed=0.0, eta_local=0.02, m=2.0, sigma_r=1.0,
                          dist_sq=0.5, grad_norm_sq=0.0)
        with pytest.raises(ZeroGradientError):
            check_optimal_step(ctx)
        # with a floor, eta* is 0.8 eta_local there and nothing is raised
        check_optimal_step(dataclasses.replace(ctx, grad_floor=1e-14))

    def test_sample_is_linspace_and_uniform_bit_for_bit(self):
        # the batched grid and the scaled unit draws are the bits of
        # linspace(0, 2 eta*, 41) and uniform(0, 2 eta*, 20), one row per
        # eta* of a batched call
        assert (bounds.GRID_POINTS, bounds.RANDOM_DRAWS) == (41, 20)
        etas = 10.0 ** np.random.default_rng(23).uniform(-12.0, 3.0, 100_000)
        samples = bounds._step_sample(etas, 0)
        assert samples.shape == (100_000, 61)
        assert np.array_equal(samples[:, :41], np.linspace(0.0, 2.0 * etas, 41, axis=1))
        for i in range(0, len(etas), 50):
            draws = np.random.default_rng(0).uniform(0.0, 2.0 * etas[i], 20)
            assert np.array_equal(samples[i, 41:], draws)
        # a scalar eta* gives the one row of the batch
        assert np.array_equal(bounds._step_sample(etas[7], 0), samples[7])

    def test_contexts_from_runs(self):
        problem = make_instance(n=25, r=3, seed=800)
        traj = near_run(problem, StepPolicy.adaptive_exact())
        for k in range(len(traj.records) - 1):
            ctx = step_context_at(problem, traj, k)
            assert check_optimal_step(ctx, seed=k)


class TestTrajectoryReports:
    def test_report_bookkeeping(self):
        problem = make_instance(n=25, r=3, seed=900)
        traj = near_run(problem, StepPolicy.fixed())
        reports = trajectory_reports(problem, traj)
        n_records = len(traj.records)
        # two point checks per iterate, six transition checks per transition
        assert len(reports) == 2 * n_records + 6 * (n_records - 1)
        assert all(rep.holds for rep in reports if rep.applicable)
        names = {rep.name for rep in reports}
        assert {CHECK_LOCAL_STEP_FLOOR, CHECK_REGULARITY,
                CHECK_DESCENT_QUADRATIC, CHECK_CONTRACTION_FIXED,
                CHECK_CONTRACTION_ADAPTIVE, CHECK_OPTIMAL_STEP} <= names

    def test_one_record_array_of_seven_fields(self):
        problem = make_instance(n=25, r=2, seed=902)
        traj = near_run(problem, StepPolicy.fixed(), max_iters=20)
        reports = trajectory_reports(problem, traj)
        assert isinstance(reports, Table)
        assert reports.dtype.names == ("k", "name", "lhs", "rhs", "slack", "holds", "applicable")
        # row i is the columns at index i, in Python values
        i = len(reports) // 2
        assert reports[i] == tuple(reports[name].tolist()[i] for name in reports.dtype.names)
        assert [type(x) for x in reports[i]] == [int, str, float, float, float, bool, bool]
        # a boolean mask or a slice keeps the class and its rows
        applicable = reports[reports.applicable]
        assert type(applicable) is type(reports[1:]) is Table
        assert list(applicable) == [rep for rep in reports if rep.applicable]
        assert list(reports[1:]) == list(reports)[1:]

    def test_slack_sign_convention(self):
        problem = make_instance(n=25, r=2, seed=901)
        traj = near_run(problem, StepPolicy.fixed(), max_iters=20)
        for rep in trajectory_reports(problem, traj):
            assert rep.slack == pytest.approx(rep.rhs - rep.lhs, abs=0)
            if rep.applicable:
                assert rep.slack >= -(1e-9 + 1e-9 * abs(rep.rhs))


class TestSinglePass:
    """The checks read the run's own evaluation of each iterate: the point
    and optimal-step checks agree with the rows trajectory_reports builds off
    the audit, nothing is evaluated again, and the merged checks can fail."""

    def test_point_and_optimal_step_checks_match_trajectory_reports(self):
        problem = make_instance(n=25, r=3, seed=1000)
        policy = StepPolicy.adaptive_exact(delta_rho=0.5)
        traj = near_run(problem, policy, delta_seed=4)
        rows = rows_of(problem, traj)
        last = len(traj.records) - 1
        # the point checks evaluate U_k afresh; the rows read the run's audit
        for k, u in enumerate(iterates(problem, policy, len(traj.records), delta_seed=4)):
            assert check_local_step_floor(problem, u, k=k) == rows[k, CHECK_LOCAL_STEP_FLOOR]
            assert check_regularity(problem, u, k=k) == rows[k, CHECK_REGULARITY]
            if k == last:
                continue
            ctx = step_context_at(problem, traj, k)
            assert check_optimal_step(ctx) == rows[k, CHECK_OPTIMAL_STEP].holds
            assert rows[k, CHECK_OPTIMAL_STEP].applicable == (
                ctx.grad_norm_sq > ctx.grad_floor)

    def test_trajectory_checks_evaluate_nothing(self, monkeypatch):
        problem = make_instance(n=25, r=3, seed=1004)
        traj = near_run(problem, StepPolicy.adaptive_exact(delta_rho=0.5))
        calls = []

        def spy(name, fn):
            def called(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return called

        monkeypatch.setattr(descent, "prepare", spy("prepare", descent.prepare))
        for module in (descent, bounds):  # bounds imports it by name
            monkeypatch.setattr(module, "_evaluate", spy("_evaluate", module._evaluate))
        # no step rule either: eta* is one column, not a call per transition
        for name in ("eta_local", "eta_optimal"):
            monkeypatch.setattr(stepsize, name, spy(name, getattr(stepsize, name)))
        reports = trajectory_reports(problem, traj)
        for k in range(len(traj.records) - 1):
            step_context_at(problem, traj, k)
        assert len(reports) and calls == []
        # the spies do see the evaluation of a point check
        check_regularity(problem, problem.u0)
        assert {"_evaluate", "eta_local"} <= set(calls)

    def test_checks_and_engine_share_the_evaluation(self):
        # the audit keeps the engine's own evaluation of each iterate, so
        # its distance and its step agree with the records to the bit
        problem = make_instance(n=25, r=3, seed=1003)
        traj = near_run(problem, StepPolicy.adaptive_exact(delta_rho=0.5))
        for k, rec in enumerate(traj.records):
            ctx = step_context_at(problem, traj, k)
            assert ctx.dist_sq == rec.dist_sq
            assert eta_estimated(dataclasses.replace(ctx, delta=rec.delta)) == rec.eta

    def test_corrupted_next_distance_fails(self):
        problem = make_instance(n=25, r=3, seed=1001)
        traj = near_run(problem, StepPolicy.fixed(), max_iters=5, rel_tol=1e-15)
        k = 2
        records = traj.records.copy()
        records.dist_sq[k + 1] = 2.0 * records.dist_sq[k]
        corrupted = dataclasses.replace(traj, records=records)
        rows, original = rows_of(problem, corrupted), rows_of(problem, traj)
        for name in (CHECK_CONTRACTION_FIXED, CHECK_DESCENT_QUADRATIC):
            assert rows[k, name].applicable and not rows[k, name].holds
            # the original trajectory passes the same checks
            assert original[k, name].holds

    def test_unaudited_trajectory_is_rejected(self):
        problem = make_instance(n=25, r=3, seed=1005)
        traj = near_run(problem, StepPolicy.fixed(), max_iters=30, rel_tol=1e-15, audit=False)
        assert traj.records.dtype.names == RECORD_FIELDS
        for check in (trajectory_reports, lambda *args: step_context_at(*args, 0)):
            with pytest.raises(ValueError, match="no audit data; rerun with audit=True"):
                check(problem, traj)

    @pytest.mark.parametrize("cut", ["audit", "records"])
    def test_mismatched_trajectory_is_rejected(self, cut):
        # one half of the table without the other: the audit columns, or the records
        problem = make_instance(n=25, r=3, seed=1005)
        traj = near_run(problem, StepPolicy.fixed(), max_iters=30, rel_tol=1e-15)
        assert len(traj.records) == 31
        keep = [name for name in traj.records.dtype.names
                if (name in RECORD_FIELDS) == (cut == "audit")]
        table = np.rec.fromarrays([traj.records[name] for name in keep], names=keep).view(Table)
        short = dataclasses.replace(traj, records=table)
        for check in (trajectory_reports, lambda *args: step_context_at(*args, 0)):
            with pytest.raises(ValueError):
                check(problem, short)

    def test_record_distance_feeds_the_point_checks(self):
        # the checks read D2 off the record: replacing it moves row k's regularity lhs
        problem = make_instance(n=25, r=3, seed=1006)
        traj = near_run(problem, StepPolicy.fixed(), max_iters=5, rel_tol=1e-15)
        k = 2
        records = traj.records.copy()
        records.dist_sq[k] *= 4.0
        moved = rows_of(problem, dataclasses.replace(traj, records=records))
        original = rows_of(problem, traj)
        m, sigma_r = problem.objective.m, problem.sigma_r_xstar
        assert moved[k, CHECK_REGULARITY].lhs == pytest.approx(
            original[k, CHECK_REGULARITY].lhs + 0.45 * m * sigma_r * traj.records[k].dist_sq)
        assert moved[k - 1, CHECK_REGULARITY] == original[k - 1, CHECK_REGULARITY]

    def test_wrong_optimal_step_fails_the_audit(self, monkeypatch):
        problem = make_instance(n=25, r=3, seed=1002)
        traj = near_run(problem, StepPolicy.adaptive_exact())
        true_step = stepsize._distance_step
        monkeypatch.setattr(stepsize, "_distance_step",
                            lambda *args: 1.5 * true_step(*args))
        audit = [rep for rep in trajectory_reports(problem, traj)
                 if rep.name == CHECK_OPTIMAL_STEP and rep.applicable]
        assert audit and not all(rep.holds for rep in audit)


class TestScalarReference:
    """trajectory_reports equals, field for field, the reference that builds
    each report of each iterate on its own in plain Python floats."""

    @staticmethod
    def assert_rows_equal(problem, traj):
        reports = trajectory_reports(problem, traj)
        reference = reference_reports(problem, traj)
        assert len(reports) == len(reference)
        # a row is a namedtuple of Python values, the same whether iterated or indexed
        for i, (got, want) in enumerate(zip(reports, reference)):
            assert got == tuple(want) and got == reports[i] and got._fields == REPORT_FIELDS
            assert list(map(type, got)) == [int, str, float, float, float, bool, bool]
        return reports

    def test_near_fixed_run(self):
        problem = make_instance(n=25, r=3, seed=1100)
        reports = self.assert_rows_equal(problem, near_run(problem, StepPolicy.fixed()))
        applicable = [rep for rep in reports if rep.applicable]
        assert applicable and all(rep.holds for rep in applicable)

    def test_exact_run_with_estimation_noise(self):
        problem = make_instance(n=25, r=3, seed=1101)
        traj = near_run(problem, StepPolicy.adaptive_exact(delta_rho=0.5), delta_seed=3)
        self.assert_rows_equal(problem, traj)

    def test_far_practical_run_is_not_applicable(self):
        near = make_instance(n=25, r=2, seed=1102)
        problem = make_problem(near.objective, init_far(near.u_star, 9), u_star=near.u_star)
        # every iterate of the first ten transitions lies outside the radius
        traj = near_run(problem, StepPolicy.adaptive_practical(), max_iters=10)
        assert not traj.records.inside.any()
        reports = self.assert_rows_equal(problem, traj)
        assert not any(rep.applicable for rep in reports if rep.name != CHECK_OPTIMAL_STEP)

    def test_diverging_run(self, monkeypatch):
        # a million-fold anchored step, as in the engine's divergence test
        problem = make_instance(seed=37)
        with monkeypatch.context() as patch:
            patch.setattr(stepsize, "eta_fixed", lambda M, x0, grad0: 1e6)
            traj = near_run(problem, StepPolicy.fixed(), max_iters=50, rel_tol=1e-12)
        assert traj.terminated == TERMINATED_DIVERGED and len(traj.records) > 1
        self.assert_rows_equal(problem, traj)

    def test_one_record_run(self):
        problem = make_instance(seed=1103)
        traj = near_run(problem, StepPolicy.adaptive_exact(), rel_tol=1.0)
        reports = self.assert_rows_equal(problem, traj)
        assert [rep.name for rep in reports] == [CHECK_LOCAL_STEP_FLOOR, CHECK_REGULARITY]

    def test_empty_audit(self):
        problem = make_instance(seed=1104)
        traj = near_run(problem, StepPolicy.fixed(), max_iters=1)
        empty = Trajectory(traj.records[:0], TERMINATED_DIVERGED)
        reports = trajectory_reports(problem, empty)
        assert len(reports) == 0 and reports.dtype.names == Report._fields
        assert list(reports) == []
        assert reference_reports(problem, empty) == []

    def test_problem_without_ground_truth_is_rejected(self):
        # no audited run exists on a blind problem, so its checks have no sigma_r(X*)
        problem = make_instance(seed=1105)
        traj = near_run(problem, StepPolicy.fixed(), max_iters=5)
        blind = make_problem(problem.objective, problem.u0)
        for audit in (traj, Trajectory(traj.records[:0], TERMINATED_DIVERGED)):
            with pytest.raises(MissingGroundTruthError):
                trajectory_reports(blind, audit)
        with pytest.raises(MissingGroundTruthError):
            step_context_at(blind, traj, 0)
