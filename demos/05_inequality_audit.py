#
# Auditing the convergence analysis on a concrete run: every inequality the
# linear-rate proof relies on is evaluated per iterate / per transition, and
# the minimum slack over the whole trajectory is reported for each check.
#
# "Not applicable" marks iterates where a check's hypotheses do not hold
# (outside the start radius, or a step of the wrong kind) - far starts are
# the typical source.
#

import numpy as np

from factordescent import (CHECK_OPTIMAL_STEP, ExperimentConfig,
                           check_init_condition, generate_instance, run,
                           policy_from_name, trajectory_reports)

config = ExperimentConfig(n=50, r=3, seed=11, init_kind="near", init_param=0.5,
                          policies=("adaptive-exact",), delta_rho=0.5,
                          max_iters=400, rel_tol=1e-8)
problem = generate_instance(config)

start = check_init_condition(problem)
print(f"start distance {start.lhs:.4e} vs radius {start.rhs:.4e} "
      f"-> within: {start.holds}")

policy = policy_from_name("adaptive-exact", delta_rho=0.5)
traj = run(problem, policy, max_iters=400, rel_tol=1e-8, delta_seed=3,
           audit=True)
print(f"run: {traj.terminated} after {traj.final.k} iterations, "
      f"final rel_error {traj.final.rel_error:.2e}")

# ---------------------------------------------------------------
# every check, worst slack across the trajectory
# ---------------------------------------------------------------
reports = trajectory_reports(problem, traj)  # one record array, a row per check
assert reports.holds[reports.applicable].all()

print()
print(f"{'check':28s} {'evaluations':>12s} {'min slack':>12s}")
skipped = {}
for name in sorted(set(reports.name.tolist())):
    rows = reports[reports.name == name]
    slack = rows.slack[rows.applicable]
    if len(slack):
        print(f"{name:28s} {len(slack):12d} {slack.min():12.3e}")
    if not rows.applicable.all():
        skipped[name] = int(np.count_nonzero(~rows.applicable))
if skipped:
    print("not applicable:", skipped)

# ---------------------------------------------------------------
# the chosen step really minimizes the quadratic bound: the optimal_step
# rows compare the bound at eta* with its minimum over sampled steps
# ---------------------------------------------------------------
audit = reports[reports.name == CHECK_OPTIMAL_STEP]
verified = np.count_nonzero(audit.holds & audit.applicable)
print(f"\noptimal-step property verified at {verified} of "
      f"{len(audit)} transitions")
