"""The benchmark's workloads: the CLI command each one runs for a seed, and
the experiment configs its outputs must correspond to.

Every workload goes through ``factordescent.cli.main``; the seed reaches the
program only through the flags built here. All flags are spelled out, even
where they equal the CLI defaults, so a later change of a default does not
silently change the workload. ``tiny`` sizes keep the same shape of work at
a size that runs in seconds (the smoke tests and the quick mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

FIGURES = "figures"
EXACT = "exact"
VERIFY = "verify"
WORKLOADS = (FIGURES, EXACT, VERIFY)

FULL = "full"
TINY = "tiny"
SIZES = (FULL, TINY)

# figures: the paper's experiment as shipped, rank 2 and 5 x near and far
FIGURES_N = {FULL: 1000, TINY: 80}
FIGURES_MAX_ITERS = 2000
FIGURES_REL_TOL = 1e-10

# exact: adaptive-exact from a near start. At n >= 500 the n x n SVD that
# eta_local takes at every iterate dominates the iteration; n = 600 keeps a
# command at about 4 s, so a run holds several of them.
EXACT_N = {FULL: 600, TINY: 60}
EXACT_R = 5
EXACT_MAX_ITERS = 500
EXACT_REL_TOL = 1e-10

# verify: the seed sweep at the CLI's defaults, 50 consecutive seeds
VERIFY_SEEDS = {FULL: 50, TINY: 3}
VERIFY_N = 50
VERIFY_R = 3
VERIFY_SAFETY = 0.5
VERIFY_DELTA_RHO = 0.5
VERIFY_MAX_ITERS = 400
VERIFY_REL_TOL = 1e-8

# CLI seeds must be nonnegative 32-bit values; every benchmark seed maps to one
SEED_MODULUS = 2 ** 32


@dataclass(frozen=True)
class Spec:
    """One round of a workload: the CLI argv, and for each experiment the
    command runs, its config and the directory its files land in."""

    argv: list[str]
    runs: list[tuple[object, Path]]


def build(workload: str, seed: int, size: str, out: Path) -> Spec:
    """The round of ``workload`` for benchmark seed ``seed``, writing under
    ``out``. Needs ``factordescent`` importable."""
    from factordescent.experiments import ExperimentConfig

    seed = seed % SEED_MODULUS
    if workload == FIGURES:
        n = FIGURES_N[size]
        argv = ["reproduce-figures", "--seed", str(seed), "--n", str(n),
                "--max-iters", str(FIGURES_MAX_ITERS),
                "--rel-tol", repr(FIGURES_REL_TOL), "--out", str(out)]
        runs = []
        for r in (2, 5):
            for kind, param in (("near", 0.5), ("far", 1.0)):
                config = ExperimentConfig(
                    n=n, r=r, seed=seed, init_kind=kind, init_param=param,
                    policies=("fgd", "adaptive-practical"),
                    max_iters=FIGURES_MAX_ITERS, rel_tol=FIGURES_REL_TOL)
                runs.append((config, out / f"r{r}-{kind}"))
        return Spec(argv, runs)
    if workload == EXACT:
        n = EXACT_N[size]
        argv = ["run", "--n", str(n), "--r", str(EXACT_R), "--seed", str(seed),
                "--init", "near:0.5", "--policy", "adaptive-exact",
                "--max-iters", str(EXACT_MAX_ITERS),
                "--rel-tol", repr(EXACT_REL_TOL), "--out", str(out)]
        config = ExperimentConfig(
            n=n, r=EXACT_R, seed=seed, init_kind="near", init_param=0.5,
            policies=("adaptive-exact",), max_iters=EXACT_MAX_ITERS,
            rel_tol=EXACT_REL_TOL)
        return Spec(argv, [(config, out)])
    if workload == VERIFY:
        last = seed + VERIFY_SEEDS[size] - 1
        argv = ["verify", "--seed", f"{seed}..{last}", "--n", str(VERIFY_N),
                "--r", str(VERIFY_R), "--safety", repr(VERIFY_SAFETY),
                "--delta-rho", repr(VERIFY_DELTA_RHO),
                "--max-iters", str(VERIFY_MAX_ITERS),
                "--rel-tol", repr(VERIFY_REL_TOL), "--out", str(out)]
        runs = []
        for s in range(seed, last + 1):
            config = ExperimentConfig(
                n=VERIFY_N, r=VERIFY_R, seed=s, init_kind="near",
                init_param=VERIFY_SAFETY, policies=("fgd", "adaptive-exact"),
                max_iters=VERIFY_MAX_ITERS, rel_tol=VERIFY_REL_TOL,
                delta_rho=VERIFY_DELTA_RHO, checks_enabled=True)
            runs.append((config, out / f"seed-{s}"))
        return Spec(argv, runs)
    raise ValueError(f"unknown workload {workload!r}")
