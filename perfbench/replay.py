"""Independent checks of the files a workload round wrote.

The replay rebuilds U0 and U* with ``generate_instance`` and then recomputes
every recorded iterate in factored O(n r^2) arithmetic written here with
plain numpy, without the library's geometry, objective or step-size code.
For the target A = U* U*^T and the QR factorization [U, U*] = Q [R1 R2]:

    X - A     = Q C Q^T          with the core C = R1 R1^T - R2 R2^T
    g         = ||C||_F^2
    direction = grad f(X) U = 2 Q C R1,   ||direction||_F^2 = 4 ||C R1||_F^2
    ||X||_2   = sigma_1(U)^2,     ||grad f(X)||_2 = 2 max |eig(C)|
    ||grad f(X) P_U||_2 = 2 ||C W||_2      (W: left singular vectors of R1)

dist^2 comes from the Procrustes-aligned residual U - U* R. The step of each
policy is recomputed from the paper's formula, including the estimation
noise delta (drawn from the config's documented seed stream) and the
gradient-floor fallback, and the next iterate is advanced with the recorded
step. CSV floats are printed in shortest round-trip form, so the recorded
values are the program's exact binary values.

Besides the replay, the method properties the paper claims are checked:
adaptive runs end at the tolerance, no run diverges or stalls, the practical
adaptive step needs fewer iterations than FGD, every seed of a checked run
has applicable checks and none fails, and the fixed-step contraction
D2_{k+1} <= (1 - 0.3 m eta0 sigma_r(X*)) D2_k holds on every transition of a
near-start FGD run. No check compares bytes, hashes or exact iteration
counts, so the checks hold on any machine and BLAS thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# ||X - A||_F^2 has Hessian 2 I on matrix space: m = M = 2
CURV_M = 2.0
CURV_BIG_M = 2.0

# Largest accepted relative deviation between a recorded value and its
# replay. Dense and factored arithmetic agree to about 1e-9 at n = 1000.
REPLAY_RTOL = 1e-6
# Relative slack allowed in the contraction inequality (rounding only)
CONTRACTION_RTOL = 1e-9

FIELDS = ("g_value", "rel_error", "dist_sq", "eta", "grad_norm_sq", "delta")


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a trajectory CSV as float arrays (exact round trip)."""
    header, *rows = Path(path).read_text().splitlines()
    names = header.split(",")
    data = np.array([[float(v) for v in row.split(",")] for row in rows], dtype=float)
    return {name: data[:, i] for i, name in enumerate(names)}


def _positive_sigmas(sigma: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    tol = max(max(shape) * np.finfo(float).eps * float(sigma[0]), 1e-12)
    return sigma > tol


def _sigma_r_gram(u: np.ndarray) -> float:
    """Smallest positive singular value of U U^T."""
    sigma = np.linalg.svd(u, compute_uv=False)
    return float(sigma[_positive_sigmas(sigma, u.shape)][-1] ** 2)


@dataclass
class _Point:
    """Factored quantities at one iterate."""

    g: float
    grad_norm_sq: float
    dist_sq: float
    core: np.ndarray
    r1: np.ndarray
    q: np.ndarray
    direction_core: np.ndarray  # direction = q @ direction_core


def _evaluate(u: np.ndarray, u_star: np.ndarray) -> _Point:
    r = u.shape[1]
    q, rr = np.linalg.qr(np.hstack([u, u_star]))
    r1, r2 = rr[:, :r], rr[:, r:]
    core = r1 @ r1.T - r2 @ r2.T
    direction_core = 2.0 * core @ r1
    p, _, qt = np.linalg.svd(u_star.T @ u)
    residual = u - u_star @ (p @ qt)
    return _Point(g=float(np.sum(core * core)),
                  grad_norm_sq=float(np.sum(direction_core * direction_core)),
                  dist_sq=float(np.sum(residual * residual)),
                  core=core, r1=r1, q=q, direction_core=direction_core)


def _eta_fixed(pt: _Point) -> float:
    x_norm = np.linalg.svd(pt.r1, compute_uv=False)[0] ** 2
    grad_norm = 2.0 * float(np.max(np.abs(np.linalg.eigvalsh(pt.core))))
    return 1.0 / (16.0 * (CURV_BIG_M * x_norm + grad_norm))


def _eta_local(pt: _Point, n: int) -> float:
    w, sigma, _ = np.linalg.svd(pt.r1, full_matrices=False)
    keep = _positive_sigmas(sigma, (n, pt.r1.shape[1]))
    projected = 2.0 * np.linalg.norm(pt.core @ w[:, keep], 2)
    return 1.0 / (16.0 * (CURV_BIG_M * sigma[0] ** 2 + projected))


def _step(kind: str, pt: _Point, n: int, eta0: float, sigma_r: float, delta: float) -> float:
    if kind == "fgd":
        return eta0
    base = eta0 if kind == "adaptive-practical" else 0.8 * _eta_local(pt, n)
    floor = 1e-14 * max(1.0, float(np.linalg.norm(pt.r1))) ** 4
    if pt.grad_norm_sq <= floor:
        return base
    estimate = pt.dist_sq + delta
    return base + 3.0 * CURV_M * sigma_r * estimate / (20.0 * pt.grad_norm_sq)


def _close(recorded: float, replayed: float) -> bool:
    return abs(recorded - replayed) <= REPLAY_RTOL * max(abs(recorded), abs(replayed))


@dataclass
class Replay:
    """Outcome of replaying one trajectory: the problems found, the largest
    relative deviation seen, and the constants the property checks need."""

    problems: list[str] = field(default_factory=list)
    worst: float = 0.0
    eta0: float = 0.0
    sigma_r_xstar: float = 0.0


def replay(config, u0: np.ndarray, u_star: np.ndarray, kind: str,
           table: dict[str, np.ndarray]) -> Replay:
    """Recompute every recorded iterate of one trajectory and compare."""
    n = u0.shape[0]
    out = Replay(sigma_r_xstar=_sigma_r_gram(u_star))
    sigma_r = out.sigma_r_xstar if kind == "adaptive-exact" else _sigma_r_gram(u0)
    delta_rng = None
    if kind != "fgd" and config.delta_rho > 0.0:
        # the estimation-noise stream is the third child of the config seed
        delta_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[2])
    u = np.array(u0, dtype=float)
    g0 = None
    rows = len(table["iter"])
    for k in range(rows):
        pt = _evaluate(u, u_star)
        if k == 0:
            out.eta0 = _eta_fixed(pt)
            g0 = pt.g
        delta = 0.0
        if delta_rng is not None:
            delta = config.delta_rho * pt.dist_sq * float(delta_rng.uniform(-1.0, 1.0))
        replayed = {
            "g_value": pt.g,
            "rel_error": pt.g / g0,
            "dist_sq": pt.dist_sq,
            "eta": _step(kind, pt, n, out.eta0, sigma_r, delta),
            "grad_norm_sq": pt.grad_norm_sq,
            "delta": delta,
        }
        if table["iter"][k] != k:
            out.problems.append(f"{kind}: row {k} has iter {table['iter'][k]}")
            return out
        for name in FIELDS:
            rec, rep = float(table[name][k]), replayed[name]
            if rec != rep:
                out.worst = max(out.worst, abs(rec - rep) / max(abs(rec), abs(rep)))
            if not _close(rec, rep):
                out.problems.append(
                    f"{kind}: {name} at iterate {k} is {rec!r}, replay gives {rep!r}")
                return out
        u = u - table["eta"][k] * (pt.q @ pt.direction_core)
    return out


def contraction_failures(table: dict[str, np.ndarray], eta0: float, m: float,
                         sigma_r_xstar: float) -> list[int]:
    """Transitions k where D2_{k+1} > (1 - 0.3 m eta0 sigma_r) D2_k."""
    d2 = table["dist_sq"]
    rhs = (1.0 - 0.3 * m * eta0 * sigma_r_xstar) * d2[:-1]
    bad = d2[1:] > rhs + CONTRACTION_RTOL * np.abs(rhs)
    return [int(k) for k in np.flatnonzero(bad)]


def termination_problems(kind: str, entry: dict, table: dict[str, np.ndarray],
                         config) -> list[str]:
    """The run ended as the method promises, and the recorded rows agree with
    the reported termination."""
    rel = table["rel_error"]
    last = int(table["iter"][-1])
    reason = entry.get("terminated")
    problems = []
    if reason in ("diverged", "stationary"):
        problems.append(f"{kind}: ended {reason}")
    if kind != "fgd" and reason != "tolerance":
        problems.append(f"{kind}: adaptive run ended {reason}, not at tolerance")
    if entry.get("iterations_run") != last:
        problems.append(f"{kind}: summary says {entry.get('iterations_run')} "
                        f"iterations, the CSV ends at {last}")
    if np.any(rel[:-1] <= config.rel_tol):
        problems.append(f"{kind}: reached the tolerance before its last row")
    if reason == "tolerance" and not rel[-1] <= config.rel_tol:
        problems.append(f"{kind}: ended at tolerance with rel_error {rel[-1]!r}")
    if reason == "max_iters" and last != config.max_iters:
        problems.append(f"{kind}: ended max_iters at iterate {last}")
    return problems


def _config_problems(config, echoed: dict) -> list[str]:
    expected = {"n": config.n, "r": config.r, "seed": config.seed,
                "init": config.describe_init(), "policies": list(config.policies),
                "max_iters": config.max_iters, "rel_tol": config.rel_tol,
                "delta_rho": config.delta_rho}
    return [f"summary config {key} is {echoed.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if echoed.get(key) != value]


def _checks_problems(path: Path) -> list[str]:
    """checks.csv has applicable checks and every applicable one holds."""
    applicable = failing = 0
    with open(path) as fh:
        next(fh)
        for line in fh:
            holds, is_applicable = line.rstrip("\n").rsplit(",", 2)[1:]
            if is_applicable == "true":
                applicable += 1
                failing += holds != "true"
    problems = []
    if applicable == 0:
        problems.append(f"{path}: no applicable checks")
    if failing:
        problems.append(f"{path}: {failing} applicable checks fail")
    return problems


@dataclass
class RoundCheck:
    """What checking one round found. failed counts trajectories the program
    did not deliver; problems are faults in what it did deliver."""

    attempted: int = 0
    failed: int = 0
    transitions: int = 0
    worst: float = 0.0
    problems: list[str] = field(default_factory=list)


def check_round(spec, exit_code: int) -> RoundCheck:
    """Replay and property-check every trajectory one round wrote."""
    from factordescent.experiments import generate_instance

    result = RoundCheck()
    if exit_code != 0:
        result.problems.append(f"command {spec.argv[0]} exited {exit_code}")
    for config, out_dir in spec.runs:
        result.attempted += len(config.policies)
        summary_path = out_dir / "summary.json"
        if not summary_path.is_file():
            result.failed += len(config.policies)
            continue
        summary = json.loads(summary_path.read_text())
        result.problems += [f"{out_dir}: {p}"
                            for p in _config_problems(config, summary["config"])]
        problem = generate_instance(config)
        iterations = {}
        for kind in config.policies:
            csv = out_dir / f"{kind}.csv"
            if kind in summary["failed"] or not csv.is_file():
                result.failed += 1
                continue
            table = read_table(csv)
            entry = summary["policies"][kind]
            result.transitions += len(table["iter"]) - 1
            rep = replay(config, problem.u0, problem.u_star, kind, table)
            result.worst = max(result.worst, rep.worst)
            problems = rep.problems + termination_problems(kind, entry, table, config)
            if kind == "fgd" and config.init_kind == "near" and not rep.problems:
                bad = contraction_failures(table, rep.eta0, CURV_M, rep.sigma_r_xstar)
                if bad:
                    problems.append(f"fgd: contraction fails at transitions {bad[:5]}")
            result.problems += [f"{out_dir}: {p}" for p in problems]
            iterations[kind] = entry.get("iterations_to_tolerance")
        if {"fgd", "adaptive-practical"} <= iterations.keys():
            fgd, adaptive = iterations["fgd"], iterations["adaptive-practical"]
            if adaptive is None or (fgd is not None and adaptive >= fgd):
                result.problems.append(
                    f"{out_dir}: adaptive-practical needs {adaptive} iterations, fgd {fgd}")
        if config.checks_enabled:
            checks = out_dir / "checks.csv"
            if checks.is_file():
                result.problems += _checks_problems(checks)
            else:
                result.problems.append(f"{out_dir}: checks.csv missing")
    return result
