"""Command-line interface.

Three subcommands:

* ``run``: execute one comparison experiment, configured by flags and/or a
  flat ``key = value`` config file (flags win).
* ``verify``: sweep seeds of near-start instances, run the fixed and exact
  adaptive policies with estimation noise, and evaluate every inequality
  check; exits nonzero if any applicable check fails.
* ``reproduce-figures``: run the four benchmark configurations (rank 2 and
  5, near and far starts) and emit CSVs, summaries, and gnuplot templates.

Exit codes: 0 success, 1 run or verification failure, 2 bad usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import FactorDescentError
from .experiments import (ExperimentConfig, INIT_FAR, INIT_NEAR, export_csv,
                          figure_configs, reproduce_figures, run_comparison,
                          write_plot_script)
from .stepsize import ADAPTIVE_EXACT, FIXED_FGD, POLICY_KINDS

__all__ = ["main", "parse_config_text", "ConfigError"]


class ConfigError(ValueError):
    """Malformed config file or flag value."""


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_config_text(text: str) -> dict:
    """Parse the flat config grammar: one ``key = value`` per line, ``#``
    starts a comment, repeated ``policy`` keys (or comma lists) accumulate."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not val:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key == "policy":
            values.setdefault("policy", []).extend(
                part.strip() for part in val.split(",") if part.strip())
        elif key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        else:
            values[key] = val
    return values


def _parse_init(text: str) -> tuple[str, float]:
    kind, _, param = text.partition(":")
    kind = kind.strip()
    if kind not in (INIT_NEAR, INIT_FAR):
        raise ConfigError(f"init must be 'near[:SAFETY]' or 'far[:SCALE]', got {text!r}")
    if not param:
        return kind, 0.5 if kind == INIT_NEAR else 1.0
    try:
        return kind, float(param)
    except ValueError as exc:
        raise ConfigError(f"bad init parameter in {text!r}") from exc


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_seed_range(text: str) -> list[int]:
    if ".." in text:
        first, _, last = text.partition("..")
        try:
            lo, hi = int(first), int(last)
        except ValueError as exc:
            raise ConfigError(f"bad seed range {text!r}") from exc
        if hi < lo:
            raise ConfigError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError as exc:
        raise ConfigError(f"bad seed {text!r}") from exc


# config key -> (ExperimentConfig field(s), parser). Each key is also the
# argparse dest of its ``run`` flag; a flag's value goes through the same
# parser as the file's text and wins over it.
_CONFIG_TABLE = {
    "n": (("n",), int),
    "r": (("r",), int),
    "seed": (("seed",), int),
    "init": (("init_kind", "init_param"), _parse_init),
    "policy": (("policies",), tuple),
    "max_iters": (("max_iters",), int),
    "rel_tol": (("rel_tol",), float),
    "delta_rho": (("delta_rho",), float),
    "checks": (("checks_enabled",), _parse_bool),
    "out": (("output_dir",), str),
}
_CONFIG_KEYS = tuple(_CONFIG_TABLE)


def _set_field(values: dict, key: str, raw) -> None:
    """Parse one config value and store it under its ExperimentConfig field(s)."""
    fields, parse = _CONFIG_TABLE[key]
    try:
        parsed = parse(raw)
    except ConfigError:  # already worded for the user; a subclass of ValueError
        raise
    except ValueError as exc:
        raise ConfigError(f"bad numeric value in config: {exc}") from exc
    if len(fields) == 1:
        parsed = (parsed,)
    values.update(zip(fields, parsed))


def _checked(build, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError reported as bad usage."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_run_config(args) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        for key, raw in parse_config_text(text).items():
            _set_field(values, key, raw)
    for key in _CONFIG_TABLE:
        if getattr(args, key) is not None:
            _set_field(values, key, getattr(args, key))
    values.setdefault("n", 100)
    values.setdefault("r", 2)
    values.setdefault("seed", 0)
    return _checked(ExperimentConfig, **values)


def _cmd_run(args) -> int:
    config = _build_run_config(args)
    artifact = run_comparison(config)
    paths = export_csv(artifact)
    write_plot_script(Path(config.output_dir), list(artifact.trajectories))
    for label, entry in artifact.summary["policies"].items():
        print(f"{label}: {entry['terminated']} after {entry['iterations_run']} iterations, "
              f"final rel_error {entry['final_rel_error']:.3e}")
    for path in paths:
        print(f"wrote {path}")
    status = 0
    if artifact.failures:
        for label, message in artifact.failures.items():
            print(f"{label}: FAILED ({message})", file=sys.stderr)
        status = 1
    for label, entry in artifact.summary["checks"].items():
        if entry["failures"]:
            print(f"{label}: {entry['failures']} inequality check(s) failed",
                  file=sys.stderr)
            status = 1
    return status


def _cmd_verify(args) -> int:
    seeds = _parse_seed_range(args.seed)
    total_applicable = total_failures = 0
    for seed in seeds:
        config = _checked(
            ExperimentConfig, n=args.n, r=args.r, seed=seed, init_kind=INIT_NEAR,
            init_param=args.safety, policies=(FIXED_FGD, ADAPTIVE_EXACT),
            max_iters=args.max_iters, rel_tol=args.rel_tol,
            delta_rho=args.delta_rho, checks_enabled=True,
            output_dir=str(Path(args.out) / f"seed-{seed}") if args.out else ".")
        artifact = run_comparison(config)
        applicable = failures = 0
        for entry in artifact.summary["checks"].values():
            applicable += entry["applicable"]
            failures += entry["failures"]
        if artifact.failures:
            failures += len(artifact.failures)
        if args.out:
            export_csv(artifact)
        total_applicable += applicable
        total_failures += failures
        print(f"seed {seed}: {applicable} applicable checks, {failures} failures")
    print(f"total: {total_applicable} applicable checks, {total_failures} failures "
          f"across {len(seeds)} seed(s)")
    return 1 if total_failures else 0


def _cmd_reproduce_figures(args) -> int:
    options = dict(seed=args.seed, n=args.n, max_iters=args.max_iters, rel_tol=args.rel_tol)
    _checked(figure_configs, args.out, **options)  # bad values exit 2, before any run
    results = reproduce_figures(args.out, **options)
    status = 0
    for label, summary in results.items():
        parts = []
        for policy, entry in summary["policies"].items():
            reached = entry["iterations_to_tolerance"]
            parts.append(f"{policy}={reached if reached is not None else 'n/a'}")
        ratios = ", ".join(f"{k}={v:.2f}" for k, v in summary["iteration_ratios"].items()
                           if v is not None)
        print(f"{label}: iterations to tolerance {' '.join(parts)}"
              + (f" ({ratios})" if ratios else ""))
        if summary["failed"]:
            print(f"{label}: failed policies: {summary['failed']}", file=sys.stderr)
            status = 1
    print(f"outputs under {args.out}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factordescent",
        description="Factored gradient descent benchmarks and convergence verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one comparison experiment")
    p_run.add_argument("--config", help="flat key = value config file")
    p_run.add_argument("--n", type=int, help="matrix dimension")
    p_run.add_argument("--r", type=int, help="factor rank")
    p_run.add_argument("--seed", type=int, help="instance seed")
    p_run.add_argument("--init", help="start: near:SAFETY or far:SCALE")
    p_run.add_argument("--policy", action="append", choices=POLICY_KINDS,
                       help="step policy (repeatable)")
    p_run.add_argument("--max-iters", type=int, dest="max_iters")
    p_run.add_argument("--rel-tol", type=float, dest="rel_tol")
    p_run.add_argument("--delta-rho", type=float, dest="delta_rho",
                       help="estimation-noise amplitude in [0, 1/2]")
    p_run.add_argument("--checks", action="store_const", const="true",
                       help="evaluate inequality checks along the runs")
    p_run.add_argument("--out", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser(
        "verify", help="seed sweep of the inequality checks; nonzero exit on failure")
    p_verify.add_argument("--seed", default="1..10",
                          help="single seed or inclusive range like 1..50")
    p_verify.add_argument("--n", type=int, default=50)
    p_verify.add_argument("--r", type=int, default=3)
    p_verify.add_argument("--safety", type=float, default=0.5,
                          help="near-start fraction of the start radius")
    p_verify.add_argument("--delta-rho", type=float, dest="delta_rho", default=0.5)
    p_verify.add_argument("--max-iters", type=int, dest="max_iters", default=400)
    p_verify.add_argument("--rel-tol", type=float, dest="rel_tol", default=1e-8)
    p_verify.add_argument("--out", help="optional directory for per-seed CSV dumps")
    p_verify.set_defaults(func=_cmd_verify)

    p_fig = sub.add_parser(
        "reproduce-figures",
        help="run the four benchmark configs (rank 2/5 x near/far) and export CSVs")
    p_fig.add_argument("--out", default="figures-output")
    p_fig.add_argument("--seed", type=int, default=1)
    p_fig.add_argument("--n", type=int, default=1000,
                       help="matrix dimension (lower for smoke tests)")
    p_fig.add_argument("--max-iters", type=int, dest="max_iters", default=2000)
    p_fig.add_argument("--rel-tol", type=float, dest="rel_tol", default=1e-10)
    p_fig.set_defaults(func=_cmd_reproduce_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FactorDescentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. the n x r arrays of a huge --n
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
