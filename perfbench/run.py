"""Benchmark of factordescent: one workload per run, outputs checked.

    python3 perfbench/run.py --workload {figures,exact,verify} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]

Run it from the root of a checkout; it imports the package from ``src/``
and exits 2 if there is none. The workload runs in one child process with
one BLAS thread. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced round. Both carry the number of
trajectories attempted and failed, and ``correct``, which is true when every
delivered trajectory passes the independent replay and the method-property
checks of replay.py. Run outputs go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

OUT_ROOT = ".perfbench_out"
# set-up is timed in fresh interpreters: one warm-up (page cache, .pyc
# files), then the median of SETUP_REPEATS
SETUP_REPEATS = 5
# a run must end within 180 s; leave room for the checks after the child
CHILD_BUDGET_S = 150.0

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default=workloads.FULL)
    return parser.parse_args(argv)


def _child_env() -> dict:
    # One BLAS thread (never more than nproc): at n = 1000 the work is mostly
    # memory-bound n x n array arithmetic, so a second thread gains little,
    # and a run that needs one core is disturbed less by a busy neighbour.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _child(mode: str, args, out: Path, timeout: float) -> str:
    cmd = [sys.executable, str(HERE / "child.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}")
    return proc.stdout


def _metrics(values: dict, group: str) -> dict:
    """values of every metric BENCHMARK.json lists in group, with its unit."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "factordescent" / "__init__.py").is_file():
        print("error: run from the root of a factordescent checkout (no src/factordescent)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import replay

    out = root / OUT_ROOT / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    deadline = time.monotonic() + CHILD_BUDGET_S

    try:
        setup = []
        if not args.trace:
            for _ in range(1 + SETUP_REPEATS):
                line = _child("setup", args, out / "setup", deadline - time.monotonic())
                setup.append(json.loads(line)["setup_s"])
        _child("rounds", args, out, deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    child = json.loads((out / "child.json").read_text())

    checked = []
    for dir_, code in zip(child["dirs"], child["codes"]):
        spec = workloads.build(args.workload, args.seed, args.size, Path(dir_))
        checked.append(replay.check_round(spec, code))
    if args.trace:
        spec = workloads.build(args.workload, args.seed, args.size, Path(child["traced_dir"]))
        checked.append(replay.check_round(spec, child["traced_code"]))
    for res in checked:
        for problem in res.problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
    print(f"replay: {sum(r.attempted for r in checked)} trajectories, largest relative "
          f"deviation {max(r.worst for r in checked):.2e}", file=sys.stderr)

    if args.trace:
        metrics = _metrics(child["layers"], "per_layer")
    else:
        wall = statistics.median(child["walls"])
        iterations = checked[0].transitions
        metrics = _metrics({"wall_s": wall,
                            "setup_s": statistics.median(setup[1:]),
                            "ms_per_iter": 1000.0 * wall / max(iterations, 1),
                            "iterations": iterations,
                            "peak_rss_mb": child["peak_rss_mb"]}, "end_to_end")
    for dir_ in child["dirs"] + [child.get("traced_dir")]:
        if dir_:
            shutil.rmtree(dir_, ignore_errors=True)
    print(json.dumps({
        "correct": all(not r.problems for r in checked),
        "attempted": sum(r.attempted for r in checked),
        "failed": sum(r.failed for r in checked),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
