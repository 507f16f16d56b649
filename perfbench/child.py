"""The workload process, started by run.py from the root of a checkout.

``setup``: time ``import factordescent`` plus ``generate_instance`` for each
of the workload's instances, in this fresh interpreter, and print it.

``rounds``: run whole rounds of the workload's CLI command through
``factordescent.cli.main`` until the next round would end after
``--seconds``, with tracing off. With ``--trace 1`` one more round follows
with every layer traced. Writes ``child.json`` into ``--out``: the wall time
and exit code of each round, the process's peak resident set, and the layer
metrics with the spans saved beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "rounds"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def _round(main, spec, stdout_path: Path) -> tuple[float, int]:
    stdout_path.parent.mkdir(parents=True, exist_ok=True)
    with open(stdout_path, "w") as fh, contextlib.redirect_stdout(fh):
        start = time.perf_counter()
        code = main(spec.argv)
        wall = time.perf_counter() - start
    return wall, code


def setup(args) -> None:
    import workloads

    start = time.perf_counter()
    from factordescent.experiments import generate_instance

    for config, _ in workloads.build(args.workload, args.seed, args.size, args.out).runs:
        generate_instance(config)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def rounds(args) -> None:
    from factordescent import cli

    import workloads

    walls, codes, dirs = [], [], []
    began = time.perf_counter()
    while True:
        out = args.out / f"round-{len(walls)}"
        spec = workloads.build(args.workload, args.seed, args.size, out)
        wall, code = _round(cli.main, spec, out / "stdout.txt")
        walls.append(wall)
        codes.append(code)
        dirs.append(str(out))
        if time.perf_counter() - began + wall > args.seconds:
            break
    result = {"walls": walls, "codes": codes, "dirs": dirs}
    if args.trace:
        import tracer

        spans = tracer.Tracer()
        tracer.install(spans)
        out = args.out / "traced"
        spec = workloads.build(args.workload, args.seed, args.size, out)
        # cli.main is looked up again so the traced wrapper is the one called
        wall, code = _round(cli.main, spec, out / "stdout.txt")
        layers = spans.layer_metrics()
        layers["trace.overhead_s"] = wall - statistics.median(walls)
        spans.save(args.out / "spans.npz")
        result.update(traced_wall=wall, traced_code=code, traced_dir=str(out),
                      layers=layers)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.out / "child.json").write_text(json.dumps(result))


if __name__ == "__main__":
    args = _parse(sys.argv[1:])
    sys.path.insert(0, str(Path.cwd() / "src"))
    if args.mode == "setup":
        setup(args)
    else:
        rounds(args)
