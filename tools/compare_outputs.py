"""Check that the working tree writes the same bytes as a git revision.

    python3 tools/compare_outputs.py REV

Extracts REV with ``git archive`` into a temporary directory, then runs, on
that tree and on this working tree, with one OpenBLAS thread:

    factordescent verify --seed 1..50 --out verify
    factordescent verify --seed 1..10 --delta-rho 0 --out verify-exact
    factordescent reproduce-figures --seed 1 --out figures
    factordescent run --n 600 --r 5 --seed 1 --init near:0.5 \
        --policy adaptive-exact --max-iters 500 --rel-tol 1e-10 --checks --out exact

The noise-free ``verify-exact`` sweep is the one that makes the two
exact-step contractions applicable, so all eight checks are diffed. The last
is the benchmark's ``exact`` workload with ``--checks``, so ``run``'s own
audit path is diffed as well as ``verify``'s. Six bad-usage commands follow
(``run --n ten``, ``run --policy bogus``, ``run --init near:2.0``,
``verify --safety 2``, ``verify --seed 0..1000000000000000000000``,
``reproduce-figures --n 1 --out figures-bad``); each must exit 2.

Each tree's commands run in a directory of their own, so the relative output
paths printed on stdout match. Prints the number of files compared and the
line total of ``src/factordescent/*.py`` in REV and in the working tree, and
exits 0 when every output file, the stdout and the exit code of each command
agree and every bad-usage command exits 2; otherwise lists each difference
and exits 1.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COMMANDS = {
    "verify": ["verify", "--seed", "1..50", "--out", "verify"],
    "verify-exact": ["verify", "--seed", "1..10", "--delta-rho", "0", "--out", "verify-exact"],
    "reproduce-figures": ["reproduce-figures", "--seed", "1", "--out", "figures"],
    "exact": ["run", "--n", "600", "--r", "5", "--seed", "1", "--init", "near:0.5",
              "--policy", "adaptive-exact", "--max-iters", "500", "--rel-tol", "1e-10",
              "--checks", "--out", "exact"],
}
BAD_USAGE = {
    "bad-n": ["run", "--n", "ten"],
    "bad-policy": ["run", "--policy", "bogus"],
    "bad-safety": ["run", "--init", "near:2.0"],
    "bad-verify": ["verify", "--safety", "2"],
    "bad-seed-range": ["verify", "--seed", "0..1000000000000000000000"],
    "bad-figures": ["reproduce-figures", "--n", "1", "--out", "figures-bad"],
}


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_commands(tree: Path, out: Path) -> dict[str, tuple[int, bytes]]:
    """(exit code, stdout) of each command, run from out on tree's sources."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    results = {}
    for name, args in {**COMMANDS, **BAD_USAGE}.items():
        done = subprocess.run([sys.executable, "-m", "factordescent.cli", *args], cwd=out,
                              env=env, capture_output=True)
        results[name] = done.returncode, done.stdout
    return results


def files_under(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def source_lines(tree: Path) -> int:
    """Line total of the package's modules, src/factordescent/*.py."""
    return sum(len(path.read_bytes().splitlines())
               for path in (tree / "src" / "factordescent").glob("*.py"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/compare_outputs.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        extract(argv[0], tmp / "base")
        base_lines, head_lines = source_lines(tmp / "base"), source_lines(REPO)
        base_results = run_commands(tmp / "base", tmp / "out-base")
        head_results = run_commands(REPO, tmp / "out-head")
        base_files, head_files = files_under(tmp / "out-base"), files_under(tmp / "out-head")

    differences = []
    for name in base_results:
        (base_code, base_out), (head_code, head_out) = base_results[name], head_results[name]
        if base_code != head_code:
            differences.append(f"{name}: exit code {base_code} -> {head_code}")
        elif name in BAD_USAGE and head_code != 2:
            differences.append(f"{name}: exit code {head_code}, not 2")
        if base_out != head_out:
            differences.append(f"{name}: stdout differs")
    for path in sorted(base_files.keys() | head_files.keys()):
        if path not in head_files:
            differences.append(f"{path}: only in {argv[0]}")
        elif path not in base_files:
            differences.append(f"{path}: only in the working tree")
        elif base_files[path] != head_files[path]:
            differences.append(f"{path}: differs")

    for line in differences:
        print(line)
    verify_tail = head_results["verify"][1].decode().strip().splitlines()[-1:]
    print(f"{len(head_files)} files compared, {len(differences)} difference(s); "
          f"verify: {' '.join(verify_tail)}; src/factordescent/*.py lines: "
          f"{base_lines} in {argv[0]}, {head_lines} in the working tree")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
