"""Time ``import minorsieve, minorsieve.cli`` in fresh interpreters, A/B.

Usage, from anywhere::

    python3 tools/import_time.py TREE_A TREE_B

Each TREE is a checkout whose ``src/`` holds the package.  Every run is
one ``python3 -S -c "import minorsieve, minorsieve.cli"`` with
``PYTHONPATH=TREE/src``, timed from spawn to exit, so the figure
includes interpreter start.  Each tree runs ``RUNS`` times, and the
trees alternate which goes first in each pair, so a drift of the
machine's speed falls on both.  Before the timed runs, one interpreter
per tree lists the standard library modules the import loads; it may
write bytecode (``PYTHONDONTWRITEBYTECODE`` is dropped), so the timed
runs load compiled modules, as an installed package does.  For each tree
the tool prints the median and quartiles in ms and that module count;
then the ratio of the medians, B over A, and the pairs B won.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import statistics
import subprocess
import sys
import time

RUNS = 40
IMPORT = "import minorsieve, minorsieve.cli"
LIST = ("import sys; before = set(sys.modules); " + IMPORT + "; "
        "loaded = sorted(set(sys.modules) - before); "
        "import json; print(json.dumps(loaded))")


def _env(tree: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    return dict(env, PYTHONPATH=str(tree / "src"))


def _time_once(tree: Path) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", IMPORT], env=_env(tree),
                   check=True)
    return time.perf_counter() - start


def _stdlib_modules(tree: Path) -> list[str]:
    out = subprocess.run([sys.executable, "-S", "-c", LIST], env=_env(tree),
                         check=True, capture_output=True, text=True).stdout
    return [m for m in json.loads(out) if m.split(".")[0] != "minorsieve"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    args = parser.parse_args(argv)
    for tree in args.trees:
        if not (tree / "src" / "minorsieve" / "__init__.py").is_file():
            parser.error(f"no minorsieve package under {tree / 'src'}")
    counts = [len(_stdlib_modules(tree)) for tree in args.trees]
    times: list[list[float]] = [[], []]
    for i in range(RUNS):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            times[side].append(_time_once(args.trees[side]))
    medians = []
    for label, tree, values, count in zip("AB", args.trees, times, counts):
        ms = [t * 1000 for t in values]
        q1, med, q3 = statistics.quantiles(ms, n=4)
        medians.append(med)
        print(f"{label} {tree}: median {med:.1f} ms (IQR {q1:.1f}-{q3:.1f}), "
              f"{count} standard library modules")
    wins = sum(b < a for a, b in zip(*times))
    print(f"B/A {medians[1] / medians[0]:.2f}, B faster in {wins} of "
          f"{RUNS} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
