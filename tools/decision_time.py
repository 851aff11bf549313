"""Time minimality decisions over one enumerated pool, in process, A/B.

Usage, from anywhere::

    python3 tools/decision_time.py TREE_A TREE_B --property P --order N \
        [--min-degree D] [--pairs K] [--every S]

Each TREE is a checkout whose ``src/`` holds the package.  Both trees
load into this one interpreter, under the names ``minorsieve_a`` and
``minorsieve_b``.  The pool is enumerated once, by tree A: the classes
of order N and minimum degree at least D that ``search --property P``
would decide (nonplanar ones, planar ones for AN and CAN), every S-th
of them.  A pass runs ``is_minor_minimal`` of one tree on every pool
graph, after clearing that tree's planarity memo; the enumeration is
not timed.  The trees run K pairs of passes and alternate which goes
first in each pair, so a drift of the machine's speed falls on both.
Both trees must find the same minimal graphs, or the tool exits 1.

For each tree the tool prints the median and quartiles of its pass
times, in seconds and in µs per decision; then the ratio of the
medians, B over A, and the pairs B won.  ``perfbench`` runs no streamed
property search, so this is where a change to the deciders shows on a
search pool.
"""

from __future__ import annotations

import argparse
import importlib.util
from pathlib import Path
import statistics
import sys
import time

PROPERTIES = ("AN", "CAN", "NA", "NE", "NC", "IA", "IE", "IC")


def _load(tree: Path, name: str):
    """The package under ``tree/src`` imported as ``name``; its relative
    imports resolve inside that name, so two trees coexist."""
    pkg = tree / "src" / "minorsieve"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _pass(ms, prop, pool) -> tuple[float, list[int]]:
    """(seconds, indices of the minimal pool graphs) for one pass."""
    ms.planarity._lr_memo.cache_clear()
    decide, from_rows = ms.is_minor_minimal, ms.Graph.from_rows
    start = time.perf_counter()
    hits = [i for i, rows in enumerate(pool) if decide(from_rows(rows), prop)]
    return time.perf_counter() - start, hits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    parser.add_argument("--property", required=True, choices=PROPERTIES)
    parser.add_argument("--order", type=int, required=True)
    parser.add_argument("--min-degree", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--every", type=int, default=1)
    args = parser.parse_args(argv)
    for tree in args.trees:
        if not (tree / "src" / "minorsieve" / "__init__.py").is_file():
            parser.error(f"no minorsieve package under {tree / 'src'}")
    if not 1 <= args.pairs <= 100:
        parser.error("--pairs must be between 1 and 100")
    if args.every < 1:
        parser.error("--every must be at least 1")
    mods = [_load(tree, f"minorsieve_{side}")
            for tree, side in zip(args.trees, "ab")]
    a = mods[0]
    prop = args.property
    planarity = "planar" if prop in ("AN", "CAN") else "nonplanar"
    filt = a.EnumFilter(order=args.order, min_degree=args.min_degree,
                        planarity=planarity)
    pool = [g.rows() for g in a.generate_graphs(filt)][::args.every]
    props = [ms.Property(prop) for ms in mods]
    print(f"{prop} pool: order {args.order}, min degree {args.min_degree}, "
          f"every {args.every}: {len(pool)} graphs")
    times: list[list[float]] = [[], []]
    found = [None, None]
    for i in range(args.pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            seconds, hits = _pass(mods[side], props[side], pool)
            times[side].append(seconds)
            if found[side] not in (None, hits):
                print(f"tree {'AB'[side]} changed its answer between passes")
                return 1
            found[side] = hits
    if found[0] != found[1]:
        print(f"the trees disagree: A finds {len(found[0])} minimal "
              f"graphs, B {len(found[1])}")
        return 1
    medians = []
    for label, tree, values in zip("AB", args.trees, times):
        q1, med, q3 = statistics.quantiles(values, n=4) \
            if len(values) > 1 else (values[0],) * 3
        medians.append(med)
        per = 1e6 / max(len(pool), 1)
        print(f"{label} {tree}: median {med:.3f} s (IQR {q1:.3f}-{q3:.3f}), "
              f"{med * per:.1f} µs per decision")
    wins = sum(b < a for a, b in zip(*times))
    print(f"{len(found[0])} minimal; B/A {medians[1] / medians[0]:.3f}, "
          f"B faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
