"""Assemble a BENCH_<pr>.json from perfbench runs of a parent and a change.

Usage, from the repository root::

    python3 tools/bench_file.py --pr 8 --parent PARENT/perfbench/out \
        --change CHANGE/perfbench/out --output BENCH_8.json

Each directory holds the ``perfbench/out/`` detail lines that
``perfbench/run.py`` writes, one file per workload, seed and trace mode.
Run the two trees in alternating order, one seed per pair, so a parent
run and a change run with the same workload and seed form a pair.  For
every workload and end-to-end metric the file records the median and
quartiles of each side's per-run values, the change/parent ratio of the
medians and the pairs the change won; it also records each side's
environment (with its ``src/`` line count), its output digests and, when
``--trace 1`` files are present for both sides, the traced per-layer
counts.  Per-run values are recomputed from the repetitions as
``run.py`` does; ``setup_s`` is the median over the repetitions only,
because the seven set-up probe interpreters are not in the detail line.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])"
                   r"\.json$")


def _load(out_dir: Path) -> dict[tuple[str, int, int], dict]:
    runs = {}
    for path in sorted(out_dir.glob("*-seed*-trace*.json")):
        m = _NAME.match(path.name)
        if m:
            key = (m["workload"], int(m["seed"]), int(m["trace"]))
            runs[key] = json.loads(path.read_text())
    return runs


def _run_values(detail: dict) -> dict[str, float]:
    """End-to-end metrics of one untraced run, as run.py computes them."""
    reps = [r for r in detail["reps"] if not r["trace"]]
    if not reps:
        return {}
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "items_per_s": statistics.median(r["items"] / r["wall_s"]
                                         for r in reps),
    }


def _summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    return out


def _workload(pairs: list[tuple[int, dict, dict]], metrics: list[dict]) -> dict:
    parent_vals = [_run_values(p) for _, p, _ in pairs]
    change_vals = [_run_values(c) for _, _, c in pairs]
    out: dict = {"seeds": [s for s, _, _ in pairs], "metrics": {}}
    for spec in metrics:
        name = spec["name"]
        got = [(p[name], c[name]) for p, c in zip(parent_vals, change_vals)
               if name in p and name in c]
        if not got:
            continue
        before = [p for p, _ in got]
        after = [c for _, c in got]
        lower = spec["better"] == "lower"
        out["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": _summary(before), "change": _summary(after),
            "ratio": statistics.median(after) / statistics.median(before),
            "wins": sum((c < p) if lower else (c > p) for p, c in got),
            "pairs": len(got),
        }
    for side, index in (("parent", 1), ("change", 2)):
        out.setdefault("digests", {})[side] = sorted(
            {r["digest"] for pair in pairs for r in pair[index]["reps"]})
        out.setdefault("fail_frac", {})[side] = max(
            pair[index]["fail_frac"] for pair in pairs)
    out["digests"]["identical"] = \
        out["digests"]["parent"] == out["digests"]["change"]
    return out


def _traced(parent: dict, change: dict) -> dict:
    """First traced repetition's per-layer values, side by side."""
    def layers(detail: dict) -> dict:
        return next(r["layers"] for r in detail["reps"] if r["trace"])
    before, after = layers(parent), layers(change)
    return {k: {"parent": before[k], "change": after.get(k)}
            for k in sorted(before)}


def build(pr: int, parent_dir: Path, change_dir: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = _load(parent_dir), _load(change_dir)
    doc: dict = {"pr": pr, "command": "python3 perfbench/run.py --workload W "
                 "--seed S --seconds N [--trace 1]", "workloads": {},
                 "traced": {}, "environment": {}}
    for w in (w["name"] for w in spec["workloads"]):
        pairs = [(key[1], parent[key], change[key])
                 for key in sorted(parent)
                 if key[0] == w and key[2] == 0 and key in change]
        if pairs:
            doc["workloads"][w] = _workload(pairs, spec["end_to_end"])
        traced = [key for key in sorted(parent)
                  if key[0] == w and key[2] == 1 and key in change]
        if traced:
            doc["traced"][w] = _traced(parent[traced[0]], change[traced[0]])
    for side, runs in (("parent", parent), ("change", change)):
        envs = {json.dumps(d["environment"], sort_keys=True)
                for d in runs.values()}
        doc["environment"][side] = [json.loads(e) for e in sorted(envs)]
    doc["src_lines"] = {side: sorted({e["src_lines"] for e in envs})
                        for side, envs in doc["environment"].items()}
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--output", type=Path)
    parser.add_argument("--note", default="",
                        help="how the runs were made: machine, order, trees")
    args = parser.parse_args(argv)
    for d in (args.parent, args.change):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    doc = build(args.pr, args.parent, args.change)
    doc["note"] = args.note
    if not doc["workloads"]:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
