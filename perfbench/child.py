"""The measured process: one workload, once, in a fresh interpreter.

Usage: python3 child.py MODE WORKDIR
MODE is setup, prep-SEED, or WORKLOAD-TRACE (enum9-0, claims-1, ...).

Before the timed call it imports minorsieve, standard library modules
that minorsieve loads anyway and, when tracing, tracer.py; never the
parent's analysis modules (statistics, hashlib, subprocess).  The last
line of stdout is one JSON object; the parent (run.py) owns every check
and statistic.
"""

import sys
import time


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own
    # reading taken just before it spawned this process
    return time.clock_gettime(time.CLOCK_MONOTONIC)


import minorsieve  # noqa: E402
import minorsieve.cli  # noqa: E402

SETUP_DONE = _now()

import io  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ENUM9_ARGV = ["search", "--order", "9", "--min-degree", "4", "--connected",
              "--planarity", "nonplanar", "--count-only", "--json"]

# the desk table's seven properties; IE and IC stop at order 7
TABLE_ROWS = (("AN", 6), ("CAN", 6), ("IA", 7), ("IE", 7), ("IC", 7),
              ("NE", 8), ("NC", 8))


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in this process and return (exit code, stdout)."""
    real, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = minorsieve.cli.main(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdout = real


def _load_claims(workdir: Path) -> tuple[str, list[list[str]]]:
    return ((workdir / "claims.g6").read_text(),
            json.loads((workdir / "claims.json").read_text()))


def run_enum9(_inputs) -> dict:
    code, out = _cli(ENUM9_ARGV)
    return {"codes": [code], "outputs": [out]}


def run_tables_lite(_inputs) -> dict:
    codes, outs = [], []
    for prop, top in TABLE_ROWS:
        code, out = _cli(["search", "--property", prop,
                          "--order", f"1-{top}", "--json"])
        codes.append(code)
        outs.append(out)
    return {"codes": codes, "outputs": outs}


def run_claims(inputs) -> dict:
    from minorsieve import catalog, formats
    text, claim_lists = inputs
    graphs = formats.read_graphs(text)
    results = [catalog.check_claim(g, claim)
               for g, claims in zip(graphs, claim_lists, strict=True)
               for claim in claims]
    return {"results": results}


WORKLOADS = {"enum9": run_enum9, "tables-lite": run_tables_lite,
             "claims": run_claims}


def prep(seed: int, workdir: Path) -> dict:
    """Write the claims input: every catalog graph under a seeded
    relabeling, as graph6, with its claims in a parallel JSON list."""
    import random
    from minorsieve.catalog import all_entries
    from minorsieve.formats import graphs_to_graph6_lines
    from minorsieve.graphs import Graph

    rng = random.Random(seed)
    graphs, claims = [], []
    for entry in all_entries():
        g = entry.graph
        perm = list(range(g.order))
        rng.shuffle(perm)
        graphs.append(Graph(g.order, [(perm[u], perm[v])
                                      for u, v in sorted(g.edges)]))
        claims.append(sorted(entry.claims))
    (workdir / "claims.g6").write_text(graphs_to_graph6_lines(graphs))
    (workdir / "claims.json").write_text(json.dumps(claims))
    return {"entries": len(graphs), "claims": sum(map(len, claims))}


def main() -> None:
    mode, workdir = sys.argv[1], Path(sys.argv[2])
    report: dict = {"setup_done": SETUP_DONE}
    if mode.startswith("prep-"):
        report.update(prep(int(mode[5:]), workdir))
    elif mode != "setup":
        workload, _, trace = mode.rpartition("-")
        run = WORKLOADS[workload]
        inputs = _load_claims(workdir) if workload == "claims" else None
        tracer = None
        if trace == "1":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        start = _now()
        report.update(run(inputs))
        report["wall_s"] = _now() - start
        import resource
        usage = resource.getrusage(resource.RUSAGE_SELF)
        report["cpu_s"] = usage.ru_utime + usage.ru_stime
        report["peak_rss_mb"] = usage.ru_maxrss / 1024  # Linux: KiB
        if tracer is not None:
            report["layers"] = tracer.metrics()
            report["function_calls"] = tracer.calls
    print(json.dumps(report))


if __name__ == "__main__":
    main()
