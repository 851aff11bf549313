"""Command-line surface: checking, searching, catalog verification.

Subcommands:

* ``check FILE --property P``       decide P per graph, with witness
* ``minimal FILE --property P``     minor-minimality per graph
* ``search --order N|A-B ...``      enumerate and sieve for MM graphs
* ``verify-catalog``                re-derive every embedded claim
* ``tables --scale desk|full``      reproduce MM count tables and diff
* ``expand FILE --depth D ...``     close under moves, sieve the family

One report per command: each ``_cmd_*`` builds its JSON payload once
and returns ``(kind, payload, text_lines, exit_code)``, the text lines
rendered from that payload or from the values it was built from.
``main`` prints the payload as one versioned JSON document under
``--json``, and the text lines otherwise.  ``--out`` writes the found
graphs as graph6 lines in both modes, ``--count-only`` included; text
mode lists them only when no ``--out`` is given.  Graph output lists
are canonical and independent of ``--jobs``.

Exit codes: 0 success, 1 a property/minimality/verification check came
back false, 2 usage, parse or resource-cap errors, an unreadable graph
file or unwritable ``--out`` file, and internal consistency errors (a
bug), each reported in one line.  ``--jobs`` must be at least 1 and is
capped at the usable CPU count, which is what the JSON ``jobs`` field
reports.  Graph files hold one graph per line, graph6 or
``{(a,b),...}`` edge-list text, detected per line.
"""

from __future__ import annotations

import argparse
from collections import Counter
import sys

from .canon import canonical_key
from .catalog import mm_catalog, verify_catalog
from .errors import EdgeListParseError, Graph6ParseError, ResourceLimitError
from .formats import graph_doc, graphs_to_graph6_lines, json_report, \
    read_graphs
from .generate import MAX_ENUM_ORDER, EnumFilter, SearchReport, \
    count_graphs, generate_graphs, search_minor_minimal
from .graphs import Graph
from .minimality import is_minor_minimal, mmne_structure_violations
from .moves import MOVE_NAMES, explore_family
from .parallel import worker_count
from .planarity import is_planar
from .properties import Property, check_with_witness, find_apex_vertex

PROPERTY_CHOICES = tuple(p.value for p in Property) + ("planar", "apex")

_USAGE_ERROR = 2


class _FileError(Exception):
    """A graph file that could not be read or written (exit 2)."""


def _read_graph_file(path: str) -> list[Graph]:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as f:
                text = f.read()
    except OSError:
        raise _FileError(f"cannot read {path!r}") from None
    graphs = read_graphs(text)
    if not graphs:
        raise EdgeListParseError(f"no graphs in {path!r}")
    return graphs


def _decide_with_witness(g: Graph, prop: str):
    """(value, witness-dict-or-None) for a property or pseudo-property."""
    if prop == "planar":
        return is_planar(g), None
    if prop == "apex":
        v = find_apex_vertex(g)
        return (False, None) if v is None else \
            (True, {"kind": "vertex", "value": [v]})
    value, wit = check_with_witness(g, Property(prop))
    return value, wit and {"kind": wit.kind, "value": list(wit.value)}


def _witness_text(doc: dict | None) -> str:
    return "" if doc is None else \
        f"  witness {doc['kind']} ({','.join(map(str, doc['value']))})"


def _per_graph(args, kind: str, key: str, label: str,
               decide) -> tuple[str, dict, list[str], int]:
    """The report of a per-graph command: ``decide(g)`` is (value, witness)."""
    docs = []
    for g in _read_graph_file(args.file):
        value, wit = decide(g)
        docs.append({**graph_doc(g), key: value,
                     **({"witness": wit} if wit else {})})
    ok = all(d[key] for d in docs)
    lines = [f"#{i} order={d['order']} size={d['size']} {label}={d[key]}"
             f"{_witness_text(d.get('witness'))}"
             for i, d in enumerate(docs, start=1)]
    return kind, {"property": args.property, "graphs": docs,
                  "all_true": ok}, lines, 0 if ok else 1


def _cmd_check(args) -> tuple[str, dict, list[str], int]:
    return _per_graph(args, "check", "value", args.property,
                      lambda g: _decide_with_witness(g, args.property))


def _cmd_minimal(args) -> tuple[str, dict, list[str], int]:
    prop = Property(args.property)
    return _per_graph(args, "minimal", "minor_minimal", f"MM-{prop.value}",
                      lambda g: (is_minor_minimal(g, prop), None))


def _parse_orders(text: str) -> tuple[int, ...]:
    lo, dash, hi = text.partition("-")
    try:
        a = int(lo)
        b = int(hi) if dash else a
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--order wants N or A-B, got {text!r}") from None
    if a < 1 or b < a:
        raise argparse.ArgumentTypeError(f"bad order range {text!r}")
    if b > MAX_ENUM_ORDER:
        raise argparse.ArgumentTypeError(
            f"order capped at {MAX_ENUM_ORDER}, got {text!r}")
    return tuple(range(a, b + 1))


def _found_lines(graphs, docs: list[dict], out: str | None) -> list[str]:
    """Write ``graphs`` to ``out`` as graph6 lines, in either output mode;
    without ``out``, the text listing of their ``docs``."""
    if out:
        try:
            with open(out, "w") as f:
                f.write(graphs_to_graph6_lines(graphs))
        except OSError:
            raise _FileError(f"cannot write {out!r}") from None
        return []
    return [f"{d.get('graph6', '')}  {d['edge_list']}" for d in docs]


def _str_keys(counts: dict[int, int]) -> dict[str, int]:
    """``counts`` keyed by strings, in key order (text mode prints it)."""
    return {str(k): v for k, v in sorted(counts.items())}


def _search_payload(report: SearchReport, jobs: int) -> dict:
    return {
        "property": report.prop.value,
        "orders": list(report.orders),
        "min_degree": report.min_degree,
        "connected": report.connected,
        "planarity": report.planarity,
        "scanned": report.scanned,
        "found_count": len(report.found),
        "found_by_order": _str_keys(report.found_by_order()),
        "found": [graph_doc(g) for g in report.found],
        "wall_seconds": round(report.wall_time, 3),
        "jobs": worker_count(jobs, jobs),  # the request, capped at the CPUs
    }


def _cmd_pool(args) -> tuple[str, dict, list[str], int]:
    """``search`` without ``--property``: count or list the filtered pool."""
    if args.count_only and args.out:
        raise ValueError("--out needs the pool's graphs, and --count-only "
                         "keeps none")
    if not args.count_only and args.order[-1] >= MAX_ENUM_ORDER:
        raise ResourceLimitError(
            f"a listed order-{MAX_ENUM_ORDER} pool is held in memory whole; "
            f"use --count-only or --property")
    filters = [EnumFilter(order=order, min_degree=args.min_degree,
                          connected=args.connected, planarity=args.planarity)
               for order in args.order]
    if args.count_only:
        total = sum(count_graphs(filt, jobs=args.jobs) for filt in filters)
        return "count", {
            "orders": list(args.order), "min_degree": args.min_degree,
            "connected": args.connected, "planarity": args.planarity,
            "scanned": total}, [f"scanned {total}"], 0
    graphs = [g for filt in filters
              for g in generate_graphs(filt, jobs=args.jobs)]
    docs = [graph_doc(g) for g in graphs]
    return "enumerate", {
        "orders": list(args.order), "count": len(graphs), "graphs": docs,
    }, _found_lines(graphs, docs, args.out), 0


def _cmd_search(args) -> tuple[str, dict, list[str], int]:
    if args.property is None:
        return _cmd_pool(args)
    prop = Property(args.property)
    report = search_minor_minimal(prop, args.order, jobs=args.jobs,
                                  min_degree=args.min_degree,
                                  connected=args.connected)
    payload = _search_payload(report, args.jobs)
    sweep = []
    if prop is Property.NE:
        payload["structure_sweep_violations"] = sweep = [
            {"graph": doc, "violations": v}
            for g, doc in zip(report.found, payload["found"])
            if (v := mmne_structure_violations(g))
        ]
    if args.count_only:
        del payload["found"]
    lines = _found_lines(report.found, payload.get("found", []), args.out)
    if args.out:
        lines.append(f"wrote {len(report.found)} graphs to {args.out}")
    if args.count_only:
        lines += [f"scanned {report.scanned}", f"found {len(report.found)}"]
    else:
        hist = ", ".join(f"{n}:{c}"
                         for n, c in payload["found_by_order"].items())
        lines.append(f"property {prop.value}: scanned {report.scanned}, "
                     f"found {len(report.found)} ({hist or 'none'}) "
                     f"in {report.wall_time:.1f}s")
        lines += [f"STRUCTURE VIOLATION {item['graph']['edge_list']}: "
                  + "; ".join(item["violations"]) for item in sweep]
    return "search", payload, lines, 1 if sweep else 0


def _cmd_verify_catalog(args) -> tuple[str, dict, list[str], int]:
    report = verify_catalog(jobs=args.jobs)
    lines = [f"[{'ok ' if rec['ok'] else 'FAIL'}] {r['id']} "
             f"(order {r['order']}, size {r['size']}): {claim}"
             + (f" ({rec['detail']})" if "detail" in rec else "")
             for r in report["entries"]
             for claim, rec in r["claims"].items()]
    lines += [f"[{'ok ' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}"
              for c in report["checks"]]
    lines.append(f"{report['claim_count']} claims over {report['entry_count']}"
                 f" entries, {report['failures']} failures, "
                 f"{report['elapsed_seconds']}s")
    return "verify-catalog", report, lines, 0 if report["ok"] else 1


# expected minor-minimal counts by order, derived from the embedded
# catalog and frozen here so the diff is against literals
_DESK_ROWS: list[tuple[str, int, dict[int, int]]] = [
    ("AN", 6, {5: 1, 6: 1}),
    ("CAN", 6, {5: 1}),
    ("IA", 7, {6: 1, 7: 1}),
    ("IE", 8, {6: 2, 7: 2, 8: 1}),
    ("IC", 8, {6: 3, 7: 3, 8: 1}),
    ("NE", 8, {6: 1, 7: 1, 8: 3}),
    ("NC", 8, {6: 1, 7: 1, 8: 2}),
]
_TABLE_ROWS = {
    "desk": _DESK_ROWS,
    "full": _DESK_ROWS[:5] + [
        ("NE", 9, {6: 1, 7: 1, 8: 3, 9: 10}),
        ("NC", 9, {6: 1, 7: 1, 8: 2, 9: 7}),
    ],
}

# size histograms for the two sieve properties at desk scale
_TABLE_SIZES = {
    ("NE", 8): {12: 1, 14: 2, 18: 2},
    ("NC", 8): {12: 1, 15: 1, 16: 1, 18: 1},
}


def _table_row(prop_name: str, max_order: int, expected: dict[int, int],
               jobs: int) -> dict:
    prop = Property(prop_name)
    report = search_minor_minimal(prop, range(1, max_order + 1), jobs=jobs)
    catalog_keys = {canonical_key(e.graph) for e in mm_catalog(prop)
                    if e.graph.order <= max_order}
    row = {
        "property": prop_name,
        "max_order": max_order,
        "scanned": report.scanned,
        "expected_by_order": _str_keys(expected),
        "found_by_order": _str_keys(report.found_by_order()),
        "members_match_catalog":
            {canonical_key(g) for g in report.found} == catalog_keys,
        "wall_seconds": round(report.wall_time, 3),
    }
    sizes_expected = _TABLE_SIZES.get((prop_name, max_order))
    if sizes_expected is not None:
        row["expected_by_size"] = _str_keys(sizes_expected)
        row["found_by_size"] = _str_keys(Counter(g.size for g in report.found))
    row["ok"] = (row["found_by_order"] == row["expected_by_order"]
                 and row["members_match_catalog"]
                 and row.get("found_by_size") == row.get("expected_by_size"))
    return row


def _cmd_tables(args) -> tuple[str, dict, list[str], int]:
    rows = [_table_row(*spec, jobs=args.jobs)
            for spec in _TABLE_ROWS[args.scale]]
    failures = sum(not r["ok"] for r in rows)
    lines = []
    for r in rows:
        lines.append(f"[{'ok ' if r['ok'] else 'FAIL'}] MM-{r['property']} "
                     f"order<={r['max_order']}: found {r['found_by_order']} "
                     f"expected {r['expected_by_order']}, "
                     f"members_match_catalog={r['members_match_catalog']} "
                     f"({r['scanned']} scanned, {r['wall_seconds']}s)")
        if "found_by_size" in r:
            lines.append(f"      sizes found {r['found_by_size']} "
                         f"expected {r['expected_by_size']}")
    lines.append(f"{len(rows)} rows, {failures} failures")
    return "tables", {"scale": args.scale, "rows": rows,
                      "failures": failures, "ok": failures == 0}, \
        lines, 0 if failures == 0 else 1


def _cmd_expand(args) -> tuple[str, dict, list[str], int]:
    graphs = _read_graph_file(args.file)
    moves = tuple(m.strip() for m in args.moves.split(",") if m.strip())
    report = explore_family(graphs, Property(args.property), args.depth,
                            moves=moves, jobs=args.jobs)
    payload = {**_search_payload(report, args.jobs), "moves": list(moves),
               "depth": args.depth, "seeds": len(graphs)}
    lines = _found_lines(report.found, payload["found"], args.out)
    lines.append(f"closure of {len(graphs)} seed(s) under {','.join(moves)} "
                 f"to depth {args.depth}: {report.scanned} graphs, "
                 f"{len(report.found)} minor-minimal {args.property}")
    return "expand", payload, lines, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minorsieve",
        description="graph-minor toolkit: planarity-adjacent property "
                    "checking, minor-minimality search, catalog "
                    "verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options several subcommands share, declared once
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true")
    jobs_opt = argparse.ArgumentParser(add_help=False)
    jobs_opt.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("check", parents=[json_opt],
                       help="decide a property per graph")
    p.add_argument("file", help="graph file (graph6 or edge-list lines), "
                   "- for stdin")
    p.add_argument("--property", required=True, choices=PROPERTY_CHOICES)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("minimal", parents=[json_opt],
                       help="decide minor-minimality per graph")
    p.add_argument("file", help="graph file, - for stdin")
    p.add_argument("--property", required=True,
                   choices=tuple(pr.value for pr in Property))
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser(
        "search", parents=[json_opt, jobs_opt],
        help="enumerate graphs and keep the minor-minimal ones",
    )
    p.add_argument("--order", required=True, type=_parse_orders,
                   metavar="N|A-B")
    p.add_argument("--property", choices=tuple(pr.value for pr in Property),
                   help="omit to enumerate/count the pool only")
    p.add_argument("--min-degree", type=int, default=0)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--planarity", choices=("all", "planar", "nonplanar"),
                   default="nonplanar",
                   help="pool filter when no --property is given")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out", help="write found graphs as graph6 lines")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify-catalog", parents=[json_opt, jobs_opt],
                       help="re-derive every claim of the embedded catalog")
    p.set_defaults(func=_cmd_verify_catalog)

    p = sub.add_parser("tables", parents=[json_opt, jobs_opt],
                       help="reproduce the minor-minimal count tables")
    p.add_argument("--scale", required=True, choices=("desk", "full"))
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("expand", parents=[json_opt, jobs_opt],
                       help="close seeds under moves and sieve the family")
    p.add_argument("file", help="seed graph file, - for stdin")
    p.add_argument("--moves", default=",".join(MOVE_NAMES),
                   help="comma list from ty,yt (default both)")
    p.add_argument("--depth", required=True, type=int)
    p.add_argument("--property", required=True, choices=("NE", "NC"))
    p.add_argument("--out", help="write found graphs as graph6 lines")
    p.set_defaults(func=_cmd_expand)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        kind, payload, lines, code = args.func(args)
    except (EdgeListParseError, Graph6ParseError) as exc:
        error = f"parse error: {exc}"
    except _FileError as exc:
        error = str(exc)
    except ResourceLimitError as exc:
        error = f"resource cap: {exc}"
    except RuntimeError as exc:  # CatalogError and other consistency checks
        error = f"internal error: {exc}"
    except ValueError as exc:
        error = f"error: {exc}"
    else:
        if args.json:
            print(json_report(kind, payload))
        else:
            for line in lines:
                print(line)
        return code
    print(error, file=sys.stderr)
    return _USAGE_ERROR

if __name__ == "__main__":
    sys.exit(main())
