"""Command-line surface: checking, searching, catalog verification.

Subcommands:

* ``check FILE --property P``       decide P per graph, with witness
* ``minimal FILE --property P``     minor-minimality per graph
* ``search --order N|A-B ...``      enumerate and sieve for MM graphs
* ``verify-catalog``                re-derive every embedded claim
* ``tables --scale desk|full``      reproduce MM count tables and diff
* ``expand FILE --depth D ...``     close under moves, sieve the family

Exit codes: 0 success, 1 a property/minimality/verification check came
back false, 2 usage, parse or resource-cap errors and internal
consistency errors (a bug, reported in one line).  ``--jobs`` must be at
least 1 and is capped at the usable CPU count, which is what the JSON
``jobs`` field reports.  Graph files hold
one graph per line, graph6 or ``{(a,b),...}`` edge-list text, detected
per line.  ``--json`` swaps the text output for one versioned JSON
document; graph output lists are canonical and independent of --jobs.
"""

from __future__ import annotations

import argparse
from pathlib import Path
import sys

from .canon import canonical_key
from .catalog import mm_catalog, verify_catalog
from .errors import EdgeListParseError, Graph6ParseError, ResourceLimitError
from .formats import emit_edge_list, emit_graph6, graph_doc, \
    graphs_to_graph6_lines, json_report, read_graphs
from .generate import EnumFilter, SearchReport, count_graphs, \
    generate_graphs, search_minor_minimal
from .graphs import Graph
from .minimality import is_minor_minimal, mmne_structure_violations
from .moves import MOVE_NAMES, explore_family
from .parallel import worker_count
from .planarity import is_planar
from .properties import Property, check_with_witness, find_apex_vertex

PROPERTY_CHOICES = tuple(p.value for p in Property) + ("planar", "apex")

_USAGE_ERROR = 2


def _read_graph_file(path: str) -> list[Graph]:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
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
        return v is not None, (
            None if v is None else {"kind": "vertex", "value": [v]}
        )
    value, wit = check_with_witness(g, Property(prop))
    doc = None if wit is None else {"kind": wit.kind,
                                    "value": list(wit.value)}
    return value, doc


def _witness_text(doc: dict | None) -> str:
    if doc is None:
        return ""
    value = ",".join(str(x) for x in doc["value"])
    return f"  witness {doc['kind']} ({value})"


def _cmd_check(args) -> int:
    graphs = _read_graph_file(args.file)
    results = []
    for g in graphs:
        value, wit = _decide_with_witness(g, args.property)
        results.append((g, value, wit))
    if args.json:
        payload = {
            "property": args.property,
            "graphs": [
                {**graph_doc(g), "value": value,
                 **({"witness": wit} if wit else {})}
                for g, value, wit in results
            ],
            "all_true": all(v for _, v, _ in results),
        }
        print(json_report("check", payload))
    else:
        for i, (g, value, wit) in enumerate(results, start=1):
            print(f"#{i} order={g.order} size={g.size} "
                  f"{args.property}={value}{_witness_text(wit)}")
    return 0 if all(v for _, v, _ in results) else 1


def _cmd_minimal(args) -> int:
    graphs = _read_graph_file(args.file)
    prop = Property(args.property)
    results = [(g, is_minor_minimal(g, prop)) for g in graphs]
    if args.json:
        payload = {
            "property": prop.value,
            "graphs": [{**graph_doc(g), "minor_minimal": v}
                       for g, v in results],
            "all_true": all(v for _, v in results),
        }
        print(json_report("minimal", payload))
    else:
        for i, (g, value) in enumerate(results, start=1):
            print(f"#{i} order={g.order} size={g.size} "
                  f"MM-{prop.value}={value}")
    return 0 if all(v for _, v in results) else 1


def _parse_orders(text: str) -> tuple[int, ...]:
    lo, dash, hi = text.partition("-")
    try:
        a = int(lo)
        b = int(hi) if dash else a
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--order wants N or A-B, got {text!r}"
        ) from None
    if a < 1 or b < a:
        raise argparse.ArgumentTypeError(f"bad order range {text!r}")
    return tuple(range(a, b + 1))


def _emit_found(graphs, out: str | None, as_json: bool) -> None:
    if out:
        Path(out).write_text(graphs_to_graph6_lines(graphs))
    elif not as_json:
        for g in graphs:
            print(f"{emit_graph6(g).strip()}  {emit_edge_list(g)}")


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


def _cmd_search(args) -> int:
    if args.property is None:
        # bare enumeration: count or emit the filtered universe
        total = 0
        emitted = []
        for order in args.order:
            filt = EnumFilter(order=order, min_degree=args.min_degree,
                              connected=args.connected,
                              planarity=args.planarity)
            if args.count_only:
                total += count_graphs(filt, jobs=args.jobs)
            else:
                emitted.extend(generate_graphs(filt, jobs=args.jobs))
        if args.count_only:
            if args.json:
                print(json_report("count", {
                    "orders": list(args.order),
                    "min_degree": args.min_degree,
                    "connected": args.connected,
                    "planarity": args.planarity,
                    "scanned": total,
                }))
            else:
                print(f"scanned {total}")
            return 0
        _emit_found(emitted, args.out, args.json)
        if args.json:
            print(json_report("enumerate", {
                "orders": list(args.order),
                "count": len(emitted),
                "graphs": [graph_doc(g) for g in emitted],
            }))
        return 0

    prop = Property(args.property)
    report = search_minor_minimal(
        prop, args.order, min_degree=args.min_degree,
        connected=args.connected, jobs=args.jobs,
    )
    sweep = []
    if prop is Property.NE:
        sweep = [
            {"graph": graph_doc(g), "violations": v}
            for g in report.found
            if (v := mmne_structure_violations(g))
        ]
    if args.count_only and not args.json:
        print(f"scanned {report.scanned}")
        print(f"found {len(report.found)}")
    elif args.json:
        payload = _search_payload(report, args.jobs)
        if prop is Property.NE:
            payload["structure_sweep_violations"] = sweep
        if args.count_only:
            payload.pop("found")
        print(json_report("search", payload))
        if args.out:
            Path(args.out).write_text(graphs_to_graph6_lines(report.found))
    else:
        _emit_found(report.found, args.out, False)
        if args.out:
            print(f"wrote {len(report.found)} graphs to {args.out}")
        hist = ", ".join(f"{n}:{c}"
                         for n, c in sorted(report.found_by_order().items()))
        print(f"property {prop.value}: scanned {report.scanned}, "
              f"found {len(report.found)} ({hist or 'none'}) "
              f"in {report.wall_time:.1f}s")
        for item in sweep:
            print(f"STRUCTURE VIOLATION {item['graph']['edge_list']}: "
                  + "; ".join(item["violations"]))
    return 1 if sweep else 0


def _cmd_verify_catalog(args) -> int:
    report = verify_catalog(jobs=args.jobs)
    if args.json:
        print(json_report("verify-catalog", report))
    else:
        for r in report["entries"]:
            for claim, rec in r["claims"].items():
                mark = "ok " if rec["ok"] else "FAIL"
                extra = f" ({rec['detail']})" if "detail" in rec else ""
                print(f"[{mark}] {r['id']} "
                      f"(order {r['order']}, size {r['size']}): "
                      f"{claim}{extra}")
        for c in report["checks"]:
            mark = "ok " if c["ok"] else "FAIL"
            print(f"[{mark}] {c['name']}: {c['detail']}")
        print(f"{report['claim_count']} claims over "
              f"{report['entry_count']} entries, "
              f"{report['failures']} failures, "
              f"{report['elapsed_seconds']}s")
    return 0 if report["ok"] else 1


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


def _cmd_tables(args) -> int:
    rows = []
    failures = 0
    for prop_name, max_order, expected in _TABLE_ROWS[args.scale]:
        prop = Property(prop_name)
        report = search_minor_minimal(prop, range(1, max_order + 1),
                                      jobs=args.jobs)
        got = report.found_by_order()
        ok = got == expected

        catalog_keys = {
            canonical_key(e.graph) for e in mm_catalog(prop)
            if e.graph.order <= max_order
        }
        found_keys = {canonical_key(g) for g in report.found}
        members_ok = found_keys == catalog_keys

        sizes_expected = _TABLE_SIZES.get((prop_name, max_order))
        sizes_got = None
        sizes_ok = True
        if sizes_expected is not None:
            sizes_got = {}
            for g in report.found:
                sizes_got[g.size] = sizes_got.get(g.size, 0) + 1
            sizes_ok = sizes_got == sizes_expected

        row_ok = ok and members_ok and sizes_ok
        failures += not row_ok
        rows.append({
            "property": prop_name,
            "max_order": max_order,
            "scanned": report.scanned,
            "expected_by_order": _str_keys(expected),
            "found_by_order": _str_keys(got),
            "members_match_catalog": members_ok,
            **({"expected_by_size": _str_keys(sizes_expected),
                "found_by_size": _str_keys(sizes_got)}
               if sizes_expected is not None else {}),
            "wall_seconds": round(report.wall_time, 3),
            "ok": row_ok,
        })
    if args.json:
        print(json_report("tables", {
            "scale": args.scale,
            "rows": rows,
            "failures": failures,
            "ok": failures == 0,
        }))
    else:
        for r in rows:
            mark = "ok " if r["ok"] else "FAIL"
            print(f"[{mark}] MM-{r['property']} order<={r['max_order']}: "
                  f"found {r['found_by_order']} "
                  f"expected {r['expected_by_order']}, "
                  f"members_match_catalog={r['members_match_catalog']} "
                  f"({r['scanned']} scanned, {r['wall_seconds']}s)")
            if "found_by_size" in r:
                print(f"      sizes found {r['found_by_size']} "
                      f"expected {r['expected_by_size']}")
        print(f"{len(rows)} rows, {failures} failures")
    return 0 if failures == 0 else 1


def _cmd_expand(args) -> int:
    graphs = _read_graph_file(args.file)
    moves = tuple(m.strip() for m in args.moves.split(",") if m.strip())
    report = explore_family(graphs, Property(args.property), args.depth,
                            moves=moves, jobs=args.jobs)
    if args.json:
        payload = _search_payload(report, args.jobs)
        payload["moves"] = list(moves)
        payload["depth"] = args.depth
        payload["seeds"] = len(graphs)
        print(json_report("expand", payload))
        if args.out:
            Path(args.out).write_text(graphs_to_graph6_lines(report.found))
    else:
        _emit_found(report.found, args.out, False)
        print(f"closure of {len(graphs)} seed(s) under {','.join(moves)} "
              f"to depth {args.depth}: {report.scanned} graphs, "
              f"{len(report.found)} minor-minimal {args.property}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minorsieve",
        description="graph-minor toolkit: planarity-adjacent property "
                    "checking, minor-minimality search, catalog "
                    "verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a property per graph")
    p.add_argument("file", help="graph file (graph6 or edge-list lines), "
                   "- for stdin")
    p.add_argument("--property", required=True, choices=PROPERTY_CHOICES)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("minimal", help="decide minor-minimality per graph")
    p.add_argument("file", help="graph file, - for stdin")
    p.add_argument("--property", required=True,
                   choices=tuple(pr.value for pr in Property))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser(
        "search",
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
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write found graphs as graph6 lines")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify-catalog",
                       help="re-derive every claim of the embedded catalog")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_catalog)

    p = sub.add_parser("tables",
                       help="reproduce the minor-minimal count tables")
    p.add_argument("--scale", required=True, choices=("desk", "full"))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("expand",
                       help="close seeds under moves and sieve the family")
    p.add_argument("file", help="seed graph file, - for stdin")
    p.add_argument("--moves", default=",".join(MOVE_NAMES),
                   help="comma list from ty,yt (default both)")
    p.add_argument("--depth", required=True, type=int)
    p.add_argument("--property", required=True, choices=("NE", "NC"))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write found graphs as graph6 lines")
    p.set_defaults(func=_cmd_expand)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EdgeListParseError, Graph6ParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename!r}", file=sys.stderr)
        return _USAGE_ERROR
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except RuntimeError as exc:  # CatalogError and other consistency checks
        print(f"internal error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
