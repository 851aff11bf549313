"""Serialization: edge-list text, graph6 lines, and JSON reports.

The edge-list form is ``{(1,2),(2,3)}`` with 1-indexed labels and an
optional ``n;`` prefix that fixes the order explicitly; without the
prefix the order is the largest label mentioned, which cannot express
isolated vertices.  graph6 is the standard printable interchange
encoding (6-bit groups offset by 63, upper triangle read column by
column), emitted here for orders up to 62 and decoded for any header
length.  Both readers reject an order above ``canon.MAX_ORDER``.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from . import __version__
from .canon import MAX_ORDER
from .errors import EdgeListParseError, Graph6ParseError
from .graphs import Graph

REPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# edge-list text
# ---------------------------------------------------------------------------

class _Scanner:
    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            found = self.peek() or "end of input"
            raise EdgeListParseError(
                f"expected '{ch}' at position {self.pos}, found {found!r}"
            )
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise EdgeListParseError(
                f"expected an integer at position {start}"
            )
        return int(self.text[start:self.pos])


def parse_edge_list(text: str) -> Graph:
    """Parse ``{(a,b),...}`` (1-indexed), optionally prefixed ``n;``."""
    sc = _Scanner(text)
    sc.skip_ws()
    declared: int | None = None
    if sc.peek().isdigit():
        declared = sc.integer()
        sc.expect(";")
    sc.expect("{")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    sc.skip_ws()
    if sc.peek() != "}":
        while True:
            sc.expect("(")
            upos = sc.pos
            u = sc.integer()
            sc.expect(",")
            vpos = sc.pos
            v = sc.integer()
            sc.expect(")")
            for label, pos in ((u, upos), (v, vpos)):
                if label < 1:
                    raise EdgeListParseError(
                        f"label {label} at position {pos} is below 1"
                    )
            if u == v:
                raise EdgeListParseError(
                    f"loop ({u},{v}) at position {upos}"
                )
            pair = (min(u, v) - 1, max(u, v) - 1)
            if pair in seen:
                raise EdgeListParseError(
                    f"duplicate pair ({u},{v}) at position {upos}"
                )
            seen.add(pair)
            edges.append(pair)
            sc.skip_ws()
            if sc.peek() == ",":
                sc.pos += 1
                continue
            break
    sc.expect("}")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise EdgeListParseError(
            f"trailing text at position {sc.pos}"
        )
    order = max((v for e in edges for v in e), default=-1) + 1
    if declared is not None:
        if declared < order:
            raise EdgeListParseError(
                f"declared order {declared} is below the largest label {order}"
            )
        order = declared
    if order > MAX_ORDER:  # before a row is allocated
        raise EdgeListParseError(f"order {order} is above {MAX_ORDER}")
    return Graph(order, edges)


def emit_edge_list(g: Graph) -> str:
    """Inverse of :func:`parse_edge_list` up to whitespace.

    The ``n;`` prefix appears exactly when the edge list alone cannot
    reconstruct the order (isolated vertices, or the empty graph)."""
    edges = g.sorted_edges()
    body = "{" + ",".join(f"({u + 1},{v + 1})" for u, v in edges) + "}"
    inferred = max((v for _, v in edges), default=-1) + 1
    if inferred != g.order:
        return f"{g.order};{body}"
    return body


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

_G6_MAX_DIRECT = 62


def emit_graph6(g: Graph) -> str:
    n = g.order
    if n > _G6_MAX_DIRECT:
        raise ValueError(
            f"graph6 emission supports order <= {_G6_MAX_DIRECT}, got {n}"
        )
    rows = g.rows()
    bits: list[int] = []
    for j in range(1, n):
        rj = rows[j]
        for i in range(j):
            bits.append((rj >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = (group << 1) | b
        chars.append(chr(group + 63))
    return "".join(chars)


def parse_graph6(line: str) -> Graph:
    text = line.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise Graph6ParseError("empty graph6 line")
    data = [ord(c) - 63 for c in text]
    for i, val in enumerate(data):
        if not 0 <= val <= 63:
            raise Graph6ParseError(
                f"byte {text[i]!r} at position {i} outside the graph6 alphabet"
            )
    if data[0] <= 62:
        n, idx = data[0], 1
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        idx = 4
    elif len(data) >= 8:
        n = 0
        for val in data[2:8]:
            n = (n << 6) | val
        idx = 8
    else:
        raise Graph6ParseError("truncated graph6 order header")
    if n > MAX_ORDER:  # before the payload is decoded
        raise Graph6ParseError(f"order {n} is above {MAX_ORDER}")
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(data) - idx != ngroups:
        raise Graph6ParseError(
            f"expected {ngroups} payload bytes for order {n}, "
            f"got {len(data) - idx}"
        )
    bits = 0
    for val in data[idx:]:
        bits = (bits << 6) | val
    pad = ngroups * 6 - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6ParseError("nonzero padding bits")
    bits >>= pad
    edges = []
    pos = nbits
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if (bits >> pos) & 1:
                edges.append((i, j))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# line-oriented reading
# ---------------------------------------------------------------------------

def parse_graph_line(line: str) -> Graph:
    """One graph per line; edge-list text and graph6 both accepted.

    Edge lists always contain bytes outside the graph6 alphabet
    (digits, parentheses, commas are all below 63), so a line whose
    characters sit entirely inside the alphabet is read as graph6.
    """
    stripped = line.strip()
    if not stripped:
        raise EdgeListParseError("empty line")
    if stripped.startswith(">>graph6<<") or \
            all(63 <= ord(c) <= 126 for c in stripped):
        return parse_graph6(stripped)
    return parse_edge_list(stripped)


def read_graphs(text: str) -> list[Graph]:
    return [parse_graph_line(line) for line in text.splitlines()
            if line.strip()]


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------

def graph_doc(g: Graph) -> dict:
    doc = {
        "order": g.order,
        "size": g.size,
        "edge_list": emit_edge_list(g),
    }
    if g.order <= _G6_MAX_DIRECT:
        doc["graph6"] = emit_graph6(g)
    return doc


def json_report(kind: str, payload: dict) -> str:
    """Stable, versioned JSON document on one schema for every command."""
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": "minorsieve",
        "tool_version": __version__,
        "kind": kind,
    }
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2)


def graphs_to_graph6_lines(graphs: Iterable[Graph]) -> str:
    return "".join(emit_graph6(g) + "\n" for g in graphs)
