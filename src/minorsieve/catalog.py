"""Self-validating library of named graphs and known minimal examples.

Every entry pairs a graph with machine-checkable claims ("MM-NE",
"planar", ...) that the deciders in the properties and minimality
modules can re-derive from scratch; ``verify_catalog`` does exactly
that, plus a battery of structural cross-checks, and reports pass/fail
per claim rather than trusting the stored data.

The graphs come from four kinds of construction:

* named one-offs (Kuratowski graphs, their one-edge perturbations, the
  single-edge subdivisions, complete and complete bipartite relatives);
* composites named by their recipe: ``A|B`` is the disjoint union of A
  and B, ``A.B`` shares one vertex, and ``A:B`` shares a nonadjacent
  pair with no edge added between it;
* five families of two-cut compositions whose members are enumerated
  from block recipes, deduplicated up to isomorphism, filtered by an
  actual minimality test, and counted against the expected family size
  (a mismatch fails the build loudly -- the recipes are only trusted as
  far as they re-verify);
* two embedded edge-list collections decoded from catalog_data.

Also here: the two non-closure witnesses showing that NE and NC do not
propagate to minors the way the vertex-apex property does; each returns
a graph with a distinguished edge whose deletion/contraction behavior
``verify_catalog`` confirms.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import cache, partial
from itertools import combinations, product
import re
import time

from .canon import canonical_data, canonical_graph, canonical_key, \
    relabel_rows
from .catalog_data import A1_EDGE_LISTS, A2_EDGE_LISTS
from .errors import CatalogError, ResourceLimitError
from .formats import parse_edge_list
from .graphs import Edge, Graph, Rows, disjoint_union, one_vertex_union, \
    rows_size, two_vertex_union
from .minimality import is_minor_minimal, is_minor_minimal_upclosed
from .parallel import parallel_map
from .planarity import is_planar
from .properties import Property, check


class CatalogEntry(namedtuple("CatalogEntry", "id graph claims construction")):
    """A graph, the claims made about it, and how it was built.

    ``id`` is the entry's name and ``graph`` its canonical graph.
    ``claims``, a frozenset, holds property ids ("NE"), "MM-" prefixed
    minimality ids ("MM-NE"), or "planar"/"nonplanar"; all are
    re-derivable by ``check_claim``.  ``construction`` is a
    human-readable recipe note.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# labeled-edge assembly
# ---------------------------------------------------------------------------

def _graph_from_labeled(edges: Iterable[tuple[str, str]]) -> Graph:
    """Build a graph from string-labeled edges; labels index by first use."""
    index: dict[str, int] = {}
    pairs = []
    for u, v in edges:
        iu = index.setdefault(u, len(index))
        iv = index.setdefault(v, len(index))
        pairs.append((iu, iv))
    return Graph(len(index), pairs)


def _block_edges(kind: str, a: str, b: str, tag: str) -> list[tuple[str, str]]:
    """Edges of a standard block attached at the labels ``a`` and ``b``.

    Fresh interior vertices are prefixed with ``tag`` so two blocks can
    be unioned without collisions.  Kinds:

    * ``K5``     complete on five, a and b adjacent
    * ``K5-e``   K5 with the ab edge removed
    * ``K33x``   complete bipartite 3+3, a and b in different parts
    * ``K33x-e`` K33x with the ab edge removed
    * ``K33s``   complete bipartite 3+3, a and b in the same part
    """
    f = [f"{tag}{i}" for i in range(4)]
    if kind == "K5":
        vs = [a, b, f[0], f[1], f[2]]
        return [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
    if kind == "K5-e":
        return [e for e in _block_edges("K5", a, b, tag) if set(e) != {a, b}]
    if kind == "K33x":
        return [(u, v) for u in (a, f[0], f[1]) for v in (b, f[2], f[3])]
    if kind == "K33x-e":
        return [e for e in _block_edges("K33x", a, b, tag) if set(e) != {a, b}]
    if kind == "K33s":
        return [(u, v) for u in (a, b, f[0]) for v in (f[1], f[2], f[3])]
    raise ValueError(f"unknown block kind {kind!r}")


# ---------------------------------------------------------------------------
# two-cut family recipes
# ---------------------------------------------------------------------------
#
# Every family fixes a cut pair {a, b} (never adjacent except where the
# recipe says so), drops in blocks from the table above, and wires the
# attachment edges.  All placements are enumerated, collapsed up to
# isomorphism, and each class representative must pass the real
# minimality test; the survivor count is checked against the family
# size, so a wrong recipe cannot ship quietly.

# family -> (block kinds per cut pair, join edges), vertices named by
# letters; each choice of one kind per pair is a candidate.  abEdge9:
# three cut vertices pairwise forming two-cuts; ab is always an edge
# (inside its block), so it takes K5 or the cross-pair K33, while ac and
# bc may also be the non-edge same-part K33.  bowtie3: two missing-edge
# blocks joined through a center vertex c: in the middle component a
# and b have degree two with c their only common neighbor, and c sees
# all of a, b, d, e.  t222: two non-edge-pair blocks wired by all four
# cross edges; the double-K33 placement is enumerated too and must be
# rejected by the minimality filter (it has a disconnected proper minor
# with the property).
_ADJACENT = ("K5", "K33x")
_MISSING = ("K5-e", "K33x-e")
_PRODUCT_RECIPES: dict[str, tuple[dict[str, tuple[str, ...]], str]] = {
    "abEdge9": ({"ab": _ADJACENT, "ac": _ADJACENT + ("K33s",),
                 "bc": _ADJACENT + ("K33s",)}, ""),
    "bowtie3": ({"ab": _MISSING, "de": _MISSING}, "ac bc cd ce ad be"),
    "t222": ({"ab": _MISSING + ("K33s",), "cd": _MISSING + ("K33s",)},
             "ac ad bc bd"),
}


def _product_candidates(family: str) -> list[Graph]:
    pairs, joins = _PRODUCT_RECIPES[family]
    return [
        _graph_from_labeled(
            [e for i, (kind, (a, b)) in enumerate(zip(kinds, pairs))
             for e in _block_edges(kind, a, b, "pqr"[i])]
            + [tuple(join) for join in joins.split()]
        )
        for kinds in product(*pairs.values())
    ]


def _attached_candidates(shared: int) -> list[Graph]:
    # Missing-edge block on {a,b}; the other side of the cut is a whole
    # Kuratowski graph that a and b each reach by two edges, sharing
    # ``shared`` of their attachment vertices.  Swapping a and b is an
    # automorphism of both blocks, so each unordered pair of private
    # attachment sets is taken once.  The Kuratowski graphs take fresh
    # g-labels.
    k5, k33 = [f"g{i}" for i in range(5)], [f"g{i}" for i in range(6)]
    kuratowski = ((k5, list(combinations(k5, 2))),
                  (k33, list(product(k33[:3], k33[3:]))))
    out = []
    for kind in _MISSING:
        for vs, g_edges in kuratowski:
            for common in combinations(vs, shared):
                rest = [w for w in vs if w not in common]
                for own_a, own_b in combinations(
                        combinations(rest, 2 - shared), 2):
                    if set(own_a) & set(own_b):
                        continue
                    out.append(_graph_from_labeled(
                        _block_edges(kind, "a", "b", "p") + g_edges
                        + [("a", w) for w in common + own_a]
                        + [("b", w) for w in common + own_b]
                    ))
    return out


_FAMILY_CANDIDATES: dict[str, Callable[[], list[Graph]]] = {
    name: partial(_product_candidates, name) for name in _PRODUCT_RECIPES}
_FAMILY_CANDIDATES.update(t220=partial(_attached_candidates, 0),
                          t221=partial(_attached_candidates, 1))

_FAMILY_COUNTS = {"abEdge9": 9, "bowtie3": 3, "t220": 8, "t221": 8, "t222": 5}

MMNA_FAMILIES = tuple(_FAMILY_COUNTS)


@cache
def build_mmna_family(family: str) -> tuple[Graph, ...]:
    """Enumerate, deduplicate and verify one two-cut family.

    Returns canonically labeled members sorted by canonical key.
    Raises CatalogError when the verified member count disagrees with
    the expected family size, reporting how many distinct candidate
    classes the recipe produced.
    """
    if family not in _FAMILY_CANDIDATES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {MMNA_FAMILIES}"
        )
    classes: dict[bytes, Graph] = {}
    for g in _FAMILY_CANDIDATES[family]():
        key, perm, _ = canonical_data(g.rows())
        if key not in classes:
            classes[key] = Graph.from_rows(relabel_rows(g.rows(), perm))
    kept = [
        classes[key] for key in sorted(classes)
        if is_minor_minimal_upclosed(classes[key], Property.NA)
    ]
    want = _FAMILY_COUNTS[family]
    if len(kept) != want:
        raise CatalogError(
            f"family {family}: expected {want} verified members, got "
            f"{len(kept)} from {len(classes)} distinct candidates"
        )
    return tuple(kept)


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------

def _k5() -> Graph:
    return Graph.complete(5)


def _k33() -> Graph:
    return Graph.complete_bipartite(3, 3)


def _bar(g: Graph) -> Graph:
    u, v = min(g.sorted_edges())
    return g.subdivide_edge(u, v)


def _rooks9() -> Graph:
    # 3x3 rook moves: cell (r, c) is vertex 3r + c, and two cells are
    # adjacent when either coordinate agrees
    return Graph(9, [(i, j) for i, j in combinations(range(9), 2)
                     if i // 3 == j // 3 or i % 3 == j % 3])


def _triangled_k33() -> Graph:
    """K33 with every edge given its own triangle apex (order 15, size 27)."""
    edges = _k33().sorted_edges()
    return Graph(15, edges + [(w, 6 + i) for i, e in enumerate(edges)
                              for w in e])


# (builder, claims, construction note); claims stick to what is actually
# established for each graph, no extrapolation
_NAMED: dict[str, tuple[Callable[[], Graph], frozenset[str], str]] = {
    "K5": (_k5, frozenset({"nonplanar"}), "complete graph on five vertices"),
    "K33": (_k33, frozenset({"nonplanar"}), "complete bipartite 3+3"),
    "K6": (lambda: Graph.complete(6),
           frozenset({"nonplanar", "MM-NA", "MM-NC"}),
           "complete graph on six vertices"),
    "K6-e": (lambda: Graph.complete(6).delete_edge(0, 1),
             frozenset({"nonplanar", "MM-NE"}),
             "K6 with one edge removed"),
    "K43": (lambda: Graph.complete_bipartite(4, 3),
            frozenset({"nonplanar", "MM-NE", "MM-NC"}),
            "complete bipartite 4+3"),
    "rooks9": (_rooks9, frozenset({"nonplanar", "MM-NE", "MM-NC"}),
               "rook's graph on a 3x3 board"),
    "K5-e": (lambda: _k5().delete_edge(0, 1),
             frozenset({"planar", "AN", "CAN", "MM-AN", "MM-CAN"}),
             "K5 with one edge removed"),
    "K33-e": (lambda: _k33().delete_edge(0, 3),
              frozenset({"planar", "AN", "MM-AN"}),
              "K33 with one edge removed"),
    "K33+e": (lambda: _k33().add_edge(0, 1),
              frozenset({"nonplanar", "MM-IE"}),
              "K33 plus one edge inside a part"),
    # one added edge inside each part; equivalently the split of a K5
    # vertex into two vertices of degree three
    "K33+2e": (lambda: _k33().add_edge(0, 1).add_edge(3, 4),
               frozenset({"nonplanar", "MM-IC"}),
               "K33 plus one edge inside each part"),
    "barK5": (lambda: _bar(_k5()), frozenset({"nonplanar", "MM-IC"}),
              "K5 with one edge subdivided"),
    "barK33": (lambda: _bar(_k33()), frozenset({"nonplanar", "MM-IC"}),
               "K33 with one edge subdivided"),
}

# A composite's id is its recipe: ``A|B`` is the disjoint union, ``A.B``
# identifies vertex 0 of each operand, and ``A:B`` each operand's
# nonadjacent pair in ``_GLUE_PAIRS``, adding no edge between it.  An
# operand is a one-off above or the complete graph Kn.
_GLUE_PAIRS: dict[str, Edge] = {"K5-e": (0, 1), "K33-e": (0, 3), "K33": (0, 1)}
# each connective's note, for distinct and for equal operands
_UNION_NOTES = {
    "|": ("{} disjoint from {}", "two disjoint copies of {}"),
    ".": ("{} and {} sharing one vertex",
          "two copies of {} sharing one vertex"),
    ":": ("{} and {} sharing a nonadjacent vertex pair, no edge added",) * 2,
}
# the composites beside "nonplanar", grouped by their other claims
_COMPOSITES = (
    ("MM-IA", "K1|K5 K1|K33"),
    ("MM-IE MM-IC", "K2|K5 K2|K33 K2.K5 K2.K33"),
    ("MM-NA MM-NE MM-NC", "K5|K5 K5|K33 K33|K33"),
    ("MM-NE MM-NC", "K5.K5 K5.K33 K33.K33 K5-e:K5-e K5-e:K33-e "
                    "K33-e:K33-e K5-e:K33 K33-e:K33 K33:K33"),
)


def _composite(name: str) -> Graph:
    a, op, b = re.split("([|.:])", name)
    g, h = (_NAMED[x][0]() if x in _NAMED else Graph.complete(int(x[1:]))
            for x in (a, b))
    if op == "|":
        return disjoint_union(g, h)
    if op == ".":
        return one_vertex_union(g, 0, h, 0)
    return two_vertex_union(g, _GLUE_PAIRS[a], h, _GLUE_PAIRS[b])


def _composite_note(name: str) -> str:
    a, op, b = re.split("([|.:])", name)
    return _UNION_NOTES[op][a == b].format(a, b)


_NAMED.update(
    (name, (partial(_composite, name),
            frozenset({"nonplanar", *claims.split()}), _composite_note(name)))
    for claims, names in _COMPOSITES for name in names.split()
)

#: connective aliases accepted by build_named alongside the ASCII ids
_ID_REWRITES = (
    ("−", "-"),        # minus sign
    ("⊍", "."),        # multiset-dot union
    ("∪̇", "."),  # union with combining dot above
    ("⊔", "|"),        # square cup
    ("⋈", ":"),        # bowtie
    ("3,3", "33"),
    (" ", ""),
)


def _normalize_id(name: str) -> str:
    for old, new in _ID_REWRITES:
        name = name.replace(old, new)
    return name


def named_ids() -> tuple[str, ...]:
    return tuple(_NAMED)


def build_named(name: str) -> Graph:
    """Construct a named graph, canonically labeled.

    Accepts the ASCII ids of ``named_ids()`` plus the typeset spellings
    (true minus, square-cup, dotted-union and bowtie connectives).
    """
    key = _normalize_id(name)
    if key not in _NAMED:
        raise ValueError(f"unknown graph name {name!r}")
    return canonical_graph(_NAMED[key][0]())


# ---------------------------------------------------------------------------
# appendix collections
# ---------------------------------------------------------------------------

# collection -> (entry id prefix, the minimality its members claim, lists)
_APPENDIX = {"A1_MMNE_15": ("A1", Property.NE, A1_EDGE_LISTS),
             "A2_MMNC_22": ("A2", Property.NC, A2_EDGE_LISTS)}


def appendix_graphs(which: str) -> tuple[Graph, ...]:
    """Decode one embedded collection ("A1_MMNE_15" or "A2_MMNC_22")."""
    if which not in _APPENDIX:
        raise ValueError(
            f"unknown collection {which!r}; expected one of {tuple(_APPENDIX)}"
        )
    return tuple(parse_edge_list(text) for text in _APPENDIX[which][2])


# ---------------------------------------------------------------------------
# non-closure witnesses
# ---------------------------------------------------------------------------

def _ne_witness() -> tuple[Graph, Edge]:
    """Edge-apex graph whose contraction at the unique apex edge is NE.

    K33 with eight of its nine edges triangled; the ninth is subdivided,
    one half triangled and the other half left bare as the apex edge.
    Contracting that edge re-triangles the ninth edge, giving the fully
    triangled K33.
    """
    k33_edges = _k33().sorted_edges()
    skip = (0, 3)
    edges: list[Edge] = []
    apex = 7  # 0..5 the K33, 6 the subdivision vertex
    for u, v in k33_edges:
        if (u, v) == skip:
            continue
        edges.extend([(u, v), (u, apex), (v, apex)])
        apex += 1
    # subdivide the skipped edge through vertex 6, then triangle the
    # (0,6) half; (3,6) stays bare
    edges.extend([(0, 6), (3, 6), (0, apex), (6, apex)])
    return Graph(apex + 1, edges), (3, 6)


def _nc_witness() -> tuple[Graph, Edge]:
    """Contraction-apex graph whose deletion at the unique apex is NC.

    Two copies of K5 sharing an edge; contracting the shared edge gives
    two K4s joined at a vertex (planar), while deleting it leaves a
    graph no single contraction can planarize.
    """
    five = list(combinations(range(5), 2))
    other = [(u if u < 2 else u + 3, v if v < 2 else v + 3) for u, v in five]
    return Graph(8, five + other), (0, 1)


_COUNTEREXAMPLES = {"NE_not_closed": _ne_witness, "NC_not_closed": _nc_witness}


def counterexample(name: str) -> tuple[Graph, Edge]:
    """Return a non-closure witness and its distinguished edge."""
    if name not in _COUNTEREXAMPLES:
        raise ValueError(
            f"unknown counterexample {name!r}; expected one of "
            f"{tuple(_COUNTEREXAMPLES)}"
        )
    return _COUNTEREXAMPLES[name]()


# ---------------------------------------------------------------------------
# the assembled catalog
# ---------------------------------------------------------------------------

@cache
def all_entries() -> tuple[CatalogEntry, ...]:
    entries = [
        CatalogEntry(name, canonical_graph(build()), claims, note)
        for name, (build, claims, note) in _NAMED.items()
    ]
    for family in MMNA_FAMILIES:
        note = f"two-cut composition, {family} recipe"
        for i, g in enumerate(build_mmna_family(family), start=1):
            entries.append(CatalogEntry(
                f"{family}.{i}", g, frozenset({"nonplanar", "MM-NA"}), note
            ))
    for which, (prefix, prop, _) in _APPENDIX.items():
        for i, g in enumerate(appendix_graphs(which), start=1):
            entries.append(CatalogEntry(
                f"{prefix}.{i}", g,
                frozenset({"nonplanar", f"MM-{prop.value}"}),
                f"embedded edge list {prefix}, entry {i}",
            ))
    for name in _COUNTEREXAMPLES:
        g, _ = counterexample(name)
        entries.append(CatalogEntry(
            name, g, frozenset({"nonplanar"}),
            "non-closure witness with a distinguished edge",
        ))
    return tuple(entries)


def entry(entry_id: str) -> CatalogEntry:
    for e in all_entries():
        if e.id == entry_id:
            return e
    raise ValueError(f"no catalog entry {entry_id!r}")


# per property: its one-offs, the composites claiming its minimality, and
# for NA the family members, for NE and NC an embedded list
_MM_ONE_OFFS = {Property.AN: "K5-e K33-e", Property.CAN: "K5-e",
                Property.IE: "K33+e", Property.IC: "K33+2e barK5 barK33"}
_MM_LISTS: dict[Property, tuple[str, ...]] = {
    p: tuple(_MM_ONE_OFFS.get(p, "").split()) + tuple(
        name for claims, names in _COMPOSITES
        if f"MM-{p.value}" in claims.split() for name in names.split())
    for p in Property
}
_MM_LISTS[Property.NA] += tuple(
    f"{family}.{i}" for family, n in _FAMILY_COUNTS.items()
    for i in range(1, n + 1))
for _prefix, _prop, _lists in _APPENDIX.values():
    _MM_LISTS[_prop] += tuple(f"{_prefix}.{i}"
                              for i in range(1, len(_lists) + 1))


def mm_catalog(prop: Property | str) -> tuple[CatalogEntry, ...]:
    """All embedded minor-minimal examples for one property.

    AN, CAN, IA, IE and IC are complete sets; NA, NE and NC are the
    explicitly constructed members (36, 27 and 34), known lower bounds.
    """
    if isinstance(prop, str):
        prop = Property(prop)
    return tuple(entry(i) for i in _MM_LISTS[prop])


# ---------------------------------------------------------------------------
# claim checking and full verification
# ---------------------------------------------------------------------------

def check_claim(g: Graph, claim: str) -> bool:
    """Re-derive one claim from scratch with the real deciders."""
    if claim == "planar":
        return is_planar(g)
    if claim == "nonplanar":
        return not is_planar(g)
    if claim.startswith("MM-"):
        return is_minor_minimal(g, Property(claim[3:]))
    return check(g, Property(claim))


def _claim_task(task: tuple[str, str, Rows]):
    entry_id, claim, rows = task
    try:
        ok = check_claim(Graph.from_rows(rows), claim)
        return entry_id, claim, ok, ""
    except ResourceLimitError as exc:
        return entry_id, claim, False, str(exc)


def verify_entries(entries: Iterable[CatalogEntry],
                   jobs: int = 1) -> list[dict]:
    """Re-derive every claim of every entry; one result dict per entry."""
    entries = list(entries)
    tasks = [
        (e.id, claim, e.graph.rows())
        for e in entries
        for claim in sorted(e.claims)
    ]
    # heaviest first (order plus size) so parallel workers drain evenly
    tasks.sort(key=lambda t: (not t[1].startswith("MM-"),
                              -(len(t[2]) + rows_size(t[2]))))
    raw = parallel_map(_claim_task, tasks, jobs)
    by_entry: dict[str, dict[str, dict]] = {}
    for entry_id, claim, ok, detail in raw:
        record = {"ok": ok}
        if detail:
            record["detail"] = detail
        by_entry.setdefault(entry_id, {})[claim] = record
    out = []
    for e in entries:
        claims = {c: by_entry[e.id][c] for c in sorted(e.claims)}
        out.append({
            "id": e.id,
            "order": e.graph.order,
            "size": e.graph.size,
            "claims": claims,
            "ok": all(r["ok"] for r in claims.values()),
        })
    return out


def _keyset(entries: Iterable[CatalogEntry]) -> set[bytes]:
    return {canonical_key(e.graph) for e in entries}


def _structural_checks() -> list[dict]:
    checks: list[dict] = []

    def add(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    expected_sizes = {Property.AN: 2, Property.CAN: 1, Property.IA: 2,
                      Property.IE: 5, Property.IC: 7, Property.NA: 36,
                      Property.NE: 27, Property.NC: 34}
    got = {p: len(mm_catalog(p)) for p in expected_sizes}
    add("mm-counts", got == expected_sizes,
        ", ".join(f"{p.value}:{n}" for p, n in got.items()))

    for p in expected_sizes:
        members = mm_catalog(p)
        add(f"mm-distinct-{p.value}", len(_keyset(members)) == len(members),
            f"{len(members)} members pairwise non-isomorphic")

    na = [e.graph for e in mm_catalog(Property.NA)]
    add("mmna-min-degree", all(g.min_degree() >= 3 for g in na),
        "every member has minimum degree at least 3")
    kappas = [g.vertex_connectivity() if g.is_connected() else 0 for g in na]
    add("mmna-connectivity",
        all(k == 0 or 2 <= k <= 5 for k in kappas) and 1 not in kappas,
        f"connectivities seen: {sorted(set(kappas))}")

    disc = {p: _keyset(e for e in mm_catalog(p) if not e.graph.is_connected())
            for p in (Property.NA, Property.NE, Property.NC)}
    add("disconnected-coincidence",
        disc[Property.NA] == disc[Property.NE] == disc[Property.NC]
        and len(disc[Property.NA]) == 3,
        "the three disconnected members agree across NA, NE and NC")

    def is_cut1(g: Graph) -> bool:
        return g.is_connected() and g.vertex_connectivity() == 1

    cut1_ne = _keyset(e for e in mm_catalog(Property.NE) if is_cut1(e.graph))
    cut1_nc = _keyset(e for e in mm_catalog(Property.NC) if is_cut1(e.graph))
    add("cut-vertex-coincidence",
        cut1_ne == cut1_nc and len(cut1_ne) == 3,
        "the three one-cut members agree across NE and NC")

    a1 = _keyset(e for e in all_entries() if e.id.startswith("A1."))
    a2 = _keyset(e for e in all_entries() if e.id.startswith("A2."))
    wanted_a1 = {canonical_key(build_named(n)) for n in
                 ("K43", "K6-e", "rooks9")}
    wanted_a2 = {canonical_key(build_named(n)) for n in
                 ("K43", "K6", "rooks9")}
    add("embedded-identifications",
        wanted_a1 <= a1 and wanted_a2 <= a2,
        "K43, K6-e and the rook's graph appear in A1; K43, K6 and the "
        "rook's graph in A2")

    g, e = counterexample("NE_not_closed")
    apexes = [f for f in g.sorted_edges()
              if is_planar(g.delete_edge(*f))]
    contracted = g.contract_edge(*e)
    add("NE-not-closed",
        apexes == [e]
        and check(contracted, Property.NE)
        and canonical_key(contracted) == canonical_key(_triangled_k33()),
        "unique planarizing deletion; contracting it leaves an NE graph "
        "(the fully triangled K33)")

    g, e = counterexample("NC_not_closed")
    capexes = [f for f in g.sorted_edges()
               if is_planar(g.contract_edge(*f))]
    k4k4 = one_vertex_union(Graph.complete(4), 0, Graph.complete(4), 0)
    add("NC-not-closed",
        (g.order, g.size) == (8, 19)
        and capexes == [e]
        and canonical_key(g.contract_edge(*e)) == canonical_key(k4k4)
        and check(g.delete_edge(*e), Property.NC),
        "unique planarizing contraction onto two K4s sharing a vertex; "
        "deleting it leaves an NC graph")

    return checks


def verify_catalog(jobs: int = 1) -> dict:
    """Re-derive every claim and every cross-check; never raises on failure.

    The report carries one record per entry, one per structural check,
    and a failure count the caller can turn into an exit code.
    """
    start = time.monotonic()
    entry_reports = verify_entries(all_entries(), jobs=jobs)
    checks = _structural_checks()
    failures = sum(not r["ok"] for r in entry_reports)
    failures += sum(not c["ok"] for c in checks)
    return {
        "entries": entry_reports,
        "checks": checks,
        "entry_count": len(entry_reports),
        "claim_count": sum(len(r["claims"]) for r in entry_reports),
        "failures": failures,
        "ok": failures == 0,
        "elapsed_seconds": round(time.monotonic() - start, 3),
    }
