"""The eight planarity-adjacent properties and their witnesses.

Naming scheme: two-letter ids combine a quantifier with a single minor
operation applied to the graph.

* AN  planar, and adding some missing edge breaks planarity
* CAN planar, not complete, and adding any missing edge breaks planarity
* NA  nonplanar, and deleting any one vertex leaves it nonplanar
* NE  nonplanar, and deleting any one edge leaves it nonplanar
* NC  nonplanar, and contracting any one edge leaves it nonplanar
* IA  deleting some vertex leaves a nonplanar graph
* IE  deleting some edge leaves a nonplanar graph
* IC  contracting some edge leaves a nonplanar graph

The three existential forms imply nonplanarity on their own (the result
of the operation is a minor), so they carry no explicit conjunct.  The
negations of NA, IA, IE and IC are closed under taking minors; NE and NC
do not have that luxury, which is what the sieve in the minimality
module exists for.

Each property is one row of a rule table: an operation family, a
quantifier and the planarity the graph itself must have.  One scan
serves every row.  Candidates run in ascending order (vertices by label,
edges and non-edges lexicographically), so every "find" and every
witness is the least one, making results reproducible across runs and
processes.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .graphs import Edge, Graph, Rows, edges_from_rows, rows_add_edge, \
    rows_contract_edge, rows_delete_edge, rows_delete_vertex, rows_non_edges
from .planarity import is_planar, is_planar_rows, nonplanar_witness


class Property(Enum):
    AN = "AN"
    CAN = "CAN"
    NA = "NA"
    NE = "NE"
    NC = "NC"
    IA = "IA"
    IE = "IE"
    IC = "IC"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: properties whose complement is minor-closed, so one-step minimality
#: testing is sound for them
UPWARD_CLOSED = frozenset({Property.NA, Property.IA, Property.IE, Property.IC})


class Witness(namedtuple("Witness", "kind value")):
    """A vertex, edge or vertex pair that decides a property instance:
    ``kind`` is "vertex", "edge" or "vertex-pair", and ``value`` the
    tuple of its vertices."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# the rule table and its one scan
# ---------------------------------------------------------------------------

def _vertices(rows: Rows) -> list[tuple[int]]:
    return [(v,) for v in range(len(rows))]


# operation families: (witness kind, candidates in scan order, operation,
# whether two candidates can give equal result rows)
_VERTEX_DELETION = ("vertex", _vertices, rows_delete_vertex, True)
_EDGE_DELETION = ("edge", edges_from_rows, rows_delete_edge, False)
_CONTRACTION = ("edge", edges_from_rows, rows_contract_edge, True)
_EDGE_ADDITION = ("vertex-pair", rows_non_edges, rows_add_edge, False)

#: property -> (operation family, universal quantifier, required planarity
#: of the graph itself or None); every property asks whether the results
#: of its operation are nonplanar
_RULES = {
    Property.AN: (_EDGE_ADDITION, False, True),
    Property.CAN: (_EDGE_ADDITION, True, True),
    Property.NA: (_VERTEX_DELETION, True, False),
    Property.NE: (_EDGE_DELETION, True, False),
    Property.NC: (_CONTRACTION, True, False),
    Property.IA: (_VERTEX_DELETION, False, None),
    Property.IE: (_EDGE_DELETION, False, None),
    Property.IC: (_CONTRACTION, False, None),
}


def _scan(rows: Rows, family, planar: bool) -> tuple[int, ...] | None:
    """Least candidate of ``family`` whose result has the given planarity.

    A candidate whose result rows equal an earlier candidate's is skipped
    untested: that result already had the other planarity, or the scan
    would have stopped there.  Only contractions and vertex deletions
    repeat (12,743 of the 43,394 contractions in the order-8 NC search);
    two edge deletions, or two edge additions, of one graph never give
    equal rows, so those families keep no set.

    A scan for a planar edge deletion also skips every edge outside
    ``core``, the edges that every Kuratowski subdivision found so far
    (``nonplanar_witness``) uses.  If K lies in g - e1 and e is not an
    edge of K, K lies in g - e as well, so g - e is nonplanar and cannot
    be the hit: the least hit is unchanged.
    """
    _, candidates, apply, repeats = family
    narrow = planar and family is _EDGE_DELETION
    n = len(rows)
    core = -1
    seen = set()
    for c in candidates(rows):
        if narrow and not core >> c[0] * n + c[1] & 1:
            continue
        result = apply(rows, *c)
        if repeats:
            if result in seen:
                continue
            seen.add(result)
        if narrow:
            witness = nonplanar_witness(result)
            if witness is None:
                return c
            core &= witness or -1
        elif is_planar_rows(result) == planar:
            return c
    return None


def first_planar_vertex_deletion(rows: Rows) -> int | None:
    hit = _scan(rows, _VERTEX_DELETION, True)
    return None if hit is None else hit[0]


def first_planar_edge_deletion(rows: Rows) -> Edge | None:
    return _scan(rows, _EDGE_DELETION, True)


def first_planar_contraction(rows: Rows) -> Edge | None:
    return _scan(rows, _CONTRACTION, True)


def is_na_rows(rows: Rows) -> bool:
    """Nonplanar with no planarizing single vertex deletion.

    The nonplanarity conjunct needs no test of its own.  g - v is a
    subgraph of g, so if every g - v is nonplanar, so is g once it has a
    vertex; the order-0 graph is planar.
    """
    return bool(rows) and first_planar_vertex_deletion(rows) is None


def is_ne_rows(rows: Rows) -> bool:
    """Nonplanar with no planarizing single edge deletion.

    The nonplanarity conjunct needs no test of its own.  A graph with an
    edge e is a supergraph of g - e, so if every g - e is nonplanar, so is
    g; an edgeless graph is planar.
    """
    return any(rows) and first_planar_edge_deletion(rows) is None


def is_nc_rows(rows: Rows) -> bool:
    """Nonplanar with no planarizing single edge contraction.

    As for ``is_ne_rows``: g / e is a minor of g, and planarity is closed
    under minors, so a graph whose every contraction is nonplanar is
    itself nonplanar once it has an edge to contract.
    """
    return any(rows) and first_planar_contraction(rows) is None


# ---------------------------------------------------------------------------
# apex finders
# ---------------------------------------------------------------------------

def find_apex_vertex(g: Graph) -> int | None:
    """Least vertex whose deletion planarizes g, or None.

    Planar graphs return vertex 0 when they have one (every deletion
    works); the empty graph has no vertex to return.
    """
    return first_planar_vertex_deletion(g.rows())


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

def check(g: Graph, prop: Property) -> bool:
    return check_with_witness(g, prop)[0]


def check_with_witness(g: Graph, prop: Property) -> tuple[bool, Witness | None]:
    """Decide the property and return the deciding object when one exists.

    A true existential returns its least witness (a nonplanar result); a
    false universal returns its least counterexample (a planar result);
    the other outcomes return None.
    """
    rule = _RULES.get(prop)
    if rule is None:
        raise ValueError(f"unknown property {prop!r}")
    family, universal, base_planar = rule
    if base_planar is not None and is_planar(g) != base_planar:
        return False, None
    if prop is Property.CAN and g.is_complete():
        return False, None  # the one universal whose range can be empty
    hit = _scan(g.rows(), family, universal)
    if hit is None:
        return universal, None
    return not universal, Witness(family[0], hit)
