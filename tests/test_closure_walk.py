"""The NE/NC pivot walk against a plain reference walk.

The reference below re-runs every planarity test, every NE/NC check and
every canonical labeling the walk meets, with one visited set for the
whole walk.  The pivot walk in ``minimality`` follows one chain per root
edge and labels nothing; both must reach the same verdict, and the two
lemmas that justify the chains are checked on their own.  The reference
deciders use neither degree fact of ``minimality._degree_violations``,
so they are the independent check of both.
"""

from __future__ import annotations

import random

import pytest

from minorsieve import Graph, ResourceLimitError, all_entries, is_mmnc, \
    is_mmne, is_planar, mm_catalog
from minorsieve.canon import canonical_key_rows
from minorsieve.graphs import Rows, edges_from_rows, rows_contract_edge, \
    rows_delete_edge, rows_subdivide_edge
from minorsieve import minimality, properties
from minorsieve.minimality import SIEVE_MEMBER_CAP
from minorsieve.planarity import is_planar_rows
from minorsieve.properties import first_planar_contraction, \
    first_planar_edge_deletion, is_nc_rows, is_ne_rows

from conftest import random_graph


# ---------------------------------------------------------------------------
# reference sieve: the plain walk, every answer recomputed
# ---------------------------------------------------------------------------

def reference_walk(rows: Rows, step, prop_rows,
                   max_members: int) -> tuple[bool, list[bytes]]:
    """(some proper member satisfies prop_rows, member keys in visiting
    order, the root first)."""
    root = canonical_key_rows(rows)
    visited = {root}
    order = [root]
    frontier = [rows]
    while frontier:
        grown = []
        for cur in frontier:
            for u, v in edges_from_rows(cur):
                child = step(cur, u, v)
                if is_planar_rows(child):
                    continue
                key = canonical_key_rows(child)
                if key in visited:
                    continue
                visited.add(key)
                order.append(key)
                if len(visited) > max_members:
                    raise ResourceLimitError("reference sieve cap")
                if prop_rows(child):
                    return True, order
                grown.append(child)
        frontier = grown
    return False, order


def reference_is_mmne(g: Graph, max_members: int = SIEVE_MEMBER_CAP) -> bool:
    rows = g.rows()
    if not is_ne_rows(rows) or any(r == 0 for r in rows):
        return False
    for u, v in edges_from_rows(rows):
        if is_ne_rows(rows_delete_edge(rows, u, v)):
            return False
    return not reference_walk(rows, rows_contract_edge, is_ne_rows,
                              max_members)[0]


def reference_is_mmnc(g: Graph, max_members: int = SIEVE_MEMBER_CAP) -> bool:
    rows = g.rows()
    if not is_nc_rows(rows) or any(r == 0 for r in rows):
        return False
    for u, v in edges_from_rows(rows):
        if is_nc_rows(rows_contract_edge(rows, u, v)):
            return False
    return not reference_walk(rows, rows_delete_edge, is_nc_rows,
                              max_members)[0]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

#: walk -> (step, the reference's member test, the pivot walk's scan)
WALKS = {
    "NE": (rows_contract_edge, is_ne_rows, first_planar_edge_deletion),
    "NC": (rows_delete_edge, is_nc_rows, first_planar_contraction),
}


def fast_walk(rows: Rows, label: str) -> bool:
    """The pivot walk's verdict: some proper member has the property."""
    step, _, scan = WALKS[label]
    return minimality._pivot_walk(rows, step, scan, SIEVE_MEMBER_CAP, label)


def assert_same_walk(rows: Rows, label: str) -> int:
    """Both walks agree on the verdict; returns the reference's member
    count."""
    step, prop_rows, _ = WALKS[label]
    found, members = reference_walk(rows, step, prop_rows, SIEVE_MEMBER_CAP)
    assert fast_walk(rows, label) == found
    return len(members)


def subdivide_first_edge_twice(g: Graph) -> Graph:
    """g with its least edge replaced by a path of length three."""
    rows = g.rows()
    u, v = edges_from_rows(rows)[0]
    rows = rows_subdivide_edge(rows, u, v)
    return Graph.from_rows(rows_subdivide_edge(rows, u, len(rows) - 1))


def _agree(g: Graph) -> None:
    assert is_mmne(g) == reference_is_mmne(g), g
    assert is_mmnc(g) == reference_is_mmnc(g), g


def _random_nonplanar(count: int) -> list[Graph]:
    rng = random.Random(20261018)
    out = []
    while len(out) < count:
        g = random_graph(rng, 8)
        if not is_planar(g):
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

def test_agrees_with_reference_on_catalog():
    for e in all_entries():
        _agree(e.graph)


def test_agrees_with_reference_on_subdivided_catalog():
    past_first_level = 0
    for label in WALKS:
        for e in mm_catalog(label):
            if e.graph.order > 10:
                continue
            g = subdivide_first_edge_twice(e.graph)
            _agree(g)
            if e.graph.size > 16:
                continue  # keeps the plain walks below a few seconds
            # the walk of the graph's own property, which the seeds can
            # cut short in is_mmne and is_mmnc
            members = assert_same_walk(g.rows(), label)
            past_first_level += members > 1 + g.size
    # some walks stop (or end) only below their first level
    assert past_first_level > 0


def test_agrees_with_reference_on_random_order_8():
    graphs = _random_nonplanar(300)
    for g in graphs:
        _agree(g)
    for g in graphs[:12]:
        for label in WALKS:
            assert_same_walk(g.rows(), label)


def test_agrees_with_reference_on_small_nonplanar_classes(reps_by_order,
                                                         reps7):
    pools = list(reps_by_order.values()) + [reps7]
    graphs = [g for reps in pools for g in reps if not is_planar(g)]
    assert len(graphs) == 1 + 14 + 222
    for g in graphs:
        _agree(g)


def _pendant_or_subdivided(count: int) -> list[Graph]:
    """Seeded nonplanar graphs of order 7 or 8 with a pendant vertex
    added, or one edge subdivided: the cases the degree facts reject."""
    rng = random.Random(20261019)
    out = []
    while len(out) < count:
        g = random_graph(rng, rng.randint(7, 8), rng.uniform(0.35, 0.75))
        if is_planar(g):
            continue
        rows = g.rows()
        if rng.random() < 0.5:
            n = len(rows)
            u = rng.randrange(n)
            rows = tuple(r | (1 << n) if v == u else r
                         for v, r in enumerate(rows)) + (1 << u,)
        else:
            rows = rows_subdivide_edge(rows, *rng.choice(edges_from_rows(rows)))
        out.append(Graph.from_rows(rows))
    return out


def test_agrees_with_reference_on_pendant_and_subdivided():
    for g in _pendant_or_subdivided(300):
        _agree(g)


# ---------------------------------------------------------------------------
# the pivot lemmas and the chain bound
# ---------------------------------------------------------------------------

#: walk -> the scan's operation
SCAN_OPS = {"NE": rows_delete_edge, "NC": rows_contract_edge}


def _closure_has(rows: Rows, label: str, memo: dict) -> bool:
    """Some nonplanar member of the closure of ``rows``, ``rows`` itself
    included, has the walk's property (by the reference walk)."""
    step, prop_rows, _ = WALKS[label]
    key = (label, canonical_key_rows(rows))
    if key not in memo:
        memo[key] = not is_planar_rows(rows) and (
            prop_rows(rows) or reference_walk(rows, step, prop_rows,
                                              SIEVE_MEMBER_CAP)[0])
    return memo[key]


def test_pivot_lemmas(reps_by_order, reps7):
    """For every planarizing scan edge f of h, not just the scan's
    first, the closure of h holds a member with the property iff h has
    it or the closure of step(h, f) holds one."""
    pools = list(reps_by_order.values()) + [reps7]
    graphs = [g for reps in pools for g in reps if not is_planar(g)]
    memo: dict = {}
    verdicts = set()
    for g in graphs:
        rows = g.rows()
        for label, (step, prop_rows, _) in WALKS.items():
            want = _closure_has(rows, label, memo)
            for f in edges_from_rows(rows):
                if not is_planar_rows(SCAN_OPS[label](rows, *f)):
                    continue
                got = prop_rows(rows) or _closure_has(step(rows, *f), label,
                                                      memo)
                assert got == want, (g, label, f)
                verdicts.add((label, want))
    assert verdicts == {(label, v) for label in WALKS for v in (False, True)}


def test_scans_per_decision_at_most_m_squared(monkeypatch):
    """One decision's scans, root check, seeds and chains together, are
    at most m * m on every catalog graph."""
    scanned = []
    for mod in (minimality, properties):
        for name in ("first_planar_edge_deletion", "first_planar_contraction"):
            scan = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda rows, scan=scan:
                                scanned.append(rows) or scan(rows))
    past_seeds = 0
    for e in all_entries():
        m = e.graph.size
        for decide in (is_mmne, is_mmnc):
            scanned.clear()
            decide(e.graph)
            assert len(scanned) <= m * m, (e.id, decide.__name__)
            past_seeds += len(scanned) > m + 1
    assert past_seeds > 0


# ---------------------------------------------------------------------------
# the member cap
# ---------------------------------------------------------------------------

def test_member_cap_matches_reference_count():
    """K3,4 is minor-minimal NC.  Its pivot walk visits the root and
    its twelve one-edge deletions, each nonplanar and each a chain of
    its own, whose next step is planar: 13 members."""
    g = next(e.graph for e in mm_catalog("NC") if e.graph.order == 7)
    assert (g.order, g.size) == (7, 12)
    assert is_mmnc(g, max_members=13)
    with pytest.raises(ResourceLimitError, match="NC sieve exceeded 12"):
        is_mmnc(g, max_members=12)
