"""The NE/NC closure walk against a plain reference walk.

The reference below re-runs every planarity test, every NE/NC check and
every canonical labeling the walk meets, with one visited set for the
whole walk.  The fast walk in ``minimality`` inherits planar answers
from parent to child and deduplicates per level; both must visit the
same members in the same order and stop at the same one.  The reference
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
from minorsieve import minimality
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

#: walk -> (step, the reference's member test, the fast walk's scan)
WALKS = {
    "NE": (rows_contract_edge, is_ne_rows, first_planar_edge_deletion),
    "NC": (rows_delete_edge, is_nc_rows, first_planar_contraction),
}


def fast_walk(monkeypatch, rows: Rows,
              label: str) -> tuple[bool, list[bytes]]:
    """The fast walk's result and member keys in visiting order.

    The walk labels exactly the nonplanar labeled children it has not
    met on their level, so the first occurrences of the keys it computes
    are its members in order.
    """
    step, _, scan = WALKS[label]
    keys = [canonical_key_rows(rows)]

    def record(child: Rows) -> bytes:
        key = canonical_key_rows(child)
        keys.append(key)
        return key

    with monkeypatch.context() as m:
        m.setattr(minimality, "canonical_key_rows", record)
        found = minimality._closure_walk(rows, step, scan, SIEVE_MEMBER_CAP,
                                         label)
    return found, list(dict.fromkeys(keys))


def assert_same_walk(monkeypatch, rows: Rows, label: str) -> int:
    """Both walks agree on result and members; returns the member count."""
    step, prop_rows, _ = WALKS[label]
    want = reference_walk(rows, step, prop_rows, SIEVE_MEMBER_CAP)
    assert fast_walk(monkeypatch, rows, label) == want
    return len(want[1])


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


def test_agrees_with_reference_on_subdivided_catalog(monkeypatch):
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
            members = assert_same_walk(monkeypatch, g.rows(), label)
            past_first_level += members > 1 + g.size
    # some walks stop (or end) only below their first level
    assert past_first_level > 0


def test_agrees_with_reference_on_random_order_8(monkeypatch):
    graphs = _random_nonplanar(300)
    for g in graphs:
        _agree(g)
    for g in graphs[:12]:
        for label in WALKS:
            assert_same_walk(monkeypatch, g.rows(), label)


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
# the member cap
# ---------------------------------------------------------------------------

def test_member_cap_matches_reference_count():
    g = next(e.graph for e in mm_catalog("NC") if e.graph.order == 7)
    found, members = reference_walk(g.rows(), rows_delete_edge, is_nc_rows,
                                    SIEVE_MEMBER_CAP)
    assert not found and len(members) > 2
    assert is_mmnc(g, max_members=len(members))
    with pytest.raises(ResourceLimitError):
        is_mmnc(g, max_members=len(members) - 1)
