"""The NE/NC pivot walk against a plain reference walk.

The reference below re-runs every planarity test, every NE/NC check and
every canonical labeling the walk meets, with one visited set for the
whole walk.  The pivot walk in ``minimality`` follows one chain per root
edge and labels nothing; both must reach the same verdict, and the two
lemmas that justify the chains, the rule that stops them and the seeds
that the deciders settle without a scan are checked on their own.  The reference
deciders use neither degree fact of ``minimality._degree_violations``,
so they are the independent check of both.
"""

from __future__ import annotations

import random

import pytest

from minorsieve import EnumFilter, Graph, ResourceLimitError, all_entries, \
    generate_graphs, is_mmnc, is_mmne, is_planar, mm_catalog
from minorsieve.canon import canonical_key_rows
from minorsieve.graphs import Rows, edges_from_rows, rows_contract_edge, \
    rows_delete_edge, rows_subdivide_edge
from minorsieve import minimality, properties
from minorsieve.minimality import SIEVE_MEMBER_CAP
from minorsieve.planarity import is_planar_rows
from minorsieve.properties import first_planar_contraction, \
    first_planar_edge_deletion, is_nc_rows, is_ne_rows

from conftest import RELABEL_SEEDS, random_graph, relabeled


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
    return minimality._pivot_walk(rows, step, scan, label)


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


def test_agrees_with_reference_on_relabeled_catalog():
    """The verdicts are isomorphism invariants, so the reference runs
    once per graph; the orbits of root edges, and so the chains the
    walk runs, depend on the labels."""
    for e in all_entries():
        ne, nc = reference_is_mmne(e.graph), reference_is_mmnc(e.graph)
        for seed in RELABEL_SEEDS:
            g = relabeled(e.graph, seed)
            assert is_mmne(g) == ne, (e.id, seed)
            assert is_mmnc(g) == nc, (e.id, seed)


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
# the stop rule
# ---------------------------------------------------------------------------

def seen_set_walk(rows: Rows, step, scan, label: str) -> bool:
    """The pivot walk as it was before the stop rule, which stopped a
    chain only at a planar member or at labeled rows met before in the
    decision; verbatim but for the member cap, which is the module's
    constant."""
    seen: set[Rows] = set()
    members = 1  # the root
    for u, v in edges_from_rows(rows):
        cur = step(rows, u, v)
        while cur not in seen:
            seen.add(cur)
            if is_planar_rows(cur):
                break
            members += 1
            if members > SIEVE_MEMBER_CAP:
                raise ResourceLimitError(
                    f"{label} sieve exceeded {SIEVE_MEMBER_CAP} members"
                )
            hit = scan(cur)
            if hit is None:
                return True
            cur = step(cur, *hit)
    return False


def test_stops_are_sound(reps_by_order, reps7):
    """Wherever a chain stops short of a planar member, the reference
    walk finds no NE (NC) graph in the closure of the member it would
    have stepped to, that member included."""
    pools = list(reps_by_order.values()) + [reps7]
    graphs = [g for reps in pools for g in reps if not is_planar(g)]
    memo: dict = {}
    stops = dict.fromkeys(WALKS, 0)
    for g in graphs:
        for label, (step, _, scan) in WALKS.items():
            scanned = []
            minimality._pivot_walk(g.rows(), step, lambda h, scan=scan:
                                   scanned.append((h, scan(h)))
                                   or scanned[-1][1], label)
            taken = {h for h, _ in scanned[1:]}
            for h, hit in scanned:
                if hit is None:
                    continue
                nxt = step(h, *hit)
                if nxt in taken or is_planar_rows(nxt):
                    continue
                stops[label] += 1
                assert not _closure_has(nxt, label, memo), (g, label, h, hit)
    assert min(stops.values()) > 0, stops


def _subdivisions(g: Graph) -> list[Graph]:
    rows = g.rows()
    return [Graph.from_rows(rows_subdivide_edge(rows, *e))
            for e in edges_from_rows(rows)]


def test_walk_verdicts_match_seen_set_walk():
    """Same verdicts as the seen-set walk on every third nonplanar class
    of order 8 and every third one-edge subdivision of a catalog graph
    (all of them take twice the time)."""
    graphs = generate_graphs(EnumFilter(order=8, planarity="nonplanar"))
    graphs = graphs[::3] + [h for e in all_entries()
                            for h in _subdivisions(e.graph)][::3]
    verdicts = set()
    for g in graphs:
        rows = g.rows()
        for label, (step, _, scan) in WALKS.items():
            want = seen_set_walk(rows, step, scan, label)
            assert minimality._pivot_walk(rows, step, scan, label) == want, \
                (g, label)
            verdicts.add((label, want))
    assert verdicts == {(label, v) for label in WALKS for v in (False, True)}


def test_settled_seeds_lack_the_property(monkeypatch, reps7):
    """Every seed that ``is_mmne`` (``is_mmnc``) settles, and so never
    scans, has a planarizing edge deletion (contraction) whose result
    rows an earlier seed's scan found planar, so it is not NE (NC)."""
    scanned = []
    for name in ("first_planar_edge_deletion", "first_planar_contraction"):
        scan = getattr(minimality, name)
        monkeypatch.setattr(minimality, name, lambda rows, scan=scan:
                            scanned.append((rows, scan(rows)))
                            or scanned[-1][1])
    graphs = [e.graph for e in all_entries()]
    graphs += [g for g in reps7 if not is_planar(g)]
    settled = dict.fromkeys(WALKS, 0)
    for g in graphs:
        rows = g.rows()
        edges = edges_from_rows(rows)
        for label, decide, op, prop_rows in (
                ("NE", is_mmne, rows_delete_edge, is_ne_rows),
                ("NC", is_mmnc, rows_contract_edge, is_nc_rows)):
            scanned.clear()
            decide(g)
            seeds = [op(rows, *e) for e in edges]
            # seed scans come first, in edge order; walk members differ
            # from every seed in order
            done = {}  # seed index -> hit
            for h, hit in scanned:
                at = next((i for i in range(max(done, default=-1) + 1,
                                            len(seeds)) if seeds[i] == h),
                          None)
                if at is None:
                    break
                done[at] = hit
            if not done:
                continue  # decided before the seeds
            planar = {SCAN_OPS[label](seeds[i], *hit)
                      for i, hit in done.items() if hit is not None}
            last = max(done)
            for i in range(last if done[last] is None else len(seeds)):
                if i not in done:
                    settled[label] += 1
                    assert any(SCAN_OPS[label](seeds[i], *f) in planar
                               for f in edges_from_rows(seeds[i])), \
                        (g, label, edges[i])
                    assert not prop_rows(seeds[i]), (g, label, edges[i])
    assert min(settled.values()) > 0, settled


# ---------------------------------------------------------------------------
# the member cap
# ---------------------------------------------------------------------------

def test_member_cap_matches_reference_count(monkeypatch):
    """K3,4 is minor-minimal NC.  Its twelve edges are one automorphism
    orbit, so its pivot walk runs one chain: the root and one nonplanar
    one-edge deletion, whose next step is planar: 2 members."""
    g = next(e.graph for e in mm_catalog("NC") if e.graph.order == 7)
    assert (g.order, g.size) == (7, 12)
    monkeypatch.setattr(minimality, "SIEVE_MEMBER_CAP", 2)
    assert is_mmnc(g)
    monkeypatch.setattr(minimality, "SIEVE_MEMBER_CAP", 1)
    with pytest.raises(ResourceLimitError, match="NC sieve exceeded 1 "):
        is_mmnc(g)
