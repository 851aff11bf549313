"""Minimality deciders against the exhaustive minor-closure oracle."""

from __future__ import annotations

import random

import pytest

from minorsieve import minimality
from minorsieve import Graph, Property, ResourceLimitError, UPWARD_CLOSED, \
    all_entries, build_named, check, disjoint_union, is_minor_minimal, \
    is_minor_minimal_exhaustive, is_minor_minimal_upclosed, is_mmnc, \
    is_mmne, is_planar
from minorsieve.canon import _subset_image, canonical_key, \
    canonical_key_rows
from minorsieve.graphs import Rows, rows_size
from minorsieve.minimality import one_step_minor_rows

from conftest import RELABEL_SEEDS, random_graph, relabeled

K5 = Graph.complete(5)
K33 = Graph.complete_bipartite(3, 3)


def test_one_step_minors_of_k5():
    minors = one_step_minor_rows(K5.rows())
    got = {(len(r), rows_size(r)) for r in minors}
    # deletions and the contraction collapse to two classes: K4 and K5-e
    assert got == {(4, 6), (5, 9)}
    assert len(minors) == 2


def test_one_step_minors_contains_all_three_operations():
    g = Graph.path(4)
    kinds = {(len(r), rows_size(r)) for r in one_step_minor_rows(g.rows())}
    # vertex deletion of an end (3,2), of a middle (3,1),
    # edge deletion (4,2), contraction (3,2)
    assert (3, 2) in kinds and (3, 1) in kinds and (4, 2) in kinds


def test_upclosed_requires_upward_closed_property():
    with pytest.raises(ValueError):
        is_minor_minimal_upclosed(K5, Property.NE)


def test_upclosed_stops_at_the_first_minor_with_the_property(monkeypatch):
    """K7 - v = K6 is NA, and vertex deletion is the first orbit minor,
    so the decider builds no later minor."""
    orbit_minors = minimality._orbit_minors
    built = []

    def counting(rows):
        for m in orbit_minors(rows):
            built.append(m)
            yield m

    monkeypatch.setattr(minimality, "_orbit_minors", counting)
    k7 = Graph.complete(7)
    assert not is_minor_minimal_upclosed(k7, Property.NA)
    assert len(built) == 1 < len(list(orbit_minors(k7.rows())))
    k6 = Graph.complete(6)
    built.clear()
    assert is_minor_minimal_upclosed(k6, Property.NA)  # every minor built
    assert len(built) == len(list(orbit_minors(k6.rows())))


def reference_upclosed(g: Graph, prop: Property, minors: list[Rows]) -> bool:
    """The one-step decider over canonical representatives, as it stood
    before it checked labeled minors; ``minors`` is
    one_step_minor_rows(g.rows())."""
    if not check(g, prop):
        return False
    return not any(check(Graph.from_rows(m), prop) for m in minors)


def test_upclosed_matches_canonical_reference(reps_by_order, reps7):
    graphs = [g for reps in reps_by_order.values() for g in reps] + reps7
    graphs += [entry.graph for entry in all_entries()]
    hits = dict.fromkeys(UPWARD_CLOSED, 0)
    for g in graphs:
        # all four properties imply nonplanarity, so a planar g needs
        # no minors: the reference rejects it by its own check
        minors = one_step_minor_rows(g.rows()) if not is_planar(g) else []
        for prop in UPWARD_CLOSED:
            got = is_minor_minimal_upclosed(g, prop)
            assert got == reference_upclosed(g, prop, minors), \
                (prop, g.sorted_edges())
            hits[prop] += got
    assert min(hits.values()) > 0


def test_upclosed_matches_canonical_reference_on_relabeled_catalog():
    """The verdicts are isomorphism invariants; the edge orbits the
    decider finds depend on the labels."""
    hits = dict.fromkeys(UPWARD_CLOSED, 0)
    for entry in all_entries():
        g = entry.graph
        minors = one_step_minor_rows(g.rows()) if not is_planar(g) else []
        for prop in UPWARD_CLOSED:
            want = reference_upclosed(g, prop, minors)
            for seed in RELABEL_SEEDS:
                assert is_minor_minimal_upclosed(relabeled(g, seed), prop) \
                    == want, (entry.id, prop, seed)
            hits[prop] += want
    assert min(hits.values()) > 0


def test_decider_group_is_automorphisms(reps_by_order, reps7):
    """Every generator of ``_automorphisms`` maps the graph onto itself,
    on every class through order 7 and on relabeled catalog graphs; some
    come from the canonical search, not only the twin swaps."""
    graphs = [g for reps in reps_by_order.values() for g in reps] + reps7
    graphs += [relabeled(e.graph, seed) for e in all_entries()
               for seed in RELABEL_SEEDS]
    searched = 0
    for g in graphs:
        rows = g.rows()
        for perm in minimality._automorphisms(rows):
            assert sorted(perm) == list(range(g.order)), (rows, perm)
            assert all(_subset_image(rows[v], perm) == rows[perm[v]]
                       for v in range(g.order)), (rows, perm)
            searched += sum(perm[v] != v for v in range(g.order)) > 2
    assert searched > 0


def test_kuratowski_graphs_minimal_for_nonplanarity_proxies():
    # K5 and K3,3 are the minimal nonplanar graphs; IA/IE/IC minimality
    # of the catalog unions reflects that
    assert is_minor_minimal_upclosed(disjoint_union(Graph(1), K5),
                                     Property.IA)
    assert is_minor_minimal_upclosed(disjoint_union(Graph(1), K33),
                                     Property.IA)
    assert not is_minor_minimal_upclosed(disjoint_union(Graph(2), K5),
                                         Property.IA)


def test_mmne_anchors():
    assert is_mmne(build_named("K6-e"))
    assert is_mmne(build_named("K43"))
    assert is_mmne(build_named("rooks9"))
    assert not is_mmne(K5)           # not NE at all
    assert not is_mmne(Graph.complete(6))   # NE but K6-e below it is NE
    assert not is_mmne(Graph.complete(7))
    assert not is_mmne(Graph.cycle(5))      # planar
    assert not is_mmne(K33)


def test_mmnc_anchors():
    assert is_mmnc(Graph.complete(6))
    assert is_mmnc(build_named("K43"))
    assert not is_mmnc(build_named("K6-e"))  # some contraction planarizes
    assert not is_mmnc(K5)
    assert not is_mmnc(Graph.complete(7))
    assert not is_mmnc(Graph.path(3))


def test_isolated_vertex_never_minimal():
    # dropping the isolated vertex is a proper minor with the property
    for base in (build_named("K6-e"), Graph.complete(6)):
        g = disjoint_union(base, Graph(1))
        assert not is_mmne(g)
        assert not is_mmnc(g)
        assert not is_minor_minimal_upclosed(g, Property.IE)


def test_sieves_match_exhaustive_on_small_orders(reps_by_order):
    for reps in reps_by_order.values():
        for g in reps:
            if is_planar(g):
                # all six nonplanar-side properties are false: quick skip
                # after confirming the deciders agree on one
                assert not is_mmne(g)
                continue
            assert is_mmne(g) == is_minor_minimal_exhaustive(g, Property.NE)
            assert is_mmnc(g) == is_minor_minimal_exhaustive(g, Property.NC)
            assert is_minor_minimal_upclosed(g, Property.NA) == \
                is_minor_minimal_exhaustive(g, Property.NA)
            assert is_minor_minimal_upclosed(g, Property.IE) == \
                is_minor_minimal_exhaustive(g, Property.IE)


def test_sieves_match_exhaustive_on_random_order_7():
    rng = random.Random(20260817)
    agreements = 0
    for _ in range(1000):
        g = random_graph(rng, 7)
        assert is_mmne(g) == is_minor_minimal_exhaustive(g, Property.NE)
        assert is_mmnc(g) == is_minor_minimal_exhaustive(g, Property.NC)
        agreements += 1
    assert agreements == 1000


def unpruned_is_minor_minimal(g: Graph, prop: Property) -> bool:
    """The exhaustive walk with no pruning: every proper minor, one per
    isomorphism class, is tested."""
    if not check(g, prop):
        return False
    visited = {canonical_key(g)}
    frontier = [g.rows()]
    while frontier:
        grown = []
        for cur in frontier:
            for child in one_step_minor_rows(cur):
                key = canonical_key_rows(child)
                if key not in visited:
                    visited.add(key)
                    if check(Graph.from_rows(child), prop):
                        return False
                    grown.append(child)
        frontier = grown
    return True


def test_an_can_pruning_matches_unpruned_walk(reps_by_order):
    """Skipping members with fewer than eight edges changes no AN or CAN
    verdict."""
    graphs = [g for reps in reps_by_order.values() for g in reps
              if is_planar(g)] + [build_named("K5-e"), build_named("K33-e")]
    verdicts = set()
    for g in graphs:
        for prop in (Property.AN, Property.CAN):
            want = unpruned_is_minor_minimal(g, prop)
            assert is_minor_minimal_exhaustive(g, prop) == want, (g, prop)
            verdicts.add((prop, want))
    assert len(verdicts) == 4


def test_dispatcher_routes_every_property():
    assert is_minor_minimal(build_named("K5-e"), Property.AN)
    assert is_minor_minimal(build_named("K5-e"), Property.CAN)
    assert not is_minor_minimal(build_named("K33-e"), Property.CAN)
    assert is_minor_minimal(Graph.complete(6), Property.NA)
    assert is_minor_minimal(build_named("K6-e"), Property.NE)
    assert is_minor_minimal(Graph.complete(6), Property.NC)
    assert is_minor_minimal(build_named("K33+e"), Property.IE)
    assert is_minor_minimal(build_named("barK33"), Property.IC)
    assert not is_minor_minimal(Graph.complete(7), Property.NA)


def test_exhaustive_order_cap():
    with pytest.raises(ResourceLimitError):
        is_minor_minimal_exhaustive(Graph.complete(11), Property.NE)
