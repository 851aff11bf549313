"""Graph core: constructors, single-step operations, connectivity."""

from __future__ import annotations

import random

import pytest

from minorsieve import Graph, disjoint_union, one_vertex_union, \
    two_vertex_union
from minorsieve.graphs import bits, edges_from_rows, rows_component_masks, \
    rows_non_edges, rows_twin_firsts

from conftest import random_graph, rows_from_edges


def test_complete_graph_counts():
    for n in range(1, 8):
        g = Graph.complete(n)
        assert g.order == n
        assert g.size == n * (n - 1) // 2
        assert g.is_complete()


def test_complete_bipartite_counts():
    g = Graph.complete_bipartite(3, 3)
    assert (g.order, g.size) == (6, 9)
    assert not g.has_edge(0, 1) and not g.has_edge(3, 4)
    assert g.has_edge(0, 3)
    assert Graph.complete_bipartite(4, 3).size == 12


def test_cycle_and_path():
    c5 = Graph.cycle(5)
    assert (c5.order, c5.size) == (5, 5)
    assert all(c5.degree(v) == 2 for v in range(5))
    p4 = Graph.path(4)
    assert (p4.order, p4.size) == (4, 3)
    assert sorted(p4.degrees()) == [1, 1, 2, 2]


def test_edges_normalized_and_deduplicated():
    g = Graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.size == 2
    assert g.sorted_edges() == [(0, 2), (1, 2)]


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_add_delete_edge_roundtrip():
    g = Graph.complete(4)
    h = g.delete_edge(0, 1)
    assert h.size == 5 and not h.has_edge(0, 1)
    assert h.add_edge(0, 1).edges == g.edges
    with pytest.raises(ValueError):
        g.add_edge(0, 1)  # already present
    with pytest.raises(ValueError):
        h.delete_edge(0, 1)  # already absent


def test_delete_vertex_relabels_downward():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h = g.delete_vertex(1)
    assert h.order == 3
    # old vertices 2,3 become 1,2; the (2,3) edge survives as (1,2)
    assert h.sorted_edges() == [(1, 2)]


def test_contract_edge_merges_and_simplifies():
    # contracting a triangle edge must not create a multi-edge
    g = Graph.complete(3)
    h = g.contract_edge(0, 1)
    assert (h.order, h.size) == (2, 1)
    k5 = Graph.complete(5)
    assert k5.contract_edge(0, 1).is_complete()


def test_contract_requires_edge():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1)]).contract_edge(0, 2)


def test_subdivide_edge():
    g = Graph.complete(4)
    h = g.subdivide_edge(0, 1)
    assert (h.order, h.size) == (5, 7)
    assert not h.has_edge(0, 1)
    assert h.has_edge(0, 4) and h.has_edge(1, 4)
    assert h.degree(4) == 2


def test_neighbors_and_degrees():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert set(g.neighbors(0)) == {1, 2, 3}
    assert g.degree(0) == 3 and g.degree(1) == 1
    assert g.min_degree() == 1 and max(g.degrees()) == 3


def test_non_edges_complement():
    g = Graph(4, [(0, 1)])
    assert len(rows_non_edges(g.rows())) == 5
    assert rows_non_edges(Graph.complete(4).rows()) == []


def test_components_and_connectivity():
    g = disjoint_union(Graph.complete(3), Graph.complete(2))
    assert not g.is_connected()
    assert [c.bit_count() for c in rows_component_masks(g.rows())] == [3, 2]
    assert g.vertex_connectivity() == 0
    assert Graph.complete(5).vertex_connectivity() == 4
    assert Graph.complete(1).vertex_connectivity() == 0
    assert Graph.path(4).vertex_connectivity() == 1
    assert Graph.cycle(5).vertex_connectivity() == 2
    assert Graph.complete_bipartite(3, 3).vertex_connectivity() == 3


def test_petersen_connectivity():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    petersen = Graph(10, outer + inner + spokes)
    assert petersen.vertex_connectivity() == 3


def test_disjoint_union_counts():
    g = disjoint_union(Graph.complete(5), Graph.complete_bipartite(3, 3))
    assert (g.order, g.size) == (11, 19)


def test_one_vertex_union_counts():
    g = one_vertex_union(Graph.complete(5), 0, Graph.complete(5), 0)
    assert (g.order, g.size) == (9, 20)
    assert g.vertex_connectivity() == 1


def test_two_vertex_union_adds_no_glue_edge():
    a = Graph.complete(5).delete_edge(0, 1)
    g = two_vertex_union(a, (0, 1), a, (0, 1))
    assert (g.order, g.size) == (8, 18)
    # the identified pair stays nonadjacent: neither block had the edge
    shared = [v for v in range(g.order)
              if g.degree(v) == 2 * 3]  # degree 3 in each block
    assert len(shared) == 2
    u, v = shared
    assert not g.has_edge(u, v)


def test_two_vertex_union_keeps_existing_pair_edge():
    # gluing two K5 copies along an edge pair: the shared edge is
    # counted once, 10 + 10 - 1 = 19
    k5 = Graph.complete(5)
    g = two_vertex_union(k5, (0, 1), k5, (0, 1))
    assert (g.order, g.size) == (8, 19)
    assert g.has_edge(0, 1)


def test_induced_subgraph():
    g = Graph.complete(5)
    h = g.induced_subgraph([0, 2, 4])
    assert h.is_complete() and h.order == 3


def test_relabel_is_isomorphism():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h = g.relabel([3, 2, 1, 0])
    assert h.size == g.size
    assert sorted(h.degrees()) == sorted(g.degrees())
    with pytest.raises(ValueError):
        g.relabel([0, 0, 1, 2])


def test_rows_roundtrip():
    g = Graph(5, [(0, 4), (1, 3), (2, 4)])
    rows = rows_from_edges(5, g.sorted_edges())
    assert g.rows() == rows
    assert edges_from_rows(rows) == g.sorted_edges()
    assert Graph.from_rows(rows).edges == g.edges


def test_edge_and_row_constructions_agree():
    rng = random.Random(20261018)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12))
        edges = g.sorted_edges()
        rng.shuffle(edges)
        flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        h = Graph.from_rows(rows_from_edges(g.order, edges))
        assert Graph(g.order, flipped) == h
        assert hash(Graph(g.order, flipped)) == hash(h)
        assert h.edges == frozenset(edges_from_rows(h.rows()))
        assert (h.order, h.size) == (g.order, len(edges))


def test_equality_sees_isolated_vertices():
    assert Graph(3, [(0, 1)]) != Graph(2, [(0, 1)])
    assert Graph(3) != Graph(2)


def test_twin_firsts_are_the_transposition_classes():
    """u and v share a first exactly when swapping them fixes the rows,
    and each class's first is its least member."""
    rng = random.Random(20261021)
    for _ in range(300):
        rows = random_graph(rng, rng.randint(1, 9)).rows()
        first = rows_twin_firsts(rows)
        for v, f in enumerate(first):
            assert f <= v and first[f] == f
        for u in range(len(rows)):
            for v in range(u + 1, len(rows)):
                swap = {u: v, v: u}
                fixed = all(
                    sum(1 << swap.get(x, x) for x in bits(rows[w]))
                    == rows[swap.get(w, w)] for w in range(len(rows)))
                assert (first[u] == first[v]) == fixed, (rows, u, v)
