"""The eight property deciders against naive definitional oracles.

Each oracle below re-states a property definition with plain loops over
networkx's planarity check, sharing no code with the deciders under
test, and the two are compared exhaustively over small orders.
"""

from __future__ import annotations

import networkx as nx
import pytest

from minorsieve import Graph, Property, all_entries, build_named, check, \
    check_with_witness, disjoint_union, find_apex_vertex

from minorsieve import properties
from minorsieve.generate import universe_level
from minorsieve.graphs import Rows, edges_from_rows, rows_delete_edge, \
    rows_non_edges
from minorsieve.planarity import is_planar_rows, nonplanar_witness
from minorsieve.properties import first_planar_contraction, \
    first_planar_edge_deletion, is_na_rows, is_nc_rows, is_ne_rows

from conftest import to_networkx

K5 = Graph.complete(5)
K33 = Graph.complete_bipartite(3, 3)


def nx_planar(g: Graph) -> bool:
    return nx.check_planarity(to_networkx(g), counterexample=False)[0]


def naive_with_witness(g: Graph, prop: Property):
    """(value, deciding object) straight from the definition.

    The deciding object is ``(kind, value)`` for the least witness of a
    true existential or the least counterexample of a false universal,
    scanning vertices ascending and pairs lexicographically; None
    otherwise.
    """
    deletions = [(("vertex", (v,)), g.delete_vertex(v))
                 for v in range(g.order)]
    edge_dels = [(("edge", e), g.delete_edge(*e)) for e in g.sorted_edges()]
    contractions = [(("edge", e), g.contract_edge(*e))
                    for e in g.sorted_edges()]
    additions = [(("vertex-pair", e), g.add_edge(*e))
                 for e in rows_non_edges(g.rows())]

    def exists_nonplanar(results):
        wit = next((w for w, h in results if not nx_planar(h)), None)
        return wit is not None, wit

    def all_nonplanar(results):
        wit = next((w for w, h in results if nx_planar(h)), None)
        return wit is None, wit

    planar = nx_planar(g)
    if prop is Property.AN:
        return exists_nonplanar(additions) if planar else (False, None)
    if prop is Property.CAN:
        if not planar or g.is_complete():
            return False, None
        return all_nonplanar(additions)
    if prop is Property.NA:
        return (False, None) if planar else all_nonplanar(deletions)
    if prop is Property.NE:
        return (False, None) if planar else all_nonplanar(edge_dels)
    if prop is Property.NC:
        return (False, None) if planar else all_nonplanar(contractions)
    if prop is Property.IA:
        return exists_nonplanar(deletions)
    if prop is Property.IE:
        return exists_nonplanar(edge_dels)
    if prop is Property.IC:
        return exists_nonplanar(contractions)
    raise AssertionError(prop)


def naive(g: Graph, prop: Property) -> bool:
    return naive_with_witness(g, prop)[0]


def test_exhaustive_against_naive_oracle(reps_by_order):
    for n, reps in reps_by_order.items():
        for g in reps:
            for prop in Property:
                assert check(g, prop) == naive(g, prop), \
                    (n, prop, g.sorted_edges())
                value, wit = check_with_witness(g, prop)
                got = (value, None if wit is None else (wit.kind, wit.value))
                assert got == naive_with_witness(g, prop), \
                    (n, prop, g.sorted_edges())


# full eight-way profiles, independently derived from the definitions
# with networkx planarity; every property not listed must come out false
@pytest.mark.parametrize("name,true_props", [
    ("K5", []),
    ("K33", []),
    ("K5-e", ["AN", "CAN"]),
    ("K33-e", ["AN"]),
    ("K6", ["IA", "IC", "IE", "NA", "NC", "NE"]),
    ("K6-e", ["IA", "IC", "IE", "NE"]),
    ("K43", ["IA", "IC", "IE", "NC", "NE"]),
    ("K33+e", ["IE"]),
    ("K33+2e", ["IC", "IE"]),
    ("barK5", ["IC"]),
    ("K1|K5", ["IA"]),
    ("K2|K5", ["IA", "IC", "IE"]),
    ("K5|K5", ["IA", "IC", "IE", "NA", "NC", "NE"]),
    ("rooks9", ["IC", "IE", "NC", "NE"]),
])
def test_catalog_anchor_profiles(name, true_props):
    g = build_named(name)
    got = sorted(p.value for p in Property if check(g, p))
    assert got == sorted(true_props), name


def test_k33_single_contraction_planarizes():
    # every contraction of K3,3 yields the planar 4-wheel, so K3,3 has
    # none of the eight properties despite being nonplanar
    for u, v in K33.sorted_edges():
        h = K33.contract_edge(u, v)
        assert (h.order, h.size) == (5, 8)
        assert nx_planar(h)


def test_witnesses_decide_the_instance():
    # AN: the returned pair's addition must be nonplanar
    g = build_named("K5-e")
    value, wit = check_with_witness(g, Property.AN)
    assert value and wit.kind == "vertex-pair"
    u, v = wit.value
    assert not nx_planar(g.add_edge(u, v))

    # CAN false: the returned pair's addition stays planar
    h = build_named("K33-e")
    value, wit = check_with_witness(h, Property.CAN)
    assert not value and wit is not None
    u, v = wit.value
    assert nx_planar(h.add_edge(u, v))

    # NA false on K5: deleting the witness vertex is planar
    value, wit = check_with_witness(K5, Property.NA)
    assert not value and wit.kind == "vertex"
    assert nx_planar(K5.delete_vertex(wit.value[0]))

    # IE true on K6-e: deleting the witness edge stays nonplanar
    k6e = build_named("K6-e")
    value, wit = check_with_witness(k6e, Property.IE)
    assert value and wit.kind == "edge"
    assert not nx_planar(k6e.delete_edge(*wit.value))


def test_apex_finders():
    assert find_apex_vertex(Graph.complete(6)) is None
    v = find_apex_vertex(disjoint_union(Graph(1), K5))
    assert v is not None
    assert first_planar_edge_deletion(build_named("K6-e").rows()) is None
    assert first_planar_edge_deletion(K5.rows()) is not None
    assert first_planar_contraction(K33.rows()) is not None
    assert first_planar_contraction(build_named("K43").rows()) is None


def test_properties_of_trivial_graphs():
    one = Graph(1)
    for prop in Property:
        assert not check(one, prop)
    # planar and complete: K4 is neither AN nor CAN
    assert not check(Graph.complete(4), Property.AN)
    assert not check(Graph.complete(4), Property.CAN)


def test_ne_nc_rows_need_no_base_test(reps_by_order, reps7):
    """``is_ne_rows``/``is_nc_rows`` skip the planarity test of the graph
    itself; they still equal the definition, edgeless graphs included."""
    pools = list(reps_by_order.values()) + [reps7]
    for rows in (g.rows() for reps in pools for g in reps):
        nonplanar = not is_planar_rows(rows)
        assert is_ne_rows(rows) == (
            nonplanar and first_planar_edge_deletion(rows) is None), rows
        assert is_nc_rows(rows) == (
            nonplanar and first_planar_contraction(rows) is None), rows


def test_na_rows_needs_no_base_test(reps_by_order, reps7):
    """``is_na_rows`` skips the planarity test of the graph itself; it
    still equals ``check(g, NA)`` on every class through order 7 and on
    the order-0 graph, which has no vertex to delete."""
    pools = list(reps_by_order.values()) + [reps7, [Graph(0)]]
    for g in (g for reps in pools for g in reps):
        assert is_na_rows(g.rows()) == check(g, Property.NA), g


def reference_planar_edge_deletion(rows: Rows):
    """Least edge whose deletion is planar, testing every edge in order:
    the scan with no witness narrowing."""
    return next((e for e in edges_from_rows(rows)
                 if is_planar_rows(rows_delete_edge(rows, *e))), None)


def test_narrowed_edge_deletion_scan_equals_plain_scan(monkeypatch):
    """Every nonplanar class through order 8, and every catalog graph and
    its single-edge deletions; the witness narrowing must skip edges."""
    pool = [rows for n in range(5, 9) for rows in universe_level(n)
            if not is_planar_rows(rows)]
    for e in all_entries():
        rows = e.graph.rows()
        pool.append(rows)
        pool += [rows_delete_edge(rows, *f) for f in edges_from_rows(rows)]
    tested = []

    def counted(rows: Rows):
        tested.append(rows)
        return nonplanar_witness(rows)

    monkeypatch.setattr(properties, "nonplanar_witness", counted)
    plain = 0
    for rows in pool:
        want = reference_planar_edge_deletion(rows)
        assert first_planar_edge_deletion(rows) == want, rows
        edges = edges_from_rows(rows)
        plain += len(edges) if want is None else edges.index(want) + 1
    assert len(pool) == 7581
    assert plain - len(tested) > plain // 3  # 29,047 of 68,499 skipped
