"""Triangle-star exchange moves and closure exploration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from minorsieve import Graph, Property, build_named, canonical_key, check, \
    explore_family, is_mmne, mm_catalog, star_to_triangle, \
    triangle_to_star, triangles
from minorsieve.catalog import entry
from minorsieve.errors import ResourceLimitError


def test_triangles_of_known_graphs():
    assert triangles(Graph.complete_bipartite(3, 3)) == []
    assert len(triangles(Graph.complete(4))) == 4
    assert len(triangles(Graph.complete(5))) == 10
    assert triangles(Graph.cycle(3)) == [(0, 1, 2)]


def test_triangle_to_star_shape():
    g = Graph.complete(4)
    h = triangle_to_star(g, (0, 1, 2))
    assert (h.order, h.size) == (5, 6)
    assert set(h.neighbors(4)) == {0, 1, 2}
    assert not h.has_edge(0, 1)
    assert h.has_edge(0, 3)  # untouched edges survive


def test_triangle_to_star_rejects_non_triangles():
    g = Graph.complete_bipartite(3, 3)
    with pytest.raises(ValueError):
        triangle_to_star(g, (0, 1, 3))
    with pytest.raises(ValueError):
        triangle_to_star(g, (0, 0, 3))
    with pytest.raises(ValueError):
        triangle_to_star(Graph.complete(4), (0, 1, 9))


def test_star_to_triangle_shape():
    # K4 with one corner split: undo it
    g = triangle_to_star(Graph.complete(4), (0, 1, 2))
    back = star_to_triangle(g, 4)
    assert canonical_key(back) == canonical_key(Graph.complete(4))


def test_star_to_triangle_requires_degree_3():
    with pytest.raises(ValueError):
        star_to_triangle(Graph.complete(5), 0)  # degree 4
    with pytest.raises(ValueError):
        star_to_triangle(Graph.path(3), 1)      # degree 2
    with pytest.raises(ValueError):
        star_to_triangle(Graph.path(3), 7)


def test_star_to_triangle_merges_existing_edges():
    # neighbors of the split vertex already pairwise adjacent: K4 on
    # {0,1,2,3} plus vertex 4 joined to {0,1,2}
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    g = Graph(5, k4 + [(0, 4), (1, 4), (2, 4)])
    h = star_to_triangle(g, 4)
    assert canonical_key(h) == canonical_key(Graph.complete(4))


@given(st.integers(0, 9))
@settings(max_examples=30, deadline=None)
def test_round_trip_on_k33_free_hosts(seed):
    # ty then yt at the new vertex is the identity whenever the triangle
    # was a real triangle: the corners are nonadjacent afterwards
    import random
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.6]
    g = Graph(n, edges)
    ts = triangles(g)
    if not ts:
        return
    t = ts[rng.randrange(len(ts))]
    h = triangle_to_star(g, t)
    assert (h.order, h.size) == (g.order + 1, g.size)
    back = star_to_triangle(h, h.order - 1)
    assert canonical_key(back) == canonical_key(g)


def test_explore_family_validation():
    k6e = build_named("K6-e")
    with pytest.raises(ValueError):
        explore_family([k6e], Property.NA, depth=1)
    with pytest.raises(ValueError):
        explore_family([k6e], Property.NE, depth=0)
    with pytest.raises(ValueError):
        explore_family([k6e], Property.NE, depth=1, moves=("zz",))
    with pytest.raises(ValueError):
        explore_family([k6e], Property.NE, depth=1, moves=())


def test_explore_family_empty_seed_list():
    report = explore_family([], "NE", depth=2)
    assert report.scanned == 0
    assert report.found == ()


def test_explore_family_deduplicates_seeds():
    g = build_named("K6-e")
    report = explore_family([g, g.relabel({i: 5 - i for i in range(6)})],
                            "NE", depth=1)
    distinct = {canonical_key(h) for h in report.found}
    assert len(report.found) == len(distinct)


def test_explore_family_independent_of_jobs():
    seeds = [build_named("K6-e"), entry("K5-e:K5-e").graph]
    serial = explore_family(seeds, "NE", depth=1, jobs=1)
    pooled = explore_family(seeds, "NE", depth=1, jobs=2)
    assert serial.scanned == pooled.scanned > 2
    assert serial.found == pooled.found


def test_explore_family_member_cap(monkeypatch):
    monkeypatch.setattr("minorsieve.moves.SIEVE_MEMBER_CAP", 2)
    with pytest.raises(ResourceLimitError, match="move closure"):
        explore_family([build_named("K6-e")], "NE", depth=3)


def test_glued_seeds_are_closed_at_depth_1():
    seeds = [entry(i).graph for i in
             ("K5-e:K5-e", "K5-e:K33-e", "K33-e:K33-e",
              "K5-e:K33", "K33-e:K33", "K33:K33")]
    report = explore_family(seeds, "NE", depth=1)
    seed_keys = {canonical_key(g) for g in seeds}
    found_keys = {canonical_key(g) for g in report.found}
    assert found_keys == seed_keys  # neighbors scanned, none minimal
    assert report.scanned > len(seeds)
    assert all(is_mmne(g) for g in report.found)


def test_ty_image_of_glued_host_is_an_embedded_member():
    # splitting one triangle of the smallest glued host lands on a
    # 9-vertex graph that the sieve keeps and the embedded list contains
    g = entry("K5-e:K5-e").graph
    report = explore_family([g], "NE", depth=1, moves=("ty",))
    nine = [h for h in report.found if h.order == 9]
    assert nine
    a1_keys = {canonical_key(e.graph) for e in mm_catalog(Property.NE)}
    assert all(canonical_key(h) in a1_keys for h in nine)
