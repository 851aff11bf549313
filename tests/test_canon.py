"""Canonical labeling against a brute-force permutation oracle."""

from __future__ import annotations

from itertools import combinations, permutations
import random

from hypothesis import given, settings, strategies as st

from minorsieve import EnumFilter, Graph, canonical_graph, canonical_key, \
    generate_graphs, is_isomorphic
from minorsieve.canon import canonical_perm, root_cells

from conftest import random_graph


def brute_min_form(g: Graph) -> frozenset:
    """Lexicographically least edge set over all relabelings."""
    best = None
    for perm in permutations(range(g.order)):
        edges = frozenset(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in g.edges
        )
        key = tuple(sorted(edges))
        if best is None or key < best[0]:
            best = (key, edges)
    return best[1]


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.order != h.order or g.size != h.size:
        return False
    return brute_min_form(g) == brute_min_form(h)


def all_graphs_labeled(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_key_partition_matches_brute_force_order_4():
    # the canonical key must induce exactly the isomorphism partition
    by_key: dict[bytes, Graph] = {}
    for g in all_graphs_labeled(4):
        key = canonical_key(g)
        if key in by_key:
            assert brute_isomorphic(g, by_key[key])
        else:
            for other in by_key.values():
                assert not brute_isomorphic(g, other)
            by_key[key] = g
    assert len(by_key) == 11


def test_class_counts_small_orders():
    # distinct canonical keys over every labeled graph = classes by order
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    for n, want in expected.items():
        keys = {canonical_key(g) for g in all_graphs_labeled(n)}
        assert len(keys) == want, f"order {n}"


def test_class_count_order_6():
    keys = {canonical_key(g) for g in all_graphs_labeled(6)}
    assert len(keys) == 156


def test_canonical_graph_is_isomorphic_relabeling():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        c = canonical_graph(g)
        assert c.order == g.order and c.size == g.size
        assert canonical_key(c) == canonical_key(g)
        assert sorted(c.degrees()) == sorted(g.degrees())
        # canonical form is a fixed point
        assert canonical_graph(c).edges == c.edges


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_key_invariant_under_relabeling(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs
                      else st.just(set()))
    perm = data.draw(st.permutations(range(n)))
    g = Graph(n, edges)
    assert canonical_key(g.relabel(list(perm))) == canonical_key(g)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_is_isomorphic_matches_brute_force(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    pairs = list(combinations(range(n), 2))
    strategy = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
    g = Graph(n, data.draw(strategy))
    h = Graph(n, data.draw(strategy))
    assert is_isomorphic(g, h) == brute_isomorphic(g, h)


def test_isomorphic_across_known_pairs():
    # same degree sequence, different graphs: C6 vs two triangles
    c6 = Graph.cycle(6)
    two_k3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_isomorphic(c6, two_k3)
    assert is_isomorphic(c6, c6.relabel([5, 3, 1, 0, 2, 4]))
    # K3,3 under a part-swapping relabeling
    k33 = Graph.complete_bipartite(3, 3)
    assert is_isomorphic(k33, k33.relabel([3, 4, 5, 0, 1, 2]))


def test_root_cells_are_blocks_of_the_canonical_order():
    """The canonical permutation lists each root cell in one block, the
    cells in order, so the canonically last vertex lies in the last root
    cell (``generate._accept`` rejects on that).  Every class through
    order 7 under a seeded relabeling, and 2,000 seeded random graphs of
    order 8-12."""
    rng = random.Random(13)
    sources = [g.relabel(rng.sample(range(n), n)).rows()
               for n in range(1, 8) for g in generate_graphs(EnumFilter(n))]
    sources += [random_graph(rng, rng.randint(8, 12)).rows()
                for _ in range(2000)]
    for rows in sources:
        cells = root_cells(rows)
        perm = canonical_perm(rows)
        blocks, start = [], 0
        for cell in cells:
            size = cell.bit_count()
            blocks.append(sum(1 << v for v in perm[start:start + size]))
            start += size
        assert blocks == cells, rows
