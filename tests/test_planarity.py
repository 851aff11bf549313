"""Planarity decisions against independent oracles.

The left-right test is cross-checked against the published planarity
check in networkx on random and exhaustive pools, against the
Kuratowski-minor oracle (planar iff neither a K5 nor a K3,3 minor),
which shares no code with the left-right test, and against the kernel
as it stood before the peel and the subgraph certificates.  Both
references live in ``reference_planarity``, outside the package.  The
oracle and ``is_planar_rows`` share the K3,3 subgraph certificate; it
and the oracle's K5 test are checked against networkx subgraph
monomorphism, and the rule that decides small cores by the K3,3 test
alone is checked on every labeled core it covers.  Each mask
``nonplanar_witness`` returns is checked to be a K3,3 subdivision
inside its graph that networkx finds nonplanar.
"""

from __future__ import annotations

from functools import lru_cache
import random

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher
import pytest
from hypothesis import given, settings, strategies as st

import minorsieve
from minorsieve import Graph, is_planar
from minorsieve.canon import relabel_rows
from minorsieve.generate import universe_level
from minorsieve.graphs import Rows, bits, edges_from_rows, rows_add_edge, \
    rows_delete_edge, rows_subdivide_edge
from minorsieve.planarity import _contracted_k33, _has_k33_subgraph, \
    _lr_memo, _lr_planar, _peel, is_planar_rows, nonplanar_witness

import reference_planarity
from reference_planarity import _has_clique5, has_minor
from conftest import random_graph, to_networkx

K5 = Graph.complete(5)
K33 = Graph.complete_bipartite(3, 3)


def nx_planar(g: Graph) -> bool:
    return nx.check_planarity(to_networkx(g), counterexample=False)[0]


def test_known_planar():
    for g in (Graph(1), Graph.complete(4), Graph.cycle(8), Graph.path(6),
              K5.delete_edge(0, 1), K33.delete_edge(0, 3),
              Graph.complete_bipartite(2, 7)):
        assert is_planar(g)


def test_known_nonplanar():
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)])
    for g in (K5, K33, Graph.complete(6), Graph.complete_bipartite(4, 3),
              petersen):
        assert not is_planar(g)


def test_subdivisions_stay_nonplanar():
    g = K5
    for _ in range(4):
        u, v = g.sorted_edges()[0]
        g = g.subdivide_edge(u, v)
        assert not is_planar(g)


def test_exhaustive_agreement_with_networkx(reps_by_order):
    for n, reps in reps_by_order.items():
        for g in reps:
            assert is_planar(g) == nx_planar(g), (n, g.sorted_edges())


def test_exhaustive_agreement_with_minor_oracle(reps_by_order, reps7):
    pools = list(reps_by_order.values()) + [reps7]
    for reps in pools:
        for g in reps:
            by_minors = not has_minor(g, K5) and not has_minor(g, K33)
            assert is_planar(g) == by_minors, g.sorted_edges()


def test_nonplanar_class_counts(reps_by_order, reps7):
    # complements of the planar-graph counts 33, 142, 822 at orders 5-7
    assert sum(not is_planar(g) for g in reps_by_order[5]) == 1
    assert sum(not is_planar(g) for g in reps_by_order[6]) == 14
    assert sum(not is_planar(g) for g in reps7) == 222


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_random_agreement_with_networkx(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    seed = data.draw(st.integers(min_value=0, max_value=10**9))
    g = random_graph(random.Random(seed), n)
    assert is_planar(g) == nx_planar(g)


def _nx_planar_rows(rows: Rows) -> bool:
    return nx_planar(Graph.from_rows(rows))


def test_order_8_agreement_with_networkx():
    level = universe_level(8)
    assert len(level) == 12346
    for rows in level:
        assert is_planar_rows(rows) == _nx_planar_rows(rows), rows


def _add_vertex(rows: Rows, nbrs) -> Rows:
    n = len(rows)
    out = list(rows)
    mask = 0
    for u in nbrs:
        out[u] |= 1 << n
        mask |= 1 << u
    out.append(mask)
    return tuple(out)


def _peel_graph(rng: random.Random) -> Rows:
    """A graph of order 9-16 that the peel reduces: a Kuratowski graph,
    a near-Kuratowski graph or a random core, grown by subdivisions,
    pendant trees, two-paths beside existing edges (their suppression
    makes a parallel edge) and hanging or free cycles (which peel away
    completely), with a stray edge now and then; randomly relabeled."""
    core = rng.choice([K5, K33, K5.delete_edge(0, 1), K33.delete_edge(0, 3),
                       random_graph(rng, rng.randint(4, 7))])
    rows = core.rows()
    target = rng.randint(9, 16)
    while len(rows) < target:
        n = len(rows)
        edges = edges_from_rows(rows)
        move = rng.randrange(6)
        if move == 0 and edges:
            rows = rows_subdivide_edge(rows, *rng.choice(edges))
        elif move == 1:
            rows = _add_vertex(rows, [rng.randrange(n)])
        elif move == 2 and edges:
            rows = _add_vertex(rows, rng.choice(edges))
        elif move == 3 and target - n >= 3:
            # a cycle through the new vertices, hanging at one old vertex
            # or free
            k = rng.randint(3, target - n)
            rows = _add_vertex(rows, [rng.randrange(n)] if rng.random() < 0.5
                               else [])
            for i in range(1, k):
                rows = _add_vertex(rows, [n + i - 1])
            rows = rows_add_edge(rows, n, n + k - 1)
        elif move == 4:
            u, v = rng.sample(range(n), 2)
            rows = rows_add_edge(rows, u, v)
        elif move == 5 and edges and target - n >= 2:
            # a degree-two chain beside an existing edge
            u, v = rng.choice(edges)
            rows = _add_vertex(rows, [u])
            rows = _add_vertex(rows, [n, v])
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return relabel_rows(rows, tuple(perm))


def test_peeled_graphs_against_networkx_and_reference():
    rng = random.Random(8)
    outcomes = {True: 0, False: 0}
    for _ in range(2400):
        rows = _peel_graph(rng)
        assert 9 <= len(rows) <= 16
        want = _nx_planar_rows(rows)
        assert is_planar_rows(rows) == want, rows
        assert reference_planarity.is_planar_rows(rows) == want, rows
        outcomes[want] += 1
    assert min(outcomes.values()) > 400


def test_lean_kernel_against_reference_kernel(reps7):
    """The left-right test on its own, no peel or certificate in front."""
    rng = random.Random(11)
    pool = [g.rows() for g in reps7]
    pool += [random_graph(rng, rng.randint(8, 14), rng.uniform(0.15, 0.5))
             .rows() for _ in range(1500)]
    pool += [_peel_graph(rng) for _ in range(500)]
    for rows in pool:
        m = sum(r.bit_count() for r in rows) // 2
        if m:
            assert _lr_planar(len(rows), rows, m) == \
                reference_planarity._lr_planar(len(rows), rows, m), rows


def test_subgraph_certificates_against_networkx(reps_by_order, reps7):
    k5 = to_networkx(K5)
    k33 = to_networkx(K33)
    hits = {"K5": 0, "K33": 0}
    for reps in list(reps_by_order.values()) + [reps7]:
        for g in reps:
            h = to_networkx(g)
            rows = g.rows()
            want5 = GraphMatcher(h, k5).subgraph_is_monomorphic()
            want33 = GraphMatcher(h, k33).subgraph_is_monomorphic()
            assert _has_clique5(rows) == want5, g.sorted_edges()
            assert bool(_has_k33_subgraph(rows)) == want33, g.sorted_edges()
            hits["K5"] += want5
            hits["K33"] += want33
    assert min(hits.values()) > 10


def _labeled_cores(n: int):
    """Every labeled graph of order n with minimum degree at least 3 and
    9 <= m <= 3n - 6 edges: what reaches the certificate at order n."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        if not 9 <= mask.bit_count() <= 3 * n - 6:
            continue
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        if min(r.bit_count() for r in rows) >= 3:
            yield tuple(rows)


def test_small_cores_are_decided_by_the_k33_certificate():
    """The lemma of the planarity module docstring: a core of at most six
    vertices is planar iff it has no K3,3 subgraph."""
    cores = [rows for n in (5, 6) for rows in _labeled_cores(n)]
    assert len(cores) == 1747
    nonplanar = 0
    for rows in cores:
        want = _nx_planar_rows(rows)
        assert want == (not _has_k33_subgraph(rows)), rows
        assert is_planar_rows(rows) == want, rows
        nonplanar += not want
    assert nonplanar > 0


def _assert_k33_subdivision(rows: Rows, mask: int) -> None:
    """``mask`` (bit u*n + v, u < v) is a K3,3 subdivision in ``rows``."""
    n = len(rows)
    assert all(u < v and rows[u] >> v & 1
               for u, v in (divmod(i, n) for i in bits(mask))), (rows, mask)
    assert _is_k33_subdivision(n, mask), (rows, mask)


@lru_cache(maxsize=None)
def _is_k33_subdivision(n: int, mask: int) -> bool:
    """Six vertices of degree three, the rest of degree two, and nonplanar
    by networkx; edge masks repeat a lot, so each is checked once."""
    h = nx.Graph(divmod(i, n) for i in bits(mask))
    return sorted(d for _, d in h.degree) == [2] * (len(h) - 6) + [3] * 6 \
        and not nx.check_planarity(h)[0]


def _check_witness(rows: Rows) -> int | None:
    witness = nonplanar_witness(rows)
    assert (witness is None) == is_planar_rows(rows), rows
    if witness:
        _assert_k33_subdivision(rows, witness)
    return witness


def _core(rows: Rows) -> Rows:
    degrees = [r.bit_count() for r in rows]
    return _peel(rows, degrees, None)[0] if min(degrees) <= 2 else rows


def test_witnesses_on_edge_deletions_of_orders_5_to_8():
    """Every edge deletion of every class of orders 5-8; the cores that
    only the contraction certificate settles are checked on their own."""
    outcomes = {"planar": 0, "no witness": 0, "witness": 0}
    contraction_only = set()
    for n in range(5, 9):
        for rows in universe_level(n):
            for u, v in edges_from_rows(rows):
                minor = rows_delete_edge(rows, u, v)
                witness = _check_witness(minor)
                outcomes["planar" if witness is None else
                         "witness" if witness else "no witness"] += 1
                core = _core(minor)
                if witness and len(core) >= 7 \
                        and not _has_k33_subgraph(core):
                    contraction_only.add(core)
    assert outcomes == {"planar": 117702, "no witness": 22246,
                        "witness": 45198}
    assert len(contraction_only) == 8391
    for core in contraction_only:
        assert _contracted_k33(core) is not None, core
        assert _check_witness(core), core


def test_witnesses_on_peeled_graphs():
    rng = random.Random(17)
    witnesses = 0
    for _ in range(1200):
        witnesses += bool(_check_witness(_peel_graph(rng)))
    assert witnesses > 300


def test_lr_memo_is_bounded():
    assert _lr_memo.cache_info().maxsize == 1024
    _lr_memo.cache_clear()
    minorsieve.search_minor_minimal(minorsieve.Property.NC, [8])
    info = _lr_memo.cache_info()
    assert info.misses > 1024 and info.hits > 0
    assert info.currsize == 1024


def test_minor_oracle_target_validation():
    with pytest.raises(ValueError):
        has_minor(K5, Graph.complete(4))
