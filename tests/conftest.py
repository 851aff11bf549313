"""Shared fixtures: small-universe caches and cross-library helpers."""

from __future__ import annotations

import random
from typing import Iterable

import networkx as nx
import pytest

from minorsieve import EnumFilter, Graph, generate, generate_graphs
from minorsieve.canon import relabel_rows
from minorsieve.graphs import Edge, Rows


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.sorted_edges())
    return h


def from_networkx(h: nx.Graph) -> Graph:
    index = {v: i for i, v in enumerate(sorted(h.nodes, key=repr))}
    return Graph(h.number_of_nodes(),
                 [(index[u], index[v]) for u, v in h.edges])


def rows_from_edges(order: int, edges: Iterable[Edge]) -> Rows:
    """Adjacency rows of the graph on 0..order-1 with these edges."""
    rows = [0] * order
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def random_graph(rng: random.Random, order: int,
                 p: float | None = None) -> Graph:
    """Erdos-Renyi draw; edge probability itself random when not given."""
    if p is None:
        p = rng.uniform(0.1, 0.9)
    edges = [(u, v) for u in range(order) for v in range(u + 1, order)
             if rng.random() < p]
    return Graph(order, edges)


#: seeds of the relabelings that the symmetry tests apply to catalog graphs
RELABEL_SEEDS = (1, 2, 3)


def relabeled(g: Graph, seed: int) -> Graph:
    """g with its vertices permuted by a seeded random permutation."""
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    return Graph.from_rows(relabel_rows(g.rows(), tuple(perm)))


@pytest.fixture(scope="session")
def reps_by_order() -> dict[int, list[Graph]]:
    """One representative per isomorphism class, orders 1 through 6."""
    return {
        n: generate_graphs(EnumFilter(order=n))
        for n in range(1, 7)
    }


@pytest.fixture(scope="session")
def reps7() -> list[Graph]:
    """All 1044 isomorphism classes of order 7."""
    return generate_graphs(EnumFilter(order=7))


@pytest.fixture
def built_levels(monkeypatch) -> list:
    """Make building or reading any enumeration level fail loudly; the
    list records each attempt."""
    seen = []

    def recorder(*args, **kwargs):
        seen.append(args)
        raise AssertionError(f"a level was built: {args}")

    monkeypatch.setattr(generate, "_expand_level", recorder)
    monkeypatch.setattr(generate, "universe_level", recorder)
    return seen
