"""Catalog entries and graph constructions are frozen, label for label.

The catalog's ids, graphs, claims and construction notes, and the exact
labeled output of every graph-building operation, were recorded once as
digests.  A change to how graphs are stored or assembled (unions,
relabeling, triangle-star moves, family recipes) must reproduce them.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from minorsieve import all_entries, disjoint_union, emit_graph6, \
    one_vertex_union, star_to_triangle, triangle_to_star, triangles, \
    two_vertex_union

from conftest import random_graph

GOLDEN = {
    "catalog_entries": "df88ca2cd796a9eb48ed16c9798581422b6c1cb01f73f89979a52bb8a295ec7c",
    "constructions": "e29d558caaf3916e3f950fba8718eb93e1af98d0630cbb164a9a63110e353bb2",
}


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _catalog_entries():
    for e in all_entries():
        claims = ",".join(sorted(e.claims))
        yield f"{e.id}|{emit_graph6(e.graph)}|{claims}|{e.construction}"


def _constructions():
    rng = random.Random(20261018)

    def out(name, g):
        return f"{name}|{g.order}|{g.sorted_edges()}"

    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8))
        h = random_graph(rng, rng.randint(2, 6))
        a, b = rng.sample(range(g.order), 2)
        c, d = rng.sample(range(h.order), 2)
        yield out("disjoint", disjoint_union(g, h))
        yield out("one", one_vertex_union(g, a, h, c))
        yield out("two", two_vertex_union(g, (a, b), h, (c, d)))
        perm = list(range(g.order))
        rng.shuffle(perm)
        yield out("relabel", g.relabel(perm))
        yield out("relabel-dict", g.relabel(dict(enumerate(perm))))
        keep = rng.sample(range(g.order), rng.randint(0, g.order))
        yield out("induced", g.induced_subgraph(keep))
        for t in triangles(g):
            yield out(f"ty{t}", triangle_to_star(g, t))
        for v in range(g.order):
            if g.degree(v) == 3:
                yield out(f"yt{v}", star_to_triangle(g, v))


@pytest.mark.parametrize("name,source", [
    ("catalog_entries", _catalog_entries),
    ("constructions", _constructions),
])
def test_outputs_are_frozen(name, source):
    assert _digest(source()) == GOLDEN[name]
