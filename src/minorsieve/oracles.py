"""Oracles that check the fast paths; only the package root imports them.

* ``has_minor`` decides K5 / K3,3 minor containment by an exhaustive
  memoized contraction walk whose base case is a K5 subgraph test
  (``_has_clique5``, here) or the planarity module's K3,3 subgraph
  test.  It never consults the left-right test, so the two can check
  each other (and the tests make them).
* ``find_k_subgraph`` extracts an explicit Kuratowski subdivision from a
  nonplanar graph by greedy edge-minimization, which costs more than the
  boolean test and is kept off the boolean path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .canon import canonical_key_rows
from .graphs import Graph, Rows, bits, rows_contract_edge, rows_delete_edge
from .planarity import _has_k33_subgraph, is_planar, is_planar_rows

__all__ = ["has_minor", "find_k_subgraph", "KSubgraph"]


# ---------------------------------------------------------------------------
# K5 / K3,3 minor oracle (independent of the left-right test)
# ---------------------------------------------------------------------------

def _has_clique5(rows: Rows) -> bool:
    """Five pairwise adjacent vertices, by brute force."""
    cand = [v for v, r in enumerate(rows) if r.bit_count() >= 4]
    return any(all(rows[a] >> b & 1 for a, b in combinations(five, 2))
               for five in combinations(cand, 5))


_K5_MEMO: dict[bytes, bool] = {}
_K33_MEMO: dict[bytes, bool] = {}


def _minor_walk(rows: Rows, memo: dict[bytes, bool], contains, min_order: int,
                min_size: int) -> bool:
    n = len(rows)
    if n < min_order or sum(r.bit_count() for r in rows) // 2 < min_size:
        return False
    if contains(rows):
        return True
    key = canonical_key_rows(rows)
    hit = memo.get(key)
    if hit is not None:
        return hit
    memo[key] = False  # cycle-safe placeholder; contraction strictly shrinks
    for u in range(n):
        r = rows[u] >> (u + 1)
        while r:
            low = r & -r
            v = u + 1 + low.bit_length() - 1
            r ^= low
            if _minor_walk(rows_contract_edge(rows, u, v), memo, contains,
                           min_order, min_size):
                memo[key] = True
                return True
    return False


def has_minor(g: Graph, h: Graph) -> bool:
    """Exact minor containment for h among the two Kuratowski graphs.

    A graph has an H minor for complete-ish H exactly when some sequence
    of edge contractions produces an H subgraph, so the walk explores
    contractions only, deduplicated by canonical key.  The memo is shared
    across calls, which makes exhaustive sweeps cheap.
    """
    if h.order == 5 and h.size == 10:
        return _minor_walk(g.rows(), _K5_MEMO, _has_clique5, 5, 10)
    if (h.order, h.size) == (6, 9) and set(h.degrees()) == {3}:
        # complete bipartite 3+3 is the only 3-regular order-6 graph with
        # a 3,3 biclique, and _has_k33_subgraph(h) confirms it
        if _has_k33_subgraph(h.rows()):
            return _minor_walk(g.rows(), _K33_MEMO, _has_k33_subgraph, 6, 9)
    raise ValueError("minor oracle supports K5 and K3,3 targets only")


# ---------------------------------------------------------------------------
# Kuratowski subdivision witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KSubgraph:
    """A subdivision witness: branch vertices joined by disjoint paths.

    ``kind`` is "K5" or "K33".  Each path runs from one branch vertex to
    another through degree-two interior vertices; paths share branch
    vertices only.  Vertex labels refer to the host graph.
    """

    kind: str
    branch_vertices: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]

    def edges(self) -> frozenset[tuple[int, int]]:
        out = set()
        for p in self.paths:
            for a, b in zip(p, p[1:]):
                out.add((a, b) if a < b else (b, a))
        return frozenset(out)


def find_k_subgraph(g: Graph) -> KSubgraph | None:
    """Extract a Kuratowski subdivision from g, or None if g is planar.

    Deletes edges greedily while nonplanarity survives; what remains is an
    edge-minimal nonplanar subgraph, i.e. exactly a subdivision of K5 or
    K3,3 plus isolated vertices.
    """
    if is_planar(g):
        return None
    rows = g.rows()
    for u, v in g.sorted_edges():
        trimmed = rows_delete_edge(rows, u, v)
        if not is_planar_rows(trimmed):
            rows = trimmed

    deg = [r.bit_count() for r in rows]
    branch = tuple(v for v in range(len(rows)) if deg[v] >= 3)
    paths = []
    seen = set()
    for b in branch:
        for w in bits(rows[b]):
            path = [b, w]
            while deg[path[-1]] == 2:
                prev, cur = path[-2], path[-1]
                nxt = next(x for x in bits(rows[cur]) if x != prev)
                path.append(nxt)
            key = (path[0], path[1])
            rkey = (path[-1], path[-2])
            if rkey in seen:
                continue
            seen.add(key)
            paths.append(tuple(path))
    kind = "K5" if len(branch) == 5 else "K33"
    return KSubgraph(kind=kind, branch_vertices=branch, paths=tuple(paths))
