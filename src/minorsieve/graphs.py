"""Immutable simple graphs and the minor operations on them.

Vertices are the integers 0..order-1.  Edges are unordered pairs,
reported normalized as (u, v) with u < v.  No loops, no parallel edges.

One representation: adjacency bitmask rows, a tuple of ints where bit w
of row v is set iff vw is an edge.  ``Graph`` is the public value type
(hashable, comparable); it stores its rows and a cached canonical key,
and derives ``order``, ``edges`` and ``size`` from the rows.  The
search-heavy modules work on rows directly and only wrap results into
``Graph`` at API boundaries.

Contraction, deletion and the three unions keep labels contiguous: the
result of an order-k operation is always a graph on 0..k-1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

Edge = tuple[int, int]
Rows = tuple[int, ...]


# ---------------------------------------------------------------------------
# bitmask row helpers (hot-path building blocks)
# ---------------------------------------------------------------------------

def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def edges_from_rows(rows: Rows) -> list[Edge]:
    """Edges (u, v), u < v, in lexicographic order."""
    out = []
    for u in range(len(rows)):
        r = rows[u] >> (u + 1)
        base = u + 1
        while r:
            low = r & -r
            out.append((u, base + low.bit_length() - 1))
            r ^= low
    return out


def rows_non_edges(rows: Rows) -> list[Edge]:
    n = len(rows)
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if not (rows[u] >> v) & 1]


def rows_size(rows: Rows) -> int:
    return sum(r.bit_count() for r in rows) // 2


def rows_delete_vertex(rows: Rows, v: int) -> Rows:
    """Remove vertex v and shift labels above v down by one."""
    low = (1 << v) - 1
    out = []
    for u, r in enumerate(rows):
        if u == v:
            continue
        out.append((r & low) | ((r >> (v + 1)) << v))
    return tuple(out)


def rows_delete_edge(rows: Rows, u: int, v: int) -> Rows:
    out = list(rows)
    out[u] &= ~(1 << v)
    out[v] &= ~(1 << u)
    return tuple(out)


def rows_add_edge(rows: Rows, u: int, v: int) -> Rows:
    out = list(rows)
    out[u] |= 1 << v
    out[v] |= 1 << u
    return tuple(out)


def rows_contract_edge(rows: Rows, u: int, v: int) -> Rows:
    """Identify the endpoints of edge uv, dropping the loop and any parallels.

    The merged vertex keeps the smaller label; the larger one is removed and
    labels above it shift down.
    """
    if u > v:
        u, v = v, u
    merged = list(rows)
    keep = (rows[u] | rows[v]) & ~(1 << u) & ~(1 << v)
    merged[u] = keep
    for w in bits(keep):
        merged[w] |= 1 << u
    # v's old edges that u lacked are now duplicated in column v; deleting v
    # removes them.
    return rows_delete_vertex(tuple(merged), v)


def rows_subdivide_edge(rows: Rows, u: int, v: int) -> Rows:
    n = len(rows)
    out = list(rows_delete_edge(rows, u, v))
    out.append((1 << u) | (1 << v))
    out[u] |= 1 << n
    out[v] |= 1 << n
    return tuple(out)


def rows_component_masks(rows: Rows) -> list[int]:
    """Vertex-set bitmasks of the connected components, by least vertex."""
    comps = []
    seen = 0
    for v in range(len(rows)):
        if (seen >> v) & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            grown = 0
            for u in bits(frontier):
                grown |= rows[u]
            frontier = grown & ~comp
            comp |= frontier
        comps.append(comp)
        seen |= comp
    return comps


def rows_twin_firsts(rows: Rows) -> list[int]:
    """The least vertex of each vertex's twin class.  Twins have equal
    open, or equal closed, neighborhoods, so swapping two is an
    automorphism.  No v has an open twin u and a closed twin w (w is in
    N(v) = N(u), so u is in N[w] = N[v]): the classes partition V."""
    first: dict[int, int] = {}
    out = []
    for v, r in enumerate(rows):
        u = first.get(r, first.get(r | 1 << v, v))
        if u == v:
            first[r] = first[r | 1 << v] = v
        out.append(u)
    return out


# ---------------------------------------------------------------------------
# the Graph value type
# ---------------------------------------------------------------------------

class Graph:
    """An immutable simple graph on vertices 0..order-1.

    The adjacency rows are its only state beside a cached canonical key;
    ``order``, ``edges`` and ``size`` are derived from them.  Equality and hashing are label-sensitive; use
    canonical keys from the canon module for isomorphism-level identity.
    """

    __slots__ = ("_rows", "_canon")

    def __init__(self, order: int, edges: Iterable[Edge] = ()):
        if order < 0:
            raise ValueError("order must be nonnegative")
        rows = [0] * order
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u},{v}) out of range for order {order}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._rows: Rows = tuple(rows)
        self._canon = None

    @classmethod
    def from_rows(cls, rows: Rows) -> "Graph":
        g = cls.__new__(cls)
        g._rows = tuple(rows)
        g._canon = None
        return g

    # -- construction helpers ------------------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        return cls(a + b, [(u, a + v) for u in range(a) for v in range(b)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs order >= 3")
        return cls(n, [(v, (v + 1) % n) for v in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(v, v + 1) for v in range(n - 1)])

    # -- basic queries --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._rows)

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(edges_from_rows(self._rows))

    @property
    def size(self) -> int:
        return rows_size(self._rows)

    def rows(self) -> Rows:
        return self._rows

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.rows()[u] >> v) & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(bits(self.rows()[v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.rows()[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows())

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def sorted_edges(self) -> list[Edge]:
        return edges_from_rows(self._rows)

    def is_complete(self) -> bool:
        return self.size == self.order * (self.order - 1) // 2

    # -- minor operations ------------------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        self._check_pair(u, v)
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) already present")
        return Graph.from_rows(rows_add_edge(self.rows(), u, v))

    def delete_edge(self, u: int, v: int) -> "Graph":
        self._require_edge(u, v)
        return Graph.from_rows(rows_delete_edge(self.rows(), u, v))

    def delete_vertex(self, v: int) -> "Graph":
        self._check_vertex(v)
        return Graph.from_rows(rows_delete_vertex(self.rows(), v))

    def contract_edge(self, u: int, v: int) -> "Graph":
        self._require_edge(u, v)
        return Graph.from_rows(rows_contract_edge(self.rows(), u, v))

    def subdivide_edge(self, u: int, v: int) -> "Graph":
        self._require_edge(u, v)
        return Graph.from_rows(rows_subdivide_edge(self.rows(), u, v))

    def relabel(self, mapping: dict[int, int] | list[int]) -> "Graph":
        """Return the graph with vertex v renamed to mapping[v] (a bijection)."""
        if isinstance(mapping, dict):
            table = [mapping[v] for v in range(self.order)]
        else:
            table = list(mapping)
        if sorted(table) != list(range(self.order)):
            raise ValueError("mapping is not a bijection on the vertex set")
        return _glue(Graph(0), self, table, self.order)

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        rows = self.rows()
        return Graph(
            len(keep),
            [
                (index[u], index[v])
                for u in keep
                for v in keep
                if u < v and (rows[u] >> v) & 1
            ],
        )

    # -- connectivity -----------------------------------------------------------

    def is_connected(self) -> bool:
        return len(rows_component_masks(self.rows())) <= 1

    def vertex_connectivity(self) -> int:
        """Largest k such that order > k and no cutset smaller than k exists.

        Complete graphs give order-1, disconnected graphs (and K1) give 0.
        """
        n = self.order
        if n <= 1:
            return 0
        if self.is_complete():
            return n - 1
        if not self.is_connected():
            return 0
        rows = self.rows()
        best = n - 1
        for u in range(n):
            for v in range(u + 1, n):
                if not (rows[u] >> v) & 1:
                    best = min(best, _local_connectivity(rows, u, v, best))
        return best

    # -- plumbing ---------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.order):
            raise ValueError(f"vertex {v} out of range for order {self.order}")

    def _check_pair(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"pair ({u},{v}) is a loop")

    def _require_edge(self, u: int, v: int) -> None:
        self._check_pair(u, v)
        if not self.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, size={self.size})"


# ---------------------------------------------------------------------------
# unions
# ---------------------------------------------------------------------------

def _glue(g: Graph, h: Graph, table: list[int], order: int) -> Graph:
    """g's rows padded to ``order``, with h's edges added under the vertex
    map ``table`` (h's vertex v becomes table[v])."""
    out = list(g.rows()) + [0] * (order - g.order)
    for v, r in enumerate(h.rows()):
        mapped = 0
        for w in bits(r):
            mapped |= 1 << table[w]
        out[table[v]] |= mapped
    return Graph.from_rows(tuple(out))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g and h side by side, h's labels shifted up by g.order."""
    k = g.order
    return _glue(g, h, [k + w for w in range(h.order)], k + h.order)


def one_vertex_union(g: Graph, a: int, h: Graph, b: int) -> Graph:
    """Glue h onto g by identifying h's vertex b with g's vertex a."""
    g._check_vertex(a)
    h._check_vertex(b)
    k = g.order
    table = [a if w == b else k + w - (w > b) for w in range(h.order)]
    return _glue(g, h, table, k + h.order - 1)


def two_vertex_union(g: Graph, pair_g: Edge, h: Graph, pair_h: Edge) -> Graph:
    """Glue h onto g by identifying pair_h with pair_g, in order.

    No edge between the glued pair is added; whatever either summand has
    between its designated pair survives the union.
    """
    a1, b1 = pair_g
    a2, b2 = pair_h
    g._check_pair(a1, b1)
    h._check_pair(a2, b2)
    k = g.order
    table = [a1 if w == a2 else b1 if w == b2
             else k + w - (w > a2) - (w > b2) for w in range(h.order)]
    return _glue(g, h, table, k + h.order - 2)


# ---------------------------------------------------------------------------
# local vertex connectivity (Menger via unit-capacity max flow)
# ---------------------------------------------------------------------------

def _local_connectivity(rows: Rows, s: int, t: int, cap: int) -> int:
    """Max number of internally disjoint s-t paths, for nonadjacent s, t.

    Stops early once the count reaches ``cap``.  Standard node splitting:
    every vertex except s and t becomes an arc of capacity one.
    """
    n = len(rows)
    # node ids: v_in = v, v_out = v + n; s and t participate as s_out = s + n
    # (source) and t_in = t (sink).
    succ: list[set[int]] = [set() for _ in range(2 * n)]
    for v in range(n):
        if v not in (s, t):
            succ[v].add(v + n)
        for w in bits(rows[v]):
            succ[v + n].add(w)
    source, sink = s + n, t
    flow = 0
    while flow < cap:
        # BFS for an augmenting path in the residual digraph
        prev = {source: source}
        queue = [source]
        while queue and sink not in prev:
            nxt = []
            for x in queue:
                for y in succ[x]:
                    if y not in prev:
                        prev[y] = x
                        nxt.append(y)
            queue = nxt
        if sink not in prev:
            break
        y = sink
        while y != source:
            x = prev[y]
            succ[x].discard(y)
            succ[y].add(x)
            y = x
        flow += 1
    return flow
