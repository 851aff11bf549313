"""Triangle-star exchange moves and family exploration.

The two moves swap a triangle for a degree-three vertex and back:

* ``triangle_to_star`` removes the three edges of a triangle and joins
  its corners to one new vertex (order up by one, size unchanged);
* ``star_to_triangle`` deletes a degree-three vertex and makes its
  neighbors pairwise adjacent.

Graphs stay simple throughout, so star_to_triangle merges any edge it
would duplicate and is only a true inverse when no neighbor pair was
already adjacent; round-trip identities hold in the clean direction.

``explore_family`` closes a seed list under both moves to a given depth
and runs the full minimality sieve on every distinct graph seen, since
the moves preserve the property but not minimality.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
import time

from .canon import canonical_key
from .errors import ResourceLimitError
from .generate import SearchReport
from .graphs import Graph, rows_delete_vertex
from .minimality import SIEVE_MEMBER_CAP, is_minor_minimal
from .parallel import parallel_map
from .properties import Property

Triangle = tuple[int, int, int]

MOVE_NAMES = ("ty", "yt")


def triangles(g: Graph) -> list[Triangle]:
    """All triangles of g as sorted vertex triples."""
    return [t for t in combinations(range(g.order), 3)
            if g.has_edge(t[0], t[1]) and g.has_edge(t[0], t[2])
            and g.has_edge(t[1], t[2])]


def _require_triangle(g: Graph, t: Triangle) -> tuple[int, int, int]:
    a, b, c = t
    if len({a, b, c}) != 3 or not all(0 <= x < g.order for x in (a, b, c)):
        raise ValueError(f"{t} is not three distinct vertices of the graph")
    if not (g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)):
        raise ValueError(f"{t} is not a triangle")
    return a, b, c


def triangle_to_star(g: Graph, t: Triangle) -> Graph:
    """Replace triangle ``t`` by a new vertex joined to its corners.

    The new vertex is the highest-numbered one; order grows by one and
    size is unchanged.
    """
    a, b, c = _require_triangle(g, t)
    corners = (1 << a) | (1 << b) | (1 << c)
    rows = [(r & ~corners) | (1 << g.order) if (corners >> x) & 1 else r
            for x, r in enumerate(g.rows())]
    return Graph.from_rows(tuple(rows) + (corners,))


def star_to_triangle(g: Graph, v: int) -> Graph:
    """Delete the degree-three vertex ``v`` and triangulate its neighbors.

    Neighbor pairs that were already adjacent keep their single edge.
    Vertices above ``v`` shift down by one, as in vertex deletion.
    """
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} out of range")
    nbrs = g.neighbors(v)
    if len(nbrs) != 3:
        raise ValueError(
            f"vertex {v} has degree {len(nbrs)}, need exactly 3"
        )
    star = g.rows()[v]
    rows = [r | (star & ~(1 << x)) if (star >> x) & 1 else r
            for x, r in enumerate(g.rows())]
    return Graph.from_rows(rows_delete_vertex(tuple(rows), v))


def _expansions(g: Graph, moves: tuple[str, ...]) -> list[Graph]:
    out = []
    if "ty" in moves:
        out.extend(triangle_to_star(g, t) for t in triangles(g))
    if "yt" in moves:
        out.extend(star_to_triangle(g, v) for v in range(g.order)
                   if g.degree(v) == 3)
    return out


def explore_family(seeds: list[Graph], prop: Property | str, depth: int,
                   moves: tuple[str, ...] = MOVE_NAMES,
                   jobs: int = 1) -> SearchReport:
    """Close ``seeds`` under the selected moves and sieve every member.

    All graphs within ``depth`` moves of a seed (seeds included) are
    collected up to isomorphism and each is run through the full
    minor-minimality sieve for ``prop`` (NE or NC); the moves preserve
    the property but not minimality, so no shortcut applies.  Results
    are sorted by canonical key and independent of ``jobs``.  More than
    ``SIEVE_MEMBER_CAP`` distinct members raise ResourceLimitError.
    """
    if isinstance(prop, str):
        prop = Property(prop)
    if prop not in (Property.NE, Property.NC):
        raise ValueError(f"explore_family handles NE and NC, not {prop}")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    unknown = [m for m in moves if m not in MOVE_NAMES]
    if unknown or not moves:
        raise ValueError(f"moves must be drawn from {MOVE_NAMES}")

    start = time.monotonic()
    members: dict[bytes, Graph] = {}

    def admit(graphs) -> list[Graph]:
        fresh = []
        for g in graphs:
            key = canonical_key(g)
            if key not in members:
                members[key] = g
                fresh.append(g)
                if len(members) > SIEVE_MEMBER_CAP:
                    raise ResourceLimitError(
                        f"move closure exceeded {SIEVE_MEMBER_CAP} members"
                    )
        return fresh

    frontier = admit(seeds)
    for _ in range(depth):
        frontier = admit(h for g in frontier for h in _expansions(g, moves))
        if not frontier:
            break

    ordered = sorted(members.items())
    verdicts = parallel_map(partial(is_minor_minimal, prop=prop),
                            [g for _, g in ordered], jobs)
    found = tuple(g for (_, g), ok in zip(ordered, verdicts) if ok)
    return SearchReport(
        prop=prop,
        orders=tuple(sorted({g.order for _, g in ordered})),
        min_degree=0,
        connected=False,
        planarity="all",
        scanned=len(ordered),
        found=found,
        wall_time=time.monotonic() - start,
    )
