"""Isomorphism-free enumeration and the end-to-end minimal-graph search.

Generation uses canonical augmentation.  Graphs of order n + 1 are built
from canonical order-n parents by attaching one new vertex to a subset
of parent vertices, and a candidate is kept only when deleting its
canonically last vertex recovers the parent it was built from.  That
acceptance rule admits exactly one labeled representative per
isomorphism class across all parents: the canonically last vertex is
well defined up to automorphism, so the recovered parent is a class
invariant, and per-parent key deduplication removes the remaining
within-parent repeats.

Levels below the target order must be complete universes (an augmenting
chain may pass through graphs violating any final filter), so filters
prune subsets only at the last level, where their effect on the child
is exact: attaching the new vertex to S adds |S| edges, raises exactly
the degrees in S by one, and connects precisely the components S
touches.  Planarity is not subset-expressible, but every child contains
its parent as a subgraph, so a child of a nonplanar parent is nonplanar.
The parent is tested once, at its first accepted child, and only the
children of a planar parent are tested themselves.

A final level whose filter sets planarity and nothing else is the
universe level of its order, filtered by ``is_planar_rows``.  Such a
filter restricts no subset, so the expansion tries the same subsets and
labels the same children in the same order as the unfiltered one, and
only drops children afterwards; the universe level is sorted by key, so
filtering it gives the final level row for row.  Each order is then
enumerated once per process and shared by every search of that pool.
The rule applies only below ``MAX_ENUM_ORDER``: the universe cache holds
each level for the life of the process, and a level at the cap is too
large to keep (12,005,168 classes at order 10), so it is built once,
filtered as it is made, and dropped.

Work is partitionable by parent: children of distinct parents never
collide, so shards merge by one sort on the key plus a defensive check
of adjacent keys, and results are independent of shard count and job
count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .canon import canonical_data, canonical_key_rows, relabel_rows
from .errors import ResourceLimitError
from .graphs import Graph, Rows, rows_component_masks, rows_connected, \
    rows_delete_vertex, rows_size
from .minimality import is_minor_minimal
from .parallel import parallel_map, worker_count
from .planarity import is_planar_rows
from .properties import Property

#: default ceiling on enumeration order; anything beyond it is a
#: multi-hour sweep and must be requested explicitly
MAX_ENUM_ORDER = 10

_PLANARITY_MODES = ("all", "planar", "nonplanar")


@dataclass(frozen=True)
class EnumFilter:
    """Target shape for one enumeration level."""

    order: int
    min_size: int | None = None
    max_size: int | None = None
    min_degree: int = 0
    connected: bool = False
    planarity: str = "all"

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be at least 1")
        cap = self.order * (self.order - 1) // 2
        for name in ("min_size", "max_size"):
            val = getattr(self, name)
            if val is not None and not 0 <= val <= cap:
                raise ValueError(f"{name}={val} outside 0..{cap}")
        if self.min_degree < 0:
            raise ValueError("min_degree must be nonnegative")
        if self.planarity not in _PLANARITY_MODES:
            raise ValueError(f"planarity must be one of {_PLANARITY_MODES}")

    def admits(self, rows: Rows) -> bool:
        """Direct predicate; the enumerator's pruning must agree with it."""
        if len(rows) != self.order:
            return False
        size = rows_size(rows)
        if self.min_size is not None and size < self.min_size:
            return False
        if self.max_size is not None and size > self.max_size:
            return False
        if self.min_degree and any(r.bit_count() < self.min_degree for r in rows):
            return False
        if self.connected and not rows_connected(rows):
            return False
        if self.planarity != "all":
            planar = is_planar_rows(rows)
            if planar != (self.planarity == "planar"):
                return False
        return True


# ---------------------------------------------------------------------------
# augmentation core
# ---------------------------------------------------------------------------

def _subset_image(s: int, gen: tuple[int, ...]) -> int:
    img = 0
    while s:
        low = s & -s
        img |= 1 << gen[low.bit_length() - 1]
        s ^= low
    return img


def _expand_parent(parent: Rows, filt: EnumFilter | None) -> list[tuple[bytes, Rows]]:
    """Accepted canonical children of one canonical parent.

    With a filter, subsets are restricted to those whose child meets
    the degree, connectivity and size constraints exactly; planarity is
    decided on the accepted child, by the parent's answer when the parent
    is nonplanar.  Returns (key, canonical rows) pairs.

    Degree bound, tested before any labeling.  ``_accept`` keeps a child
    only if its new vertex has the child's minimum degree (see there).
    The new vertex attached to S has degree |S|.  With dmin the parent's
    minimum degree and M the mask of its vertices of that degree, the
    old vertices of the child have minimum degree dmin + 1 if S contains
    M and dmin otherwise.  So |S| <= dmin + 1, and |S| = dmin + 1 only
    when S contains M; every other subset would be labeled and then
    rejected.  The test depends only on degrees, so it holds for all of
    an automorphism orbit of subsets or for none of it, and skipping a
    subset before its orbit is recorded drops no representative.  The
    parent is labeled only after every early return.
    """
    n = len(parent)
    degrees = [r.bit_count() for r in parent]
    dmin = min(degrees)
    low = 0
    for v in range(n):
        if degrees[v] == dmin:
            low |= 1 << v

    required = 0
    lo_bits, hi_bits = 0, dmin + 1
    comp_masks: tuple[int, ...] = ()
    if filt is not None:
        d = filt.min_degree
        if d:
            for v in range(n):
                if degrees[v] < d - 1:
                    return []  # one new edge cannot lift this vertex to d
                if degrees[v] < d:
                    required |= 1 << v
            lo_bits = max(lo_bits, d)
        if filt.connected:
            comp_masks = rows_component_masks(parent)
            lo_bits = max(lo_bits, 1)
        msize = rows_size(parent)
        if filt.min_size is not None:
            lo_bits = max(lo_bits, filt.min_size - msize)
        if filt.max_size is not None:
            hi_bits = min(hi_bits, filt.max_size - msize)
    if lo_bits > hi_bits:
        return []
    parent_key, _, gens = canonical_data(parent)
    want_planar = None if filt is None or filt.planarity == "all" \
        else filt.planarity == "planar"
    parent_planar = None  # tested once, at the first child that needs it

    out: list[tuple[bytes, Rows]] = []
    seen_children: set[bytes] = set()
    seen_subsets: set[int] = set()
    for s in range(1 << n):
        if s & required != required:
            continue
        bc = s.bit_count()
        if not lo_bits <= bc <= hi_bits:
            continue
        if bc > dmin and s & low != low:
            continue  # an old vertex keeps degree dmin < |S|
        if comp_masks and any(not s & cm for cm in comp_masks):
            continue
        if gens:
            # subsets in one automorphism orbit of the parent give
            # isomorphic children; keep the first representative
            if s in seen_subsets:
                continue
            orbit = {s}
            stack = [s]
            while stack:
                t = stack.pop()
                for gen in gens:
                    img = _subset_image(t, gen)
                    if img not in orbit:
                        orbit.add(img)
                        stack.append(img)
            seen_subsets |= orbit

        child = tuple(
            parent[v] | (((s >> v) & 1) << n) for v in range(n)
        ) + (s,)
        accepted = _accept(child, n, parent, parent_key)
        if accepted is None:
            continue
        key, crows = accepted
        if key in seen_children:
            continue
        seen_children.add(key)
        if want_planar is not None:
            if parent_planar is None:
                parent_planar = is_planar_rows(parent)
            # a supergraph of a nonplanar parent is nonplanar
            if (parent_planar and is_planar_rows(crows)) != want_planar:
                continue
        out.append((key, crows))
    return out


def _accept(child: Rows, new: int, parent: Rows,
            parent_key: bytes) -> tuple[bytes, Rows] | None:
    """Keep the child iff deleting its canonically last vertex gives
    back the parent class.  Fast paths: the last vertex is the new one;
    the new vertex visibly in the last vertex's orbit.

    Pre-test, before any labeling.  ``_refine`` first splits the unit
    partition by degree, then splits every cell by its number of
    neighbors in the maximum-degree cell, both times in decreasing
    order, and every later split or individualization is in place.  So
    the canonically last vertex minimizes the pair (degree, neighbors of
    maximum degree) over all vertices.  If some vertex has a smaller
    pair than the new vertex, the last vertex is neither the new one nor
    in its orbit, since automorphisms preserve the pair, and deleting it
    cannot give back the parent:

    * if the degrees differ, the two deletions leave different sizes;
    * if both have the minimum degree, the graph is not regular, so
      neither is in the set H of maximum-degree vertices, and deleting
      x leaves |H| - |N(x) & H| vertices of degree max; the counts
      differ, so the degree sequences do.

    On a regular graph every pair is equal and nothing is rejected.
    """
    degrees = [r.bit_count() for r in child]
    top = max(degrees)
    hub = 0
    for v, dv in enumerate(degrees):
        if dv == top:
            hub |= 1 << v
    pairs = [(dv, (r & hub).bit_count()) for dv, r in zip(degrees, child)]
    if min(pairs) < pairs[new]:
        return None
    key, perm, gens = canonical_data(child)
    last = perm[-1]
    if last == new:
        return key, relabel_rows(child, perm)
    if gens:
        orbit = {new}
        stack = [new]
        while stack:
            v = stack.pop()
            for gen in gens:
                img = gen[v]
                if img not in orbit:
                    orbit.add(img)
                    stack.append(img)
        if last in orbit:
            return key, relabel_rows(child, perm)
    reduced = rows_delete_vertex(child, last)
    if sorted(r.bit_count() for r in reduced) != \
            sorted(r.bit_count() for r in parent):
        return None
    if canonical_key_rows(reduced) != parent_key:
        return None
    return key, relabel_rows(child, perm)


# ---------------------------------------------------------------------------
# universe levels
# ---------------------------------------------------------------------------

_UNIVERSE: dict[int, list[Rows]] = {1: [(0,)]}


def universe_level(n: int, jobs: int = 1) -> list[Rows]:
    """All canonical graphs of order n, sorted by canonical key, cached."""
    if n < 1:
        raise ValueError("universe levels start at order 1")
    level = _UNIVERSE.get(n)
    if level is None:
        level = _UNIVERSE[n] = _expand_level(n, None, jobs)
    return level


def _expand_chunk(args: tuple[list[Rows], EnumFilter | None]) -> list[tuple[bytes, Rows]]:
    parents, filt = args
    out: list[tuple[bytes, Rows]] = []
    for parent in parents:
        out.extend(_expand_parent(parent, filt))
    return out


def _chunked(items: list, jobs: int) -> list[list]:
    """Four pieces per worker, so uneven pieces still drain evenly."""
    workers = worker_count(jobs, len(items))
    if workers == 1:
        return [items]
    span = -(-len(items) // (4 * workers))
    return [items[i:i + span] for i in range(0, len(items), span)]


def _expand_level(n: int, filt: EnumFilter | None, jobs: int,
                  shard: int = 0, shards: int = 1) -> list[Rows]:
    """Canonical rows of the accepted children of every ``shards``-th
    order-(n - 1) parent from ``shard`` on, in canonical key order."""
    parents = universe_level(n - 1, jobs)[shard::shards]
    chunks = _chunked(parents, jobs)
    pairs = [pair for part in parallel_map(
        _expand_chunk, [(c, filt) for c in chunks], jobs) for pair in part]
    pairs.sort()
    for (a, _), (b, _) in zip(pairs, pairs[1:]):
        if a == b:
            raise RuntimeError("duplicate canonical forms across "
                               "enumeration shards")
    return [rows for _, rows in pairs]


def _final_pairs(filt: EnumFilter, jobs: int = 1,
                 max_order: int = MAX_ENUM_ORDER, shard: int = 0,
                 shards: int = 1) -> list[Rows]:
    """Canonical rows of the final level in key order, restricted to
    the children of every ``shards``-th parent from ``shard`` on.

    The name is older than the return type (rows, no keys); it stays
    because the benchmark's tracer hooks this function to count final
    levels.  A planarity-only filter below ``MAX_ENUM_ORDER`` is served
    from the universe level (see the module docstring).
    """
    n = filt.order
    if n > max_order:
        raise ResourceLimitError(
            f"enumeration capped at order {max_order}; asked for {n}"
        )
    worker_count(jobs, 1)  # rejects jobs < 1 here too, where no map runs
    if n == 1:
        rows: Rows = (0,)
        return [rows] if shard == 0 and filt.admits(rows) else []
    if shards == 1 and n < MAX_ENUM_ORDER and \
            filt == EnumFilter(order=n, planarity=filt.planarity):
        level = universe_level(n, jobs)
        if filt.planarity == "all":
            return level
        want = filt.planarity == "planar"
        return [rows for rows in level if is_planar_rows(rows) == want]
    return _expand_level(n, filt, jobs, shard, shards)


# ---------------------------------------------------------------------------
# public enumeration surface
# ---------------------------------------------------------------------------

def enumerate_graphs(filt: EnumFilter, jobs: int = 1,
                     max_order: int = MAX_ENUM_ORDER) -> Iterator[Graph]:
    """One canonical representative per isomorphism class, key order."""
    for rows in _final_pairs(filt, jobs, max_order):
        yield Graph.from_rows(rows)


def generate_graphs(filt: EnumFilter, jobs: int = 1,
                    max_order: int = MAX_ENUM_ORDER) -> list[Graph]:
    return list(enumerate_graphs(filt, jobs, max_order))


def count_graphs(filt: EnumFilter, jobs: int = 1,
                 max_order: int = MAX_ENUM_ORDER) -> int:
    return len(_final_pairs(filt, jobs, max_order))


def enumerate_partition(filt: EnumFilter, shard: int, shards: int,
                        max_order: int = MAX_ENUM_ORDER) -> list[Graph]:
    """Shard ``shard`` of ``shards``: children of every ``shards``-th
    parent.  The union over shards equals the unsharded output with no
    duplicates; any single shard is restartable in isolation."""
    if not 0 <= shard < shards:
        raise ValueError("need 0 <= shard < shards")
    return [Graph.from_rows(rows)
            for rows in _final_pairs(filt, 1, max_order, shard, shards)]


# ---------------------------------------------------------------------------
# minor-minimal search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchReport:
    """Outcome of a minimality search over one or more orders."""

    prop: Property
    orders: tuple[int, ...]
    min_degree: int
    connected: bool
    planarity: str
    scanned: int
    found: tuple[Graph, ...]
    wall_time: float

    def found_by_order(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for g in self.found:
            hist[g.order] = hist.get(g.order, 0) + 1
        return hist


def _decide_chunk(args: tuple[str, list[Rows]]) -> list[Rows]:
    prop_value, pool = args
    prop = Property(prop_value)
    return [rows for rows in pool
            if is_minor_minimal(Graph.from_rows(rows), prop)]


def search_minor_minimal(prop: Property, orders: Iterable[int],
                         min_degree: int = 0, connected: bool = False,
                         jobs: int = 1,
                         max_order: int = MAX_ENUM_ORDER) -> SearchReport:
    """Enumerate every order in ``orders`` and keep the minor-minimal
    graphs for ``prop``.

    The candidate pool is planar for the two planar-side properties and
    nonplanar for the six others; disconnected graphs are included
    unless ``connected`` narrows the pool.  Results are independent of
    ``jobs``.  ``found`` is in canonical key order: each pool is, the
    orders ascend, and a key begins with the order.
    """
    order_list = tuple(sorted(set(orders)))
    if not order_list:
        raise ValueError("no orders to search")
    planarity = "planar" if prop in (Property.AN, Property.CAN) else "nonplanar"
    start = time.monotonic()
    scanned = 0
    hits: list[Rows] = []
    for order in order_list:
        filt = EnumFilter(order=order, min_degree=min_degree,
                          connected=connected, planarity=planarity)
        pool = _final_pairs(filt, jobs, max_order)
        scanned += len(pool)
        chunks = _chunked(pool, jobs)
        results = parallel_map(_decide_chunk,
                               [(prop.value, c) for c in chunks], jobs)
        for part in results:
            hits.extend(part)
    found = tuple(Graph.from_rows(rows) for rows in hits)
    return SearchReport(
        prop=prop, orders=order_list, min_degree=min_degree,
        connected=connected, planarity=planarity, scanned=scanned,
        found=found, wall_time=time.monotonic() - start,
    )
