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

``_accept`` rejects a child whose new vertex is outside the last cell of
its root refinement before any search; each parent still yields the
same set of children, sometimes in another order (argument there).

Both orbit tests, skipping a subset in the orbit of an earlier one in
``_expand_parent`` and accepting when the canonically last vertex is in
the orbit of the new one in ``_accept``, use the generators the
canonical search discovered plus the twin transpositions of
``_twin_swaps``.  The search never branches on an interchangeable cell,
so it never reports twin swaps itself.  Swapping two vertices with equal
open neighborhoods, or with equal closed neighborhoods, is an
automorphism, and both tests are sound positive tests: a skipped subset
gives a child isomorphic to one already tried, which acceptance and key
deduplication would have dropped; an accepted child is one whose last
vertex deletes to the parent, which the slow path would have accepted.
So extra true automorphisms only spare labelings, and the (key, rows)
output and its order are unchanged.  The swaps are added here and not in
the canonical search, whose trace and ``(key, perm, gens)`` stay as
they are.

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
enumerated once per process and shared by every search of that pool,
and ``_PLANAR`` keeps each member's planarity from the first planar or
nonplanar request on.  The rule applies only below ``MAX_ENUM_ORDER``:
both caches hold each level for the life of the process, and a level at
the cap is too large to keep (12,005,168 classes at order 10), so it is
built once, filtered as it is made, and dropped.

Every other final level is streamed.  One task expands a chunk of at
most ``_CHUNK`` parents, filters the children, and counts them, decides
them or keeps their rows; it returns only the count and what it keeps.
A count relabels nothing, and a search relabels and decides each pool
graph in the task that made it, so either holds the parent level and
one chunk's children per worker.  Work is partitionable by parent:
children of distinct parents never collide, so the defensive duplicate
check stays inside each chunk, one sort on the key at the end restores
key order, and results are independent of chunk size, shard count and
job count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .canon import canonical_data, canonical_key_rows, relabel_rows, \
    root_cells
from .errors import ResourceLimitError
from .graphs import Graph, Rows, rows_component_masks, rows_connected, \
    rows_delete_vertex, rows_size, rows_twin_firsts
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


def _twin_swaps(rows: Rows) -> list[tuple[int, ...]]:
    """Each vertex swapped with the first of its twin class
    (``rows_twin_firsts``); each transposition is an automorphism."""
    n = len(rows)
    swaps: list[tuple[int, ...]] = []
    for v, u in enumerate(rows_twin_firsts(rows)):
        if u != v:
            gen = list(range(n))
            gen[u], gen[v] = v, u
            swaps.append(tuple(gen))
    return swaps


def _expand_parent(parent: Rows, filt: EnumFilter | None,
                   relabel: bool = True) -> list[tuple[bytes, Rows]]:
    """Accepted children of one canonical parent, as (key, rows) pairs:
    canonical rows, or with ``relabel`` False, which a count passes, the
    rows as built.

    With a filter, subsets are restricted to those whose child meets
    the degree, connectivity and size constraints exactly; planarity is
    decided on the accepted child, by the parent's answer when the parent
    is nonplanar.

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
    gens = gens + _twin_swaps(parent)
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
        key, perm = accepted
        if key in seen_children:
            continue
        seen_children.add(key)
        if want_planar is not None:
            if parent_planar is None:
                parent_planar = is_planar_rows(parent)
            # a supergraph of a nonplanar parent is nonplanar
            if (parent_planar and is_planar_rows(child)) != want_planar:
                continue
        out.append((key, relabel_rows(child, perm) if relabel else child))
    return out


def _accept(child: Rows, new: int, parent: Rows,
            parent_key: bytes) -> tuple[bytes, tuple[int, ...]] | None:
    """Keep the child iff deleting its canonically last vertex gives
    back the parent class; return its key and canonical permutation.
    Fast paths: the last vertex is the new one; the new vertex visibly
    in the last vertex's orbit.

    Root-cell test, before any search.  The canonically last vertex y
    and its orbit lie in the last root cell (``canon.root_cells``).  If
    the new vertex x is outside it, y is neither x nor in x's orbit, and
    the child G is rejected.  The slow path would still accept G when
    G - y is the parent P as well (y pseudo-similar to x), but no class
    is lost.  An isomorphism from G - y onto P makes G into P plus a
    vertex x' attached to the image S' of N(y), with x' in the last root
    cell.  The subset S', or the representative of its orbit under P's
    automorphisms, is tried too, and its child passes: its last vertex
    is in the orbit of x', so deleting it gives back P.  The parent thus
    yields the same set of children; only the subset a child comes from,
    and so the order of a parent's children, can change.

    Degree-pair pre-test, a cheaper reading of the first two sweeps of
    the refinement.  ``_refine`` splits the unit partition by degree,
    then every cell by its number of neighbors in the maximum-degree
    cell, both times in decreasing order.  So every vertex of the last
    root cell has the least pair (degree, neighbors of maximum degree),
    and a new vertex with a larger pair fails the root-cell test.
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
    cells = root_cells(child)
    if not cells[-1] >> new & 1:
        return None
    key, perm, gens = canonical_data(child, cells)
    last = perm[-1]
    if last == new:
        return key, perm
    gens = gens + _twin_swaps(child)
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
            return key, perm
    reduced = rows_delete_vertex(child, last)
    if sorted(r.bit_count() for r in reduced) != \
            sorted(r.bit_count() for r in parent):
        return None
    if canonical_key_rows(reduced) != parent_key:
        return None
    return key, perm


# ---------------------------------------------------------------------------
# universe levels
# ---------------------------------------------------------------------------

_UNIVERSE: dict[int, list[Rows]] = {1: [(0,)]}
_PLANAR: dict[int, list[bool]] = {}  # order -> is_planar_rows per member


def universe_level(n: int, jobs: int = 1) -> list[Rows]:
    """All canonical graphs of order n, sorted by canonical key, cached."""
    if n < 1:
        raise ValueError("universe levels start at order 1")
    level = _UNIVERSE.get(n)
    if level is None:
        level = _UNIVERSE[n] = _expand_level(n, None, jobs)[1]
    return level


#: most parents in one chunk of a level; a chunk's children are held at
#: once, so this bounds the buffers of a streamed level at any ``jobs``
_CHUNK = 64


def _chunked(items: list, jobs: int) -> list[list]:
    """Four pieces per worker, so uneven pieces still drain evenly, and
    at most ``_CHUNK`` items per piece."""
    workers = worker_count(jobs, len(items))
    pieces = 4 * workers if workers > 1 else 1
    span = max(1, min(_CHUNK, -(-len(items) // pieces)))
    return [items[i:i + span] for i in range(0, len(items), span)]


def _expand_chunk(args: tuple[list[Rows], EnumFilter | None, bool]
                  ) -> list[tuple[bytes, Rows]]:
    parents, filt, relabel = args
    return [pair for parent in parents
            for pair in _expand_parent(parent, filt, relabel)]


def _level_task(args: tuple[list[Rows], EnumFilter | None, Property | bool]
                ) -> tuple[int, list[tuple[bytes, Rows]]]:
    """Expand one chunk of parents: the number of accepted children,
    and the (key, canonical rows) of those that ``keep`` names (see
    ``_final_pairs``).  A count relabels no child."""
    parents, filt, keep = args
    pairs = _expand_chunk((parents, filt, keep is not False))
    if len({key for key, _ in pairs}) != len(pairs):
        raise RuntimeError("duplicate canonical forms in one "
                           "enumeration chunk")
    count = len(pairs)
    if keep is False:
        return count, []
    if keep is not True:
        pairs = [(key, rows) for key, rows in pairs
                 if is_minor_minimal(Graph.from_rows(rows), keep)]
    return count, pairs


def _expand_level(n: int, filt: EnumFilter | None, jobs: int,
                  shard: int = 0, shards: int = 1,
                  keep: Property | bool = True) -> tuple[int, list[Rows]]:
    """Stream the accepted children of every ``shards``-th order-(n - 1)
    parent from ``shard`` on (see the module docstring): their number,
    and the canonical rows of those ``keep`` names, in key order."""
    parents = universe_level(n - 1, jobs)[shard::shards]
    tasks = [(chunk, filt, keep) for chunk in _chunked(parents, jobs)]
    count = 0
    kept: list[tuple[bytes, Rows]] = []
    for size, part in parallel_map(_level_task, tasks, jobs):
        count += size
        kept.extend(part)
    kept.sort()
    return count, [rows for _, rows in kept]


def _decide_chunk(args: tuple[Property, list[Rows]]) -> list[Rows]:
    prop, pool = args
    return [rows for rows in pool
            if is_minor_minimal(Graph.from_rows(rows), prop)]


def _final_pairs(filt: EnumFilter, jobs: int = 1,
                 max_order: int = MAX_ENUM_ORDER, shard: int = 0,
                 shards: int = 1, keep: Property | bool = True
                 ) -> tuple[int, list[Rows]]:
    """The size of the final level, restricted to the children of every
    ``shards``-th parent from ``shard`` on, and the canonical rows of
    the members ``keep`` names, in key order: every member for True,
    none for False, the minor-minimal ones for a ``Property``.

    The name is older than the return type; it stays because the
    benchmark's tracer hooks this function to count final levels.  A
    planarity-only filter below ``MAX_ENUM_ORDER`` is served from the
    universe level and its flags (see the module docstring), and its
    members are decided in chunks of the pool; every other level is
    streamed by ``_expand_level``.
    """
    n = filt.order
    if n > max_order:
        raise ResourceLimitError(
            f"enumeration capped at order {max_order}; asked for {n}"
        )
    worker_count(jobs, 1)  # rejects jobs < 1 here too, where no map runs
    cached = shards == 1 and n < MAX_ENUM_ORDER and \
        filt == EnumFilter(order=n, planarity=filt.planarity)
    if n > 1 and not cached:
        return _expand_level(n, filt, jobs, shard, shards, keep)
    if n == 1:
        pool: list[Rows] = [(0,)] if shard == 0 and filt.admits((0,)) else []
    elif filt.planarity == "all":
        pool = universe_level(n, jobs)
    else:
        level = universe_level(n, jobs)
        want = filt.planarity == "planar"
        flags = _PLANAR.get(n)
        if flags is None:
            flags = _PLANAR[n] = [is_planar_rows(rows) for rows in level]
        pool = [rows for rows, p in zip(level, flags) if p == want]
    if isinstance(keep, bool):
        return len(pool), pool if keep else []
    parts = parallel_map(_decide_chunk,
                         [(keep, c) for c in _chunked(pool, jobs)], jobs)
    return len(pool), [rows for part in parts for rows in part]


# ---------------------------------------------------------------------------
# public enumeration surface
# ---------------------------------------------------------------------------

def enumerate_graphs(filt: EnumFilter, jobs: int = 1,
                     max_order: int = MAX_ENUM_ORDER) -> Iterator[Graph]:
    """One canonical representative per isomorphism class, key order."""
    for rows in _final_pairs(filt, jobs, max_order)[1]:
        yield Graph.from_rows(rows)


def generate_graphs(filt: EnumFilter, jobs: int = 1,
                    max_order: int = MAX_ENUM_ORDER) -> list[Graph]:
    return list(enumerate_graphs(filt, jobs, max_order))


def count_graphs(filt: EnumFilter, jobs: int = 1,
                 max_order: int = MAX_ENUM_ORDER) -> int:
    return _final_pairs(filt, jobs, max_order, keep=False)[0]


def enumerate_partition(filt: EnumFilter, shard: int, shards: int,
                        max_order: int = MAX_ENUM_ORDER) -> list[Graph]:
    """Shard ``shard`` of ``shards``: children of every ``shards``-th
    parent.  The union over shards equals the unsharded output with no
    duplicates; any single shard is restartable in isolation."""
    if not 0 <= shard < shards:
        raise ValueError("need 0 <= shard < shards")
    return [Graph.from_rows(rows)
            for rows in _final_pairs(filt, 1, max_order, shard, shards)[1]]


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
        count, minimal = _final_pairs(filt, jobs, max_order, keep=prop)
        scanned += count
        hits.extend(minimal)
    found = tuple(Graph.from_rows(rows) for rows in hits)
    return SearchReport(
        prop=prop, orders=order_list, min_degree=min_degree,
        connected=connected, planarity=planarity, scanned=scanned,
        found=found, wall_time=time.monotonic() - start,
    )
