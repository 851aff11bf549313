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
touches.  Planarity is not subset-expressible and is tested on accepted
children.

Work is partitionable by parent: children of distinct parents never
collide, so shards merge by concatenation plus a defensive duplicate
check, and results are independent of shard count and job count.
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
    checked on the accepted child.  Returns (key, canonical rows) pairs.
    """
    n = len(parent)
    parent_key, _, gens = canonical_data(parent)

    required = 0
    lo_bits, hi_bits = 0, n
    comp_masks: tuple[int, ...] = ()
    if filt is not None:
        d = filt.min_degree
        if d:
            for v in range(n):
                dv = parent[v].bit_count()
                if dv < d - 1:
                    return []  # one new edge cannot lift this vertex to d
                if dv < d:
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
            if hi_bits < 0:
                return []

    out: list[tuple[bytes, Rows]] = []
    seen_children: set[bytes] = set()
    seen_subsets: set[int] = set()
    for s in range(1 << n):
        if s & required != required:
            continue
        bc = s.bit_count()
        if not lo_bits <= bc <= hi_bits:
            continue
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
        if filt is not None and filt.planarity != "all":
            if is_planar_rows(crows) != (filt.planarity == "planar"):
                continue
        out.append((key, crows))
    return out


def _accept(child: Rows, new: int, parent: Rows,
            parent_key: bytes) -> tuple[bytes, Rows] | None:
    """Keep the child iff deleting its canonically last vertex gives
    back the parent class.  Fast paths: the last vertex is the new one;
    a degree mismatch between the two (different child sizes after
    deletion); the new vertex visibly in the last vertex's orbit."""
    key, perm, gens = canonical_data(child)
    last = perm[-1]
    if last == new:
        return key, relabel_rows(child, perm)
    if child[last].bit_count() != child[new].bit_count():
        return None
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


def universe_level(n: int) -> list[Rows]:
    """All canonical graphs of order n, sorted by canonical key, cached."""
    if n < 1:
        raise ValueError("universe levels start at order 1")
    cached = _UNIVERSE.get(n)
    if cached is not None:
        return cached
    pairs: list[tuple[bytes, Rows]] = []
    for parent in universe_level(n - 1):
        pairs.extend(_expand_parent(parent, None))
    pairs.sort(key=lambda kr: kr[0])
    level = [rows for _, rows in pairs]
    _UNIVERSE[n] = level
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


def _final_pairs(filt: EnumFilter, jobs: int = 1,
                 max_order: int = MAX_ENUM_ORDER, shard: int = 0,
                 shards: int = 1) -> list[tuple[bytes, Rows]]:
    """Sorted (key, canonical rows) pairs of the final level, restricted
    to the children of every ``shards``-th parent from ``shard`` on."""
    if filt.order > max_order:
        raise ResourceLimitError(
            f"enumeration capped at order {max_order}; asked for {filt.order}"
        )
    worker_count(jobs, 1)  # rejects jobs < 1 here too, where no map runs
    if filt.order == 1:
        rows: Rows = (0,)
        return [(canonical_key_rows(rows), rows)] \
            if shard == 0 and filt.admits(rows) else []
    parents = universe_level(filt.order - 1)[shard::shards]
    chunks = _chunked(parents, jobs)
    results = parallel_map(_expand_chunk, [(c, filt) for c in chunks], jobs)
    merged: dict[bytes, Rows] = {}
    total = 0
    for part in results:
        total += len(part)
        for key, rows in part:
            merged[key] = rows
    if len(merged) != total:
        raise RuntimeError(
            "duplicate canonical forms across enumeration shards"
        )
    return sorted(merged.items())


# ---------------------------------------------------------------------------
# public enumeration surface
# ---------------------------------------------------------------------------

def enumerate_graphs(filt: EnumFilter, jobs: int = 1,
                     max_order: int = MAX_ENUM_ORDER) -> Iterator[Graph]:
    """One canonical representative per isomorphism class, key order."""
    for _, rows in _final_pairs(filt, jobs, max_order):
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
            for _, rows in _final_pairs(filt, 1, max_order, shard, shards)]


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
    prop_value, rows_list = args
    prop = Property(prop_value)
    return [rows for rows in rows_list
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
    ``jobs``.
    """
    order_list = tuple(sorted(set(orders)))
    if not order_list:
        raise ValueError("no orders to search")
    planarity = "planar" if prop in (Property.AN, Property.CAN) else "nonplanar"
    start = time.monotonic()
    scanned = 0
    hits: list[tuple[bytes, Rows]] = []
    for order in order_list:
        filt = EnumFilter(order=order, min_degree=min_degree,
                          connected=connected, planarity=planarity)
        pairs = _final_pairs(filt, jobs, max_order)
        scanned += len(pairs)
        rows_list = [rows for _, rows in pairs]
        chunks = _chunked(rows_list, jobs)
        results = parallel_map(_decide_chunk,
                               [(prop.value, c) for c in chunks], jobs)
        for part in results:
            hits.extend((canonical_key_rows(rows), rows) for rows in part)
    hits.sort(key=lambda kr: kr[0])
    found = tuple(Graph.from_rows(rows) for _, rows in hits)
    return SearchReport(
        prop=prop, orders=order_list, min_degree=min_degree,
        connected=connected, planarity=planarity, scanned=scanned,
        found=found, wall_time=time.monotonic() - start,
    )
