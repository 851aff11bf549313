"""Canonical labeling of small simple graphs.

The canonical key of a graph is a byte string such that two graphs have
equal keys iff they are isomorphic.  Keys are produced by an ordered
partition refinement (1-dimensional Weisfeiler-Leman) followed by a
backtracking search over individualizations that maximizes the relabeled
adjacency code.  Three prunings keep the search small on the symmetric
graphs this package cares about (complete graphs, complete bipartite
graphs, disjoint unions of those, strongly regular examples):

* incremental code comparison against the best leaf found so far,
* interchangeable cells (identical neighborhoods outside the cell, and
  complete or empty inside) are fixed in one arbitrary order without
  branching, which collapses the factorial blowup of K_n in one step,
* automorphisms discovered at equal leaves merge branch orbits, so at a
  branch point only one representative per known orbit is explored.

Partition cells are vertex bitmasks.  Every cell's member list is
ascending at every step: the first partition is range(n), a split keeps
the members' relative order, individualizing v gives [v] and the rest in
order, and fixing an interchangeable cell keeps the order.  So reading a
mask's bits from low to high gives the list a list-of-lists partition
would hold, and the ordered partition, every branch, every leaf and the
discovered generators are those of the list form.

Everything here is label-level: functions take (order, rows) with rows
the adjacency bitmasks, and the Graph-facing wrappers live at the bottom.
"""

from __future__ import annotations

from .errors import ResourceLimitError
from .graphs import Graph, Rows, bits

# hard cap on leaves visited by one canonical search; hit only by graphs far
# outside this package's order range, and hitting it is an error, not a
# truncation
LEAF_CAP = 250_000


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def _refine(rows: Rows, cells: list[int], uniform: set[int]) -> list[int]:
    """Refine an ordered partition of vertex masks to equitability.

    Every cell is split by the count of neighbors in every cell until
    stable.  Split pieces take their cell's place, ordered by
    decreasing count, so the resulting cell order depends only on
    isomorphism-invariant data.  After any split the sweeps start over
    from the first cell.  A singleton splitter {u} cuts a cell C into
    C & N(u), then C & ~N(u), with no per-vertex work; a sweep copies
    the cell list only from its first split on.

    ``uniform`` holds vertex masks that every current cell is already
    uniform against: all members of a cell have the same number of
    neighbors in the mask.  A sweep with such a mask splits nothing, so
    it is skipped.  Splits only cut cells into pieces, so a mask stays
    uniform once it is; every sweep adds its mask.  The splits made, and
    their order, are exactly those of sweeping with every cell.
    """
    idx = 0
    while idx < len(cells):
        splitter = cells[idx]
        idx += 1
        if splitter in uniform:
            continue
        uniform.add(splitter)
        refined: list[int] | None = None
        if not splitter & (splitter - 1):
            nbrs = rows[splitter.bit_length() - 1]
            for i, cell in enumerate(cells):
                hit = cell & nbrs
                if hit and hit != cell:
                    if refined is None:
                        refined = cells[:i]
                    refined.append(hit)
                    refined.append(cell ^ hit)
                elif refined is not None:
                    refined.append(cell)
        else:
            for i, cell in enumerate(cells):
                if cell & (cell - 1):
                    buckets: dict[int, int] = {}
                    rest = cell
                    while rest:
                        low = rest & -rest
                        k = (rows[low.bit_length() - 1] & splitter).bit_count()
                        buckets[k] = buckets.get(k, 0) | low
                        rest ^= low
                    if len(buckets) > 1:
                        if refined is None:
                            refined = cells[:i]
                        refined.extend(buckets[k]
                                       for k in sorted(buckets, reverse=True))
                        continue
                if refined is not None:
                    refined.append(cell)
        if refined is not None:
            cells = refined
            idx = 0
    return cells


def _interchangeable(rows: Rows, cell: int) -> bool:
    """True if every transposition inside the cell is a graph automorphism.

    Holds when all cell vertices have the same neighbors outside the cell
    and the induced subgraph on the cell is complete or empty.
    """
    members = list(bits(cell))
    first = members[0]
    outside = rows[first] & ~cell
    inside = rows[first] & cell
    full = (inside == cell & ~(1 << first))
    empty = (inside == 0)
    if not (full or empty):
        return False
    for v in members[1:]:
        if rows[v] & ~cell != outside:
            return False
        ins = rows[v] & cell
        if full and ins != cell & ~(1 << v):
            return False
        if empty and ins != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# backtracking search
# ---------------------------------------------------------------------------

class _Search:
    __slots__ = ("rows", "n", "best_codes", "best_perm", "gens", "leaves")

    def __init__(self, rows: Rows):
        self.rows = rows
        self.n = len(rows)
        self.best_codes: list[int] | None = None
        self.best_perm: list[int] | None = None
        self.gens: list[tuple[int, ...]] = []
        self.leaves = 0

    def run(self, cells: list[int]) -> None:
        self._node(cells, [], [], True)

    def _node(self, cells: list[int], perm: list[int], codes: list[int],
              tied: bool) -> None:
        rows = self.rows
        lead = 0
        while lead < len(cells) and not cells[lead] & (cells[lead] - 1):
            lead += 1
        # place the leading singletons not placed yet (positions align with
        # cells: position k is cells[k] while k < lead), extending the code
        # and comparing against the best leaf while still tied
        while len(perm) < lead:
            v = cells[len(perm)].bit_length() - 1
            code = 0
            rv = rows[v]
            for i, u in enumerate(perm):
                code |= ((rv >> u) & 1) << i
            perm.append(v)
            codes.append(code)
            if tied and self.best_codes is not None:
                b = self.best_codes[len(codes) - 1]
                if code < b:
                    return  # prune: cannot reach the best leaf's code
                if code > b:
                    tied = False  # strictly better; stop comparing
        if lead == len(cells):
            self._leaf(perm, codes, tied)
            return
        target = cells[lead]
        if _interchangeable(rows, target):
            # any internal order completes to the same canonical code, and
            # fixing one cannot split the other cells either
            fixed = cells[:lead] + [1 << v for v in bits(target)] \
                + cells[lead + 1:]
            self._node(fixed, perm, codes, tied)
            return
        # branch: individualize one representative per known orbit.  The
        # partition here is equitable (refined, or refined and then an
        # interchangeable cell fixed), so every child starts out uniform
        # against each of its cells
        seen_orbits = set()
        for v in bits(target):
            rep = self._orbit_rep(v, perm)
            if rep in seen_orbits:
                continue
            seen_orbits.add(rep)
            single = 1 << v
            child = _refine(rows, cells[:lead] + [single, target ^ single]
                            + cells[lead + 1:], set(cells))
            self._node(child, perm[:], codes[:], tied)

    def _leaf(self, perm: list[int], codes: list[int], tied: bool) -> None:
        self.leaves += 1
        if self.leaves > LEAF_CAP:
            raise ResourceLimitError(
                f"canonical search exceeded {LEAF_CAP} leaves at order {self.n}"
            )
        if self.best_codes is None or not tied:
            if self.best_codes is None or codes > self.best_codes:
                self.best_codes = codes[:]
                self.best_perm = perm[:]
            return
        # tied all the way down: perm and best_perm label the same code, so
        # best_perm[i] -> perm[i] is an automorphism
        bp = self.best_perm
        gen = [0] * self.n
        for i in range(self.n):
            gen[bp[i]] = perm[i]
        if any(gen[i] != i for i in range(self.n)):
            self.gens.append(tuple(gen))

    def _orbit_rep(self, v: int, prefix: list[int]) -> int:
        """Smallest vertex reachable from v under generators fixing prefix."""
        useful = [g for g in self.gens if all(g[p] == p for p in prefix)]
        if not useful:
            return v
        orbit = {v}
        frontier = [v]
        while frontier:
            x = frontier.pop()
            for g in useful:
                y = g[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        return min(orbit)


# ---------------------------------------------------------------------------
# public, rows-level
# ---------------------------------------------------------------------------

#: largest order a key can encode: a key starts with the order as one byte
MAX_ORDER = 255


def root_cells(rows: Rows) -> list[int]:
    """The root of the canonical search: the unit partition refined to
    equitability, as vertex masks in cell order.

    Every leaf keeps the order of the root cells: a split puts its
    pieces in the cell's place, and individualizing v puts [v] and the
    rest of its cell there.  So the canonical permutation lists each
    root cell in one block, the cells in order, and the canonically last
    vertex lies in the last cell.  Automorphisms map each cell onto
    itself, so that vertex's orbit does too.
    """
    return _refine(rows, [(1 << len(rows)) - 1], set())


def _canonical(rows: Rows, cells: list[int] | None = None
               ) -> tuple[bytes, tuple[int, ...], list[tuple[int, ...]]]:
    """One canonical search: (key, perm, discovered generators)."""
    n = len(rows)
    if n > MAX_ORDER:
        raise ResourceLimitError(f"canonical keys support order <= {MAX_ORDER}")
    if n == 0:
        return bytes([0]), (), []
    if n == 1:
        return bytes([1]), (0,), []
    s = _Search(rows)
    s.run(root_cells(rows) if cells is None else cells)
    return _pack(n, s.best_codes), tuple(s.best_perm), s.gens


def canonical_perm(rows: Rows) -> tuple[int, ...]:
    """Permutation as a tuple p with p[position] = original vertex.

    Raises ResourceLimitError above order 255, like the key functions.
    """
    return _canonical(rows)[1]


def canonical_key_rows(rows: Rows) -> bytes:
    return _canonical(rows)[0]


def canonical_data(rows: Rows, cells: list[int] | None = None
                   ) -> tuple[bytes, tuple[int, ...], list[tuple[int, ...]]]:
    """(key, perm, discovered automorphism generators) in one search.

    ``cells``, when given, must be ``root_cells(rows)``; the search then
    starts from it instead of refining the root again.

    The generator list is not a full generating set of the automorphism
    group in general; callers may only use it for sound positive tests
    (an element listed in an orbit really is in that orbit).
    """
    return _canonical(rows, cells)


def _pack(n: int, codes: list[int]) -> bytes:
    acc = 0
    shift = 0
    for j, code in enumerate(codes, start=1):
        acc |= code << shift
        shift += j
    nbytes = (shift + 7) // 8
    return bytes([n]) + acc.to_bytes(nbytes, "big")


def relabel_rows(rows: Rows, perm: tuple[int, ...]) -> Rows:
    """Rows permuted so that position i holds original vertex perm[i]."""
    n = len(rows)
    inv = [0] * n
    for pos, v in enumerate(perm):
        inv[v] = pos
    out = [0] * n
    for v in range(n):
        r = rows[v]
        nr = 0
        while r:
            low = r & -r
            nr |= 1 << inv[low.bit_length() - 1]
            r ^= low
        out[inv[v]] = nr
    return tuple(out)


def canonical_rows(rows: Rows) -> Rows:
    """The graph relabeled into its canonical order."""
    return relabel_rows(rows, canonical_perm(rows))


# ---------------------------------------------------------------------------
# public, Graph-level
# ---------------------------------------------------------------------------

def canonical_key(g: Graph) -> bytes:
    if g._canon is None:
        g._canon = canonical_key_rows(g.rows())
    return g._canon


def canonical_graph(g: Graph) -> Graph:
    return Graph.from_rows(canonical_rows(g.rows()))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.order != h.order or g.size != h.size:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_key(g) == canonical_key(h)
