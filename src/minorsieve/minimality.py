"""Minor-minimality deciders.

A graph is minor-minimal for a property when it has the property and no
proper minor does.  Three deciders cover the eight properties:

* ``is_minor_minimal_upclosed`` handles NA, IA, IE and IC, whose
  negations are minor-closed: there, the property propagates upward
  along the minor order, so checking the one-step minors suffices.  The
  property is an isomorphism invariant, so labeled minors serve as well
  as canonical ones, and one minor per automorphism orbit stands for its
  orbit (``_orbit_minors``; see "Orbits" below).

* ``is_mmne`` and ``is_mmnc`` handle NE and NC, which lack that closure
  (deleting an edge can make a graph NE that was not, and dually).  For
  NE: test every single edge deletion, then search the contraction
  closure of the graph itself (its nonplanar proper contractions); the
  graph is minimal iff no deletion and no closure member is NE.
  Completeness rests on two facts.  Any minor normalizes to contractions
  followed by edge deletions, with vertex deletions traded for edge
  deletions that leave isolated husks (harmless to NE and NC, which
  ignore isolated vertices).  And "planar or has a planarizing edge
  deletion" is closed under edge deletion, so if any (g/C) - D is NE
  then g/C itself is NE, a closure member when C is nonempty; when C is
  empty the same fact applied below a single deletion shows some g - e
  is NE.  The NC sieve mirrors this exactly: test single contractions,
  search the deletion closure, using closure of "planar or has a
  planarizing contraction" under contraction.  The one case the normal
  form cannot reach, a minor obtained only by dropping an isolated
  vertex, is handled up front by the minimum-degree fact below.

* ``is_minor_minimal_exhaustive`` is the slow oracle: the full closure
  under vertex deletion, edge deletion and edge contraction, with no
  shortcuts beyond discarding planar subtrees when the property implies
  nonplanarity, and members with fewer than eight edges for AN and CAN.
  It exists to gate the fast deciders in tests and to serve AN and CAN,
  which sit inside planarity and get no closure help.

The exhaustive walk counts distinct members against a cap, and the pivot
walk below the members it scans; hitting the cap raises instead of
truncating.

Two degree facts (``_degree_violations``) decide many graphs before any
planarity test; ``mmne_structure_violations`` reports the same two.

* Minimum degree two, for NE and NC.  Let v have degree at most one in
  an NE (NC) graph g.  Deleting v keeps planarity either way, since v
  lies on no cycle, so g - v is nonplanar.  For an edge e of g - v,
  (g - v) - e = (g - e) - v and (g - v) / e = (g / e) - v, where v still
  has degree at most one, so each is nonplanar as g - e (g / e) is.
  Hence g - v is a proper NE (NC) minor and g is not minimal.
* Adjacent neighbors at every degree-two vertex, for NE.  Let v have
  degree two with nonadjacent neighbors x and y in an NE graph g.  The
  contraction g / vx is g with v suppressed into a new edge xy, so it is
  homeomorphic to g and nonplanar.  Deleting xy from it leaves g - v,
  nonplanar because g - vx is and v is pendant there; deleting any other
  edge e leaves g - e with v suppressed, homeomorphic to the nonplanar
  g - e.  Hence g / vx is a proper NE minor.  The NC analogue fails
  (catalog members A2.1-A2.11 are minor-minimal NC and have such
  vertices), so NC gets the first fact only.

The reference deciders of ``tests/test_closure_walk.py`` use neither
fact, so they check both.

The NE/NC closure is searched by a pivot walk, which needs no canonical
labeling.  Two lemmas make it sound.  In both, h is nonplanar and the
scan (deletion for NE, contraction for NC) has found an edge f that
planarizes h.

* NC.  Let h / f be planar, and take any h - D with f not in D.  Then
  (h - D) / f is a minor of h / f, so it is planar, and h - D is not NC.
  So every NC graph in h's deletion closure is h itself or lies in the
  closure of h - f.
* NE.  Let h - f be planar, and take a contraction h / C that keeps f as
  an edge f', possibly merged with parallel edges F.  Then
  (h / C) - f' = (h - F) / C, a minor of h - f, so it is planar and h / C
  is not NE.  If C identifies the ends of f, then h / C = h / (C + f),
  which lies in the closure of h / f.  So every NE graph in h's
  contraction closure is h itself or lies in the closure of h / f.

Every proper member lies in the closure of step(g, e) for some edge e of
the root g (step: contraction for NE, deletion for NC), so each root
edge starts one chain: cur = step(g, e); stop if cur is planar (its
whole closure is); otherwise scan cur, report a hit if the scan finds
nothing (cur is NE/NC), and else pivot, cur = step(cur, f).

Chains run in ``edges_from_rows`` order, one per automorphism orbit of
root edges (``_edge_orbit_reps``).  A chain also stops where its next
member lies in the closure of step(g, e_i) for a done root edge e_i: one
whose chain ended without a hit, or an image of one under an
automorphism.  That closure holds no NE (NC) graph.  If chain i ended
without a hit, its last member's next member is planar or, by induction
on i, lies in such a closure, and the lemma above carries "no NE (NC)
graph in the closure" back along the chain to step(g, e_i).  For an
automorphism s, step(g, s e_i) is the image of step(g, e_i) under s, so
its closure is the image of that closure, and NE and NC are isomorphism
invariants.  The walk carries the done root edges through the chain by
the same steps as cur and stops when the hit f is one of their images.
* NC.  Deletions keep labels, so cur - f lies in the closure of g - e_i
  iff e_i is f or already deleted; the chain stopped before any done
  root edge was deleted, so the test is whether f is done.
* NE.  g / C lies in the closure of g / e_i iff C merges the ends of
  e_i.  While they are apart, e_i maps to the edge of cur between their
  classes, and contracting f merges them iff f is that image.
No set of visited rows is kept.  An NC chain never meets a member of an
earlier chain, which lacks a done root edge; an NE chain can meet the
rows of one by another partition, and then scans them again.

Each step removes a vertex (NE) or an edge (NC), so a chain is at most n
(NE) or m (NC) steps long.  A scanned member is nonplanar, so it keeps
at least five vertices and nine edges, and the root has minimum degree
two, so m >= n: a chain scans at most m - 5 members, and a decision,
root check and seeds included, at most 1 + m + m (m - 5) <= m * m.  The
member cap counts the members a walk scans, the root included.

Orbits.  Every loop over the minors of the root g after its first
member visits one member per orbit of one group of automorphisms of g,
generated by those the canonical search discovers and the twin swaps
(``_automorphisms``).  Every generator is an automorphism, and a group
too small only skips less.  For an automorphism s of g, the minors
g - s e, g / s e and g - s v are the images under s of g - e, g / e and
g - v, so they have the same properties, and step(g, s e) has the image
closure used above.  Hence:

* the upward-closed decider checks one vertex deletion per vertex orbit
  and one edge deletion and one contraction per edge orbit;
* ``is_mmne`` scans one seed g - e per orbit of the edges not settled
  yet, and a hit f settles g - f, so it settles every g - s f as well;
  ``is_mmnc`` does the same with contractions;
* the walk runs one chain per root-edge orbit.

One lazy group (``_Group``) serves a whole decision: the seeds hand it to
the walk.  It costs a canonical search, so it is built at the first
orbit a loop asks for, when the loop resumes after its first member:
after the first seed with a hit, or after the first vertex deletion
without the property.  A decision that ends before never pays for it,
and a discrete root partition admits only the identity, so it needs no
search.  The NA root check, every g - v nonplanar, scans every vertex
without the group: most NA pool decisions end there, and building the
group after the first nonplanar g - v charged them more than the skipped
planarity tests saved.
"""

from __future__ import annotations

from collections.abc import Iterator

from .canon import _orbit, _subset_image, _twin_swaps, canonical_data, \
    canonical_key, canonical_key_rows, relabel_rows, root_cells
from .errors import ResourceLimitError
from .graphs import Edge, Graph, Rows, bits, edges_from_rows, \
    rows_contract_edge, rows_delete_edge, rows_delete_vertex, rows_size
from .planarity import is_planar_rows
from .properties import Property, UPWARD_CLOSED, check, \
    first_planar_contraction, first_planar_edge_deletion, \
    first_planar_vertex_deletion, is_na_rows, is_nc_rows, is_ne_rows

#: distinct members a sieve may visit before giving up loudly
SIEVE_MEMBER_CAP = 1_000_000

#: order bound for the exhaustive oracle; the closure is the full minor
#: lattice below the graph, which grows far too fast beyond this
EXHAUSTIVE_ORDER_CAP = 10

_NONPLANAR_PROPS = frozenset({
    Property.NA, Property.NE, Property.NC,
    Property.IA, Property.IE, Property.IC,
})


# ---------------------------------------------------------------------------
# one-step minors
# ---------------------------------------------------------------------------

def _labeled_minors(rows: Rows) -> list[Rows]:
    """Every single-operation minor as labeled rows: the vertex
    deletions, then a deletion and a contraction per edge.

    Vertex deletions are included alongside the two edge operations:
    graphs with isolated vertices (disconnected minimal examples have
    them below) are unreachable by edge operations alone.
    """
    children = [rows_delete_vertex(rows, v) for v in range(len(rows))]
    for u, v in edges_from_rows(rows):
        children.append(rows_delete_edge(rows, u, v))
        children.append(rows_contract_edge(rows, u, v))
    return children


def one_step_minor_rows(rows: Rows) -> list[Rows]:
    """Canonical representatives of all single-operation minors
    (``_labeled_minors``), deduplicated by canonical key and sorted by
    it."""
    out: dict[bytes, Rows] = {}
    for child in _labeled_minors(rows):
        key, perm, _ = canonical_data(child)
        if key not in out:
            out[key] = relabel_rows(child, perm)
    return [out[k] for k in sorted(out)]


def _automorphisms(rows: Rows) -> list[tuple[int, ...]]:
    """Generators of a group of automorphisms of ``rows``: those the
    canonical search discovers, plus the twin swaps.  None when the root
    partition is discrete, which only the identity preserves."""
    cells = root_cells(rows)
    if len(cells) == len(rows):
        return []
    return canonical_data(rows, cells)[2] + _twin_swaps(rows)


class _Group:
    """The group ``_automorphisms(rows)`` generates, searched for at the
    first orbit asked of it, so a decision that ends before never pays
    for it."""

    __slots__ = ("rows", "gens")

    def __init__(self, rows: Rows):
        self.rows, self.gens = rows, None

    def orbit(self, mask: int) -> set[int]:
        """The images of the vertex set ``mask``."""
        if self.gens is None:
            self.gens = _automorphisms(self.rows)
        return _orbit(mask, self.gens, _subset_image)


def _mark(done: list[int], u: int, v: int, group: _Group) -> None:
    """Add the orbit of the edge uv to ``done`` (adjacency rows)."""
    for e in group.orbit(1 << u | 1 << v):
        for x in bits(e):
            done[x] |= e ^ 1 << x


def _edge_orbit_reps(rows: Rows, done: list[int],
                     group: _Group) -> Iterator[Edge]:
    """The edges of ``rows`` in ``edges_from_rows`` order, skipping
    those in ``done``.  When resumed after an edge, the generator marks
    that edge's orbit done, so it yields one edge per orbit; a caller
    that stops at the first edge never asks the group for an orbit."""
    for u, v in edges_from_rows(rows):
        if not done[u] >> v & 1:
            yield u, v
            _mark(done, u, v, group)


def _vertex_orbit_reps(rows: Rows, group: _Group) -> Iterator[int]:
    """The vertices of ``rows`` in order, one per orbit; as for
    ``_edge_orbit_reps``, an orbit is asked for only on resumption."""
    done = 0
    for v in range(len(rows)):
        if not done >> v & 1:
            yield v
            for w in group.orbit(1 << v):
                done |= w


def _orbit_minors(rows: Rows, group: _Group) -> Iterator[Rows]:
    """Labeled single-operation minors in ``_labeled_minors``' order:
    one vertex deletion per vertex orbit, and one edge deletion and one
    contraction per edge orbit."""
    for v in _vertex_orbit_reps(rows, group):
        yield rows_delete_vertex(rows, v)
    for u, v in _edge_orbit_reps(rows, [0] * len(rows), group):
        yield rows_delete_edge(rows, u, v)
        yield rows_contract_edge(rows, u, v)


# ---------------------------------------------------------------------------
# fast deciders
# ---------------------------------------------------------------------------

def is_minor_minimal_upclosed(g: Graph, prop: Property) -> bool:
    """One-step minimality test; sound only for the upward-closed four.

    NA is decided on rows by ``is_na_rows``, which skips the base
    planarity test."""
    if prop not in UPWARD_CLOSED:
        raise ValueError(f"{prop} is not upward-closed; use the sieve or oracle")
    rows = g.rows()
    group = _Group(rows)
    na = prop is Property.NA
    if not (is_na_rows(rows) if na else check(g, prop)):
        return False
    seen = set()  # repeats skipped; minors built only up to the first hit
    for m in _orbit_minors(rows, group):
        if m not in seen:
            seen.add(m)
            if is_na_rows(m) if na else check(Graph.from_rows(m), prop):
                return False
    return True


def _pivot_walk(rows: Rows, step, scan, label: str, group: _Group) -> bool:
    """True iff some proper member of the closure of ``rows`` under
    ``step(cur, u, v)`` is nonplanar with no planarizing edge under the
    scan's operation (the member is NE or NC).

    One chain per orbit of root edges, each pivoting on the scan's hit
    and stopping where the hit is the image of a done root edge; the
    module docstring proves that no other member needs a visit.
    ``done`` holds the orbits of the root edges whose chains found no
    hit, and ``cleared`` their images as rows, carried through the chain
    by the same steps as ``cur``.  ``group`` is the root's, as the seeds
    left it.
    """
    done = [0] * len(rows)
    members = 1  # the root
    for u, v in _edge_orbit_reps(rows, done, group):
        cur, cleared = step(rows, u, v), step(done, u, v)
        while not is_planar_rows(cur):
            members += 1
            if members > SIEVE_MEMBER_CAP:
                raise ResourceLimitError(
                    f"{label} sieve exceeded {SIEVE_MEMBER_CAP} members"
                )
            hit = scan(cur)
            if hit is None:
                return True
            x, y = hit
            if cleared[x] >> y & 1:
                break
            cur, cleared = step(cur, x, y), step(cleared, x, y)
    return False


def _degree_violations(rows: Rows, ne: bool) -> list[str]:
    """The degree facts every minor-minimal NE (``ne``) or NC graph meets:
    minimum degree two, and for NE a neighbor edge at every degree-two
    vertex.  The module docstring proves both."""
    out = []
    if min((r.bit_count() for r in rows), default=0) < 2:
        out.append("minimum degree below 2")
    if ne:
        for v, r in enumerate(rows):
            if r.bit_count() == 2:
                low = r & -r
                if not rows[low.bit_length() - 1] & (r ^ low):
                    out.append(f"degree-2 vertex {v} with nonadjacent "
                               f"neighbors")
    return out


def is_mmne(g: Graph) -> bool:
    """Minor-minimal NE: deletion seeds, one per edge orbit, plus the
    contraction closure.

    A seed's hit settles the orbit of that edge: when (g - e) - f is
    planar, so is (g - f) - e, the same rows, so g - f is not NE, nor is
    its image g - s f under an automorphism s.
    """
    rows = g.rows()
    if _degree_violations(rows, True) or not is_ne_rows(rows):
        return False
    group, done = _Group(rows), [0] * len(rows)
    for e in _edge_orbit_reps(rows, done, group):
        # g - e is nonplanar because g is NE; only the scan is open
        hit = first_planar_edge_deletion(rows_delete_edge(rows, *e))
        if hit is None:
            return False
        _mark(done, *hit, group)
    return not _pivot_walk(rows, rows_contract_edge,
                           first_planar_edge_deletion, "NE", group)


def is_mmnc(g: Graph) -> bool:
    """Minor-minimal NC: contraction seeds, one per edge orbit, plus the
    deletion closure.

    A seed's hit settles the orbits of later seeds.  ``rows_contract_edge`` labels each
    merged class by its least vertex and keeps the other vertices in
    order, so the rows of a contraction depend only on the partition of
    the vertices into classes.  Let seed ab (a < b) hit xy in g / ab, and
    map x and y back to g by p -> p + (p >= b).  If neither is the merged
    vertex a, the partition {a, b}, {x, y} is also (g / xy) / ab, so
    g / xy is not NC.  If x or y is a and the other maps to z, the class
    {a, b, z} is one more contraction from g / az and from g / bz, so
    whichever of az and bz is an edge of g is settled, and with it, as
    for ``is_mmne``, its orbit.
    """
    rows = g.rows()
    if _degree_violations(rows, False) or not is_nc_rows(rows):
        return False
    group, done = _Group(rows), [0] * len(rows)
    for a, b in _edge_orbit_reps(rows, done, group):
        # g / e is nonplanar because g is NC; only the scan is open
        hit = first_planar_contraction(rows_contract_edge(rows, a, b))
        if hit is None:
            return False
        x, y = (p + (p >= b) for p in hit)
        for u, v in ((a, x + y - a), (b, x + y - a)) if a in (x, y) \
                else ((x, y),):
            if rows[u] >> v & 1:
                _mark(done, u, v, group)
    return not _pivot_walk(rows, rows_delete_edge,
                           first_planar_contraction, "NC", group)


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def is_minor_minimal_exhaustive(g: Graph, prop: Property) -> bool:
    """Ground-truth minimality: walk every proper minor and test each one.

    Planar subtrees are skipped when the property implies nonplanarity.
    For AN and CAN, members with fewer than eight edges are skipped: a
    nonplanar graph has at least nine edges, and an AN or CAN graph has
    a missing edge whose addition is nonplanar (a CAN graph is not
    complete), so it has at least eight, and so do the graphs it is a
    minor of.  Edge counts never grow along a minor walk, so every
    member with eight or more edges is still reached through members
    with eight or more.  Each labeled minor is keyed once, after the
    size test; the walk shares no code with ``_orbit_minors``, whose
    decider it checks.  Its order and member caps are
    ``EXHAUSTIVE_ORDER_CAP`` and ``SIEVE_MEMBER_CAP``.
    """
    if g.order > EXHAUSTIVE_ORDER_CAP:
        raise ResourceLimitError(
            f"exhaustive minimality capped at order {EXHAUSTIVE_ORDER_CAP}")
    if not check(g, prop):
        return False
    prune_planar = prop in _NONPLANAR_PROPS
    min_size = 8 if prop in (Property.AN, Property.CAN) else 0
    visited = {canonical_key(g)}
    frontier = [g.rows()]
    while frontier:
        grown = []
        for cur in frontier:
            for child in dict.fromkeys(_labeled_minors(cur)):
                if rows_size(child) < min_size:
                    continue
                key = canonical_key_rows(child)
                if key in visited:
                    continue
                visited.add(key)
                if len(visited) > SIEVE_MEMBER_CAP:
                    raise ResourceLimitError(f"exhaustive minimality "
                                             f"exceeded {SIEVE_MEMBER_CAP} members")
                if prune_planar and is_planar_rows(child):
                    continue
                if check(Graph.from_rows(child), prop):
                    return False
                grown.append(child)
        frontier = grown
    return True


def is_minor_minimal(g: Graph, prop: Property) -> bool:
    """Route to the right decider for the property."""
    if prop in UPWARD_CLOSED:
        return is_minor_minimal_upclosed(g, prop)
    if prop is Property.NE:
        return is_mmne(g)
    if prop is Property.NC:
        return is_mmnc(g)
    return is_minor_minimal_exhaustive(g, prop)


def mmne_structure_violations(g: Graph) -> list[str]:
    """Structural facts every minor-minimal NE graph satisfies.

    Returns human-readable descriptions of any violated fact (empty for
    a conforming graph): minimum degree at least two; the neighbors of
    every degree-two vertex adjacent to each other; vertex connectivity
    at most five; and the graph either has an apex vertex or is itself
    minor-minimal NA.  Useful as a sweep over search output: a violation
    means a bug somewhere, never a new graph.  ``is_mmne`` itself rejects
    every graph that breaks one of the first two facts.
    """
    out = _degree_violations(g.rows(), True)
    if g.vertex_connectivity() > 5:
        out.append("vertex connectivity above 5")
    if first_planar_vertex_deletion(g.rows()) is None \
            and not is_minor_minimal_upclosed(g, Property.NA):
        out.append("neither apex nor minor-minimal NA")
    return out
