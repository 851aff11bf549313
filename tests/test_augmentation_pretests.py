"""The augmentation pre-tests against full labeling.

``generate._expand_parent`` bounds the subset by degree and
``generate._accept`` compares a degree pair, both before any canonical
labeling.  The reference below is the augmentation with neither
pre-test: it labels the parent first and every candidate child, and
rejects on the labeled child only.  Both must return the same
(key, rows) list, in the same order, for every parent they meet.

With ``use_generators=False`` the reference also ignores every
automorphism generator: it labels the child of every subset and decides
every acceptance by deleting the canonically last vertex and comparing
with the parent's key.  Agreement with that variant shows that the
orbit tests, including the twin transpositions ``_expand_parent`` and
``_accept`` add to the discovered generators, drop no class.
"""

from __future__ import annotations

import random

import pytest

from minorsieve.canon import canonical_data, canonical_key_rows, \
    relabel_rows
from minorsieve.generate import EnumFilter, _expand_parent, _subset_image, \
    universe_level
from minorsieve.graphs import Rows, rows_component_masks, \
    rows_delete_vertex, rows_size
from minorsieve.planarity import is_planar_rows

from conftest import random_graph


# ---------------------------------------------------------------------------
# reference augmentation: every candidate labeled
# ---------------------------------------------------------------------------

def reference_expand(parent: Rows, filt: EnumFilter | None,
                     use_generators: bool = True) -> list[tuple[bytes, Rows]]:
    n = len(parent)
    parent_key, _, gens = canonical_data(parent)
    if not use_generators:
        gens = []
    accept = reference_accept if use_generators else unpruned_accept

    required = 0
    lo_bits, hi_bits = 0, n
    comp_masks: tuple[int, ...] = ()
    if filt is not None:
        d = filt.min_degree
        if d:
            for v in range(n):
                dv = parent[v].bit_count()
                if dv < d - 1:
                    return []
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
        accepted = accept(child, n, parent, parent_key)
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


def reference_accept(child: Rows, new: int, parent: Rows,
                     parent_key: bytes) -> tuple[bytes, Rows] | None:
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


def unpruned_accept(child: Rows, new: int, parent: Rows,
                    parent_key: bytes) -> tuple[bytes, Rows] | None:
    key, perm, _ = canonical_data(child)
    if canonical_key_rows(rows_delete_vertex(child, perm[-1])) != parent_key:
        return None
    return key, relabel_rows(child, perm)


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

def test_unfiltered_parents_through_order_6():
    for n in range(1, 7):
        for parent in universe_level(n):
            assert _expand_parent(parent, None) == \
                reference_expand(parent, None), (n, parent)


def test_planarity_filtered_parents_through_order_6():
    """The parent's planarity decides every child of a nonplanar parent;
    the reference tests each child itself."""
    for n in range(1, 7):
        for planarity in ("planar", "nonplanar"):
            filt = EnumFilter(order=n + 1, planarity=planarity)
            for parent in universe_level(n):
                assert _expand_parent(parent, filt) == \
                    reference_expand(parent, filt), (n, planarity, parent)


def test_filtered_order_7_parents():
    """Compared as sets: a child whose last vertex is pseudo-similar to
    the new one (not in its orbit, yet deleting either gives the parent)
    is accepted from the subset that attaches a vertex of the last root
    cell, which can come later in subset order than the one the
    reference accepts."""
    filt = EnumFilter(order=8, min_degree=4, connected=True,
                      planarity="nonplanar")
    total = 0
    for parent in universe_level(7):
        got = _expand_parent(parent, filt)
        assert sorted(got) == sorted(reference_expand(parent, filt)), parent
        total += len(got)
    assert total > 0


def test_levels_equal_a_reference_build():
    """Levels 1-8 built from scratch with ``reference_accept``, which
    has neither pre-test nor the root-cell test, equal the universe
    levels row for row."""
    level: list[Rows] = [(0,)]
    assert universe_level(1) == level
    for n in range(2, 9):
        pairs = [pair for parent in level
                 for pair in reference_expand(parent, None)]
        level = [rows for _, rows in sorted(pairs)]
        assert universe_level(n) == level, n


@pytest.mark.parametrize("filtered", (False, True))
def test_generators_drop_no_class_through_order_6(filtered):
    total = 0
    for n in range(1, 7):
        filt = EnumFilter(order=n + 1, min_degree=4, connected=True,
                          planarity="nonplanar") if filtered else None
        for parent in universe_level(n):
            got = _expand_parent(parent, filt)
            assert got == reference_expand(parent, filt,
                                           use_generators=False), (n, parent)
            total += len(got)
    assert total > 0


def test_last_vertex_minimizes_degree_pair():
    """Both invariants, read off the labeling itself: the canonically
    last vertex has minimum degree and, among the vertices of minimum
    degree, the fewest neighbors of maximum degree."""
    rng = random.Random(5)
    for _ in range(500):
        rows = random_graph(rng, rng.randint(8, 12)).rows()
        _, perm, _ = canonical_data(rows)
        degrees = [r.bit_count() for r in rows]
        top = max(degrees)
        hub = sum(1 << v for v, dv in enumerate(degrees) if dv == top)
        last = perm[-1]
        assert degrees[last] == min(degrees)
        assert (rows[last] & hub).bit_count() == min(
            (rows[v] & hub).bit_count() for v in range(len(rows))
            if degrees[v] == degrees[last])
