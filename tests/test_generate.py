"""Canonical enumeration counts and the minimal-member search driver."""

from __future__ import annotations

import random

import pytest

from minorsieve import EnumFilter, Graph, Property, build_named, \
    canonical_key, is_minor_minimal, \
    count_graphs, enumerate_partition, generate_graphs, search_minor_minimal
from minorsieve import generate
from minorsieve.canon import _subset_image, _twin_swaps
from minorsieve.cli import main
from minorsieve.planarity import is_planar_rows

from conftest import random_graph, rows_from_edges

# unlabeled simple graphs on n vertices (OEIS A000088)
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
# connected ones (A001349)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
# nonplanar classes first appear at order 5
NONPLANAR_COUNTS = {4: 0, 5: 1, 6: 14, 7: 222}


@pytest.mark.parametrize("order,expected",
                         sorted((o, c) for o, c in ALL_COUNTS.items() if o < 8))
def test_total_class_counts(order, expected):
    assert count_graphs(EnumFilter(order=order)) == expected


@pytest.mark.parametrize("order,expected",
                         sorted((o, c) for o, c in CONNECTED_COUNTS.items() if o < 8))
def test_connected_class_counts(order, expected):
    assert count_graphs(EnumFilter(order=order, connected=True)) == expected


def test_order_8_universe():
    assert count_graphs(EnumFilter(order=8)) == ALL_COUNTS[8]


@pytest.mark.parametrize("order,expected", sorted(NONPLANAR_COUNTS.items()))
def test_nonplanar_class_counts(order, expected):
    filt = EnumFilter(order=order, planarity="nonplanar")
    assert count_graphs(filt) == expected


def test_enumeration_is_isomorphism_free(reps_by_order):
    for order, reps in reps_by_order.items():
        keys = {canonical_key(g) for g in reps}
        assert len(keys) == len(reps) == ALL_COUNTS[order]
        assert all(g.order == order for g in reps)


def test_filters_compose():
    filt = EnumFilter(order=6, min_degree=2, connected=True,
                      planarity="nonplanar")
    found = generate_graphs(filt)
    assert count_graphs(filt) == len(found)
    assert all(min(len(g.neighbors(v)) for v in range(6)) >= 2
               for g in found)
    # K5 with a pendant leaf fails min_degree; K6 passes everything
    assert canonical_key(build_named("K6")) in \
        {canonical_key(g) for g in found}


def test_filter_validation():
    with pytest.raises(ValueError):
        EnumFilter(order=0)
    with pytest.raises(ValueError):
        EnumFilter(order=5, min_degree=-1)
    with pytest.raises(ValueError):
        EnumFilter(order=5, planarity="almost")


def test_partition_shards_tile_the_universe():
    filt = EnumFilter(order=7, planarity="nonplanar")
    whole = {canonical_key(g) for g in generate_graphs(filt)}
    shards = [
        {canonical_key(g) for g in enumerate_partition(filt, s, 4)}
        for s in range(4)
    ]
    assert set().union(*shards) == whole
    assert sum(len(s) for s in shards) == len(whole)  # pairwise disjoint


def test_partition_shards_tile_a_min_degree_pool():
    """A minimum-degree pool deals out its restricted parent level."""
    filt = EnumFilter(order=8, min_degree=3)
    whole = [g.rows() for g in generate_graphs(filt)]
    shards = [[g.rows() for g in enumerate_partition(filt, s, 4)]
              for s in range(4)]
    assert all(shards)
    assert sorted(rows for shard in shards for rows in shard) == \
        sorted(whole)  # a tiling: no member lost, none in two shards


def test_partition_argument_validation():
    filt = EnumFilter(order=5)
    with pytest.raises(ValueError):
        list(enumerate_partition(filt, 4, 4))
    with pytest.raises(ValueError):
        list(enumerate_partition(filt, 0, 0))


def test_worker_pool_is_deterministic():
    filt = EnumFilter(order=6, planarity="nonplanar")
    serial = [sorted(g.edges) for g in generate_graphs(filt, jobs=1)]
    pooled = [sorted(g.edges) for g in generate_graphs(filt, jobs=4)]
    assert serial == pooled


def test_search_an_order_6():
    report = search_minor_minimal(Property.AN, orders=range(1, 7))
    found_keys = {canonical_key(g) for g in report.found}
    want = {canonical_key(build_named("K5-e")),
            canonical_key(build_named("K33-e"))}
    assert found_keys == want
    assert report.found_by_order() == {5: 1, 6: 1}
    # the AN pool is the planar classes only
    planar = sum(ALL_COUNTS[n] - NONPLANAR_COUNTS.get(n, 0)
                 for n in range(1, 7))
    assert report.scanned == planar == 193


def test_search_rejects_orders_above_cap():
    from minorsieve import ResourceLimitError
    with pytest.raises(ResourceLimitError):
        search_minor_minimal(Property.AN, orders=[11])
    with pytest.raises(ValueError):
        search_minor_minimal(Property.AN, orders=[])


def test_order_past_cap_does_no_work(built_levels):
    """Every order is checked against the cap before the first level is
    built, so a request that ends past the cap does no enumeration."""
    from minorsieve import ResourceLimitError
    with pytest.raises(ResourceLimitError):
        search_minor_minimal(Property.NE, [8, 11])
    with pytest.raises(ResourceLimitError):
        EnumFilter(order=generate.MAX_ENUM_ORDER + 1)
    assert built_levels == []


def test_listing_a_level_at_the_cap_builds_nothing(built_levels):
    """Keeping every member of an order-10 level in one call would hold
    it in memory whole; both listing calls raise before any level is
    built."""
    from minorsieve import ResourceLimitError
    filt = EnumFilter(order=generate.MAX_ENUM_ORDER)
    with pytest.raises(ResourceLimitError, match="in memory whole"):
        generate_graphs(filt)
    with pytest.raises(ResourceLimitError, match="in memory whole"):
        enumerate_partition(filt, 0, 1)
    assert built_levels == []


def test_counts_and_shards_at_the_cap_still_run(monkeypatch):
    from minorsieve import ResourceLimitError
    monkeypatch.setattr(generate, "MAX_ENUM_ORDER", 6)
    filt = EnumFilter(order=6)
    with pytest.raises(ResourceLimitError):
        generate_graphs(filt)
    halves = enumerate_partition(filt, 0, 2) + enumerate_partition(filt, 1, 2)
    assert len(halves) == count_graphs(filt) == ALL_COUNTS[6]
    report = search_minor_minimal(Property.NA, [6])
    assert report.scanned == NONPLANAR_COUNTS[6]
    assert [canonical_key(g) for g in report.found] == \
        [canonical_key(Graph.complete(6))]


def test_report_round_trip_fields():
    report = search_minor_minimal(Property.CAN, orders=[5])
    assert report.prop is Property.CAN
    assert report.orders == (5,)
    assert report.wall_time >= 0
    assert len(report.found) == 1


# ---------------------------------------------------------------------------
# planarity-only final levels: the filtered universe level
# ---------------------------------------------------------------------------

def _expanded(filt: EnumFilter) -> list:
    """The final level by canonical augmentation under the filter."""
    if filt.order == 1:
        return [(0,)] if filt.admits((0,)) else []
    return generate._expand_level(filt.order, filt, 1)[1]


@pytest.mark.parametrize("planarity", ("all", "planar", "nonplanar"))
def test_universe_path_equals_expansion(planarity):
    for order in range(1, 9):
        filt = EnumFilter(order=order, planarity=planarity)
        assert generate._final_pairs(filt)[1] == _expanded(filt), order


def test_parallel_universe_equals_serial(monkeypatch):
    levels = {}
    for jobs in (1, 2):
        monkeypatch.setattr(generate, "_UNIVERSE", {1: [(0,)]})
        levels[jobs] = [generate.universe_level(n, jobs)
                        for n in range(1, 8)]
    assert levels[2] == levels[1]
    assert [len(level) for level in levels[1]] == \
        [ALL_COUNTS[n] for n in range(1, 8)]


def test_cap_order_never_enters_the_universe(monkeypatch):
    monkeypatch.setattr(generate, "_UNIVERSE", {1: [(0,)]})
    monkeypatch.setattr(generate, "_PLANAR", {})
    monkeypatch.setattr(generate, "MAX_ENUM_ORDER", 6)
    filt = EnumFilter(order=6, planarity="nonplanar")
    assert count_graphs(filt) == NONPLANAR_COUNTS[6]
    assert max(generate._UNIVERSE) < 6
    assert count_graphs(EnumFilter(order=5, planarity="nonplanar")) == 1
    assert list(generate._PLANAR) == [5]


def test_fresh_count_streams(monkeypatch):
    """A count of a planarity-only level that is not cached yet streams
    it: the same count as the cached level gives, and the level itself
    is never cached."""
    want = {(n, p): generate._final_pairs(EnumFilter(n, planarity=p))[0]
            for n in range(1, 9) for p in ("planar", "nonplanar")}
    monkeypatch.setattr(generate, "_UNIVERSE", {1: [(0,)]})
    monkeypatch.setattr(generate, "_PLANAR", {})
    for (n, p), count in want.items():
        assert count_graphs(EnumFilter(n, planarity=p)) == count, (n, p)
        assert n == 1 or n not in generate._UNIVERSE, (n, p)
    assert want[7, "nonplanar"] == NONPLANAR_COUNTS[7]


def test_level_planarity_is_tested_once(monkeypatch):
    level = generate.universe_level(7)
    tested = []

    def counting(rows):
        tested.append(rows)
        return is_planar_rows(rows)

    monkeypatch.setattr(generate, "_PLANAR", {})
    monkeypatch.setattr(generate, "is_planar_rows", counting)
    pools = {p: generate._final_pairs(EnumFilter(order=7, planarity=p))[1]
             for p in ("planar", "nonplanar")}
    again = generate._final_pairs(EnumFilter(order=7, planarity="planar"))[1]
    assert tested == level  # each member once, over all three requests
    for p, pool in pools.items():
        assert pool == [rows for rows in level
                        if is_planar_rows(rows) == (p == "planar")]
    assert again == pools["planar"]
    assert len(pools["nonplanar"]) == NONPLANAR_COUNTS[7]


def test_merge_rejects_duplicate_children(monkeypatch):
    expand = generate._expand_parent
    monkeypatch.setattr(generate, "_expand_parent",
                        lambda *args: expand(*args) * 2)
    with pytest.raises(RuntimeError, match="duplicate canonical forms"):
        count_graphs(EnumFilter(order=5, connected=True))


def test_search_found_in_key_order():
    report = search_minor_minimal(Property.NE, orders=range(1, 8))
    keys = [canonical_key(g) for g in report.found]
    assert keys == sorted(set(keys))
    assert len(keys) > 1


# ---------------------------------------------------------------------------
# streamed final levels
# ---------------------------------------------------------------------------

def _one_shot(filt: EnumFilter) -> list:
    """The final level built whole: every parent's children, sorted by
    key."""
    pairs = [pair for parent in generate.universe_level(filt.order - 1)
             for pair in generate._expand_parent(parent, filt)]
    return [rows for _, rows in sorted(pairs)]


def test_stream_equals_one_shot(monkeypatch):
    """Streamed counts and searches, three parents to a chunk, at one
    and two workers, against the whole level counted and decided."""
    monkeypatch.setattr(generate, "_CHUNK", 3)
    for prop, min_degree, connected in ((Property.NE, 3, False),
                                        (Property.NC, 4, True)):
        pools = {order: _one_shot(EnumFilter(
            order, min_degree=min_degree, connected=connected,
            planarity="nonplanar")) for order in range(2, 9)}
        hits = [rows for order in range(2, 9) for rows in pools[order]
                if is_minor_minimal(Graph.from_rows(rows), prop)]
        for jobs in (1, 2):
            for order, pool in pools.items():
                filt = EnumFilter(order, min_degree=min_degree,
                                  connected=connected, planarity="nonplanar")
                assert count_graphs(filt, jobs) == len(pool), (order, jobs)
            report = search_minor_minimal(prop, range(2, 9), min_degree,
                                          connected, jobs)
            assert report.scanned == sum(map(len, pools.values()))
            assert [g.rows() for g in report.found] == hits, (prop, jobs)
        assert hits


def test_count_never_relabels(monkeypatch):
    filt = EnumFilter(order=7, min_degree=2, connected=True,
                      planarity="nonplanar")
    want = len(_one_shot(filt))

    def relabel(rows, perm):
        raise AssertionError("a count relabeled a child")

    monkeypatch.setattr(generate, "relabel_rows", relabel)
    for jobs in (1, 2):
        assert count_graphs(filt, jobs) == want > 0


# ---------------------------------------------------------------------------
# parent levels restricted by minimum degree
# ---------------------------------------------------------------------------

def test_restricted_levels_equal_the_filtered_universe(monkeypatch):
    """Every minimum-degree level, built cold from restricted parent
    levels, is the universe level filtered by ``admits``, row for row.
    The degrees descend, so each chain is built down to the universe
    level of order n - d, the only one a restricted chain caches."""
    filters = [EnumFilter(n, min_degree=d, connected=c, planarity=p)
               for d in range(5, 0, -1) for n in range(2, 9)
               for c in (False, True) for p in ("all", "planar", "nonplanar")]
    want = {filt: [rows for rows in generate.universe_level(filt.order)
                   if filt.admits(rows)] for filt in filters}
    monkeypatch.setattr(generate, "_UNIVERSE", {1: [(0,)]})
    monkeypatch.setattr(generate, "_PLANAR", {})
    deepest = 1
    for filt in filters:
        assert generate._final_pairs(filt)[1] == want[filt], filt
        deepest = max(deepest, filt.order - filt.min_degree)
        assert max(generate._UNIVERSE) == deepest, filt
    assert any(want.values())


@pytest.mark.parametrize("order,min_degree,prop", [
    (1, 1, None), (2, 5, None), (5, 99999999999999999999, None),
    (3, 7, Property.NE),
])
def test_min_degree_past_the_order_builds_nothing(order, min_degree, prop,
                                                  monkeypatch, capsys):
    """No graph of order n has minimum degree n or more, so the pool is
    empty before any level is built, in the API and the CLI."""
    monkeypatch.setattr(generate, "_UNIVERSE", {1: [(0,)]})
    argv = ["search", "--order", str(order), "--min-degree", str(min_degree),
            "--count-only"]
    if prop is None:
        scanned = count_graphs(EnumFilter(order, min_degree=min_degree,
                                          planarity="nonplanar"))
    else:
        scanned = search_minor_minimal(prop, [order], min_degree).scanned
        argv += ["--property", prop.value]
    assert scanned == 0
    assert main(argv) == 0
    assert "scanned 0" in capsys.readouterr().out.splitlines()
    assert generate._UNIVERSE == {1: [(0,)]}


# ---------------------------------------------------------------------------
# twin transpositions
# ---------------------------------------------------------------------------

def _is_automorphism(rows, perm) -> bool:
    return all(_subset_image(rows[v], perm) == rows[perm[v]]
               for v in range(len(rows)))


def _twin_class(rows, v) -> set[int]:
    return {u for u in range(len(rows))
            if rows[u] == rows[v] or rows[u] | 1 << u == rows[v] | 1 << v}


def test_twin_swaps_are_automorphisms():
    rng = random.Random(20261018)
    sources = [rows for n in range(1, 8) for rows in generate.universe_level(n)]
    sources += [random_graph(rng, rng.randint(1, 10)).rows()
                for _ in range(2000)]
    swapped = 0
    for rows in sources:
        for perm in _twin_swaps(rows):
            assert sorted(perm) == list(range(len(rows)))
            assert sum(perm[v] != v for v in range(len(rows))) == 2
            assert _is_automorphism(rows, perm), (rows, perm)
            swapped += 1
    assert swapped > 0


@pytest.mark.parametrize("order,edges", [
    (6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),  # K6
    (6, [(u, v) for u in range(3) for v in range(3, 6)]),  # K3,3
    (8, [(0, 1), (2, 3), (4, 5), (6, 7)]),  # 4K2
    (6, [(0, v) for v in range(1, 6)]),  # K1,5
    (5, []),  # edgeless
])
def test_twin_swaps_orbits_are_twin_classes(order, edges):
    rows = rows_from_edges(order, edges)
    swaps = _twin_swaps(rows)
    for v in range(order):
        orbit = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for perm in swaps:
                if perm[x] not in orbit:
                    orbit.add(perm[x])
                    stack.append(perm[x])
        assert orbit == _twin_class(rows, v), v
