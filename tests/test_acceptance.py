"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single PASS/FAIL line
with its wall time.  Heavy search reports are shared across criteria
through module-scoped fixtures so the suite stays inside the budgets.
"""

from __future__ import annotations

import json
import random
import sys
import time

import pytest

from minorsieve import EnumFilter, Graph, Property, build_named, \
    canonical_key, count_graphs, find_apex_vertex, generate_graphs, \
    is_minor_minimal_exhaustive, is_mmnc, is_mmne, is_planar, \
    mm_catalog, mmne_structure_violations, search_minor_minimal
from minorsieve.cli import main

from conftest import random_graph
from reference_planarity import has_minor


def emit(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", file=sys.stderr)


def catalog_keys(prop, max_order=None):
    return {canonical_key(e.graph) for e in mm_catalog(prop)
            if max_order is None or e.graph.order <= max_order}


def found_keys(report):
    return {canonical_key(g) for g in report.found}


@pytest.fixture(scope="module")
def ne_search():
    return search_minor_minimal(Property.NE, range(1, 9))


@pytest.fixture(scope="module")
def nc_search():
    return search_minor_minimal(Property.NC, range(1, 9))


def test_criterion_1_classification_searches():
    budget = 600.0
    jobs = [
        (Property.AN, 6, {"K5-e", "K33-e"}),
        (Property.CAN, 6, {"K5-e"}),
        (Property.IA, 7, {"K1|K5", "K1|K33"}),
        (Property.IE, 8, None),
        (Property.IC, 8, None),
    ]
    worst = 0.0
    for prop, max_order, names in jobs:
        t0 = time.monotonic()
        report = search_minor_minimal(prop, range(1, max_order + 1))
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        want = catalog_keys(prop)
        assert found_keys(report) == want, (prop, "wrong member set")
        if names is not None:
            named = {canonical_key(build_named(n)) for n in names}
            assert want == named
        assert dt < budget, (prop, dt)
    emit(True, "criterion 1",
         f"AN/CAN/IA/IE/IC searches exact, worst {worst:.1f}s of {budget}s")


def test_criterion_2_order_9_pool_count():
    budget = 1800.0
    t0 = time.monotonic()
    got = count_graphs(EnumFilter(order=9, min_degree=2, connected=True,
                                  planarity="nonplanar"))
    dt = time.monotonic() - t0
    ok = got == 158_505 and dt < budget
    emit(ok, "criterion 2",
         f"order-9 connected nonplanar min-degree-2 classes = {got} "
         f"in {dt:.1f}s of {budget}s")
    assert got == 158_505
    assert dt < budget


def test_criterion_3_mmne_decider_and_search(ne_search):
    budget = 7200.0
    for e in mm_catalog(Property.NE):
        assert is_mmne(e.graph), e.id
    for g in (Graph.complete(5), Graph.complete(6), Graph.cycle(6),
              Graph.path(4), Graph.complete_bipartite(2, 3)):
        assert not is_mmne(g)
    assert found_keys(ne_search) == catalog_keys(Property.NE, 8)
    assert ne_search.found_by_order() == {6: 1, 7: 1, 8: 3}
    sizes = sorted(g.size for g in ne_search.found)
    assert sizes.count(12) == 1
    assert sizes.count(14) == 2
    twelve = [g for g in ne_search.found if g.size == 12]
    assert canonical_key(twelve[0]) == \
        canonical_key(build_named("K43"))
    assert ne_search.wall_time < budget
    emit(True, "criterion 3",
         f"27 members verified, order<=8 search exact "
         f"({ne_search.scanned} scanned in {ne_search.wall_time:.1f}s), "
         f"size histogram {sizes}")


def test_criterion_4_mmnc_decider_and_search(nc_search):
    budget = 7200.0
    for e in mm_catalog(Property.NC):
        assert is_mmnc(e.graph), e.id
    for g in (Graph.complete(5), Graph.complete(7), Graph.cycle(6)):
        assert not is_mmnc(g)
    assert found_keys(nc_search) == catalog_keys(Property.NC, 8)
    assert nc_search.found_by_order() == {6: 1, 7: 1, 8: 2}
    sizes = sorted(g.size for g in nc_search.found)
    assert sizes.count(12) == 1
    assert sizes.count(15) == 1
    fifteen = [g for g in nc_search.found if g.size == 15]
    assert canonical_key(fifteen[0]) == canonical_key(Graph.complete(6))
    assert nc_search.wall_time < budget
    emit(True, "criterion 4",
         f"34 members verified, order<=8 search exact "
         f"({nc_search.scanned} scanned in {nc_search.wall_time:.1f}s), "
         f"size histogram {sizes}")


def test_criterion_5_oracle_equivalences():
    t0 = time.monotonic()
    small = 0
    for order in range(1, 7):
        for g in generate_graphs(EnumFilter(order=order)):
            assert is_mmne(g) == is_minor_minimal_exhaustive(g, Property.NE)
            assert is_mmnc(g) == is_minor_minimal_exhaustive(g, Property.NC)
            small += 1
    assert small == 208
    rng = random.Random(158505)
    for _ in range(1000):
        g = random_graph(rng, 7)
        assert is_mmne(g) == is_minor_minimal_exhaustive(g, Property.NE)
        assert is_mmnc(g) == is_minor_minimal_exhaustive(g, Property.NC)
    k5, k33 = Graph.complete(5), Graph.complete_bipartite(3, 3)
    checked = 0
    for order in range(1, 8):
        for g in generate_graphs(EnumFilter(order=order)):
            kuratowski = has_minor(g, k5) or has_minor(g, k33)
            assert is_planar(g) == (not kuratowski)
            checked += 1
    assert checked == 1252
    emit(True, "criterion 5",
         f"sieves == exhaustive oracle on 208 classes + 1000 random "
         f"order-7; planarity == minor oracle on 1252 classes "
         f"({time.monotonic() - t0:.1f}s)")


def test_criterion_6_catalog_verification(capsys):
    budget = 1800.0
    t0 = time.monotonic()
    code = main(["verify-catalog", "--json"])
    dt = time.monotonic() - t0
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["ok"] is True and report["failures"] == 0
    assert dt < budget

    na = [e.graph for e in mm_catalog(Property.NA)]
    assert len(na) == 36
    assert all(g.min_degree() >= 3 for g in na)
    kappas = [g.vertex_connectivity() if g.is_connected() else 0 for g in na]
    assert 1 not in kappas
    assert all(k == 0 or 2 <= k <= 5 for k in kappas)

    def disconnected(prop):
        return {canonical_key(e.graph) for e in mm_catalog(prop)
                if not e.graph.is_connected()}

    triples = [disconnected(p) for p in
               (Property.NA, Property.NE, Property.NC)]
    assert triples[0] == triples[1] == triples[2]
    assert len(triples[0]) == 3

    by_name = {c["name"]: c["ok"] for c in report["checks"]}
    assert by_name["NE-not-closed"] and by_name["NC-not-closed"]
    emit(True, "criterion 6",
         f"verify-catalog exit 0, {report['claim_count']} claims in "
         f"{dt:.1f}s of {budget}s; structure facts re-derived")


def test_criterion_7_structure_sweep(ne_search):
    swept = list(ne_search.found) + [e.graph for e in mm_catalog(Property.NE)]
    violations = {}
    for g in swept:
        bad = mmne_structure_violations(g)
        if bad:
            violations[canonical_key(g)] = bad
    assert not violations
    # spot-verify the disjunction's two branches on known members:
    # rooks9 is not NA, so it must lose nonplanarity at some vertex;
    # the doubled K5 is minor-minimal NA and has no such vertex
    rook = build_named("rooks9")
    assert rook.min_degree() >= 2
    assert rook.vertex_connectivity() <= 5
    assert find_apex_vertex(rook) is not None
    doubled = build_named("K5|K5")
    assert find_apex_vertex(doubled) is None
    emit(True, "criterion 7",
         f"degree, connectivity and apex-or-minimal sweep clean over "
         f"{len(swept)} graphs")


def test_criterion_8_search_output_determinism(tmp_path, capsys):
    pairs = []
    for prop in ("NE", "IC"):
        a = tmp_path / f"{prop}-j1.g6"
        b = tmp_path / f"{prop}-j8.g6"
        assert main(["search", "--order", "1-7", "--property", prop,
                     "--jobs", "1", "--out", str(a)]) == 0
        assert main(["search", "--order", "1-7", "--property", prop,
                     "--jobs", "8", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes(), "search wrote an empty list"
        pairs.append(prop)
    emit(True, "criterion 8",
         f"byte-identical graph6 output across --jobs 1 and 8 for {pairs}")
