"""Catalog integrity: counts, identifications, and self-verification."""

from __future__ import annotations

import re

import networkx as nx
import pytest

import minorsieve.catalog as catalog
from minorsieve import CatalogEntry, CatalogError, Graph, Property, \
    all_entries, appendix_graphs, build_mmna_family, build_named, \
    canonical_key, check, counterexample, is_mmnc, is_mmne, is_planar, \
    mm_catalog, verify_catalog, verify_entries

MM_COUNTS = {"AN": 2, "CAN": 1, "IA": 2, "IE": 5, "IC": 7,
             "NA": 36, "NE": 27, "NC": 34}


@pytest.fixture(scope="module")
def report():
    return verify_catalog(jobs=1)


def test_catalog_shape():
    entries = all_entries()
    assert len(entries) == 102
    assert len({e.id for e in entries}) == 102
    assert sum(len(e.claims) for e in entries) == 226


@pytest.mark.parametrize("prop,count", sorted(MM_COUNTS.items()))
def test_mm_list_sizes(prop, count):
    members = mm_catalog(prop)
    assert len(members) == count
    keys = {canonical_key(e.graph) for e in members}
    assert len(keys) == count  # pairwise non-isomorphic
    assert all(f"MM-{prop}" in e.claims for e in members)


def test_mm_catalog_accepts_enum_or_string():
    assert mm_catalog(Property.NE) == mm_catalog("NE")


def test_family_counts():
    for family, want in (("abEdge9", 9), ("bowtie3", 3), ("t220", 8),
                         ("t221", 8), ("t222", 5)):
        members = build_mmna_family(family)
        assert len(members) == want
        assert all(g.min_degree() >= 3 for g in members)
    with pytest.raises(ValueError):
        build_mmna_family("t223")


def test_family_verification_is_not_vacuous(monkeypatch):
    # an impossible expected count must surface as an error
    monkeypatch.setitem(catalog._FAMILY_COUNTS, "bowtie3", 99)
    build_mmna_family.cache_clear()
    try:
        with pytest.raises(CatalogError):
            build_mmna_family("bowtie3")
    finally:
        build_mmna_family.cache_clear()


def test_embedded_list_identifications():
    a1 = appendix_graphs("A1_MMNE_15")
    a2 = appendix_graphs("A2_MMNC_22")
    assert (a1[0].order, a1[0].size) == (9, 18)
    pairs = [
        ("K43", a1[12]), ("K43", a2[17]),
        ("rooks9", a1[13]), ("rooks9", a2[19]),
        ("K6-e", a1[14]), ("K6", a2[21]),
    ]
    for name, embedded in pairs:
        assert canonical_key(build_named(name)) == canonical_key(embedded)


def test_rooks_graph_is_triangle_product():
    prod = nx.cartesian_product(nx.complete_graph(3), nx.complete_graph(3))
    relabel = {v: i for i, v in enumerate(sorted(prod.nodes()))}
    rook = Graph(9, [(relabel[u], relabel[v]) for u, v in prod.edges()])
    assert canonical_key(rook) == canonical_key(build_named("rooks9"))


def test_named_shapes():
    assert (build_named("barK33").order, build_named("barK33").size) == (7, 10)
    # bar = one pendant vertex; contracting the pendant edge recovers K5
    assert (build_named("barK5").order, build_named("barK5").size) == (6, 11)
    assert (build_named("K5-e:K5-e").order,
            build_named("K5-e:K5-e").size) == (8, 18)
    assert not build_named("K5|K33").is_connected()
    assert build_named("K2.K5").vertex_connectivity() == 1


def test_composite_ids_spell_their_construction():
    # A|B shares no vertex, A.B one, A:B a pair nonadjacent on both sides
    shared = {"|": 0, ".": 1, ":": 2}
    composites = [n for n in catalog.named_ids() if re.search("[|.:]", n)]
    assert len(composites) == 18
    for name in composites:
        a, op, b = re.split("([|.:])", name)
        g, h = (catalog._NAMED[x][0]() if x in catalog._NAMED
                else Graph.complete({"K1": 1, "K2": 2}[x]) for x in (a, b))
        c = build_named(name)
        assert c.size == g.size + h.size, name
        assert c.order == g.order + h.order - shared[op], name
        if op == ":":
            pair_g, pair_h = catalog._GLUE_PAIRS[a], catalog._GLUE_PAIRS[b]
            assert not g.has_edge(*pair_g) and not h.has_edge(*pair_h)
            assert not catalog._composite(name).has_edge(*pair_g), name


def test_id_aliases_normalize():
    k = canonical_key
    assert k(build_named("K5−e")) == k(build_named("K5-e"))
    assert k(build_named("K1⊔K5")) == k(build_named("K1|K5"))
    assert k(build_named("K3,3")) == k(build_named("K33"))
    assert k(build_named("K5-e ⋈ K33-e")) == k(build_named("K5-e:K33-e"))
    assert k(build_named("K5 ∪̇ K5")) == k(build_named("K5.K5"))


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        build_named("K7")
    with pytest.raises(ValueError):
        appendix_graphs("A3")
    with pytest.raises(ValueError):
        counterexample("NA_not_closed")
    with pytest.raises(ValueError):
        catalog.entry("A1.16")


def test_ne_nonclosure_witness():
    # the host is not NE (one deletion planarizes), yet contracting the
    # distinguished edge lands on an NE graph: intermediate steps of a
    # minor walk can leave and re-enter the property
    g, e = counterexample("NE_not_closed")
    assert (g.order, g.size) == (16, 28)
    assert not is_planar(g)
    assert not check(g, Property.NE)
    assert not is_mmne(g)
    planarizers = [f for f in g.sorted_edges() if is_planar(g.delete_edge(*f))]
    assert planarizers == [e]
    contracted = g.contract_edge(*e)
    assert check(contracted, Property.NE)
    assert (contracted.order, contracted.size) == (15, 27)


def test_nc_nonclosure_witness():
    g, e = counterexample("NC_not_closed")
    assert (g.order, g.size) == (8, 19)
    assert not is_planar(g)
    assert not check(g, Property.NC)
    assert not is_mmnc(g)
    planarizers = [f for f in g.sorted_edges()
                   if is_planar(g.contract_edge(*f))]
    assert planarizers == [e]
    assert check(g.delete_edge(*e), Property.NC)


def test_verify_entries_reports_false_claims_instead_of_raising():
    bogus = CatalogEntry("bogus", Graph.complete(5),
                         frozenset({"planar", "MM-NE"}), "negative control")
    records = verify_entries([bogus])
    assert len(records) == 1
    rec = records[0]
    assert rec["ok"] is False
    assert rec["claims"]["planar"]["ok"] is False
    assert rec["claims"]["MM-NE"]["ok"] is False


def test_verify_entries_good_entry():
    records = verify_entries([catalog.entry("K6")])
    assert records[0]["ok"] is True
    assert set(records[0]["claims"]) == {"nonplanar", "MM-NA", "MM-NC"}


def test_verify_entries_independent_of_jobs():
    entries = mm_catalog("IC")
    assert verify_entries(entries, jobs=2) == verify_entries(entries, jobs=1)


def test_full_verification_passes(report):
    assert report["ok"] is True
    assert report["failures"] == 0
    assert report["entry_count"] == 102
    assert report["claim_count"] == 226
    assert all(c["ok"] for c in report["checks"])
    check_names = {c["name"] for c in report["checks"]}
    for needed in ("mm-counts", "mmna-min-degree", "mmna-connectivity",
                   "disconnected-coincidence", "cut-vertex-coincidence",
                   "embedded-identifications", "NE-not-closed",
                   "NC-not-closed"):
        assert needed in check_names


def test_mmna_members_all_min_degree_3(report):
    del report  # ordering only: reuse the session's cached catalog
    for e in mm_catalog("NA"):
        g = e.graph
        assert g.min_degree() >= 3
        if g.is_connected():
            assert 2 <= g.vertex_connectivity() <= 5
