"""Edge-list and graph6 serialization against networkx codecs."""

from __future__ import annotations

import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from minorsieve import EdgeListParseError, Graph, Graph6ParseError, \
    canonical_key, emit_edge_list, emit_graph6, parse_edge_list, \
    parse_graph6, read_graphs
from minorsieve.catalog_data import A1_EDGE_LISTS
from minorsieve.formats import graph_doc, json_report, parse_graph_line

from conftest import random_graph, to_networkx


def test_parse_triangle():
    g = parse_edge_list("{(1,2),(2,3),(1,3)}")
    assert (g.order, g.size) == (3, 3)
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_declared_order_adds_isolated_vertices():
    g = parse_edge_list("6;{(1,2)}")
    assert (g.order, g.size) == (6, 1)
    assert g.degree(5) == 0


def test_parse_empty_graph_forms():
    assert parse_edge_list("{}").order == 0
    assert parse_edge_list("4;{}").order == 4
    assert parse_edge_list("  { } ").order == 0


def test_whitespace_is_free():
    a = parse_edge_list("{(1,2), (2,3)}")
    b = parse_edge_list(" { ( 1 , 2 ) , ( 2 , 3 ) } ")
    assert a.edges == b.edges


def test_first_embedded_list_shape():
    g = parse_edge_list(A1_EDGE_LISTS[0])
    assert (g.order, g.size) == (9, 18)


@pytest.mark.parametrize("text,fragment", [
    ("{(0,2)}", "below 1"),
    ("{(2,2)}", "loop"),
    ("{(1,2),(2,1)}", "duplicate"),
    ("{(1,2", "expected"),
    ("{(1,2)} extra", "trailing"),
    ("{(1,a)}", "integer"),
    ("3;{(1,4)}", "below the largest label"),
    ("", "expected"),
])
def test_parse_errors_name_the_position(text, fragment):
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(text)
    assert fragment in str(exc.value)


def test_edge_list_order_is_bounded():
    assert parse_edge_list("255;{}").order == 255
    for text in ("256;{}", "{(1,256)}"):
        with pytest.raises(EdgeListParseError, match="above 255"):
            parse_edge_list(text)


def test_emit_parse_inverse():
    k5 = Graph.complete(5)
    assert parse_edge_list(emit_edge_list(k5)).edges == k5.edges
    # isolated vertices force the explicit order prefix
    g = Graph(6, [(0, 1)])
    text = emit_edge_list(g)
    assert text.startswith("6;")
    assert parse_edge_list(text).order == 6
    # no prefix when the labels already witness the order
    assert not emit_edge_list(k5).startswith("5;")


def test_graph6_known_values():
    # standard encodings: K3 is "Bw", the 5-cycle is "Dhc"
    assert emit_graph6(Graph.complete(3)) == "Bw"
    assert parse_graph6("Bw").edges == Graph.complete(3).edges
    assert parse_graph6("Dhc").edges == Graph.cycle(5).edges
    assert parse_graph6("Ch").edges == Graph.path(4).edges


def test_graph6_header_prefix_accepted():
    g = parse_graph6(">>graph6<<Bw")
    assert g.edges == Graph.complete(3).edges


def test_graph6_round_trip_random():
    rng = random.Random(1729)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 20))
        assert parse_graph6(emit_graph6(g)).edges == g.edges


def test_graph6_matches_networkx_both_ways():
    rng = random.Random(31337)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 15))
        ours = emit_graph6(g)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert Graph(back.number_of_nodes(), back.edges()).edges == g.edges


def test_graph6_error_cases():
    with pytest.raises(Graph6ParseError):
        parse_graph6("")
    with pytest.raises(Graph6ParseError):
        parse_graph6("B")       # missing payload byte
    with pytest.raises(Graph6ParseError):
        parse_graph6("Bww")     # extra payload byte
    with pytest.raises(Graph6ParseError):
        parse_graph6("B(w")     # '(' sits below the printable alphabet
    with pytest.raises(ValueError):
        emit_graph6(Graph(63))


def test_nonzero_padding_rejected():
    # K3 payload 'w' is 111000; flipping a padding bit makes 'x' invalid
    with pytest.raises(Graph6ParseError):
        parse_graph6("Bx")


def test_line_dispatch():
    assert parse_graph_line("Bw").size == 3
    assert parse_graph_line("{(1,2)}").size == 1
    assert parse_graph_line(" >>graph6<<Bw ").size == 3
    with pytest.raises(EdgeListParseError):
        parse_graph_line("   ")


def test_read_graphs_mixed_lines():
    text = "Bw\n\n{(1,2),(1,3)}\n"
    graphs = read_graphs(text)
    assert [g.size for g in graphs] == [3, 2]


@given(st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_edge_list_round_trip_property(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 12))
    h = parse_edge_list(emit_edge_list(g))
    assert h.order == g.order and h.edges == g.edges
    assert canonical_key(h) == canonical_key(g)


def test_graph_doc_fields():
    doc = graph_doc(Graph.complete(3))
    assert doc == {"order": 3, "size": 3, "edge_list": "{(1,2),(1,3),(2,3)}",
                   "graph6": "Bw"}


def test_json_report_envelope():
    out = json.loads(json_report("demo", {"value": 7}))
    assert out["schema_version"] == 1
    assert out["tool"] == "minorsieve"
    assert out["kind"] == "demo"
    assert out["value"] == 7
    assert "tool_version" in out