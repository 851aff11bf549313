"""Command-line behavior: exit codes, formats, and output determinism."""

from __future__ import annotations

import argparse
import json
import os
import re

import networkx as nx
import pytest

from minorsieve import Graph, build_named, emit_edge_list, emit_graph6, \
    mm_catalog, parse_graph6
from minorsieve import cli
from minorsieve.cli import _TABLE_ROWS, _TABLE_SIZES, main
from minorsieve.errors import CatalogError
from minorsieve.generate import MAX_ENUM_ORDER


def write_graphs(path, graphs):
    path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
    return str(path)


@pytest.fixture
def k6_file(tmp_path):
    return write_graphs(tmp_path / "k6.g6", [Graph.complete(6)])


def test_check_true_exits_zero(k6_file, capsys):
    assert main(["check", k6_file, "--property", "NA"]) == 0
    out = capsys.readouterr().out
    assert "NA=True" in out


def test_check_false_exits_one(k6_file, capsys):
    assert main(["check", k6_file, "--property", "planar"]) == 1
    assert "planar=False" in capsys.readouterr().out


def test_check_witness_is_shown(tmp_path, capsys):
    f = write_graphs(tmp_path / "g.g6", [build_named("K1|K5")])
    assert main(["check", f, "--property", "IA"]) == 0
    assert "witness vertex" in capsys.readouterr().out


def test_check_json_envelope(k6_file, capsys):
    assert main(["check", k6_file, "--property", "apex", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["tool"] == "minorsieve"
    assert doc["kind"] == "check"
    assert doc["all_true"] is False
    assert doc["graphs"][0]["value"] is False
    assert doc["graphs"][0]["graph6"] == emit_graph6(Graph.complete(6))


def test_check_edge_list_lines(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(emit_edge_list(Graph.complete(5)) + "\n")
    assert main(["check", str(f), "--property", "planar"]) == 1


def test_minimal_subcommand(tmp_path, capsys):
    f = write_graphs(tmp_path / "pair.g6",
                     [build_named("K6-e"), Graph.complete(6)])
    assert main(["minimal", f, "--property", "NE"]) == 1
    out = capsys.readouterr().out
    assert "MM-NE=True" in out and "MM-NE=False" in out

    f2 = write_graphs(tmp_path / "one.g6", [build_named("K6-e")])
    assert main(["minimal", f2, "--property", "NE"]) == 0


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/no/such/file.g6", "--property", "NA"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unwritable_out_is_a_write_error(tmp_path, capsys):
    out = tmp_path / "missing" / "F"
    assert main(["search", "--property", "NE", "--order", "1-5",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"cannot write {str(out)!r}\n"


def test_out_naming_a_directory_is_a_write_error(tmp_path, capsys):
    assert main(["search", "--property", "NE", "--order", "1-5",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"cannot write {str(tmp_path)!r}\n"


def test_directory_input_is_a_read_error(tmp_path, capsys):
    assert main(["check", str(tmp_path), "--property", "NA"]) == 2
    assert capsys.readouterr().err == f"cannot read {str(tmp_path)!r}\n"


def test_malformed_line_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("{(1,2),(2,2)}\n")
    assert main(["check", str(f), "--property", "NA"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_empty_file_is_usage_error(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("\n")
    assert main(["check", str(f), "--property", "NA"]) == 2


def test_unknown_property_rejected_by_parser(k6_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", k6_file, "--property", "XX"])
    assert exc.value.code == 2


def test_jobs_is_not_an_option_of_check(k6_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", k6_file, "--property", "NA", "--jobs", "2"])
    assert exc.value.code == 2


def test_json_and_jobs_options_per_subcommand():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert all("--json" in p._option_string_actions
               for p in sub.choices.values())
    assert {name for name, p in sub.choices.items()
            if "--jobs" in p._option_string_actions} == \
        {"search", "verify-catalog", "tables", "expand"}


def test_bad_order_range_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["search", "--order", "9-3", "--count-only"])
    with pytest.raises(SystemExit):
        main(["search", "--order", "x", "--count-only"])


@pytest.mark.parametrize("text", ["5-", "4-5-"])
def test_dangling_order_range_rejected(text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--order", text, "--count-only"])
    assert exc.value.code == 2
    assert "--order" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["search", "--property", "NE", "--order", "8-11", "--count-only"],
    ["search", "--order", "1-1000", "--count-only"],
])
def test_order_past_cap_is_usage_error(argv, built_levels, capsys):
    # rejected by the parser, before any level is built
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--order" in err and f"capped at {MAX_ENUM_ORDER}" in err
    assert built_levels == []


@pytest.mark.parametrize("orders,out", [("10", False), ("9-10", True)])
def test_listing_a_pool_at_the_cap_is_usage_error(orders, out, built_levels,
                                                  tmp_path, capsys):
    """A listed pool is held whole, and an order-10 one does not fit in
    memory; a count or a property search at order 10 streams instead."""
    path = tmp_path / "pool.g6"
    argv = ["search", "--order", orders] + (["--out", str(path)] if out
                                            else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--count-only" in err and "--property" in err
    assert built_levels == []
    assert not path.exists()


def test_huge_declared_order_is_usage_error(tmp_path, capsys):
    # rejected before any row is allocated
    f = tmp_path / "huge.txt"
    f.write_text("1000000000;{}\n")
    assert main(["check", str(f), "--property", "planar"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_graph6_order_is_bounded_like_edge_lists(tmp_path, capsys):
    # paths in graph6 with the four-byte '~' order header
    lines = {n: nx.to_graph6_bytes(nx.path_graph(n), header=False)
             .decode().strip() for n in (255, 256)}
    assert all(line.startswith("~") for line in lines.values())
    assert parse_graph6(lines[255]).order == 255
    f = tmp_path / "path256.g6"
    f.write_text(lines[256] + "\n")
    assert main(["check", str(f), "--property", "NE"]) == 2
    assert capsys.readouterr().err == "parse error: order 256 is above 255\n"


def test_count_only_pool(capsys):
    assert main(["search", "--order", "1-6", "--planarity", "nonplanar",
                 "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "scanned 15"


def test_count_only_json(capsys):
    assert main(["search", "--order", "5", "--planarity", "all",
                 "--count-only", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "count"
    assert doc["scanned"] == 34


def test_search_with_property_text_output(capsys):
    assert main(["search", "--order", "1-6", "--property", "AN"]) == 0
    out = capsys.readouterr().out
    assert "property AN: scanned 193, found 2 (5:1, 6:1)" in out


def test_search_json_reports_histogram(capsys):
    assert main(["search", "--order", "1-6", "--property", "CAN",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "search"
    assert doc["found_by_order"] == {"5": 1}
    assert doc["found"][0]["order"] == 5
    assert doc["property"] == "CAN"


def test_search_out_files_identical_across_jobs(tmp_path, capsys):
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    assert main(["search", "--order", "1-7", "--property", "NE",
                 "--jobs", "1", "--out", str(a)]) == 0
    assert main(["search", "--order", "1-7", "--property", "NE",
                 "--jobs", "8", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().count(b"\n") == 2  # K6-e at 6, triangled K5-e at 7


def test_enumerate_pool_out_file(tmp_path, capsys):
    out = tmp_path / "pool.g6"
    assert main(["search", "--order", "5", "--planarity", "nonplanar",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 1  # K5 is the only nonplanar class at order 5


def test_search_count_only_writes_out_in_both_modes(tmp_path, capsys):
    text, js = tmp_path / "text.g6", tmp_path / "json.g6"
    argv = ["search", "--property", "NE", "--order", "1-7", "--count-only"]
    assert main(argv + ["--out", str(text)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"wrote 2 graphs to {text}", "scanned 237", "found 2"]
    assert main(argv + ["--out", str(js), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "found" not in doc and doc["found_count"] == 2
    assert text.read_bytes() == js.read_bytes()
    assert text.read_bytes().count(b"\n") == 2


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_pool_count_only_out_is_usage_error(mode, tmp_path, capsys):
    out = tmp_path / "pool.g6"
    assert main(["search", "--order", "5", "--count-only",
                 "--out", str(out)] + mode) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out") \
        and captured.err.count("\n") == 1
    assert not out.exists()


def test_verify_catalog_text_counts_equal_payload(capsys):
    assert main(["verify-catalog"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["verify-catalog", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    claim_lines = [ln for ln in lines if ln.startswith("[")
                   and "(order " in ln]
    assert len(claim_lines) == doc["claim_count"]
    assert len(lines) == doc["claim_count"] + len(doc["checks"]) + 1
    assert sum(ln.startswith("[FAIL]") for ln in lines) == doc["failures"]
    summary = re.fullmatch(r"(\d+) claims over (\d+) entries, "
                           r"(\d+) failures, [\d.]+s", lines[-1])
    assert tuple(map(int, summary.groups())) == (
        doc["claim_count"], doc["entry_count"], doc["failures"])
    assert len(doc["entries"]) == doc["entry_count"]


def test_expand_text_counts_equal_payload(tmp_path, capsys):
    f = write_graphs(tmp_path / "seed.g6", [build_named("K6-e")])
    argv = ["expand", f, "--property", "NE", "--depth", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    *listed, summary = lines
    assert listed == [f"{g['graph6']}  {g['edge_list']}"
                      for g in doc["found"]]
    assert summary == (f"closure of 1 seed(s) under ty,yt to depth 1: "
                       f"{doc['scanned']} graphs, {doc['found_count']} "
                       f"minor-minimal NE")
    assert doc["found_count"] == len(doc["found"]) >= 1


def test_table_literals_agree_with_catalog():
    # the frozen by-order and by-size histograms must match what the
    # catalog itself carries, independently of any search
    for scale in ("desk", "full"):
        for prop_name, max_order, expected in _TABLE_ROWS[scale]:
            members = [e.graph for e in mm_catalog(prop_name)
                       if e.graph.order <= max_order]
            hist: dict[int, int] = {}
            for g in members:
                hist[g.order] = hist.get(g.order, 0) + 1
            assert hist == expected, (scale, prop_name)
    for (prop_name, max_order), sizes in _TABLE_SIZES.items():
        members = [e.graph for e in mm_catalog(prop_name)
                   if e.graph.order <= max_order]
        got: dict[int, int] = {}
        for g in members:
            got[g.size] = got.get(g.size, 0) + 1
        assert got == sizes, (prop_name, max_order)


def test_expand_cli(tmp_path, capsys):
    f = write_graphs(tmp_path / "seed.g6", [build_named("K6-e")])
    assert main(["expand", f, "--property", "NE", "--depth", "1",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "expand"
    assert doc["seeds"] == 1
    assert doc["depth"] == 1
    assert doc["scanned"] >= 1
    # the seed itself survives the sieve
    assert any(g["order"] == 6 for g in doc["found"])


def test_expand_rejects_bad_moves(tmp_path, capsys):
    f = write_graphs(tmp_path / "seed.g6", [build_named("K6-e")])
    assert main(["expand", f, "--property", "NE", "--depth", "1",
                 "--moves", "zz"]) == 2
    assert "error" in capsys.readouterr().err


def test_nonpositive_jobs_is_usage_error(capsys):
    assert main(["search", "--order", "5", "--count-only",
                 "--jobs", "0"]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_nonpositive_jobs_is_usage_error_at_order_one(capsys):
    # order 1 is built without any map, so jobs is checked before it
    assert main(["search", "--order", "1", "--count-only",
                 "--jobs", "0"]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_json_jobs_reports_the_capped_worker_count(tmp_path, monkeypatch,
                                                  capsys):
    # one usable CPU: a request of 4 runs one worker, serially
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert main(["search", "--order", "1-5", "--property", "NE",
                 "--jobs", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["jobs"] == 1
    f = write_graphs(tmp_path / "seed.g6", [build_named("K6-e")])
    assert main(["expand", f, "--property", "NE", "--depth", "1",
                 "--jobs", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["jobs"] == 1


def test_internal_consistency_error_exits_two(monkeypatch, capsys):
    def broken(jobs=1):
        raise CatalogError("embedded values disagree")

    monkeypatch.setattr(cli, "verify_catalog", broken)
    assert main(["verify-catalog"]) == 2
    err = capsys.readouterr().err
    assert err == "internal error: embedded values disagree\n"


def test_expand_member_cap_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("minorsieve.moves.SIEVE_MEMBER_CAP", 2)
    f = write_graphs(tmp_path / "seed.g6", [build_named("K6-e")])
    assert main(["expand", f, "--property", "NE", "--depth", "3"]) == 2
    assert "resource cap: move closure" in capsys.readouterr().err


def test_stdin_input(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_graph6(Graph.complete(5)) + "\n"))
    assert main(["check", "-", "--property", "planar"]) == 1
