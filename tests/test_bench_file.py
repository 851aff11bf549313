"""tools/bench_file.py on two small synthetic perfbench/out directories."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_file.py"
_SPEC = importlib.util.spec_from_file_location("bench_file", _PATH)
bench_file = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_file)


def _rep(wall: float, digest: str, trace: int = 0, **layers) -> dict:
    rep = {"trace": trace, "digest": digest, "items": 100, "wall_s": wall,
           "setup_s": 0.1, "elapsed_s": wall + 0.1, "cpu_s": wall,
           "peak_rss_mb": 20.0}
    if trace:
        rep["layers"] = layers
    return rep


def _write(out: Path, workload: str, seed: int, reps: list[dict],
           src_lines: int, trace: int = 0) -> None:
    out.mkdir(exist_ok=True)
    detail = {"workload": workload, "seed": seed, "trace": trace,
              "fail_frac": 0.0, "reps": reps,
              "environment": {"nproc": 2, "src_lines": src_lines}}
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(detail))


@pytest.fixture
def outs(tmp_path):
    """Four enum9 pairs and one claims pair, plus one traced pair.

    Parent enum9 runs have two repetitions each, so a run's value is
    their median: 10, 12, 14, 16.  Change runs read 8, 9, 15, 7.
    """
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (lo, hi) in enumerate([(9, 11), (11, 13), (13, 15), (15, 17)],
                                    start=1):
        _write(parent, "enum9", seed, [_rep(lo, "d9"), _rep(hi, "d9")], 400)
    for seed, wall in enumerate([8, 9, 15, 7], start=1):
        _write(change, "enum9", seed, [_rep(wall, "d9")], 390)
    _write(parent, "claims", 1, [_rep(3.0, "dc")], 400)
    _write(change, "claims", 1, [_rep(2.0, "dc")], 390)
    _write(parent, "enum9", 0, [_rep(10, "d9"), _rep(11, "d9", 1, calls=7)],
           400, trace=1)
    _write(change, "enum9", 0, [_rep(8, "d9"), _rep(9, "d9", 1, calls=3)],
           390, trace=1)
    return parent, change


def test_summary_ratio_and_wins(outs):
    doc = bench_file.build(9, *outs)
    wall = doc["workloads"]["enum9"]["metrics"]["wall_s"]
    assert wall["parent"]["values"] == [10, 12, 14, 16]
    assert wall["parent"]["median"] == 13
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (10.5, 15.5)
    assert wall["change"]["median"] == 8.5
    assert wall["ratio"] == pytest.approx(8.5 / 13)
    assert (wall["wins"], wall["pairs"]) == (3, 4)
    # higher is better for throughput: 100/8 > 100/10 etc.
    assert doc["workloads"]["enum9"]["metrics"]["items_per_s"]["wins"] == 3
    assert doc["workloads"]["enum9"]["seeds"] == [1, 2, 3, 4]
    assert doc["workloads"]["claims"]["metrics"]["wall_s"]["wins"] == 1
    assert doc["traced"]["enum9"] == {"calls": {"parent": 7, "change": 3}}
    assert doc["src_lines"] == {"parent": [400], "change": [390]}


def test_identical_outputs_exit_zero(outs, tmp_path, capsys):
    parent, change = outs
    target = tmp_path / "BENCH.json"
    assert bench_file.main(["--pr", "9", "--parent", str(parent),
                            "--change", str(change),
                            "--output", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert all(w["digests"]["identical"] for w in doc["workloads"].values())
    assert capsys.readouterr().err == ""


def test_changed_output_is_written_and_exits_one(outs, tmp_path, capsys):
    parent, change = outs
    _write(change, "enum9", 3, [_rep(15, "other")], 390)
    target = tmp_path / "BENCH.json"
    assert bench_file.main(["--pr", "9", "--parent", str(parent),
                            "--change", str(change),
                            "--output", str(target)]) == 1
    doc = json.loads(target.read_text())
    assert doc["workloads"]["enum9"]["digests"] == {
        "parent": ["d9"], "change": ["d9", "other"], "identical": False}
    assert doc["workloads"]["claims"]["digests"]["identical"]
    err = capsys.readouterr().err
    assert "enum9" in err and "claims" not in err


def test_regression_past_the_bound_is_named_and_keeps_exit_zero(
        outs, tmp_path, capsys):
    """claims wall_s 3.0 -> 3.9 is 30% worse, past its 0.25 bound; its
    items_per_s falls by 23%, inside the bound."""
    parent, change = outs
    _write(change, "claims", 1, [_rep(3.9, "dc")], 390)
    target = tmp_path / "BENCH.json"
    assert bench_file.main(["--pr", "9", "--parent", str(parent),
                            "--change", str(change),
                            "--output", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert doc["regressions"] == ["claims wall_s", "claims cpu_s"]
    metrics = doc["workloads"]["claims"]["metrics"]
    assert metrics["wall_s"]["regressed"]
    assert not metrics["items_per_s"]["regressed"]
    assert not doc["workloads"]["enum9"]["metrics"]["wall_s"]["regressed"]
    err = capsys.readouterr().err
    assert "claims wall_s" in err and "enum9" not in err
