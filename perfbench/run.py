"""minorsieve benchmark: one run of one workload, as one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload enum9 --seed 0 --seconds 20 --trace 0

Every repetition is a fresh interpreter (child.py) with PYTHONPATH=src,
a fixed PYTHONHASHSEED and --jobs 1, so minorsieve's module caches start
empty, as they do for a CLI user.  With --trace 0 the run repeats the
workload until --seconds have been measured and reports the end-to-end
metrics as medians over the repetitions.  With --trace 1 it runs the
workload once untraced and twice traced, and reports the per-layer
metrics; the traced runs must reproduce the untraced output digest and
each other's counts.  Metric names and units come from BENCHMARK.json;
expected outputs from expected.json.  The last stdout line is the
result; the line before it, also written under perfbench/out/, holds
the samples, digests and environment.  See NOTES.md for the reasons
behind the workloads and what is deliberately left unmeasured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: the whole run, set-up included, must end well inside 180 s
RUN_BUDGET_S = 165.0
#: set-up-only interpreters per run, on top of one per repetition
SETUP_PROBES = 7
#: counts that must repeat exactly between two traced runs
COUNT_KEYS = ("canon.calls", "canon.calls.generate", "canon.calls.minimality",
              "canon.calls.other", "generate.accepted",
              "generate.final_levels", "planarity.calls",
              "planarity.lr_calls", "properties.scans",
              "minimality.decisions", "minimality.hits",
              "minimality.one_step_calls", "catalog.claims")


def _now() -> float:
    # the child reads the same system-wide clock when its imports finish
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Spawns child interpreters against one deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def spawn(self, mode: str) -> tuple[dict | None, str]:
        """(report, "") or (None, reason); report gains setup_s and
        elapsed_s, both measured from just before the spawn."""
        start = _now()
        try:
            proc = subprocess.run(
                # -S: no site hooks of the host Python in the set-up time
                [sys.executable, "-S", str(BENCH / "child.py"), mode,
                 str(OUT)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            return None, f"{mode}: killed at the run deadline"
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, f"{mode}: exit {proc.returncode}: {' | '.join(tail)}"
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return None, f"{mode}: no report on stdout"
        report["setup_s"] = report["setup_done"] - start
        report["elapsed_s"] = _now() - start
        return report, ""

    def room_for(self, seconds: float) -> bool:
        return _now() + seconds < self.deadline


# ---------------------------------------------------------------------------
# output checks: (failed operations, digest, items processed)
# ---------------------------------------------------------------------------

def _check_enum9(report: dict, want: dict) -> tuple[int, str, int]:
    out = report["outputs"][0]
    ok = report["codes"] == [0] and \
        json.loads(out).get("scanned") == want["scanned"]
    return int(not ok), _sha(out), want["scanned"]


def _check_tables(report: dict, want: dict) -> tuple[int, str, int]:
    failed, digests, scanned = 0, [], 0
    for code, out, row in zip(report["codes"], report["outputs"],
                              want["rows"], strict=True):
        doc = json.loads(out)
        doc.pop("wall_seconds", None)
        digest = _sha(json.dumps(doc, sort_keys=True))
        digests.append(digest)
        scanned += doc.get("scanned", 0)
        failed += not (code == 0 and doc.get("property") == row["property"]
                       and doc.get("found_by_order") == row["found_by_order"]
                       and digest == row["sha256"])
    return failed, _sha(" ".join(digests)), scanned


def _check_claims(report: dict, want: dict) -> tuple[int, str, int]:
    results = report["results"]
    true = sum(r is True for r in results) if \
        len(results) == want["operations"] else 0
    return want["operations"] - true, _sha(json.dumps(results)), len(results)


CHECKS = {"enum9": _check_enum9, "tables-lite": _check_tables,
          "claims": _check_claims}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class Tally:
    """Repetitions of one run with their checks."""

    def __init__(self, workload: str, want: dict):
        self.workload = workload
        self.want = want
        self.ops = want["operations"]
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.reps: list[dict] = []

    def fail(self, reason: str, ops: int | None = None) -> None:
        self.notes.append(reason)
        self.failed += self.ops if ops is None else ops

    def rep(self, runner: Runner, trace: int) -> dict | None:
        self.attempted += self.ops
        report, err = runner.spawn(f"{self.workload}-{trace}")
        if report is None:
            self.fail(err)
            return None
        try:
            failed, digest, items = CHECKS[self.workload](report, self.want)
        except (KeyError, ValueError, TypeError) as exc:
            self.fail(f"unreadable output: {exc!r}")
            return None
        if failed:
            self.fail(f"{failed} wrong outputs", failed)
        rep = {"trace": trace, "digest": digest, "items": items,
               **{k: report[k] for k in ("setup_s", "elapsed_s", "wall_s",
                                         "cpu_s", "peak_rss_mb")}}
        if trace:
            rep["layers"] = report["layers"]
            rep["function_calls"] = report["function_calls"]
        self.reps.append(rep)
        return rep


def _environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    files = sorted(SRC.rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "commit": commit,
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "src_sha256": _sha("".join(f.read_text() for f in files)),
    }


def _summary(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    return out


def _timed(tally: Tally, runner: Runner, seconds: int) -> dict:
    start = _now()
    while True:
        rep = tally.rep(runner, 0)
        if rep is None or _now() - start >= seconds or \
                not runner.room_for(1.25 * rep["elapsed_s"] + 2):
            break
    reps = tally.reps
    if not reps:
        return {}
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "items_per_s": statistics.median(r["items"] / r["wall_s"]
                                         for r in reps),
    }


def _traced(tally: Tally, runner: Runner) -> dict:
    base = tally.rep(runner, 0)
    if base is None:
        return {}
    traced = [tally.rep(runner, 1)]
    if traced[0] is not None and \
            runner.room_for(1.25 * traced[0]["elapsed_s"] + 2):
        traced.append(tally.rep(runner, 1))
    else:
        tally.notes.append("second traced run skipped: run deadline")
    traced = [t for t in traced if t is not None]
    if not traced:
        return {}
    for t in traced:
        if t["digest"] != base["digest"]:
            tally.fail("traced output differs from untraced output")
    first = traced[0]["layers"]
    if len(traced) == 2:
        drift = [k for k in COUNT_KEYS if traced[1]["layers"][k] != first[k]]
        if drift:
            tally.fail(f"traced counts did not repeat: {drift}")
    if first["canon.calls"] != first["canon.calls.generate"] + \
            first["canon.calls.minimality"] + first["canon.calls.other"]:
        tally.fail("canon.calls is not the sum of its callers")
    if tally.workload == "claims" and first["catalog.claims"] != tally.ops:
        tally.fail(f"{first['catalog.claims']} check_claim spans, "
                   f"expected {tally.ops}")
    return {**first, "trace.overhead_frac":
            statistics.median(t["wall_s"] for t in traced)
            / base["wall_s"] - 1}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "minorsieve" / "cli.py").is_file():
        print(f"no minorsieve sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(_now() + RUN_BUDGET_S)
    OUT.mkdir(exist_ok=True)
    want = json.loads((BENCH / "expected.json").read_text())[args.workload]
    tally = Tally(args.workload, want)

    # inputs are written (claims) and bytecode compiled before timing
    prepared, err = runner.spawn(f"prep-{args.seed}")
    if prepared is not None and args.workload == "claims" and \
            (prepared["claims"], prepared["entries"]) != \
            (tally.ops, want["entries"]):
        err = (f"catalog has {prepared['entries']} entries and "
               f"{prepared['claims']} claims")
    values: dict = {}
    if err:
        tally.attempted += tally.ops
        tally.fail(err)
    elif args.trace:
        values = _traced(tally, runner)
    else:
        probes = [runner.spawn("setup")[0] for _ in range(SETUP_PROBES)]
        values = _timed(tally, runner, args.seconds)
        setups = [p["setup_s"] for p in probes if p is not None] + \
            [r["setup_s"] for r in tally.reps]
        values["setup_s"] = statistics.median(setups) if setups else 0.0

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in spec[kind]}
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fail_frac": tally.failed / tally.attempted,
        "notes": tally.notes,
        "samples": {k: _summary(timed) for k in ("wall_s", "cpu_s",
                                                 "peak_rss_mb")
                    if (timed := [r[k] for r in tally.reps
                                  if not r["trace"]])},
        "reps": tally.reps,
        "environment": _environment(),
    }
    text = json.dumps(detail, sort_keys=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(text + "\n")
    print(text)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
