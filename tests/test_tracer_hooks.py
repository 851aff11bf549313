"""The benchmark's tracer still finds every hook it reads.

``perfbench/tracer.py`` wraps minorsieve's layers from outside and reads
some functions by name.  A renamed function would otherwise show up
only as a ``KeyError`` at the end of a traced benchmark run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json
from tracer import Tracer
tracer = Tracer()
tracer.install()
from minorsieve import build_named, catalog
verdicts = [catalog.check_claim(build_named("K6"), "MM-NC"),
            catalog.check_claim(build_named("K5-e"), "MM-AN")]
print(json.dumps({"verdicts": verdicts, "metrics": tracer.metrics()}))
"""


def test_traced_claims_report_every_per_layer_metric():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])}
    done = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["verdicts"] == [True, True]
    metrics = report["metrics"]
    # run.py adds the overhead fraction itself, from untraced timings
    wanted = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert wanted - {"trace.overhead_frac"} <= metrics.keys()
    assert metrics["minimality.decisions"] == 2
    assert metrics["canon.calls"] > 0
