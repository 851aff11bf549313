"""The package's public names, and what importing it loads."""

from __future__ import annotations

import json
import os
from pathlib import Path
import subprocess
import sys

import minorsieve

SRC = Path(__file__).resolve().parent.parent / "src"

#: standard library modules a single-process run does not use: the pool
#: (imported when a map starts one), dataclasses and what it pulls in,
#: typing and pathlib
UNUSED_AT_ONE_JOB = ("multiprocessing", "dataclasses", "inspect", "typing",
                     "pathlib")


def test_every_export_resolves_once():
    namespace: dict = {}
    exec("from minorsieve import *", namespace)  # a stale name raises
    assert all(name in namespace for name in minorsieve.__all__)
    assert len(set(minorsieve.__all__)) == len(minorsieve.__all__)


def test_import_loads_no_module_a_single_process_run_skips():
    code = ("import sys; before = set(sys.modules); "
            "import minorsieve, minorsieve.cli; "
            "loaded = sorted(set(sys.modules) - before); "
            "import json; print(json.dumps(loaded))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert not set(UNUSED_AT_ONE_JOB) & set(loaded)
    stdlib = [m for m in loaded if m.split(".")[0] != "minorsieve"]
    print(f"import minorsieve, minorsieve.cli loads {len(stdlib)} standard "
          "library modules")
