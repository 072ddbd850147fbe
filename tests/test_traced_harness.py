"""The benchmark's traced path (``pipebench/tracing.py``) on the CLI.

The tracer wraps hexchan functions by module attribute and reads their
arguments and results, so a change to a wrapped function's signature or
return type can crash every traced benchmark run.  This test runs the four
commands under an installed tracer, as a traced benchmark pass does, on a
lattice below the exact solver's 64-cell cap and on one above it.  It runs
in a subprocess because ``Tracer.install`` replaces module attributes for
the rest of the process.
"""

import json
import os
import subprocess
import sys

from conftest import REPO_ROOT, TEST_CONFIG_DIR, roadmap_config

TRACED_RUN = """
import json, sys, time
from pipebench.tracing import Tracer
from hexchan.cli import main

tracer = Tracer()
tracer.install(time.perf_counter)
tracer.enabled = True
codes = {}
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    for command in ("lattice", "static", "dynamic", "evaluate"):
        argv = [command, "--config", config, "--out", out + "/" + command]
        codes[f"{config} {command}"] = tracer.span("cli", main, argv)
        tracer.end_invocation()
tracer.metrics()
print(json.dumps(codes))
"""


def test_traced_commands_exit_0_below_and_above_the_solver_cap(tmp_path):
    # roadmap-n4 has 41 cells (exact control coloring); the N = 6 window has
    # 85 (control pattern)
    window = tmp_path / "n6.json"
    window.write_text(json.dumps(roadmap_config(6)), encoding="utf-8")
    args = [str(TEST_CONFIG_DIR / "roadmap-n4.json"), str(tmp_path / "n4"), str(window), str(tmp_path / "n6")]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO_ROOT), str(REPO_ROOT / "src")])},
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert len(codes) == 8 and set(codes.values()) == {0}, codes
