"""The benchmark's traced path (``pipebench/tracing.py``) on the CLI.

The tracer wraps hexchan functions by module attribute and reads their
arguments and results, so a change to a wrapped function's signature or
return type can crash every traced benchmark run.  This test runs the four
commands under an installed tracer, as a traced benchmark pass does, on two
full windows, whose static control coloring is the control pattern without
metric-16 rows, and on sparse components, whose metric-16 graph is colored
component by component.  It runs in a subprocess because
``Tracer.install`` replaces module attributes for the rest of the process.
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


def test_traced_commands_exit_0_on_both_control_paths(tmp_path):
    # roadmap-n4 has 41 cells and the N = 6 window 85
    window = tmp_path / "n6.json"
    window.write_text(json.dumps(roadmap_config(6)), encoding="utf-8")
    args = [str(TEST_CONFIG_DIR / "roadmap-n4.json"), str(tmp_path / "n4"), str(window), str(tmp_path / "n6")]
    args += [str(TEST_CONFIG_DIR / "sparse-components.json"), str(tmp_path / "sparse")]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO_ROOT), str(REPO_ROOT / "src")])},
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert len(codes) == 12 and set(codes.values()) == {0}, codes
