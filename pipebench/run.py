"""End-to-end and per-layer benchmark of the four hexchan CLI commands.

    python3 pipebench/run.py --workload small-nets --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark imports the program from
``src/`` and runs ``hexchan lattice|static|dynamic|evaluate`` in-process
through ``hexchan.cli.main(argv)`` over the workload's seeded scenarios,
in passes: one pass runs every command over every scenario.  Outputs of the
first pass are checked by ``checks.py`` in a child process, apart from the
program; every later invocation must write byte-identical files.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the run metadata.  A fuller record goes to
``.pipebench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench"
COMMANDS = ("lattice", "static", "dynamic", "evaluate")
# Commands whose pass takes well under 0.2 s are repeated within each pass so
# that every pass holds enough of their work to be steady.  The counts are
# part of the benchmark and stay the same on every commit.
REPEATS = {
    "small-nets": {"lattice": 6, "static": 4, "dynamic": 1, "evaluate": 1},
    "deep-cycles": {"lattice": 60, "static": 30, "dynamic": 1, "evaluate": 1},
    "wide-sparse": {"lattice": 8, "static": 16, "dynamic": 1, "evaluate": 1},
}
MIN_PASSES = 3
SETUP_IMPORTS = 15
SETUP_CODE = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import hostspeed\n"
    "clock = hostspeed.SpeedClock()\n"
    "clock.start()\n"
    "start = clock.now()[0]\n"
    "import hexchan.cli\n"
    "elapsed = clock.now()[0] - start\n"
    "clock.stop()\n"
    "print(elapsed)\n"
)


def measure_setup() -> float:
    """Median time to import hexchan.cli in a fresh interpreter, timed inside
    it on the speed clock (interpreter start-up excluded).  The first import,
    which may compile byte code, is not counted."""
    times = []
    for k in range(SETUP_IMPORTS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if k:
            times.append(float(done.stdout.strip()))
    return statistics.median(times)


def digest(out: Path) -> tuple[str, int]:
    """Hash and total size of the files in an output directory."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        with open(path, "rb") as fh:
            h.update(path.name.encode() + hashlib.file_digest(fh, "sha256").digest())
        size += path.stat().st_size
    return h.hexdigest(), size


class Ledger:
    """Attempted and failed invocations per (scenario, command)."""

    def __init__(self):
        self.attempted: dict[tuple, int] = {}
        self.bad: dict[tuple, int] = {}
        self.reference: dict[tuple, str] = {}
        self.crashed: dict[tuple, str] = {}
        self.nondeterministic: set[tuple] = set()

    def record(self, key: tuple, code, err: str, dig: str) -> None:
        self.attempted[key] = self.attempted.get(key, 0) + 1
        first = key not in self.reference
        ref = self.reference.setdefault(key, dig)
        if code != 0:
            self.bad[key] = self.bad.get(key, 0) + 1
            if first:
                self.crashed[key] = err.strip().splitlines()[-1] if err.strip() else f"exit {code}"
        elif dig != ref:
            self.bad[key] = self.bad.get(key, 0) + 1
            self.nondeterministic.add(key)

    def totals(self, check_failures: dict) -> tuple[int, int, bool]:
        failed = 0
        for key, n in self.attempted.items():
            failed += n if key in self.crashed or "/".join(key) in check_failures else self.bad.get(key, 0)
        correct = not check_failures and not self.nondeterministic
        return sum(self.attempted.values()), failed, correct


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.scenarios = []
        for name, config in workloads.WORKLOADS[workload](seed, ROOT):
            if isinstance(config, dict):
                path = run_dir / "configs" / f"{name}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(config), encoding="utf-8")
                config = path
            out = {cmd: run_dir / "out" / name / cmd for cmd in COMMANDS}
            for d in out.values():
                d.mkdir(parents=True)
            self.scenarios.append((name, config, out))
        self.ledger = Ledger()
        self.tracer = tracing.Tracer()
        from hexchan import cli

        self.main = cli.main
        self.clock = hostspeed.SpeedClock()

    def invoke(self, name: str, config: Path, cmd: str, out: Path, traced: bool) -> tuple[float, float, int]:
        """Run one CLI invocation; return its reference seconds, wall seconds
        and bytes written."""
        argv = [cmd, "--config", str(config), "--out", str(out)]
        err = io.StringIO()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            ref, wall = self.clock.now()
            try:
                code = self.tracer.span("cli", self.main, argv) if traced else self.main(argv)
            except Exception as exc:  # a crash counts as a failed invocation
                code = f"exception {exc!r}"
            ref_end, wall_end = self.clock.now()
        if traced:
            self.tracer.end_invocation()
        dig, size = digest(out)
        self.ledger.record((name, cmd), code, err.getvalue() if code != 0 else "", dig)
        return ref_end - ref, wall_end - wall, size

    def run_pass(self, traced: bool) -> dict:
        """Reference seconds, wall seconds and bytes written per pass of each
        command; traced passes run each command once."""
        gc.collect()
        self.tracer.enabled = traced
        self.tracer.reset()
        record = {"traced": traced, "seconds": {}, "wall_seconds": {}, "bytes": {}}
        for cmd in COMMANDS:
            repeats = 1 if traced else REPEATS[self.workload][cmd]
            spans: dict[str, list] = {name: [] for name, _, _ in self.scenarios}
            for _ in range(repeats):
                for name, config, out in self.scenarios:
                    spans[name].append(self.invoke(name, config, cmd, out[cmd], traced))
            # A repeated command's pass time is the sum over scenarios of the
            # median repeat, which drops the odd invocation a slow spell hit.
            for key, k in (("seconds", 0), ("wall_seconds", 1)):
                record[key][cmd] = sum(statistics.median(span[k] for span in v) for v in spans.values())
            record["bytes"][cmd] = sum(v[-1][2] for v in spans.values())
        self.tracer.enabled = False
        return record

    def check(self) -> dict:
        """Check the first pass's outputs in a child process."""
        manifest = [
            {"name": name, "config": str(config),
             "out": {cmd: str(d) for cmd, d in out.items() if (name, cmd) not in self.ledger.crashed}}
            for name, config, out in self.scenarios
        ]
        path = self.run_dir / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, str(HERE / "checks.py"), str(path)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        return json.loads(done.stdout.splitlines()[-1])


def metadata(workload: str, seed: int, trace: int) -> dict:
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    from hexchan import coloring

    backend = getattr(coloring, "backend_name", None)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "kernel_backend": backend() if backend else None,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    setup_s = None if trace else measure_setup()
    sys.path.insert(0, str(SRC))
    runner = Runner(workload, seed, run_dir)
    if trace:
        runner.tracer.install(lambda: runner.clock.now()[0])

    # Pass 0 is untraced and its outputs are checked; the checks' time does
    # not count against the measured window.
    runner.clock.start()
    try:
        start = perf_counter()
        passes = [runner.run_pass(traced=False)]
        spent = perf_counter() - start
    finally:
        runner.clock.stop()
    checked = runner.check()
    layers = []
    runner.clock.start()
    try:
        while len(passes) < MIN_PASSES + trace or spent * (len(passes) + 1) / len(passes) <= seconds:
            traced = trace and len(passes) % 2 == 1
            start = perf_counter()
            passes.append(runner.run_pass(traced))
            spent += perf_counter() - start
            if traced:
                layers.append(runner.tracer.metrics())
    finally:
        runner.clock.stop()

    attempted, failed, correct = runner.ledger.totals(checked["failures"])
    makeup = checked["makeup"]
    if trace:
        plain = [sum(p["seconds"].values()) for p in passes if not p["traced"]]
        with_trace = [sum(p["seconds"].values()) for p in passes if p["traced"]]
        metrics = {name: (statistics.median(m[name] for m in layers), unit) for name, unit in per_layer_units()}
        metrics["cli.output_bytes"] = (sum(passes[0]["bytes"].values()), "B")
        for name, key in (("cycles", "u"), ("active_pan_cycles", "active_pan_cycles"),
                          ("distinct_active_sets", "distinct_active_sets")):
            metrics[f"dynamic_alloc.{name}"] = (sum(m[key] for m in makeup.values()), "count")
        metrics["trace.overhead_s"] = (statistics.median(with_trace) - statistics.median(plain), "s")
    else:
        metrics = {"setup_s": (setup_s, "s")}
        for cmd in COMMANDS:
            metrics[f"{cmd}_s"] = (statistics.median(p["seconds"][cmd] for p in passes), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    failures = dict(checked["failures"])
    failures.update({"/".join(k): [f"exit: {msg}"] for k, msg in runner.ledger.crashed.items()})
    failures.update({"/".join(k): ["output differs from the first pass"] for k in runner.ledger.nondeterministic})
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "record": {"passes": passes, "speed_probes": runner.clock.probes, "makeup": makeup, "failures": failures},
    }


def per_layer_units() -> list[tuple[str, str]]:
    """Layer metrics the tracer reports, with their units."""
    names = list(tracing.SELF_TIMES) + list(tracing.CALLS)
    names += ["interference.pairs_scanned", "interference.edges", "interference.components",
              "coloring.exact_vertices", "coloring.exact_calls_per_shape", "static_alloc.exact_per_call"]
    return [(n, "s" if n.endswith("_s") else "ratio" if "_per_" in n else "count") for n in names]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hexchan CLI pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hexchan" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no hexchan sources under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    meta = metadata(args.workload, args.seed, args.trace)
    record = result.pop("record")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, **result, **record}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
