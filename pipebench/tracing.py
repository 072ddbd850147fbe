"""Per-layer tracing from the benchmark's own code.

Wrappers are installed at the module attributes that callers look up (for
example ``hexchan.dynamic_alloc.subgraph_on``), so no program file changes.
Spans nest: each wrapper adds its duration to its parent's child time, and a
layer's self time is its duration minus that child time.  A wrapped name
that a later change removes is skipped and reports zero calls.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer).  The same layer may be looked up in several
# modules; each lookup site gets its own wrapper.
TARGETS = (
    ("hexchan.cli", "load_config", "config.load"),
    ("hexchan.cli", "center_of", "lattice.centers"),
    ("hexchan.cli", "build_interference_graph", "interference.build"),
    ("hexchan.static_alloc", "build_interference_graph", "interference.build"),
    ("hexchan.dynamic_alloc", "build_interference_graph", "interference.build"),
    ("hexchan.cli", "edge_list_text", "interference.edge_text"),
    ("hexchan.dynamic_alloc", "subgraph_on", "interference.subgraph"),
    ("hexchan.dynamic_alloc", "connected_components", "interference.components"),
    ("hexchan.dynamic_alloc", "chromatic_coloring", "coloring.exact"),
    ("hexchan.static_alloc", "chromatic_coloring", "coloring.exact"),
    ("hexchan.static_alloc", "pattern_coloring", "coloring.pattern"),
    ("hexchan.dynamic_alloc", "partition_channels", "spectrum.partition"),
    ("hexchan.static_alloc", "partition_channels", "spectrum.partition"),
    ("hexchan.cli", "allocate_static", "static_alloc.allocate"),
    ("hexchan.cli", "static_allocation_csv", "static_alloc.csv"),
    ("hexchan.cli", "allocate_dynamic", "dynamic_alloc.allocate"),
    ("hexchan.evaluate", "allocate_dynamic", "dynamic_alloc.allocate"),
    ("hexchan.cli", "activity_matrix", "dynamic_alloc.activity"),
    ("hexchan.evaluate", "activity_matrix", "dynamic_alloc.activity"),
    ("hexchan.dynamic_alloc", "activity_matrix", "dynamic_alloc.activity"),
    ("hexchan.cli", "activity_csv", "dynamic_alloc.activity_csv"),
    ("hexchan.cli", "allocation_csv", "dynamic_alloc.allocation_csv"),
    ("hexchan.cli", "allocation_json_doc", "dynamic_alloc.allocation_json"),
    ("hexchan.cli", "compare_schemes", "evaluate.compare"),
    ("hexchan.cli", "scheme_report_csv", "evaluate.report_csv"),
    ("hexchan.cli", "evaluation_summary_json", "evaluate.summary_json"),
)

# Per-layer metric -> layer whose self time it reports.  "cli" is the span
# the benchmark opens around each hexchan.cli.main call.
SELF_TIMES = {
    "cli.self_s": "cli",
    "config.load_s": "config.load",
    "lattice.centers_s": "lattice.centers",
    "interference.build_s": "interference.build",
    "interference.edge_text_s": "interference.edge_text",
    "interference.subgraph_s": "interference.subgraph",
    "interference.components_s": "interference.components",
    "coloring.exact_s": "coloring.exact",
    "static_alloc.allocate_s": "static_alloc.allocate",
    "static_alloc.csv_s": "static_alloc.csv",
    "dynamic_alloc.allocate_s": "dynamic_alloc.allocate",
    "dynamic_alloc.activity_s": "dynamic_alloc.activity",
    "dynamic_alloc.activity_csv_s": "dynamic_alloc.activity_csv",
    "dynamic_alloc.allocation_csv_s": "dynamic_alloc.allocation_csv",
    "dynamic_alloc.allocation_json_s": "dynamic_alloc.allocation_json",
    "evaluate.compare_s": "evaluate.compare",
    "evaluate.report_csv_s": "evaluate.report_csv",
    "evaluate.summary_json_s": "evaluate.summary_json",
}
CALLS = {
    "interference.build_calls": "interference.build",
    "interference.subgraph_calls": "interference.subgraph",
    "coloring.exact_calls": "coloring.exact",
    "coloring.pattern_calls": "coloring.pattern",
    "spectrum.partition_calls": "spectrum.partition",
    "dynamic_alloc.allocate_calls": "dynamic_alloc.allocate",
    "dynamic_alloc.activity_calls": "dynamic_alloc.activity",
}


def _shape(graph) -> tuple:
    """A graph's cells and edges translated so its first cell is the origin.
    Translations keep i + j even, so equal shapes have equal colorings."""
    i0, j0 = graph.vertices[0].i, graph.vertices[0].j
    return (
        tuple((v.i - i0, v.j - j0) for v in graph.vertices),
        frozenset(frozenset(((a.i - i0, a.j - j0), (b.i - i0, b.j - j0))) for a, b in graph.edges),
    )


class Tracer:
    """Self times and counts of the wrapped layers over one traced pass."""

    def __init__(self):
        self.enabled = False
        self.now = perf_counter
        self._stack: list[list] = []  # open spans: [layer, child seconds]
        self._graphs: list = []  # exact-solve inputs of the current invocation
        self.reset()

    def reset(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def install(self, now) -> None:
        """Wrap every target; spans are timed with ``now()``."""
        self.now = now
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(fn, layer))

    def wrap(self, fn, layer: str):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.span(layer, fn, *args, **kwargs)

        return traced

    def span(self, layer: str, fn, *args, **kwargs):
        stack = self._stack
        stack.append([layer, 0.0])
        start = self.now()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self.now() - start
            _, child = stack.pop()
            self.self_time[layer] += elapsed - child
            self.calls[layer] += 1
            if stack:
                stack[-1][1] += elapsed
        self._count(layer, args, result)
        return result

    def _count(self, layer: str, args, result) -> None:
        counts = self.counts
        if layer == "interference.build":
            n = len(result.vertices)
            counts["pairs_scanned"] += n * (n - 1) // 2
            counts["edges"] += len(result.edges)
        elif layer == "interference.components":
            counts["components"] += len(result)
        elif layer == "coloring.exact":
            graph = args[0]
            counts["exact_vertices"] += len(graph.vertices)
            if graph.vertices:
                self._graphs.append(graph)
            if any(open_layer == "static_alloc.allocate" for open_layer, _ in self._stack):
                counts["static_exact"] += 1

    def end_invocation(self) -> None:
        """Count the distinct component shapes one CLI invocation solved."""
        self.counts["shapes"] += len({_shape(g) for g in self._graphs})
        self._graphs.clear()

    def metrics(self) -> dict[str, float]:
        counts, calls = self.counts, self.calls
        found = {name: self.self_time[layer] for name, layer in SELF_TIMES.items()}
        found.update({name: calls[layer] for name, layer in CALLS.items()})
        found["interference.pairs_scanned"] = counts["pairs_scanned"]
        found["interference.edges"] = counts["edges"]
        found["interference.components"] = counts["components"]
        found["coloring.exact_vertices"] = counts["exact_vertices"]
        found["coloring.exact_calls_per_shape"] = calls["coloring.exact"] / counts["shapes"] if counts["shapes"] else 0.0
        allocs = calls["static_alloc.allocate"]
        found["static_alloc.exact_per_call"] = counts["static_exact"] / allocs if allocs else 0.0
        return found
