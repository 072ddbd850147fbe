"""Time-slot latency comparison of single-channel, static multi-channel and
dynamic multi-channel allocation.

Each active PAN serves a batch of slot requests every elementary cycle;
requests can be split across the PAN's channels but a request never
finishes faster than its own length, so serving requests r_1..r_m on c
channels takes max(max r_i, ceil(sum r_i / c)) slots.  The default
workload is eight requests of three slots, i.e. 24 slots on one channel.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import Iterable, Iterator, Mapping, Sequence

from .coloring import data_graph_coloring
from .errors import OrderingError
from .dynamic_alloc import SuperframeConfig, _active_intervals, _active_sets, cycle_structure
from .interference import build_interference_graph
from .jsontext import chunk_size, flush_chunks, json_array, json_object
from .lattice import DATA_REUSE_METRIC, CellIndex, Lattice
from .spectrum import ChannelPlan
from .static_alloc import _static_share

SINGLE = "single"
STATIC = "static"
DYNAMIC = "dynamic"
SCHEMES = (SINGLE, STATIC, DYNAMIC)

# Peak dynamic channel counts per domain as published in the source
# evaluation; reported alongside computed values, never substituted for
# them (the Japan figure disagrees with that table's own channel count).
REFERENCE_DYNAMIC_PEAKS = {"US": 28, "Japan": 18, "Europe": 14}


class RequestScenario(namedtuple("RequestScenario", "per_pan")):
    """Per-PAN slot requests served in every cycle the PAN is active:
    ``per_pan`` maps each PAN's cell to a tuple of slot counts."""

    __slots__ = ()

    def __new__(cls, per_pan: Mapping[CellIndex, tuple[int, ...]]) -> "RequestScenario":
        checked = set()  # ids of the request tuples checked, shared ones once
        for cell, requests in per_pan.items():
            if id(requests) in checked:
                continue
            checked.add(id(requests))
            if not requests or min(requests) < 1:
                raise ValueError(f"PAN ({cell.i}, {cell.j}) needs a non-empty list of positive slot counts")
        return tuple.__new__(cls, (per_pan,))

    @classmethod
    def uniform(cls, cells: Iterable[CellIndex], count: int = 8, slots: int = 3) -> "RequestScenario":
        if count < 1 or slots < 1:
            raise ValueError("request count and slot length must be positive")
        requests = (slots,) * count
        return cls(per_pan={cell: requests for cell in cells})


class SchemeReport(namedtuple("SchemeReport", "scheme active_cycles channel_counts outcomes")):
    """Channel counts, makespans and delay gains of one scheme, per PAN.

    All sequences are indexed by the 0-based PAN index.  ``active_cycles[p]``
    lists the 0-based cycles where PAN p is active, in increasing order; the
    reports of one ``compare_schemes`` call share these tuples.
    ``channel_counts[p][n]`` is the PAN's channel count in its n-th active
    cycle (for dynamic, the size of the grant).  ``outcomes[p]`` maps every
    count PAN p receives to (makespan in slots, delay decrease in percent
    against the single-channel baseline): the PAN serves the same requests in
    every active cycle, so its count fixes both; its largest count is
    ``max(outcomes[p], default=0)``, 0 for a PAN that is never active.
    PANs with the same request sum, request maximum and set of counts share
    one outcome table object, across the reports of one ``compare_schemes``
    call too; the writers render each table once, so tables must not be
    mutated.
    """

    __slots__ = ()


def makespan(requests: Sequence[int], num_channels: int) -> int:
    """Slots needed to serve all requests on ``num_channels`` channels."""
    if num_channels < 1:
        raise ValueError("num_channels must be positive")
    if not requests:
        raise ValueError("requests must be non-empty")
    return _makespan(sum(requests), max(requests), num_channels)


def _makespan(total: int, longest: int, num_channels: int) -> int:
    """``makespan`` from the requests' sum and maximum, in exact integers."""
    return max(longest, -(-total // num_channels))


def delay_decrease_percent(baseline: int, improved: int) -> float:
    """Relative latency gain, 100 * (baseline - improved) / baseline."""
    if improved < 1:
        raise ValueError("improved makespan must be positive")
    if improved > baseline:
        raise OrderingError(f"improved makespan {improved} exceeds baseline {baseline}")
    return 100.0 * (baseline - improved) / baseline


def compare_schemes(
    lattice: Lattice,
    configs: Sequence[SuperframeConfig],
    plan: ChannelPlan,
    scenario: RequestScenario,
) -> list[SchemeReport]:
    """Evaluate all three schemes over one major cycle.

    Single-channel gives every PAN one data channel, static gives k_static,
    dynamic the per-cycle grant; all three follow the same duty cycles.
    The lattice's metric-12 graph is built once.  k_static is |data| //
    chi_data of its coloring, and ``_active_sets`` allocates each distinct
    set of active PANs on it once; the dynamic counts are read off that
    pass without building a grant.  Each PAN's active cycles are its
    active intervals (``_active_intervals``) in every period, the same
    intervals ``_active_sets`` builds the cycle masks from.
    """
    missing = [c.pan_cell for c in configs if c.pan_cell not in scenario.per_pan]
    if missing:
        cell = missing[0]
        raise ValueError(f"workload does not cover PAN ({cell.i}, {cell.j})")
    graph = build_interference_graph(lattice, DATA_REUSE_METRIC)
    k_static = _static_share(data_graph_coloring(graph).num_colors, plan)
    runs, cycle_masks, sets = _active_sets(graph, configs, plan)
    u = len(cycle_masks)

    # A PAN is active at the offsets of its active intervals in every
    # period.  PANs of equal run share one tuple of cycles.
    cycles_by_run: dict[tuple[int, int, int], tuple[int, ...]] = {}
    for run in dict.fromkeys(runs):
        offsets = [t for a, b in _active_intervals(*run) for t in range(a, b)]
        cycles_by_run[run] = tuple([base + offset for base in range(0, u, run[0]) for offset in offsets])
    active_cycles = tuple(map(cycles_by_run.__getitem__, runs))

    # Cycle by cycle, a PAN alone in its component gets the whole data set
    # and the PANs of a larger component its group size.
    whole = len(plan.data_set)
    dynamic: list[list[int]] = [[] for _ in configs]
    for mask in cycle_masks:
        singles, multis = sets[mask]
        for k in singles:
            dynamic[k].append(whole)
        for _, group_size, grants in multis:
            for k, _ in grants:
                dynamic[k].append(group_size)
    counts_by_scheme = {
        SINGLE: [(1,) * len(cycles) for cycles in active_cycles],
        STATIC: [(k_static,) * len(cycles) for cycles in active_cycles],
        DYNAMIC: list(map(tuple, dynamic)),
    }

    # (sum, max) of each distinct request list; a uniform workload shares
    # one tuple between all PANs, so the lists are keyed by identity.
    spans: dict[int, tuple[int, int]] = {}
    pan_spans = []
    for cfg in configs:
        requests = scenario.per_pan[cfg.pan_cell]
        span = spans.get(id(requests))
        if span is None:
            span = spans[id(requests)] = (sum(requests), max(requests))
        pan_spans.append(span)

    # One table per distinct (span, set of counts), shared by every PAN and
    # scheme that has it: a PAN's table is fixed by those alone.  Single and
    # static repeat one count, so its first occurrence is the whole set.
    tables: dict[tuple[tuple[int, int], frozenset[int]], dict[int, tuple[int, float]]] = {}
    reports = []
    for scheme in SCHEMES:
        outcomes = []
        for span, counts in zip(pan_spans, counts_by_scheme[scheme]):
            key = (span, frozenset(counts if scheme == DYNAMIC else counts[:1]))
            table = tables.get(key)
            if table is None:
                total, longest = span
                baseline = _makespan(total, longest, 1)
                table = tables[key] = {}
                for count in sorted(key[1]):
                    slots = _makespan(total, longest, count)
                    table[count] = (slots, delay_decrease_percent(baseline, slots))
            outcomes.append(table)
        reports.append(
            SchemeReport(
                scheme=scheme,
                active_cycles=active_cycles,
                channel_counts=tuple(counts_by_scheme[scheme]),
                outcomes=tuple(outcomes),
            )
        )
    return reports


def scheme_report_csv(configs: Sequence[SuperframeConfig], reports: Sequence[SchemeReport]) -> Iterator[str]:
    """One row per scheme, PAN and active cycle; cycles and PANs 1-based.
    Yields the text in chunks of at most ``WRITE_CHUNK`` characters."""
    # A line is "scheme,pan,i,j," + "cycle," + "channels,makespan,delay\r\n".
    # The head is rendered once per scheme and PAN, the cycle field once per
    # cycle, and the tails once per outcome table.  A (scheme, PAN) run is
    # one piece.  A run of one count (always, for single and static) is one
    # join over its cycle fields with the tail and head between them; a run
    # of several counts interleaves head, cycle field and tail by strided
    # slices.  No run is longer than the most active cycles of a PAN times
    # the longest line.
    cycle_fields = [f"{t}," for t in range(1, cycle_structure(configs).u_cycles + 1)]
    pans = [f"{pan},{i},{j}," for pan, (i, j) in enumerate((cfg.pan_cell for cfg in configs), 1)]
    tables = {id(table): table for report in reports for table in report.outcomes}
    tails_by_table = {
        key: {count: f"{count},{slots},{delay:.4f}\r\n" for count, (slots, delay) in table.items()}
        for key, table in tables.items()
    }
    header = "scheme,pan,pan_i,pan_j,cycle,channels,makespan_slots,delay_decrease_percent\r\n"
    longest_line = (
        max(len(report.scheme) + 1 for report in reports)
        + max(map(len, pans))
        + len(cycle_fields[-1])
        + max((len(tail) for tails in tails_by_table.values() for tail in tails.values()), default=0)
    )
    size = chunk_size(1, max(len(header), longest_line * max(map(len, reports[0].active_cycles))))
    pieces = [header]
    for report in reports:
        columns = zip(pans, report.active_cycles, report.channel_counts, report.outcomes)
        for pan, cycles, counts, table in columns:
            if not cycles:
                continue
            if len(pieces) >= size:
                yield from flush_chunks(pieces, size)
            tails = tails_by_table[id(table)]
            head = f"{report.scheme},{pan}"
            if len(tails) == 1:
                (tail,) = tails.values()
                fields = list(map(cycle_fields.__getitem__, cycles))
                fields[0] = head + fields[0]
                fields[-1] += tail
                pieces.append((tail + head).join(fields))
            else:
                block = [head] * (3 * len(cycles))
                block[1::3] = map(cycle_fields.__getitem__, cycles)
                block[2::3] = map(tails.__getitem__, counts)
                pieces.append("".join(block))
    yield from flush_chunks(pieces, size)


def evaluation_summary_json(
    configs: Sequence[SuperframeConfig],
    plan: ChannelPlan,
    domain_name: str,
    reports: Sequence[SchemeReport],
) -> str:
    """Per-PAN peaks and best makespans per scheme, plus the domain peaks.

    The text is ``json.dumps(doc, indent=2) + "\n"`` of {domain,
    data_channels, per_pan: [{pan, cell, max_channels, best_makespan,
    max_delay_decrease_percent}], computed_dynamic_peak} (plus
    reference_dynamic_peak and peak_note for a domain with a published
    peak), where the last three per-PAN fields map each scheme to a value.
    It is written directly.  The nine per-scheme values are rendered once per
    distinct triple of outcome tables, keyed by identity, into a per-PAN
    template; each PAN then fills in only its pan number and cell.
    """
    by_scheme = {r.scheme: r for r in reports}

    def per_scheme(level: int) -> str:
        return json_object([(s, "%s") for s in SCHEMES], level)

    # "%%d" survives the first fill (the nine values) as the "%d" of the second.
    entry = json_object(
        [
            ("pan", "%%d"),
            ("cell", json_array(["%%d", "%%d"], 3)),
            ("max_channels", per_scheme(3)),
            ("best_makespan", per_scheme(3)),
            ("max_delay_decrease_percent", per_scheme(3)),
        ],
        2,
    )
    templates: dict[tuple[int, ...], str] = {}
    computed_peak = 0
    per_pan = []
    columns = zip(configs, *(by_scheme[s].outcomes for s in SCHEMES))
    for pan, (cfg, *tables) in enumerate(columns, 1):
        key = tuple(map(id, tables))
        template = templates.get(key)
        if template is None:
            # Per scheme, read from the PAN's outcome table: a PAN that is
            # never active has peak 0 and null extremes.  Floats are rendered
            # by repr, as json does.
            values = [max(t, default=0) for t in tables]
            computed_peak = max(computed_peak, *values)
            values += [min(o[0] for o in t.values()) if t else "null" for t in tables]
            values += [repr(max(o[1] for o in t.values())) if t else "null" for t in tables]
            template = templates[key] = entry % tuple(values)
        i, j = cfg.pan_cell
        per_pan.append(template % (pan, i, j))
    fields = [
        ("domain", json.dumps(domain_name)),
        ("data_channels", str(len(plan.data_set))),
        ("per_pan", json_array(per_pan, 1)),
        ("computed_dynamic_peak", str(computed_peak)),
    ]
    if domain_name in REFERENCE_DYNAMIC_PEAKS:
        reference = REFERENCE_DYNAMIC_PEAKS[domain_name]
        fields.append(("reference_dynamic_peak", str(reference)))
        if reference != computed_peak:
            note = (
                f"reference evaluation reports a peak of {reference} dynamic channels for "
                f"{domain_name}; the computed peak under the active channel table is {computed_peak}"
            )
            fields.append(("peak_note", json.dumps(note)))
    return json_object(fields, 0) + "\n"
