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
from .dynamic_alloc import SuperframeConfig, _active_sets, cycle_structure
from .interference import interference_rows
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


class SchemeReport(namedtuple("SchemeReport", "scheme active_cycles channel_counts distinct_counts spans")):
    """Channel counts of one scheme and the request spans they serve, per PAN.

    All sequences are indexed by the 0-based PAN index.  ``active_cycles[p]``
    lists the 0-based cycles where PAN p is active, in increasing order.
    ``channel_counts[p][n]`` is the PAN's channel count in its n-th active
    cycle (for dynamic, the size of the grant), and ``distinct_counts[p]``
    lists those counts ascending, each once: ``(1,)`` for single,
    ``(k_static,)`` for static, ``()`` for a PAN that is never active.
    ``spans[p]`` is the (sum, max) of the requests PAN p serves in every
    active cycle; with a count it fixes the makespan and delay decrease.
    The reports of one ``compare_schemes`` call share ``active_cycles`` and
    ``spans``.
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


def _outcome(span: tuple[int, int], num_channels: int) -> tuple[int, float]:
    """(makespan in slots, delay decrease in percent) of requests of (sum,
    max) ``span`` on ``num_channels`` channels; on one channel the makespan
    is the sum.  Neither gets worse as the count grows."""
    total, longest = span
    slots = _makespan(total, longest, num_channels)
    return slots, delay_decrease_percent(total, slots)


def compare_schemes(
    lattice: Lattice,
    configs: Sequence[SuperframeConfig],
    plan: ChannelPlan,
    scenario: RequestScenario,
) -> list[SchemeReport]:
    """Evaluate all three schemes over one major cycle.

    Single-channel gives every PAN one data channel, static gives k_static,
    dynamic the per-cycle grant; all three follow the same duty cycles.
    The lattice's metric-12 rows are built once.  k_static is |data| //
    chi_data of its coloring, and ``_active_sets`` allocates each distinct
    set of active PANs on it once.  A PAN's dynamic count in a cycle is the
    group size of its component record in the cycle's set, read in one
    walk over the cycles with no grant column built; the same walk reads
    each PAN's active cycles off the cycle masks.  The workload's coverage
    is checked while its spans are read.  No makespan is computed here:
    the writers compute them from ``spans`` and the counts.
    """
    # (sum, max) of each distinct request list; a uniform workload shares
    # one tuple between all PANs, so the lists are keyed by identity.
    by_list: dict[int, tuple[int, int]] = {}
    spans = []
    for cfg in configs:
        requests = scenario.per_pan.get(cfg.pan_cell)
        if requests is None:
            raise ValueError(f"workload does not cover PAN ({cfg.pan_cell.i}, {cfg.pan_cell.j})")
        span = by_list.get(id(requests))
        if span is None:
            span = by_list[id(requests)] = (sum(requests), max(requests))
        spans.append(span)
    spans = tuple(spans)
    rows = interference_rows(lattice, DATA_REUSE_METRIC)
    k_static = _static_share(data_graph_coloring(rows, lattice.cells).num_colors, plan)
    cycle_masks, sets = _active_sets(rows, lattice.cells, configs, plan)

    # Cycle by cycle, each PAN of a component gets the cycle and its group size.
    active: list[list[int]] = [[] for _ in configs]
    dynamic: list[list[int]] = [[] for _ in configs]
    for t, mask in enumerate(cycle_masks):
        for _, group_size, grants in sets[mask]:
            for k, _ in grants:
                active[k].append(t)
                dynamic[k].append(group_size)
    active_cycles = tuple(map(tuple, active))
    # Per scheme, each PAN's counts and its distinct counts, ascending.
    columns = {}
    for scheme, share in ((SINGLE, 1), (STATIC, k_static)):
        only = (share,)
        columns[scheme] = ([only * len(c) for c in active_cycles], [only if c else () for c in active_cycles])
    columns[DYNAMIC] = (map(tuple, dynamic), [tuple(sorted(set(counts))) for counts in dynamic])

    return [
        SchemeReport(scheme, active_cycles, tuple(counts), tuple(distinct), spans)
        for scheme, (counts, distinct) in columns.items()
    ]


class _Tails(dict):
    """"channels,makespan,delay\r\n" texts keyed by (span, count), each
    rendered on its first lookup."""

    def __missing__(self, key: tuple[tuple[int, int], int]) -> str:
        slots, delay = _outcome(*key)
        text = self[key] = f"{key[1]},{slots},{delay:.4f}\r\n"
        return text


def scheme_report_csv(configs: Sequence[SuperframeConfig], reports: Sequence[SchemeReport]) -> Iterator[str]:
    """One row per scheme, PAN and active cycle; cycles and PANs 1-based,
    makespans and delays from the PAN's span and count.  Yields the text in
    chunks of at most ``WRITE_CHUNK`` characters."""
    # A line is "scheme,pan,i,j," + "cycle," + "channels,makespan,delay\r\n".
    # The head is rendered once per scheme and PAN, the cycle field once per
    # cycle, and the tail once per (span, count) value.  A (scheme, PAN) run
    # is one piece.  A run of one count (always, for single and static) is
    # one join over its cycle fields with the tail and head between them; a
    # run of several counts interleaves head, cycle field and tail by
    # strided slices.  No run is longer than the most active cycles of a PAN
    # times the longest line, whose tail is bounded by the digits of the
    # largest count and request sum and the 8 of "100.0000".
    cycle_fields = [f"{t}," for t in range(1, cycle_structure(configs).u_cycles + 1)]
    pans = [f"{pan},{i},{j}," for pan, (i, j) in enumerate((cfg.pan_cell for cfg in configs), 1)]
    tails = _Tails()
    header = "scheme,pan,pan_i,pan_j,cycle,channels,makespan_slots,delay_decrease_percent\r\n"
    longest_line = (
        max(len(report.scheme) + 1 for report in reports)
        + max(map(len, pans))
        + len(cycle_fields[-1])
        + len(str(max((counts[-1] for report in reports for counts in report.distinct_counts if counts), default=0)))
        + len(str(max(total for report in reports for total, _ in report.spans)))
        + len(",,100.0000\r\n")
    )
    size = chunk_size(max(len(header), longest_line * max(map(len, reports[0].active_cycles))))
    pieces = [header]
    for report in reports:
        columns = zip(pans, report.active_cycles, report.channel_counts, report.distinct_counts, report.spans)
        for pan, cycles, counts, distinct, span in columns:
            if not cycles:
                continue
            if len(pieces) >= size:
                yield from flush_chunks(pieces, size)
            head = f"{report.scheme},{pan}"
            if len(distinct) == 1:
                text = tails[span, distinct[0]]
                fields = list(map(cycle_fields.__getitem__, cycles))
                fields[0] = head + fields[0]
                fields[-1] += text
                pieces.append((text + head).join(fields))
            else:
                by_count = {count: tails[span, count] for count in distinct}
                block = [head] * (3 * len(cycles))
                block[1::3] = map(cycle_fields.__getitem__, cycles)
                block[2::3] = map(by_count.__getitem__, counts)
                pieces.append("".join(block))
    yield from flush_chunks(pieces, size)


def evaluation_summary_json(
    configs: Sequence[SuperframeConfig],
    plan: ChannelPlan,
    domain_name: str,
    reports: Sequence[SchemeReport],
) -> Iterator[str]:
    """Per-PAN peaks and best makespans per scheme, plus the domain peaks.

    The text is ``json.dumps(doc, indent=2) + "\n"`` of {domain,
    data_channels, per_pan: [{pan, cell, max_channels, best_makespan,
    max_delay_decrease_percent}], computed_dynamic_peak} (plus
    reference_dynamic_peak and peak_note for a domain with a published
    peak), where the last three per-PAN fields map each scheme to a value.
    It is written directly: cut at two marks for per-PAN entries into head,
    separator and tail, with one chunk per entry between head and tail.
    A scheme's peak is the PAN's largest count, and since makespan does not
    rise and delay decrease does not fall as the count grows, its extremes
    are the outcome at that count.  The nine per-scheme values are rendered
    once per distinct value of the PAN's spans and distinct counts into a
    per-PAN template; each PAN then fills in only its pan number and cell.
    """
    by_scheme = {r.scheme: r for r in reports}
    computed_peak = max((counts[-1] for report in reports for counts in report.distinct_counts if counts), default=0)
    mark = "\0"  # in no rendered value: json.dumps escapes a NUL
    fields = [
        ("domain", json.dumps(domain_name)),
        ("data_channels", str(len(plan.data_set))),
        ("per_pan", json_array([mark, mark], 1)),
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
    head, separator, tail = (json_object(fields, 0) + "\n").split(mark)
    per_scheme = json_object([(s, "%s") for s in SCHEMES], 3)
    # "%%d" survives the first fill (the nine values) as the "%d" of the
    # second.  Each entry carries the separator before it.
    entry = separator + json_object(
        [
            ("pan", "%%d"),
            ("cell", json_array(["%%d", "%%d"], 3)),
            ("max_channels", per_scheme),
            ("best_makespan", per_scheme),
            ("max_delay_decrease_percent", per_scheme),
        ],
        2,
    )

    def per_pan() -> Iterator[str]:
        templates: dict[tuple, str] = {}
        keys = zip(*(by_scheme[s].spans for s in SCHEMES), *(by_scheme[s].distinct_counts for s in SCHEMES))
        for pan, (cfg, key) in enumerate(zip(configs, keys), 1):
            template = templates.get(key)
            if template is None:
                # A PAN that is never active has peak 0 and null extremes.
                # Floats are rendered by repr, as json does.
                peaks = [counts[-1] if counts else 0 for counts in key[3:]]
                outcomes = [_outcome(span, peak) if peak else None for span, peak in zip(key, peaks)]
                values = peaks + [o[0] if o else "null" for o in outcomes]
                values += [repr(o[1]) if o else "null" for o in outcomes]
                template = templates[key] = entry % tuple(values)
            i, j = cfg.pan_cell
            text = template % (pan, i, j)
            yield text[len(separator) :] if pan == 1 else text

    yield head
    yield from per_pan()
    yield tail
