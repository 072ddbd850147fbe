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
import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import OrderingError
from .dynamic_alloc import SuperframeConfig, allocate_dynamic
from .lattice import CellIndex, Lattice
from .spectrum import ChannelPlan
from .static_alloc import allocate_static_data

SINGLE = "single"
STATIC = "static"
DYNAMIC = "dynamic"
SCHEMES = (SINGLE, STATIC, DYNAMIC)

# Peak dynamic channel counts per domain as published in the source
# evaluation; reported alongside computed values, never substituted for
# them (the Japan figure disagrees with that table's own channel count).
REFERENCE_DYNAMIC_PEAKS = {"US": 28, "Japan": 18, "Europe": 14}

T = TypeVar("T")


@dataclass(frozen=True)
class RequestScenario:
    """Per-PAN slot requests served in every cycle the PAN is active."""

    per_pan: Mapping[CellIndex, tuple[int, ...]]

    def __post_init__(self) -> None:
        for cell, requests in self.per_pan.items():
            if not requests or any(r < 1 for r in requests):
                raise ValueError(f"PAN ({cell.i}, {cell.j}) needs a non-empty list of positive slot counts")

    @classmethod
    def uniform(cls, cells: Iterable[CellIndex], count: int = 8, slots: int = 3) -> "RequestScenario":
        if count < 1 or slots < 1:
            raise ValueError("request count and slot length must be positive")
        return cls(per_pan={cell: (slots,) * count for cell in cells})


@dataclass(frozen=True)
class SchemeReport:
    """Makespans and delay gains of one scheme, per PAN and cycle.

    Keys of ``makespans``/``channel_counts`` are (pan index, cycle index),
    both 0-based, covering exactly the cycles where the PAN is active.
    ``delay_decrease`` is measured against the single-channel baseline.
    Within one PAN, the channel count fixes the makespan and the delay
    decrease, since the PAN serves the same requests in every cycle.
    """

    scheme: str
    makespans: dict[tuple[int, int], int]
    channel_counts: dict[tuple[int, int], int]
    delay_decrease: dict[tuple[int, int], float]
    max_channels: dict[int, int]


def makespan(requests: Sequence[int], num_channels: int) -> int:
    """Slots needed to serve all requests on ``num_channels`` channels."""
    if num_channels < 1:
        raise ValueError("num_channels must be positive")
    if not requests:
        raise ValueError("requests must be non-empty")
    return max(max(requests), math.ceil(sum(requests) / num_channels))


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
    """
    missing = [c.pan_cell for c in configs if c.pan_cell not in scenario.per_pan]
    if missing:
        cell = missing[0]
        raise ValueError(f"workload does not cover PAN ({cell.i}, {cell.j})")
    _, k_static = allocate_static_data(lattice, plan)
    dynamic = allocate_dynamic(lattice, configs, plan)
    act = dynamic.activity
    u = len(dynamic.per_cycle_chi)

    def channels_for(scheme: str, pan: int, cycle: int) -> int:
        if scheme == SINGLE:
            return 1
        if scheme == STATIC:
            return k_static
        return len(dynamic.channels[pan][cycle])

    reports = []
    for scheme in SCHEMES:
        makespans: dict[tuple[int, int], int] = {}
        channel_counts: dict[tuple[int, int], int] = {}
        delay: dict[tuple[int, int], float] = {}
        max_channels: dict[int, int] = {}
        for pan, cfg in enumerate(configs):
            requests = scenario.per_pan[cfg.pan_cell]
            baseline = makespan(requests, 1)
            outcomes: dict[int, tuple[int, float]] = {}  # channel count -> (slots, delay decrease)
            for t in compress(range(u), act.active[pan]):
                count = channels_for(scheme, pan, t)
                if count not in outcomes:
                    slots = makespan(requests, count)
                    outcomes[count] = (slots, delay_decrease_percent(baseline, slots))
                makespans[(pan, t)], delay[(pan, t)] = outcomes[count]
                channel_counts[(pan, t)] = count
            max_channels[pan] = max(outcomes, default=0)
        reports.append(
            SchemeReport(
                scheme=scheme,
                makespans=makespans,
                channel_counts=channel_counts,
                delay_decrease=delay,
                max_channels=max_channels,
            )
        )
    return reports


def scheme_report_csv(configs: Sequence[SuperframeConfig], reports: Sequence[SchemeReport]) -> str:
    """One row per scheme, PAN and active cycle; cycles and PANs 1-based."""
    # A line is "scheme,pan,i,j," + "cycle," + "channels,makespan,delay".  The
    # head is rendered once per scheme and PAN, the tail once per PAN and
    # channel count, which fixes the PAN's makespan and delay decrease.
    lines = ["scheme,pan,pan_i,pan_j,cycle,channels,makespan_slots,delay_decrease_percent"]
    for report in reports:
        heads = [
            f"{report.scheme},{pan},{cfg.pan_cell.i},{cfg.pan_cell.j},"
            for pan, cfg in enumerate(configs, 1)
        ]
        tails: dict[tuple[int, int], str] = {}
        for key in sorted(report.makespans):
            pan, t = key
            count = report.channel_counts[key]
            tail = tails.get((pan, count))
            if tail is None:
                tail = tails[(pan, count)] = f"{count},{report.makespans[key]},{report.delay_decrease[key]:.4f}"
            lines.append(f"{heads[pan]}{t + 1},{tail}")
    return "\r\n".join(lines) + "\r\n"


def _per_pan(values: Mapping[tuple[int, int], T], pick: Callable[[T, T], T]) -> dict[int, T]:
    """Fold the (PAN, cycle) entries of one report into one value per PAN."""
    folded: dict[int, T] = {}
    for (pan, _), value in values.items():
        folded[pan] = pick(folded[pan], value) if pan in folded else value
    return folded


def evaluation_summary_json(
    configs: Sequence[SuperframeConfig],
    plan: ChannelPlan,
    domain_name: str,
    reports: Sequence[SchemeReport],
) -> str:
    """Per-PAN peaks and best makespans per scheme, plus the domain peaks."""
    by_scheme = {r.scheme: r for r in reports}
    computed_peak = max(
        (count for r in reports for count in r.max_channels.values()), default=0
    )
    best_makespan = {s: _per_pan(by_scheme[s].makespans, min) for s in SCHEMES}
    max_decrease = {s: _per_pan(by_scheme[s].delay_decrease, max) for s in SCHEMES}
    doc: dict = {
        "domain": domain_name,
        "data_channels": len(plan.data_set),
        "per_pan": [
            {
                "pan": pan + 1,
                "cell": [cfg.pan_cell.i, cfg.pan_cell.j],
                "max_channels": {s: by_scheme[s].max_channels[pan] for s in SCHEMES},
                "best_makespan": {s: best_makespan[s].get(pan) for s in SCHEMES},
                "max_delay_decrease_percent": {s: max_decrease[s].get(pan) for s in SCHEMES},
            }
            for pan, cfg in enumerate(configs)
        ],
        "computed_dynamic_peak": computed_peak,
    }
    if domain_name in REFERENCE_DYNAMIC_PEAKS:
        reference = REFERENCE_DYNAMIC_PEAKS[domain_name]
        doc["reference_dynamic_peak"] = reference
        if reference != computed_peak:
            doc["peak_note"] = (
                f"reference evaluation reports a peak of {reference} dynamic channels for "
                f"{domain_name}; the computed peak under the active channel table is {computed_peak}"
            )
    return json.dumps(doc, indent=2) + "\n"
