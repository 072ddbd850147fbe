"""Duty-cycle-aware dynamic data-channel allocation.

Every PAN runs a beacon-mode superframe with active period SD = 2^SO inside
a beacon interval BI = 2^BO (both counted in base superframe units, SO <=
BO).  The network-wide schedule repeats with the major cycle, the largest
BI; time is sliced into elementary cycles of the smallest SD.  Per
elementary cycle, the PANs active in it are a position mask over the
lattice's metric-12 interference graph; each connected component of the
subgraph it induces is colored with the fewest colors and
every PAN in a component with chi colors receives a disjoint group of
|data channels| // chi channels for that cycle, so isolated PANs get the
whole data set while busy cycles fall back to the static share.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, repeat
from operator import or_
from typing import Iterator, Sequence

from .coloring import data_pattern_classes, two_coloring
from .errors import InsufficientSpectrumError, InvalidSuperframeError, NotInLatticeError
from .interference import interference_rows, iter_bits
from .jsontext import chunk_size, flush_chunks, json_array, json_object
from .lattice import DATA_REUSE_METRIC, CellIndex, Lattice
from .spectrum import ChannelPlan, LogicalChannel, partition_channels


# IEEE 802.15.4 beacon-enabled mode: 0 <= SO <= BO <= 14.
MAX_BEACON_ORDER = 14


class SuperframeConfig(namedtuple("SuperframeConfig", "pan_cell so bo phase")):
    """One PAN's duty cycle: cell, superframe order SO, beacon order BO.

    ``phase`` shifts the start of the beacon interval, in base superframe
    units (the unit of SD and BI, not the elementary cycle); zero means all
    PANs start together (the worst case).  A tuple, equal to the plain
    ``(pan_cell, so, bo, phase)``."""

    __slots__ = ()

    def __new__(cls, pan_cell: CellIndex, so: int, bo: int, phase: int = 0) -> "SuperframeConfig":
        if so < 0 or bo < 0 or phase < 0:
            raise InvalidSuperframeError("SO, BO and phase must be non-negative")
        if max(so, bo) > MAX_BEACON_ORDER:
            raise InvalidSuperframeError(
                f"SO={so}, BO={bo}: superframe and beacon orders are limited to 0..{MAX_BEACON_ORDER}"
            )
        if so > bo:
            raise InvalidSuperframeError(f"SO={so} exceeds BO={bo}: active period must fit in the beacon interval")
        return tuple.__new__(cls, (pan_cell, so, bo, phase))

    @property
    def sd(self) -> int:
        return 1 << self.so

    @property
    def bi(self) -> int:
        return 1 << self.bo


class CycleStructure(namedtuple("CycleStructure", "bi_maj sd_min u_cycles")):
    """Major cycle, elementary cycle length, and cycles per major cycle."""

    __slots__ = ()


class AllocationMatrix(namedtuple("AllocationMatrix", "per_cycle_grants per_cycle_chi per_cycle_k")):
    """The dynamic allocation of one run: grants per cycle and PAN.

    ``per_cycle_grants[cycle][pan]`` is the tuple of data channels granted
    to the PAN in the elementary cycle.  A grant is ``()`` exactly when the
    PAN is idle there: an active PAN always gets a non-empty group, so the
    grants are also the activity, and the report writers read it off them.
    ``per_cycle_chi`` is the chromatic number of the cycle's active
    interference graph (max over its components; 0 when idle) and
    ``per_cycle_k`` the largest channel grant in the cycle.  With the PANs'
    configs, this record is the whole input of the dynamic report writers.

    Cycles with equal sets of active PANs share one column tuple, whose
    grants are the shared channel groups.
    """

    __slots__ = ()


def cycle_structure(configs: Sequence[SuperframeConfig]) -> CycleStructure:
    """BI_maj = max beacon interval, SD_min = min active period, U = ratio.

    All durations are powers of two, so the least common multiple of the
    intervals is the maximum and the greatest common divisor of the active
    periods is the minimum.
    """
    if not configs:
        raise ValueError("need at least one superframe config")
    so_min = min(cfg.so for cfg in configs)
    bo_max = max(cfg.bo for cfg in configs)
    return CycleStructure(bi_maj=1 << bo_max, sd_min=1 << so_min, u_cycles=1 << (bo_max - so_min))


def allocate_dynamic(lattice: Lattice, configs: Sequence[SuperframeConfig], plan: ChannelPlan) -> AllocationMatrix:
    """Per-cycle per-PAN channel groups over one major cycle, colored on the
    lattice's metric-12 graph.

    ``_active_sets`` allocates each distinct set of active PANs once; here
    each set becomes one grant column, with ``()`` for the idle PANs, which
    every cycle with that set shares.  So the grants are the activity: PAN
    k is active in cycle t iff ``per_cycle_grants[t][k]`` is non-empty.  A
    cycle's chi and k are the largest of its components' chi and group
    size, 0 when no PAN is active.
    """
    cycle_masks, sets = _active_sets(interference_rows(lattice, DATA_REUSE_METRIC), lattice.cells, configs, plan)
    n = len(configs)
    by_mask = {}  # mask -> (column, chi, k)
    for mask, components in sets.items():
        column: list[tuple[LogicalChannel, ...]] = [()] * n
        chi = k = 0
        for component_chi, size, grants in components:
            for pan, grant in grants:
                column[pan] = grant
            if component_chi > chi:
                chi = component_chi
            if size > k:
                k = size
        by_mask[mask] = tuple(column), chi, k
    return AllocationMatrix._make(zip(*map(by_mask.__getitem__, cycle_masks)))


def _active_sets(
    rows: Sequence[int], cells: Sequence[CellIndex], configs: Sequence[SuperframeConfig], plan: ChannelPlan
) -> tuple[list[int], dict[int, list[tuple[int, int, list]]]]:
    """The one pass of dynamic allocation on the metric-12 ``rows`` of the
    PANs' lattice ``cells``, once per distinct set of active PANs.  Its readers:
    ``allocate_dynamic`` turns it into grant columns, ``compare_schemes`` into
    counts and active cycles.

    Returns (cycle_masks, sets).  ``cycle_masks[t]`` holds the cell
    positions of the PANs active in cycle t, the one record of activity.  A
    PAN is active in cycle t when the cycle's start t * SD_min falls in
    [phase, phase + SD) modulo BI: (t * SD_min - phase) mod BI < SD.  All
    durations are powers of two, so SD_min divides SD, SD divides BI and BI
    divides BI_maj: the activity repeats every P = BI / SD_min cycles, U is
    a multiple of P, and in each period the PAN is active in the m = SD /
    SD_min cycles from t0 = ceil((phase mod BI) / SD_min) on, modulo P: the
    interval [t0, t0 + m), or [0, t0 + m - P) and [t0, P) when it wraps
    past P.  Each period's pattern of P masks is tiled over the U cycles.
    ``sets`` maps each distinct mask, in order of first appearance, to the
    list of its components, in the order the split finds them, each as the
    record (chi, group size, [(PAN index, grant)]).

    Each mask is split in one loop.  A PAN with no active neighbour is a
    component of one, chi 1, and its record, the whole data set, is built
    once per PAN.  From any other PAN, one ``two_coloring`` call grows its
    component, whose BFS layers are also its coloring.  A component met
    before reuses its record; a new one is colored as position-mask
    classes, its two-coloring or, with an odd cycle, the data pattern (chi
    <= 3), and its PANs get the matching groups of |data| // chi channels.
    A shortfall raises ``InsufficientSpectrumError`` naming its first
    cycle.
    """
    cycles = cycle_structure(configs)
    sd_min = cycles.sd_min
    ordered_data = plan.ordered_data()
    position = {cell: p for p, cell in enumerate(cells)}
    pan_at = [-1] * len(position)  # cell position -> PAN index
    patterns: dict[int, list[int]] = {}
    for k, (cell, so, bo, phase) in enumerate(configs):
        p = position.get(cell)
        if p is None:
            raise NotInLatticeError(f"cell ({cell.i}, {cell.j}) is not in the lattice")
        if pan_at[p] >= 0:
            raise ValueError("duplicate PAN cells in superframe configs")
        pan_at[p] = k
        period = (1 << bo) // sd_min
        start = -(-(phase % (1 << bo)) // sd_min) % period
        end = start + (1 << so) // sd_min
        pattern = patterns.get(period)
        if pattern is None:
            pattern = patterns[period] = [0] * period
        for a, b in ((start, end),) if end <= period else ((0, end - period), (start, period)):
            pattern[a:b] = map(or_, pattern[a:b], repeat(1 << p))
    # Each period (a power of two) divides the next: tile up to each in turn, then to U.
    cycle_masks = [0]
    for period in sorted(patterns):
        cycle_masks = list(map(or_, cycle_masks * (period // len(cycle_masks)), patterns[period]))
    cycle_masks *= cycles.u_cycles // len(cycle_masks)

    def short(mask: int, chi: int) -> InsufficientSpectrumError:
        return InsufficientSpectrumError(
            f"cycle {cycle_masks.index(mask) + 1}: need {chi} data channels, plan has {len(ordered_data)}"
        )

    alone = [(1, len(ordered_data), [(k, ordered_data)]) for k in range(len(configs))]
    groups_by_chi, component_memo, sets = {}, {}, {}
    # Distinct masks in order of first appearance: a shortfall names its earliest cycle.
    for mask in dict.fromkeys(cycle_masks):
        components = sets[mask] = []
        rest = mask  # the positions no component has reached yet
        while rest:
            low = rest & -rest
            p = low.bit_length() - 1
            if not rows[p] & rest:  # no active neighbour
                if not ordered_data:
                    raise short(mask, 1)
                rest ^= low
                components.append(alone[pan_at[p]])
                continue
            comp, classes = two_coloring(rows, rest)
            rest ^= comp
            component = component_memo.get(comp)
            if component is None:
                classes = classes or data_pattern_classes(comp, cells)
                chi = len(classes)
                group_size = len(ordered_data) // chi
                if group_size == 0:
                    raise short(mask, chi)
                if chi not in groups_by_chi:
                    groups_by_chi[chi] = partition_channels(ordered_data, chi, group_size)[0]
                groups = groups_by_chi[chi]
                grants = [(pan_at[p], group) for members, group in zip(classes, groups) for p in iter_bits(members)]
                component = component_memo[comp] = (chi, group_size, grants)
            components.append(component)
    return cycle_masks, sets


def _pan_texts(configs: Sequence[SuperframeConfig], suffix: str = "") -> tuple[list[str], list[str]]:
    """Per PAN, its CSV fields "i,j,0" (idle) and "i,j,1" (active), each followed by ``suffix``."""
    cells = [f"{cfg.pan_cell.i},{cfg.pan_cell.j}," for cfg in configs]
    return [cell + "0" + suffix for cell in cells], [cell + "1" + suffix for cell in cells]


def _cycle_csv(header: str, cycles: Iterator[list[str]], lines: int) -> Iterator[str]:
    """``header``, then each cycle t's PAN texts (t from 1) as lines "t,text",
    one join per cycle or per slice of ``lines`` lines; uses up each list."""
    yield header
    for t, texts in enumerate(cycles, 1):
        head = f"{t},"
        for start in range(0, len(texts), lines):
            part = texts if len(texts) <= lines else texts[start : start + lines]
            part[0] = head + part[0]
            part[-1] += "\r\n"
            yield ("\r\n" + head).join(part)


def activity_csv(configs: Sequence[SuperframeConfig], alloc: AllocationMatrix) -> Iterator[str]:
    """Long-form activity table, read off the grant columns of ``alloc``: a
    cycle is a copy of the idle texts "i,j,0" with the active "i,j,1" put in,
    yielded as one chunk or in slices of whole lines (``_cycle_csv``)."""
    idle, active = _pan_texts(configs)
    pans = range(len(configs))
    lines = chunk_size(len(f"{len(alloc.per_cycle_chi)},") + max(map(len, active)) + 2)

    def cycles() -> Iterator[list[str]]:
        for column in alloc.per_cycle_grants:
            texts = idle.copy()
            for k in compress(pans, column):
                texts[k] = active[k]
            yield texts

    yield from _cycle_csv("cycle,pan_i,pan_j,active\r\n", cycles(), lines)


def _widest_grant(alloc: AllocationMatrix) -> tuple[LogicalChannel, ...]:
    """A grant with text at least as long as any grant's in ``alloc``, sizing
    the writers' chunks without a scan: ``max(per_cycle_k)`` times "15:8"."""
    return (LogicalChannel(15, 8),) * max(alloc.per_cycle_k)


def allocation_csv(configs: Sequence[SuperframeConfig], alloc: AllocationMatrix) -> Iterator[str]:
    """Per-cycle per-PAN grants, read off the grant columns of ``alloc``; ``chi``
    is the cycle's chromatic number.  Yields the text as ``activity_csv`` does."""
    # A cycle starts as a copy of the idle texts "i,j,0,chi,0," of its chi; an
    # active PAN's text is "i,j,1," and its grant's "chi,k,channels", rendered
    # once per (chi, grant) and keyed by identity: ``alloc`` keeps grants alive.
    idle, active = _pan_texts(configs, ",")
    pans = range(len(configs))

    def grant_fields(chi: int, grant: tuple[LogicalChannel, ...]) -> str:
        return f"{chi},{len(grant)},{' '.join(ch.token() for ch in grant)}"

    widest = grant_fields(max(alloc.per_cycle_chi), _widest_grant(alloc))
    lines = chunk_size(len(f"{len(alloc.per_cycle_chi)},") + max(map(len, active)) + len(widest) + 2)

    def cycles() -> Iterator[list[str]]:
        by_chi: dict[int, tuple[list[str], dict[int, str]]] = {}
        for chi, column in zip(alloc.per_cycle_chi, alloc.per_cycle_grants):
            if chi not in by_chi:
                by_chi[chi] = ([pan + f"{chi},0," for pan in idle], {})
            idle_texts, fields = by_chi[chi]
            texts = idle_texts.copy()
            for k in compress(pans, column):
                grant = column[k]
                text = fields.get(id(grant))
                if text is None:
                    text = fields[id(grant)] = grant_fields(chi, grant)
                texts[k] = active[k] + text
            yield texts

    yield from _cycle_csv("cycle,pan_i,pan_j,active,chi,k,channels\r\n", cycles(), lines)


def allocation_json_doc(configs: Sequence[SuperframeConfig], alloc: AllocationMatrix) -> Iterator[str]:
    """JSON mirror of the channel grants, one row of cycles per PAN: the one
    report that transposes ``per_cycle_grants``.

    The text is ``json.dumps(doc, indent=2) + "\n"`` of the document
    {bi_maj, sd_min, u_cycles, per_cycle_chi, per_cycle_k, pans: [{pan,
    cell, SO, BO, phase, channels_per_cycle}]}, where a grant is a list of
    [phy_channel, code] pairs.  It is written directly, in chunks of at most
    ``WRITE_CHUNK`` characters; the first ends before the PAN list (U <=
    2^14 bounds its two arrays).  Each distinct grant is rendered once at
    its nesting depth, and a PAN's row starts as the idle piece repeated and
    takes its active cycles' pieces.  There is at least one PAN and one
    cycle, as ``cycle_structure`` requires.
    """

    def ints(values: Sequence[int], level: int) -> str:
        return json_array([str(v) for v in values], level)

    def grant_text(grant: tuple[LogicalChannel, ...]) -> str:
        return json_array([ints(ch, 5) for ch in grant], 4)

    # A grant sits at depth 4 of channels_per_cycle; every grant but a row's
    # last carries the separator to the next one, and the last closes the
    # row.  Both pieces are rendered on a grant's first use, keyed by
    # identity as in ``allocation_csv``.
    row_end = "\n      ]\n    }"
    inner: dict[int, str] = {}
    last: dict[int, str] = {}

    def render(grant: tuple[LogicalChannel, ...]) -> str:
        text = grant_text(grant)
        last[id(grant)] = text + row_end
        inner[id(grant)] = piece = text + ",\n        "
        return piece

    cycles = cycle_structure(configs)
    yield (
        "{\n"
        f'  "bi_maj": {cycles.bi_maj},\n'
        f'  "sd_min": {cycles.sd_min},\n'
        f'  "u_cycles": {cycles.u_cycles},\n'
        f'  "per_cycle_chi": {ints(alloc.per_cycle_chi, 1)},\n'
        f'  "per_cycle_k": {ints(alloc.per_cycle_k, 1)},\n'
        '  "pans": ['
    )
    # Each PAN's head and each grant piece is a unit; a row's closing piece
    # is its longest.  Chunks of mostly idle rows stay far below the bound:
    # batching rows up to 1 MiB by length measured slower (see CHANGES.md).
    heads = [
        f'{"," if k else ""}\n    {{\n      "pan": {k + 1},\n'
        f'      "cell": {ints((cfg.pan_cell.i, cfg.pan_cell.j), 3)},\n'
        f'      "SO": {cfg.so},\n      "BO": {cfg.bo},\n      "phase": {cfg.phase},\n'
        '      "channels_per_cycle": [\n        '
        for k, cfg in enumerate(configs)
    ]
    size = chunk_size(max(max(map(len, heads)), len(grant_text(_widest_grant(alloc)) + row_end)))
    u = len(alloc.per_cycle_grants)
    cycle_range = range(u)
    idle_piece = render(())
    pieces: list[str] = []
    for head, row in zip(heads, zip(*alloc.per_cycle_grants)):
        if len(pieces) + 1 + u > size:
            yield from flush_chunks(pieces, size)
        pieces.append(head)
        first = len(pieces)
        pieces += repeat(idle_piece, u)
        for t in compress(cycle_range, row):
            grant = row[t]
            piece = inner.get(id(grant))
            pieces[first + t] = render(grant) if piece is None else piece
        pieces[-1] = last[id(row[-1])]
    pieces.append("\n  ]\n}\n")
    yield from flush_chunks(pieces, size)


def dynamic_summary_json(configs: Sequence[SuperframeConfig], alloc: AllocationMatrix) -> str:
    """The cycle structure of ``configs`` plus per-cycle active PAN count
    (the PANs with a non-empty grant in the cycle's column), chi and k.

    The text is ``json.dumps(doc, indent=2) + "\n"`` of {bi_maj, sd_min,
    u_cycles, per_cycle: [{cycle, active_pans, chi, k}]} with cycles
    numbered from 1, written directly: one template is filled per cycle.
    """
    cycles = cycle_structure(configs)
    n = len(configs)
    entry = json_object([(key, "%d") for key in ("cycle", "active_pans", "chi", "k")], 2)
    per_cycle = zip(
        range(1, len(alloc.per_cycle_grants) + 1),
        (n - column.count(()) for column in alloc.per_cycle_grants),
        alloc.per_cycle_chi,
        alloc.per_cycle_k,
    )
    fields = [
        ("bi_maj", str(cycles.bi_maj)),
        ("sd_min", str(cycles.sd_min)),
        ("u_cycles", str(cycles.u_cycles)),
        ("per_cycle", json_array(list(map(entry.__mod__, per_cycle)), 1)),
    ]
    return json_object(fields, 0) + "\n"
