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

from .coloring import data_labels
from .errors import InsufficientSpectrumError, InvalidSuperframeError, NotInLatticeError
from .interference import InterferenceGraph, build_interference_graph, component_masks, iter_bits
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


# (chi, group size, [(PAN index, grant)]) of one component of 2+ active PANs.
_Component = tuple[int, int, list[tuple[int, tuple[LogicalChannel, ...]]]]


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


def _duty_runs(configs: Sequence[SuperframeConfig], sd_min: int) -> list[tuple[int, int, int]]:
    """(P, m, t0) per config, its duty run over elementary cycles.

    A PAN is active in cycle t when the cycle's start t * SD_min falls in
    [phase, phase + SD) modulo BI: (t * SD_min - phase) mod BI < SD.  All
    durations are powers of two, so SD_min divides SD, SD divides BI and BI
    divides BI_maj: the activity repeats every P = BI / SD_min cycles, U is
    a multiple of P, and in each period the PAN is active in the m = SD /
    SD_min cycles from t0 = ceil((phase mod BI) / SD_min) on, modulo P
    (``_active_intervals``)."""
    runs = []
    for _, so, bo, phase in configs:
        period = (1 << bo) // sd_min
        runs.append((period, (1 << so) // sd_min, -(-(phase % (1 << bo)) // sd_min) % period))
    return runs


def _active_intervals(period: int, active: int, start: int) -> list[tuple[int, int]]:
    """The cycles [a, b) of one period of the duty run (P, m, t0) in which
    its PAN is active: the m cycles from t0 on, modulo P, as one interval,
    or as two, [0, t0 + m - P) then [t0, P), when the run wraps past P."""
    end = start + active
    if end <= period:
        return [(start, end)]
    return [(0, end - period), (start, period)]


def allocate_dynamic(lattice: Lattice, configs: Sequence[SuperframeConfig], plan: ChannelPlan) -> AllocationMatrix:
    """Per-cycle per-PAN channel groups over one major cycle, colored on the
    lattice's metric-12 graph.

    ``_active_sets`` allocates each distinct set of active PANs once; here
    each set becomes one grant column, with ``()`` for the idle PANs, which
    every cycle with that set shares.  So the grants are the activity: PAN
    k is active in cycle t iff ``per_cycle_grants[t][k]`` is non-empty.  A
    cycle's chi is the largest of its components' (1 for a single PAN) and
    its k the largest group (the whole data set, if a PAN is on its own).
    """
    _, cycle_masks, sets = _active_sets(build_interference_graph(lattice, DATA_REUSE_METRIC), configs, plan)
    n = len(configs)
    ordered_data = plan.ordered_data()
    columns, chis, ks = {}, {}, {}
    for mask, (singles, multis) in sets.items():
        column: list[tuple[LogicalChannel, ...]] = [()] * n
        for k in singles:
            column[k] = ordered_data
        for _, _, grants in multis:
            for k, grant in grants:
                column[k] = grant
        columns[mask] = tuple(column)
        # Components of 2+ PANs have chi >= 2 and a smaller group than a single PAN.
        chis[mask] = max((chi for chi, _, _ in multis), default=1 if singles else 0)
        ks[mask] = len(ordered_data) if singles else max((size for _, size, _ in multis), default=0)
    return AllocationMatrix._make(tuple(map(by_mask.__getitem__, cycle_masks)) for by_mask in (columns, chis, ks))


def _active_sets(
    graph: InterferenceGraph, configs: Sequence[SuperframeConfig], plan: ChannelPlan
) -> tuple[list[tuple[int, int, int]], list[int], dict[int, tuple[list[int], list[_Component]]]]:
    """The one pass of dynamic allocation on ``graph``, the metric-12 graph
    of the PANs' lattice, once per distinct set of active PANs.  Its readers:
    ``allocate_dynamic`` turns it into grant columns, ``compare_schemes`` into counts.

    Returns (runs, cycle_masks, sets).  ``runs[k]`` is PAN k's duty run
    (P, m, t0) (``_duty_runs``) and ``cycle_masks[t]`` the graph positions
    of the PANs active in cycle t.  ``sets`` maps each distinct mask, in
    order of first appearance, to (singles, multis): the PANs that form a
    component on their own and one ``_Component`` per component of two or
    more PANs.

    Within a cycle, each connected component of the active PANs' subgraph
    is colored with the fewest colors by ``data_labels``: its BFS
    2-coloring when bipartite, else the data pattern, so chi <= 3 and no
    search runs.  A PAN in a component needing chi colors gets the group of
    |data| // chi channels matching its color; a PAN on its own takes the
    whole data set, with no coloring call and no memo entry.  PANs in
    different components may share channels, they are out of range of each
    other.

    The work runs in index space: each PAN is a graph position, found in
    the graph's position table, and each cycle a bitmask of its active
    PANs' positions.  Every PAN's activity repeats with its period P
    (``_duty_runs``), so its bit is OR-ed into a pattern of P masks, one
    per distinct P, over its one or two active intervals
    (``_active_intervals``); the at most 15 period patterns are tiled over
    the U cycles and OR-ed together.  Two memos live for the call.  Each
    distinct mask is split into components once, and a component of 2+
    PANs whose position mask occurred before, in any cycle, reuses its
    ``_Component``.  A component with more colors than data channels raises
    ``InsufficientSpectrumError`` naming the first cycle it is active in.
    """
    position = {cell: p for p, cell in enumerate(graph.vertices)}
    pan_positions = []
    for cfg in configs:
        p = position.get(cfg.pan_cell)
        if p is None:
            raise NotInLatticeError(f"cell ({cfg.pan_cell.i}, {cfg.pan_cell.j}) is not in the lattice")
        pan_positions.append(p)
    n = len(configs)
    pan_at = dict(zip(pan_positions, range(n)))  # graph position -> PAN index
    if len(pan_at) != n:
        raise ValueError("duplicate PAN cells in superframe configs")
    cycles = cycle_structure(configs)
    u = cycles.u_cycles
    runs = _duty_runs(configs, cycles.sd_min)
    ordered_data = plan.ordered_data()
    rows = graph.rows

    # Per period P, a pattern of P masks with each PAN's bit over its
    # active intervals, tiled over the U cycles.
    patterns: dict[int, list[int]] = {}
    for p, (period, active, start) in zip(pan_positions, runs):
        pattern = patterns.get(period)
        if pattern is None:
            pattern = patterns[period] = [0] * period
        for a, b in _active_intervals(period, active, start):
            pattern[a:b] = map(or_, pattern[a:b], repeat(1 << p))
    cycle_masks = [0] * u
    for period, pattern in patterns.items():
        cycle_masks = list(map(or_, cycle_masks, pattern * (u // period)))

    def short(mask: int, chi: int) -> InsufficientSpectrumError:
        return InsufficientSpectrumError(
            f"cycle {cycle_masks.index(mask) + 1}: need {chi} data channels, plan has {len(ordered_data)}"
        )

    groups_by_chi: dict[int, list[tuple[LogicalChannel, ...]]] = {}
    component_memo: dict[int, _Component] = {}

    def allocate_component(mask: int, comp: int) -> _Component:
        """The ``_Component`` whose positions are ``comp``, first met in the
        cycles whose active positions are ``mask``."""
        labels = data_labels(rows, comp, graph.vertices)
        chi = max(labels) + 1
        group_size = len(ordered_data) // chi
        if group_size == 0:
            raise short(mask, chi)
        groups = groups_by_chi.get(chi)
        if groups is None:
            groups, _ = partition_channels(ordered_data, chi, group_size)
            groups_by_chi[chi] = groups
        return chi, group_size, [(pan_at[p], groups[label]) for p, label in zip(iter_bits(comp), labels)]

    def allocate_set(mask: int) -> tuple[list[int], list[_Component]]:
        """(singles, multis) of the cycles whose active positions are ``mask``."""
        singles = []
        multis = []
        for comp in component_masks(rows, mask):
            if comp & (comp - 1):
                result = component_memo.get(comp)
                if result is None:
                    result = component_memo[comp] = allocate_component(mask, comp)
                multis.append(result)
            elif ordered_data:
                singles.append(pan_at[comp.bit_length() - 1])
            else:
                raise short(mask, 1)
        return singles, multis

    # Distinct masks in order of first appearance, so the first component
    # short of channels is met in the earliest cycle.
    sets = {mask: allocate_set(mask) for mask in dict.fromkeys(cycle_masks)}
    return runs, cycle_masks, sets


def _pan_texts(configs: Sequence[SuperframeConfig], suffix: str = "") -> tuple[list[str], list[str]]:
    """Per PAN, its CSV fields "i,j,0" (idle) and, in the second list,
    "i,j,1" (active), each followed by ``suffix``."""
    cells = [f"{cfg.pan_cell.i},{cfg.pan_cell.j}," for cfg in configs]
    return [cell + "0" + suffix for cell in cells], [cell + "1" + suffix for cell in cells]


def activity_csv(configs: Sequence[SuperframeConfig], alloc: AllocationMatrix) -> Iterator[str]:
    """Long-form activity table, read off the grant columns of ``alloc``;
    cycles are printed 1-based.  Yields the text in chunks of at most
    ``WRITE_CHUNK`` characters."""
    # A line is two pieces, "cycle," and "i,j,active\r\n"; the header is a
    # line with an empty first piece.  Per cycle, the pieces list gets the
    # cycle field before each PAN's text: all PANs' idle texts are copied
    # in, then the texts of the PANs with a non-empty grant put in place.
    idle, active = _pan_texts(configs, "\r\n")
    n = len(configs)
    pans = range(n)
    header = "cycle,pan_i,pan_j,active\r\n"
    size = chunk_size(2, max(len(header), len(f"{len(alloc.per_cycle_chi)},") + max(map(len, idle))))
    pieces = ["", header]
    for t, column in enumerate(alloc.per_cycle_grants, 1):
        if len(pieces) + 2 * n > size:
            yield from flush_chunks(pieces, size)
        first = len(pieces) + 1
        pieces += repeat(f"{t},", 2 * n)
        pieces[first::2] = idle
        for k in compress(pans, column):
            pieces[first + 2 * k] = active[k]
    yield from flush_chunks(pieces, size)


def _widest_grant(alloc: AllocationMatrix) -> tuple[LogicalChannel, ...]:
    """A grant whose text is at least as long as any grant's in ``alloc``:
    as many channels as the largest grant, each of the widest text (a
    two-digit physical channel; codes have one digit).  The writers size
    their chunks from it without scanning the grants."""
    return (LogicalChannel(15, 8),) * max(alloc.per_cycle_k)


def allocation_csv(configs: Sequence[SuperframeConfig], alloc: AllocationMatrix) -> Iterator[str]:
    """Per-cycle per-PAN grants, read off the grant columns of ``alloc``; ``chi``
    is the cycle's chromatic number.  Yields the text in chunks of at most
    ``WRITE_CHUNK`` characters."""
    # A line is "cycle," + "i,j,active," + "chi," + "k,tokens\r\n", in two
    # pieces: the cycle field and the rest.  An idle line holds the empty
    # grant, so it depends on the PAN and chi alone.  The pieces are laid
    # out as in ``activity_csv``, with the idle texts of the cycle's chi.
    idle, active = _pan_texts(configs, ",")
    n = len(configs)

    def tail(grant: tuple[LogicalChannel, ...]) -> str:
        return f"{len(grant)},{' '.join(ch.token() for ch in grant)}\r\n"

    # Each grant's tail is rendered on first use, keyed by identity: the
    # grants are the few shared channel groups of ``allocate_dynamic``, and
    # ``alloc`` keeps them alive, so the ids stay valid while it does.
    tails: dict[int, str] = {}
    header = "cycle,pan_i,pan_j,active,chi,k,channels\r\n"
    longest = (
        len(f"{len(alloc.per_cycle_chi)},")
        + max(map(len, active))
        + len(f"{max(alloc.per_cycle_chi)},")
        + len(tail(_widest_grant(alloc)))
    )
    size = chunk_size(2, max(len(header), longest))
    idle_by_chi: dict[int, list[str]] = {}
    pans = range(n)
    pieces = ["", header]
    for t, (chi, column) in enumerate(zip(alloc.per_cycle_chi, alloc.per_cycle_grants)):
        chi_part = f"{chi},"
        idle_texts = idle_by_chi.get(chi)
        if idle_texts is None:
            idle_texts = idle_by_chi[chi] = [pan + chi_part + "0,\r\n" for pan in idle]
        if len(pieces) + 2 * n > size:
            yield from flush_chunks(pieces, size)
        first = len(pieces) + 1
        pieces += repeat(f"{t + 1},", 2 * n)
        pieces[first::2] = idle_texts
        for k in compress(pans, column):
            grant = column[k]
            text = tails.get(id(grant))
            if text is None:
                text = tails[id(grant)] = tail(grant)
            pieces[first + 2 * k] = active[k] + chi_part + text
    yield from flush_chunks(pieces, size)


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
    size = chunk_size(1, max(max(map(len, heads)), len(grant_text(_widest_grant(alloc)) + row_end)))
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
