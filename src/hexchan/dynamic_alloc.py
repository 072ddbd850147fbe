"""Duty-cycle-aware dynamic data-channel allocation.

Every PAN runs a beacon-mode superframe with active period SD = 2^SO inside
a beacon interval BI = 2^BO (both counted in base superframe units, SO <=
BO).  The network-wide schedule repeats with the major cycle, the largest
BI; time is sliced into elementary cycles of the smallest SD.  Per
elementary cycle, the PANs active in it induce a metric-12 interference
graph; each connected component is colored with the fewest colors and
every PAN in a component with chi colors receives a disjoint group of
|data channels| // chi channels for that cycle, so isolated PANs get the
whole data set while busy cycles fall back to the static share.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, repeat
from typing import Iterator, Sequence

from .coloring import data_labels
from .errors import InsufficientSpectrumError, InvalidSuperframeError
from .interference import build_interference_graph, component_masks, iter_bits
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


class AllocationMatrix(namedtuple("AllocationMatrix", "channels per_cycle_chi per_cycle_k activity")):
    """The dynamic allocation of one run: activity and grants per PAN and cycle.

    ``activity[pan][cycle]`` is whether the PAN is active in the elementary
    cycle (the rows of ``activity_matrix``) and ``channels[pan][cycle]`` the
    data channels granted to it there.  ``per_cycle_chi`` is the chromatic
    number of the cycle's active interference graph (max over its
    components; 0 when idle) and ``per_cycle_k`` the largest channel grant
    in the cycle.  With the PANs' configs, this record is the whole input of
    the dynamic report writers.

    A grant is ``()`` exactly when the PAN is idle in that cycle: an active
    PAN always gets a non-empty group.  The report writers rely on this and
    render idle entries from the activity alone.
    """

    __slots__ = ()


# (chi, k, [(PAN index, grant)]) of one elementary cycle or one component.
_CycleResult = tuple[int, int, list[tuple[int, tuple[LogicalChannel, ...]]]]


def cycle_structure(configs: Sequence[SuperframeConfig]) -> CycleStructure:
    """BI_maj = max beacon interval, SD_min = min active period, U = ratio.

    All durations are powers of two, so the least common multiple of the
    intervals is the maximum and the greatest common divisor of the active
    periods is the minimum.
    """
    if not configs:
        raise ValueError("need at least one superframe config")
    _, so_values, bo_values, _ = zip(*configs)
    so_min, bo_max = min(so_values), max(bo_values)
    return CycleStructure(bi_maj=1 << bo_max, sd_min=1 << so_min, u_cycles=1 << (bo_max - so_min))


def activity_matrix(configs: Sequence[SuperframeConfig]) -> tuple[tuple[bool, ...], ...]:
    """Activity of every PAN over one major cycle of ``cycle_structure(configs)``.

    Returns one row per PAN, indexed ``[pan][cycle]``; ``allocate_dynamic``
    keeps them as ``AllocationMatrix.activity``.  Entry t of a row is True
    when the PAN's active period covers elementary cycle t, that is when the
    cycle's start t * SD_min falls in [phase, phase + SD) modulo BI:
    (t * SD_min - phase) mod BI < SD.  The rows are built in closed form.
    All durations are powers of two, so SD_min divides SD, SD divides BI
    and BI divides BI_maj: a row repeats every P = BI / SD_min cycles, and
    U is a multiple of P.  In one period the active cycles are the m = SD /
    SD_min cycles from t0 = ceil((phase mod BI) / SD_min) on, modulo P.  So
    each period is m True then P - m False, rotated right by t0, and the
    row is U / P periods.
    """
    cycles = cycle_structure(configs)
    sd_min = cycles.sd_min
    rows = []
    for cfg in configs:
        period = cfg.bi // sd_min
        active = cfg.sd // sd_min
        start = -(-(cfg.phase % cfg.bi) // sd_min) % period
        run = [True] * active + [False] * (period - active)
        run = run[period - start :] + run[: period - start]
        rows.append(tuple(run * (cycles.u_cycles // period)))
    return tuple(rows)


def allocate_dynamic(lattice: Lattice, configs: Sequence[SuperframeConfig], plan: ChannelPlan) -> AllocationMatrix:
    """Per-PAN per-cycle channel groups over one major cycle.

    Within a cycle, each connected component of the active PANs' metric-12
    graph is colored with the fewest colors by ``data_labels``: its BFS
    2-coloring when bipartite, else the data pattern, so chi <= 3 and no
    search runs.  A PAN in a component needing chi colors gets the group of
    |data| // chi channels matching its color.  PANs in different
    components may share channels, they are out of range of each other.

    The work runs in index space: one adjacency bitmask row per PAN
    position, one bitmask of active positions per cycle.  Two memos live
    for the call.  A cycle whose active mask occurred before reuses that
    cycle's result.  A component whose position mask occurred before, in
    any cycle, reuses its (chi, group size, [(PAN, grant)]).  A component
    with more colors than data channels raises ``InsufficientSpectrumError``
    naming the first cycle it is active in.
    """
    cells = [c.pan_cell for c in configs]
    for cell in cells:
        lattice.require(cell)
    if len(set(cells)) != len(cells):
        raise ValueError("duplicate PAN cells in superframe configs")
    activity = activity_matrix(configs)
    u = len(activity[0])
    ordered_data = plan.ordered_data()
    graph = build_interference_graph(lattice, cells, DATA_REUSE_METRIC)
    rows = graph.rows
    position = {cell: p for p, cell in enumerate(graph.vertices)}

    pan_at = [0] * len(cells)  # graph position -> PAN index
    cycle_masks = [0] * u
    for k, (cell, active) in enumerate(zip(cells, activity)):
        p = position[cell]
        pan_at[p] = k
        for t in compress(range(u), active):
            cycle_masks[t] |= 1 << p

    groups_by_chi: dict[int, list[tuple[LogicalChannel, ...]]] = {}
    component_memo: dict[int, _CycleResult] = {}
    cycle_memo: dict[int, _CycleResult] = {}

    def allocate_component(t: int, comp: int) -> _CycleResult:
        """(chi, group size, [(PAN, grant)]) of the component whose positions are ``comp``."""
        labels = data_labels(rows, comp, graph.vertices)
        chi = max(labels) + 1
        group_size = len(ordered_data) // chi
        if group_size == 0:
            raise InsufficientSpectrumError(
                f"cycle {t + 1}: need {chi} data channels, plan has {len(ordered_data)}"
            )
        groups = groups_by_chi.get(chi)
        if groups is None:
            groups, _ = partition_channels(ordered_data, chi, group_size)
            groups_by_chi[chi] = groups
        return chi, group_size, [(pan_at[p], groups[label]) for p, label in zip(iter_bits(comp), labels)]

    def allocate_cycle(t: int, mask: int) -> _CycleResult:
        """(chi, k, [(PAN, grant)]) of the cycle whose active positions are ``mask``."""
        chi_t = 0
        k_t = 0
        cycle_grants = []
        for comp in component_masks(rows, mask):
            result = component_memo.get(comp)
            if result is None:
                result = component_memo[comp] = allocate_component(t, comp)
            chi, group_size, comp_grants = result
            cycle_grants.extend(comp_grants)
            chi_t = max(chi_t, chi)
            k_t = max(k_t, group_size)
        return chi_t, k_t, cycle_grants

    grants: list[list[tuple[LogicalChannel, ...]]] = [[()] * u for _ in configs]
    per_cycle_chi = []
    per_cycle_k = []
    for t, mask in enumerate(cycle_masks):
        result = cycle_memo.get(mask)
        if result is None:
            result = cycle_memo[mask] = allocate_cycle(t, mask)
        chi_t, k_t, cycle_grants = result
        for k, grant in cycle_grants:
            grants[k][t] = grant
        per_cycle_chi.append(chi_t)
        per_cycle_k.append(k_t)

    return AllocationMatrix(
        channels=tuple(tuple(row) for row in grants),
        per_cycle_chi=tuple(per_cycle_chi),
        per_cycle_k=tuple(per_cycle_k),
        activity=activity,
    )


def _pan_texts(configs: Sequence[SuperframeConfig], suffix: str = "") -> tuple[list[str], list[str]]:
    """Per PAN, its CSV fields "i,j,0" (idle) and, in the second list,
    "i,j,1" (active), each followed by ``suffix``."""
    cells = [f"{cfg.pan_cell.i},{cfg.pan_cell.j}," for cfg in configs]
    return [cell + "0" + suffix for cell in cells], [cell + "1" + suffix for cell in cells]


def activity_csv(configs: Sequence[SuperframeConfig], activity: Sequence[Sequence[bool]]) -> Iterator[str]:
    """Long-form activity table; cycles are printed 1-based.  Yields the
    text in chunks of at most ``WRITE_CHUNK`` characters."""
    # A line is two pieces, "cycle," and "i,j,active\r\n"; the header is a
    # line with an empty first piece.  Per cycle, the pieces list gets the
    # cycle field before each PAN's text: all PANs' idle texts are copied
    # in, then the active PANs' texts put in place.
    idle, active = _pan_texts(configs, "\r\n")
    n = len(configs)
    pans = range(n)
    header = "cycle,pan_i,pan_j,active\r\n"
    size = chunk_size(2, max(len(header), len(f"{len(activity[0])},") + max(map(len, idle))))
    pieces = ["", header]
    for t, column in enumerate(zip(*activity), 1):
        if len(pieces) + 2 * n > size:
            yield from flush_chunks(pieces, size)
        first = len(pieces) + 1
        pieces += repeat(f"{t},", 2 * n)
        pieces[first::2] = idle
        for k in compress(pans, column):
            pieces[first + 2 * k] = active[k]
    yield from flush_chunks(pieces, size)


def _distinct_grants(alloc: AllocationMatrix) -> dict[int, tuple[LogicalChannel, ...]]:
    """The empty grant and every distinct grant of an active entry, keyed by ``id``.

    The grants are the shared channel groups of ``allocate_dynamic``, so
    there are few of them, and every idle entry holds ``()``.  Keying by
    identity avoids hashing tuples of channels; ``alloc`` keeps the objects
    alive, so the ids stay valid while it does.
    """
    rows = zip(alloc.channels, alloc.activity)
    grants = {id(grant): grant for row, flags in rows for grant in compress(row, flags)}
    grants[id(())] = ()
    return grants


def allocation_csv(configs: Sequence[SuperframeConfig], alloc: AllocationMatrix) -> Iterator[str]:
    """Per-cycle per-PAN grants; ``chi`` is the cycle's chromatic number.
    Yields the text in chunks of at most ``WRITE_CHUNK`` characters."""
    # A line is "cycle," + "i,j,active," + "chi," + "k,tokens\r\n", in two
    # pieces: the cycle field and the rest.  An idle line holds the empty
    # grant, so it depends on the PAN and chi alone.  The pieces are laid
    # out as in ``activity_csv``, with the idle texts of the cycle's chi.
    idle, active = _pan_texts(configs, ",")
    n = len(configs)
    tails = {
        key: f"{len(grant)},{' '.join(ch.token() for ch in grant)}\r\n"
        for key, grant in _distinct_grants(alloc).items()
    }
    header = "cycle,pan_i,pan_j,active,chi,k,channels\r\n"
    longest = (
        len(f"{len(alloc.per_cycle_chi)},")
        + max(map(len, active))
        + len(f"{max(alloc.per_cycle_chi)},")
        + max(map(len, tails.values()))
    )
    size = chunk_size(2, max(len(header), longest))
    idle_by_chi: dict[int, list[str]] = {}
    pans = range(n)
    channels = alloc.channels
    pieces = ["", header]
    for t, (chi, column) in enumerate(zip(alloc.per_cycle_chi, zip(*alloc.activity))):
        chi_part = f"{chi},"
        idle_texts = idle_by_chi.get(chi)
        if idle_texts is None:
            idle_texts = idle_by_chi[chi] = [pan + chi_part + tails[id(())] for pan in idle]
        if len(pieces) + 2 * n > size:
            yield from flush_chunks(pieces, size)
        first = len(pieces) + 1
        pieces += repeat(f"{t + 1},", 2 * n)
        pieces[first::2] = idle_texts
        for k in compress(pans, column):
            pieces[first + 2 * k] = active[k] + chi_part + tails[id(channels[k][t])]
    yield from flush_chunks(pieces, size)


def allocation_json_doc(configs: Sequence[SuperframeConfig], alloc: AllocationMatrix) -> Iterator[str]:
    """JSON mirror of the per-PAN per-cycle channel matrix.

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

    # A grant sits at depth 4 of channels_per_cycle; every grant but a row's
    # last carries the separator to the next one, and the last closes the row.
    grants = {
        key: json_array([ints(ch, 5) for ch in grant], 4)
        for key, grant in _distinct_grants(alloc).items()
    }
    inner = {key: text + ",\n        " for key, text in grants.items()}
    last = {key: text + "\n      ]\n    }" for key, text in grants.items()}
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
    size = chunk_size(1, max(max(map(len, heads)), max(map(len, last.values()))))
    u = len(alloc.per_cycle_chi)
    cycle_range = range(u)
    idle_piece = inner[id(())]
    pieces: list[str] = []
    for head, row, active in zip(heads, alloc.channels, alloc.activity):
        if len(pieces) + 1 + u > size:
            yield from flush_chunks(pieces, size)
        pieces.append(head)
        first = len(pieces)
        pieces += repeat(idle_piece, u)
        for t in compress(cycle_range, active):
            pieces[first + t] = inner[id(row[t])]
        pieces[-1] = last[id(row[-1])]
    pieces.append("\n  ]\n}\n")
    yield from flush_chunks(pieces, size)


def dynamic_summary_json(configs: Sequence[SuperframeConfig], alloc: AllocationMatrix) -> str:
    """The cycle structure of ``configs`` plus per-cycle active PAN count, chi and k.

    The text is ``json.dumps(doc, indent=2) + "\n"`` of {bi_maj, sd_min,
    u_cycles, per_cycle: [{cycle, active_pans, chi, k}]} with cycles
    numbered from 1, written directly: one template is filled per cycle.
    """
    cycles = cycle_structure(configs)
    entry = json_object([(key, "%d") for key in ("cycle", "active_pans", "chi", "k")], 2)
    per_cycle = zip(
        range(1, len(alloc.per_cycle_chi) + 1),
        map(sum, zip(*alloc.activity)),
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
