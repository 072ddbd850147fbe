"""Property tests of the dynamic allocation on random duty cycles, phases and
induced cell subsets of small windows.

Every expected value is computed here from lattice metrics alone: the
components of each cycle's active PANs by union of metric-12 pairs, and each
component's chromatic number by brute force (at most 10 PANs) or by an
independent odd-cycle check (1, 2 or 3 colors; metric-12 graphs need at
most 3).  The exact grants are recomputed from the activity formula, the
lattice order and the data pattern.
"""

from conftest import graph_from_edges
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_chromatic, is_active

from hexchan.dynamic_alloc import SuperframeConfig, allocate_dynamic, cycle_structure
from hexchan.errors import InsufficientSpectrumError
from hexchan.evaluate import DYNAMIC, STATIC, RequestScenario, compare_schemes
from hexchan.lattice import DATA_REUSE_METRIC, build_lattice, lattice_from_cells, lattice_metric
from hexchan.spectrum import (
    DOMAIN_NAMES,
    ChannelPlan,
    LogicalChannel,
    channel_plan,
    default_domain,
    partition_channels,
)
from hexchan.static_alloc import allocate_static


@st.composite
def deployments(draw):
    lattice = build_lattice(draw(st.integers(0, 3)), 1.0)
    if draw(st.booleans()):
        cells = list(lattice.cells)
    else:
        cells = draw(st.lists(st.sampled_from(lattice.cells), min_size=1, unique=True))
    configs = []
    for cell in cells:
        bo = draw(st.integers(0, 5))
        configs.append(
            SuperframeConfig(pan_cell=cell, so=draw(st.integers(0, bo)), bo=bo, phase=draw(st.integers(0, 7)))
        )
    plan = channel_plan(default_domain(draw(st.sampled_from(DOMAIN_NAMES))))
    return lattice, configs, plan


def metric12_components(cells):
    """Connected components under metric < 12, by union of pairs (no graph code)."""
    parent = {c: c for c in cells}

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for k, a in enumerate(cells):
        for b in cells[k + 1 :]:
            if lattice_metric(a, b) < DATA_REUSE_METRIC:
                parent[root(a)] = root(b)
    groups = {}
    for c in cells:
        groups.setdefault(root(c), []).append(c)
    return list(groups.values())


def metric12_edges(cells):
    return [
        (a, b) for x, a in enumerate(cells) for b in cells[x + 1 :] if lattice_metric(a, b) < DATA_REUSE_METRIC
    ]


def odd_cycle_chromatic(cells):
    """1, 2 or 3 for a connected metric-12 component: one cell, bipartite
    (side by parity of BFS depth), or an odd cycle."""
    if len(cells) == 1:
        return 1
    depth = {cells[0]: 0}
    queue = [cells[0]]
    for a in queue:
        for b in cells:
            if lattice_metric(a, b) < DATA_REUSE_METRIC and a != b:
                if b not in depth:
                    depth[b] = depth[a] + 1
                    queue.append(b)
                elif depth[b] % 2 == depth[a] % 2:
                    return 3
    return 2


@settings(max_examples=80, deadline=None)
@given(deployments())
def test_dynamic_allocation_properties(deployment):
    lattice, configs, plan = deployment
    alloc = allocate_dynamic(lattice, configs, plan)

    ordered = plan.ordered_data()
    cs = cycle_structure(configs)
    act = [[is_active(cfg, t, cs.sd_min) for t in range(cs.u_cycles)] for cfg in configs]
    assert len(alloc.per_cycle_chi) == cs.u_cycles
    for t in range(cs.u_cycles):
        active = [k for k in range(len(configs)) if act[k][t]]
        # Idle entries get () and active ones a non-empty grant; the report
        # writers render idle entries without reading their grant.
        for k in range(len(configs)):
            assert (alloc.per_cycle_grants[t][k] == ()) == (not act[k][t])
        for x, a in enumerate(active):
            for b in active[x + 1 :]:
                if lattice_metric(configs[a].pan_cell, configs[b].pan_cell) < DATA_REUSE_METRIC:
                    assert not set(alloc.per_cycle_grants[t][a]) & set(alloc.per_cycle_grants[t][b])
        pan_of_cell = {configs[k].pan_cell: k for k in active}
        chis = []
        for component in metric12_components([configs[k].pan_cell for k in active]):
            if len(component) <= 10:
                chi = brute_force_chromatic(graph_from_edges(component, metric12_edges(component)))
            else:
                chi = odd_cycle_chromatic(component)
            chis.append(chi)
            groups, _ = partition_channels(ordered, chi, len(ordered) // chi)
            component_grants = [alloc.per_cycle_grants[t][pan_of_cell[c]] for c in component]
            assert all(grant in groups for grant in component_grants)
            assert len(set(component_grants)) == chi
        assert alloc.per_cycle_chi[t] == max(chis, default=0)
        assert alloc.per_cycle_k[t] == (len(ordered) // min(chis) if chis else 0)


@st.composite
def mixed_period_deployments(draw):
    """PANs on a window or on a ``lattice_from_cells`` subset of one, with
    BO drawn per PAN, so the activity rows have several distinct periods."""
    window = build_lattice(draw(st.integers(1, 4)), 1.0)
    if draw(st.booleans()):
        lattice = window
    else:
        lattice = lattice_from_cells(draw(st.lists(st.sampled_from(window.cells), min_size=1, unique=True)), 1.0)
    cells = draw(st.lists(st.sampled_from(lattice.cells), min_size=1, unique=True))
    configs = []
    for cell in cells:
        bo = draw(st.integers(0, 6))
        so = draw(st.integers(0, min(bo, 2)))
        configs.append(SuperframeConfig(pan_cell=cell, so=so, bo=bo, phase=draw(st.integers(0, 80))))
    plan = channel_plan(default_domain(draw(st.sampled_from(DOMAIN_NAMES))))
    return lattice, configs, plan


def expected_grants(lattice, configs, plan):
    """``alloc.per_cycle_grants`` recomputed per cycle from lattice metrics
    alone.

    A PAN is active in cycle t when (t * SD_min - phase) mod BI < SD.  A
    component of the active PANs (under metric < 12) with one PAN takes
    color 0 of 1; a bipartite one its 2-coloring with its first PAN in
    lattice order at 0; any other the data pattern (a - b) mod 3, a = i,
    b = (j - i) / 2, renumbered by first appearance in lattice order.  A
    PAN's grant is its color's group of the partition into chi groups of
    |data| // chi channels.
    """
    so_min = min(cfg.so for cfg in configs)
    bo_max = max(cfg.bo for cfg in configs)
    sd_min = 1 << so_min
    order = {cell: x for x, cell in enumerate(lattice.cells)}
    ordered = plan.ordered_data()
    columns = []
    for t in range(1 << (bo_max - so_min)):
        active = [cfg.pan_cell for cfg in configs if (t * sd_min - cfg.phase) % cfg.bi < cfg.sd]
        grant = {}
        for component in metric12_components(active):
            component.sort(key=order.__getitem__)
            chi = odd_cycle_chromatic(component)
            if chi == 1:
                labels = [0]
            elif chi == 2:
                side = {component[0]: 0}
                queue = [component[0]]
                for a in queue:
                    for b in component:
                        if b not in side and lattice_metric(a, b) < DATA_REUSE_METRIC:
                            side[b] = 1 - side[a]
                            queue.append(b)
                labels = [side[c] for c in component]
            else:
                first = {}
                labels = [first.setdefault((i - (j - i) // 2) % 3, len(first)) for i, j in component]
            groups, _ = partition_channels(ordered, chi, len(ordered) // chi)
            grant.update((c, groups[label]) for c, label in zip(component, labels))
        columns.append(tuple(grant.get(cfg.pan_cell, ()) for cfg in configs))
    return tuple(columns)


@settings(max_examples=120, deadline=None)
@given(st.one_of(deployments(), mixed_period_deployments()))
def test_dynamic_grants_match_the_lattice_oracle(deployment):
    lattice, configs, plan = deployment
    assert allocate_dynamic(lattice, configs, plan).per_cycle_grants == expected_grants(lattice, configs, plan)


DATA_CAPABLE = [LogicalChannel(phy, code) for phy in (1, 2, 3) for code in (1, 2)]


@st.composite
def any_plans(draw):
    """A built-in domain's plan, or a custom one with 0, 1 or 2 data channels."""
    if draw(st.booleans()):
        return channel_plan(default_domain(draw(st.sampled_from(DOMAIN_NAMES))))
    data = draw(st.lists(st.sampled_from(DATA_CAPABLE), max_size=2, unique=True))
    return ChannelPlan(control_set=frozenset({LogicalChannel(4, 7)}), data_set=frozenset(data))


def insufficient(call):
    """``(call(), None)``, or ``(None, message)`` if it raises
    ``InsufficientSpectrumError``."""
    try:
        return call(), None
    except InsufficientSpectrumError as exc:
        return None, str(exc)


@settings(max_examples=120, deadline=None)
@given(st.one_of(deployments(), mixed_period_deployments()), any_plans())
def test_compare_schemes_reads_the_counts_of_allocate_dynamic(deployment, plan):
    # The two readers of one dynamic pass: evaluate's dynamic counts are the
    # sizes of allocate_dynamic's grants, cycle by cycle, and its static
    # count is allocate_static's k_static.  Both fail alike: the static
    # share is checked first, then the first cycle short of channels.
    lattice, configs, _ = deployment
    scenario = RequestScenario.uniform(cfg.pan_cell for cfg in configs)
    static, static_error = insufficient(lambda: allocate_static(lattice, plan))
    alloc, dynamic_error = insufficient(lambda: allocate_dynamic(lattice, configs, plan))
    reports, error = insufficient(lambda: compare_schemes(lattice, configs, plan, scenario))
    assert error == (static_error or dynamic_error)
    if error is not None:
        return
    by_scheme = {report.scheme: report for report in reports}
    dynamic = by_scheme[DYNAMIC]
    sd_min = cycle_structure(configs).sd_min
    columns = alloc.per_cycle_grants
    for k, cfg in enumerate(configs):
        cycles = tuple(t for t in range(len(columns)) if is_active(cfg, t, sd_min))
        assert dynamic.active_cycles[k] == cycles
        assert dynamic.channel_counts[k] == tuple(len(columns[t][k]) for t in cycles)
        assert by_scheme[STATIC].channel_counts[k] == (static.k_static,) * len(cycles)
