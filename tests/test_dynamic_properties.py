"""Property tests of the dynamic allocation on random duty cycles, phases and
induced cell subsets of small windows.

``reference_allocation`` is the per-cycle path the index-space allocator
replaced: it rebuilds each cycle's active subgraph and solves every
component with the exact solver.  The allocator must reproduce it exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hexchan.coloring import brute_force_chromatic, chromatic_coloring
from hexchan.dynamic_alloc import SuperframeConfig, activity_matrix, allocate_dynamic, cycle_structure
from hexchan.interference import InterferenceGraph, build_interference_graph, connected_components, subgraph_on
from hexchan.lattice import DATA_REUSE_METRIC, build_lattice, lattice_metric
from hexchan.spectrum import DOMAIN_NAMES, channel_plan, default_domain, partition_channels


def reference_allocation(lattice, configs, plan):
    """(grants, per-cycle chi, per-cycle k), one exact solve per component."""
    cycles = cycle_structure(configs)
    act = activity_matrix(configs, cycles)
    ordered = plan.ordered_data()
    full = build_interference_graph(lattice, [c.pan_cell for c in configs], DATA_REUSE_METRIC)
    pan_of_cell = {cfg.pan_cell: k for k, cfg in enumerate(configs)}
    grants = [[() for _ in range(cycles.u_cycles)] for _ in configs]
    chis, ks = [], []
    for t in range(cycles.u_cycles):
        active = [cfg.pan_cell for k, cfg in enumerate(configs) if act.active[k][t]]
        chi_t = k_t = 0
        if active:
            cycle_graph = subgraph_on(full, active)
            for component in connected_components(cycle_graph):
                coloring = chromatic_coloring(subgraph_on(cycle_graph, component))
                chi = coloring.num_colors
                groups, _ = partition_channels(ordered, chi, len(ordered) // chi)
                for cell in component:
                    grants[pan_of_cell[cell]][t] = groups[coloring.assignment[cell]]
                chi_t = max(chi_t, chi)
                k_t = max(k_t, len(ordered) // chi)
        chis.append(chi_t)
        ks.append(k_t)
    return tuple(tuple(row) for row in grants), tuple(chis), tuple(ks)


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


@settings(max_examples=80, deadline=None)
@given(deployments())
def test_dynamic_allocation_properties(deployment):
    lattice, configs, plan = deployment
    alloc = allocate_dynamic(lattice, configs, plan)
    assert (alloc.channels, alloc.per_cycle_chi, alloc.per_cycle_k) == reference_allocation(lattice, configs, plan)

    ordered = plan.ordered_data()
    act = alloc.activity.active
    for t in range(len(alloc.per_cycle_chi)):
        active = [k for k in range(len(configs)) if act[k][t]]
        for x, a in enumerate(active):
            for b in active[x + 1 :]:
                if lattice_metric(configs[a].pan_cell, configs[b].pan_cell) < DATA_REUSE_METRIC:
                    assert not set(alloc.channels[a][t]) & set(alloc.channels[b][t])
        pan_of_cell = {configs[k].pan_cell: k for k in active}
        for component in metric12_components([configs[k].pan_cell for k in active]):
            if len(component) > 10:
                continue
            edges = [
                (a, b)
                for x, a in enumerate(component)
                for b in component[x + 1 :]
                if lattice_metric(a, b) < DATA_REUSE_METRIC
            ]
            chi = brute_force_chromatic(InterferenceGraph(component, edges))
            component_grants = {alloc.channels[pan_of_cell[c]][t] for c in component}
            assert len(component_grants) == chi
            assert {len(g) for g in component_grants} == {len(ordered) // chi}
