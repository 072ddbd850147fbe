"""Property tests of the dynamic allocation on random duty cycles, phases and
induced cell subsets of small windows.

Every expected value is computed here from lattice metrics alone: the
components of each cycle's active PANs by union of metric-12 pairs, and each
component's chromatic number by brute force (at most 10 PANs) or by an
independent odd-cycle check (1, 2 or 3 colors; metric-12 graphs need at
most 3).
"""

from conftest import graph_from_edges
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_chromatic

from hexchan.dynamic_alloc import SuperframeConfig, allocate_dynamic
from hexchan.lattice import DATA_REUSE_METRIC, build_lattice, lattice_metric
from hexchan.spectrum import DOMAIN_NAMES, channel_plan, default_domain, partition_channels


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
    act = alloc.activity
    for t in range(len(alloc.per_cycle_chi)):
        active = [k for k in range(len(configs)) if act[k][t]]
        # Idle entries get () and active ones a non-empty grant; the report
        # writers render idle entries without reading their grant.
        for k in range(len(configs)):
            assert (alloc.channels[k][t] == ()) == (not act[k][t])
        for x, a in enumerate(active):
            for b in active[x + 1 :]:
                if lattice_metric(configs[a].pan_cell, configs[b].pan_cell) < DATA_REUSE_METRIC:
                    assert not set(alloc.channels[a][t]) & set(alloc.channels[b][t])
        pan_of_cell = {configs[k].pan_cell: k for k in active}
        chis = []
        for component in metric12_components([configs[k].pan_cell for k in active]):
            if len(component) <= 10:
                chi = brute_force_chromatic(graph_from_edges(component, metric12_edges(component)))
            else:
                chi = odd_cycle_chromatic(component)
            chis.append(chi)
            groups, _ = partition_channels(ordered, chi, len(ordered) // chi)
            component_grants = [alloc.channels[pan_of_cell[c]][t] for c in component]
            assert all(grant in groups for grant in component_grants)
            assert len(set(component_grants)) == chi
        assert alloc.per_cycle_chi[t] == max(chis, default=0)
        assert alloc.per_cycle_k[t] == (len(ordered) // min(chis) if chis else 0)
