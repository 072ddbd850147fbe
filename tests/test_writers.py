"""The per-(PAN, cycle) report writers against the loops they replaced.

``allocation_json_doc``, ``allocation_csv``, ``activity_csv`` and
``scheme_report_csv`` build their text directly, rendering each distinct
grant, PAN field and outcome once.  The ``reference_*`` functions below are
the plain per-entry loops (and ``json.dumps``) they replaced; the writers must
produce the same text on every drawn deployment.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexchan.dynamic_alloc import (
    AllocationMatrix,
    SuperframeConfig,
    activity_csv,
    allocate_dynamic,
    allocation_csv,
    allocation_json_doc,
    cycle_structure,
)
from hexchan.evaluate import RequestScenario, compare_schemes, scheme_report_csv
from hexchan.lattice import CellIndex, build_lattice
from hexchan.spectrum import DOMAIN_NAMES, channel_plan, default_domain


def reference_activity_csv(configs, act):
    lines = ["cycle,pan_i,pan_j,active"]
    u = len(act.active[0]) if act.active else 0
    for t in range(u):
        for k, cfg in enumerate(configs):
            cell = cfg.pan_cell
            lines.append(f"{t + 1},{cell.i},{cell.j},{int(act.active[k][t])}")
    return "\r\n".join(lines) + "\r\n"


def reference_allocation_csv(configs, act, alloc):
    lines = ["cycle,pan_i,pan_j,active,chi,k,channels"]
    for t in range(len(alloc.per_cycle_chi)):
        for k, cfg in enumerate(configs):
            cell = cfg.pan_cell
            channels = alloc.channels[k][t]
            tokens = " ".join(ch.token() for ch in channels)
            lines.append(
                f"{t + 1},{cell.i},{cell.j},{int(act.active[k][t])},"
                f"{alloc.per_cycle_chi[t]},{len(channels)},{tokens}"
            )
    return "\r\n".join(lines) + "\r\n"


def reference_allocation_json(configs, cycles, alloc):
    doc = {
        "bi_maj": cycles.bi_maj,
        "sd_min": cycles.sd_min,
        "u_cycles": cycles.u_cycles,
        "per_cycle_chi": list(alloc.per_cycle_chi),
        "per_cycle_k": list(alloc.per_cycle_k),
        "pans": [
            {
                "pan": k + 1,
                "cell": [cfg.pan_cell.i, cfg.pan_cell.j],
                "SO": cfg.so,
                "BO": cfg.bo,
                "phase": cfg.phase,
                "channels_per_cycle": [
                    [[ch.phy_channel, ch.code] for ch in alloc.channels[k][t]]
                    for t in range(len(alloc.per_cycle_chi))
                ],
            }
            for k, cfg in enumerate(configs)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_scheme_report_csv(configs, reports):
    lines = ["scheme,pan,pan_i,pan_j,cycle,channels,makespan_slots,delay_decrease_percent"]
    for report in reports:
        for (pan, t) in sorted(report.makespans):
            cell = configs[pan].pan_cell
            lines.append(
                f"{report.scheme},{pan + 1},{cell.i},{cell.j},{t + 1},"
                f"{report.channel_counts[(pan, t)]},{report.makespans[(pan, t)]},"
                f"{report.delay_decrease[(pan, t)]:.4f}"
            )
    return "\r\n".join(lines) + "\r\n"


@st.composite
def deployments(draw):
    """(lattice, configs, plan, per-PAN requests) on a window N <= 3."""
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
    requests = st.lists(st.integers(1, 9), min_size=1, max_size=5).map(tuple)
    scenario = RequestScenario(per_pan={cell: draw(requests) for cell in cells})
    return lattice, configs, plan, scenario


def deployment(n, domain, duties):
    """A fixed deployment: ``duties`` lists (i, j, SO, BO, phase) per PAN."""
    configs = [SuperframeConfig(CellIndex(i, j), so, bo, phase) for i, j, so, bo, phase in duties]
    scenario = RequestScenario(per_pan={cfg.pan_cell: (k + 1, 3, 2) for k, cfg in enumerate(configs)})
    return build_lattice(n, 1.0), configs, channel_plan(default_domain(domain)), scenario


# One PAN at a negative cell with U = 1.
SINGLE = deployment(1, "Japan", [(-1, -1, 0, 0, 0)])
# Two neighbors active in different cycles of four: cycles 2 and 4 are idle (chi = 0).
IDLE = deployment(1, "Europe", [(-1, 1, 0, 2, 0), (0, 0, 0, 2, 2)])
# Cycle 1 activates a triangle (chi = 3), cycle 2 a path of three PANs (chi = 2).
TRIANGLE = deployment(1, "US", [(0, 0, 1, 1, 0), (1, 1, 1, 1, 0), (1, -1, 0, 1, 0), (-1, -1, 1, 1, 0)])
EXAMPLES = (SINGLE, IDLE, TRIANGLE)


def check_writers(lattice, configs, plan, scenario):
    cycles = cycle_structure(configs)
    alloc = allocate_dynamic(lattice, configs, plan)
    act = alloc.activity
    assert activity_csv(configs, act) == reference_activity_csv(configs, act)
    assert allocation_csv(configs, act, alloc) == reference_allocation_csv(configs, act, alloc)
    assert allocation_json_doc(configs, cycles, alloc) == reference_allocation_json(configs, cycles, alloc)

    # The writers key grants by identity; a matrix whose grants share no
    # objects must give the same text.
    unshared = AllocationMatrix(
        channels=tuple(tuple(tuple(list(grant)) for grant in row) for row in alloc.channels),
        per_cycle_chi=alloc.per_cycle_chi,
        per_cycle_k=alloc.per_cycle_k,
        activity=act,
    )
    assert allocation_csv(configs, act, unshared) == reference_allocation_csv(configs, act, alloc)
    assert allocation_json_doc(configs, cycles, unshared) == reference_allocation_json(configs, cycles, alloc)

    reports = compare_schemes(lattice, configs, plan, scenario)
    assert scheme_report_csv(configs, reports) == reference_scheme_report_csv(configs, reports)


@settings(max_examples=60, deadline=None)
@given(deployments())
@example(SINGLE)
@example(IDLE)
@example(TRIANGLE)
def test_writers_match_reference_loops(drawn):
    check_writers(*drawn)


def test_examples_cover_edge_cases():
    pans, cycle_counts, chis, idle, negative = set(), set(), set(), False, False
    for lattice, configs, plan, _ in EXAMPLES:
        alloc = allocate_dynamic(lattice, configs, plan)
        pans.add(len(configs))
        cycle_counts.add(len(alloc.per_cycle_chi))
        chis.update(alloc.per_cycle_chi)
        idle |= any(grant == () for row in alloc.channels for grant in row)
        negative |= any(cfg.pan_cell.i < 0 or cfg.pan_cell.j < 0 for cfg in configs)
    assert 1 in pans and 1 in cycle_counts
    assert chis == {0, 1, 2, 3}
    assert idle and negative
