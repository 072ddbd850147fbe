"""The per-(PAN, cycle) report writers against the loops they replaced.

``allocation_json_doc``, ``allocation_csv``, ``activity_csv`` and
``scheme_report_csv`` build their text directly, rendering each distinct
grant, PAN field and outcome once; the first three copy whole runs of idle
entries.  They yield the text in chunks of at most ``WRITE_CHUNK``
characters, which ``joined`` checks and joins.  ``dynamic_summary_json`` and
``evaluation_summary_json`` fill one template per cycle or PAN.  The ``reference_*`` functions below are the plain
per-entry loops (and ``json.dumps``) they replaced; the writers must produce
the same text on every drawn deployment.  ``reference_schemes`` is
the per-(PAN, cycle) loop that ``compare_schemes`` replaced by per-PAN
columns; the columns must hold the same entries.  ``compare_schemes`` shares
outcome tables between PANs and the evaluate writers key them by identity;
equal unshared copies must give the same text.
"""

import hashlib
import json
from itertools import chain

from conftest import scheme_entries
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexchan.config import load_config
from hexchan.dynamic_alloc import (
    AllocationMatrix,
    SuperframeConfig,
    activity_csv,
    allocate_dynamic,
    allocation_csv,
    allocation_json_doc,
    cycle_structure,
    dynamic_summary_json,
)
from hexchan.evaluate import (
    RequestScenario,
    compare_schemes,
    delay_decrease_percent,
    evaluation_summary_json,
    makespan,
    scheme_report_csv,
)
from hexchan import jsontext
from hexchan.jsontext import WRITE_CHUNK
from hexchan.lattice import CellIndex, build_lattice
from hexchan.spectrum import DOMAIN_NAMES, channel_plan, default_domain
from hexchan.static_alloc import allocate_static


def checked(chunks, lengths):
    """The chunks of a streamed writer, each checked to be a non-empty
    string of at most ``WRITE_CHUNK`` characters; their lengths are
    appended to ``lengths``."""
    for chunk in chunks:
        assert type(chunk) is str and 0 < len(chunk) <= WRITE_CHUNK
        lengths.append(len(chunk))
        yield chunk


def joined(chunks):
    """The text of a streamed writer, its chunks checked."""
    return "".join(checked(chunks, []))


def reference_activity_csv(configs, activity):
    lines = ["cycle,pan_i,pan_j,active"]
    u = len(activity[0]) if activity else 0
    for t in range(u):
        for k, cfg in enumerate(configs):
            cell = cfg.pan_cell
            lines.append(f"{t + 1},{cell.i},{cell.j},{int(activity[k][t])}")
    return "\r\n".join(lines) + "\r\n"


def reference_allocation_csv(configs, alloc):
    lines = ["cycle,pan_i,pan_j,active,chi,k,channels"]
    for t in range(len(alloc.per_cycle_chi)):
        for k, cfg in enumerate(configs):
            cell = cfg.pan_cell
            channels = alloc.channels[k][t]
            tokens = " ".join(ch.token() for ch in channels)
            lines.append(
                f"{t + 1},{cell.i},{cell.j},{int(alloc.activity[k][t])},"
                f"{alloc.per_cycle_chi[t]},{len(channels)},{tokens}"
            )
    return "\r\n".join(lines) + "\r\n"


def reference_allocation_json(configs, cycles, alloc):
    return json.dumps(reference_allocation_doc(configs, cycles, alloc), indent=2) + "\n"


def reference_allocation_doc(configs, cycles, alloc):
    return {
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


def reference_dynamic_summary(cycles, alloc):
    active_pans = [sum(column) for column in zip(*alloc.activity)]
    summary = {
        "bi_maj": cycles.bi_maj,
        "sd_min": cycles.sd_min,
        "u_cycles": cycles.u_cycles,
        "per_cycle": [
            {
                "cycle": t + 1,
                "active_pans": active_pans[t],
                "chi": alloc.per_cycle_chi[t],
                "k": alloc.per_cycle_k[t],
            }
            for t in range(cycles.u_cycles)
        ],
    }
    return json.dumps(summary, indent=2) + "\n"


def reference_schemes(lattice, configs, plan, scenario):
    """Per scheme, ({(pan, t): (channels, makespan, delay decrease)},
    max_channels): the per-(PAN, cycle) loop the per-PAN columns replaced."""
    k_static = allocate_static(lattice, plan).k_static
    dynamic = allocate_dynamic(lattice, configs, plan)
    channels_of = {
        "single": lambda pan, t: 1,
        "static": lambda pan, t: k_static,
        "dynamic": lambda pan, t: len(dynamic.channels[pan][t]),
    }
    schemes = {}
    for scheme, channels in channels_of.items():
        entries, max_channels = {}, {}
        for pan, cfg in enumerate(configs):
            requests = scenario.per_pan[cfg.pan_cell]
            baseline = makespan(requests, 1)
            max_channels[pan] = 0
            for t in range(len(dynamic.per_cycle_chi)):
                if not dynamic.activity[pan][t]:
                    continue
                count = channels(pan, t)
                slots = makespan(requests, count)
                entries[(pan, t)] = (count, slots, delay_decrease_percent(baseline, slots))
                max_channels[pan] = max(max_channels[pan], count)
        schemes[scheme] = (entries, max_channels)
    return schemes


def reference_scheme_report_csv(configs, schemes):
    lines = ["scheme,pan,pan_i,pan_j,cycle,channels,makespan_slots,delay_decrease_percent"]
    for scheme, (entries, _) in schemes.items():
        for (pan, t), (count, slots, delay) in sorted(entries.items()):
            cell = configs[pan].pan_cell
            lines.append(f"{scheme},{pan + 1},{cell.i},{cell.j},{t + 1},{count},{slots},{delay:.4f}")
    return "\r\n".join(lines) + "\r\n"


def reference_evaluation_summary(configs, plan, domain_name, schemes):
    """The summary of a domain without a reference peak, with the per-PAN
    extremes scanned over all entries."""
    per_pan = []
    for pan, cfg in enumerate(configs):
        entry = {"pan": pan + 1, "cell": [cfg.pan_cell.i, cfg.pan_cell.j]}
        entry["max_channels"] = {s: max_channels[pan] for s, (_, max_channels) in schemes.items()}
        values = {s: [v for (p, _), v in entries.items() if p == pan] for s, (entries, _) in schemes.items()}
        entry["best_makespan"] = {s: min((v[1] for v in vs), default=None) for s, vs in values.items()}
        entry["max_delay_decrease_percent"] = {s: max((v[2] for v in vs), default=None) for s, vs in values.items()}
        per_pan.append(entry)
    peak = max(count for _, max_channels in schemes.values() for count in max_channels.values())
    doc = {"domain": domain_name, "data_channels": len(plan.data_set), "per_pan": per_pan}
    doc["computed_dynamic_peak"] = peak
    return json.dumps(doc, indent=2) + "\n"


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


def deployment(n, domain, duties, requests=None):
    """A fixed deployment: ``duties`` lists (i, j, SO, BO, phase) per PAN;
    every PAN serves ``requests``, by default PAN k serves (k + 1, 3, 2)."""
    configs = [SuperframeConfig(CellIndex(i, j), so, bo, phase) for i, j, so, bo, phase in duties]
    scenario = RequestScenario(per_pan={cfg.pan_cell: requests or (k + 1, 3, 2) for k, cfg in enumerate(configs)})
    return build_lattice(n, 1.0), configs, channel_plan(default_domain(domain)), scenario


# One PAN at a negative cell with U = 1.
SINGLE = deployment(1, "Japan", [(-1, -1, 0, 0, 0)])
# Two neighbors active in different cycles of four: cycles 2 and 4 are idle (chi = 0).
IDLE = deployment(1, "Europe", [(-1, 1, 0, 2, 0), (0, 0, 0, 2, 2)])
# Cycle 1 activates a triangle (chi = 3), cycle 2 a path of three PANs (chi = 2).
TRIANGLE = deployment(1, "US", [(0, 0, 1, 1, 0), (1, 1, 1, 1, 0), (1, -1, 0, 1, 0), (-1, -1, 1, 1, 0)])
EXAMPLES = (SINGLE, IDLE, TRIANGLE)
# 22 of 896 (PAN, cycle) entries active, as on the low-duty benchmark windows:
# cycle 1 activates the triangle (0, 0), (1, 1), (0, 2) (chi = 3), cycle 12
# the pair (-1, -1), (0, -2) (chi = 2), other cycles one PAN or none.  The
# phase 52 of a BI = 32 PAN exceeds its interval.
SPARSE = deployment(
    2,
    "US",
    [
        (0, 0, 1, 5, 0),
        (1, 1, 0, 6, 0),
        (0, 2, 0, 7, 0),
        (-1, -1, 1, 6, 10),
        (0, -2, 0, 7, 11),
        (2, -2, 0, 5, 52),
        (-2, 2, 1, 7, 100),
    ],
)
# Two PANs out of range of each other over U = 2^14 cycles; the second is
# active in every cycle with a 28-channel US grant, so three of the four
# streamed reports are longer than WRITE_CHUNK.
DEEP = (
    build_lattice(8, 1.0),
    [SuperframeConfig(CellIndex(0, 0), 0, 14), SuperframeConfig(CellIndex(8, 0), 14, 14)],
    channel_plan(default_domain("US"), us_data_card=28),
    RequestScenario.uniform([CellIndex(0, 0), CellIndex(8, 0)]),
)
# Two neighbors share cycle 1 (7 channels each) and the first runs alone in
# cycle 2 (14 channels): with 8 requests of 3 slots its makespan is 4, then 3.
SHARED = deployment(1, "Europe", [(-1, 1, 1, 2, 0), (0, 0, 0, 2, 0)], requests=(3,) * 8)


def check_writers(lattice, configs, plan, scenario):
    cycles = cycle_structure(configs)
    alloc = allocate_dynamic(lattice, configs, plan)
    assert joined(activity_csv(configs, alloc.activity)) == reference_activity_csv(configs, alloc.activity)
    assert joined(allocation_csv(configs, alloc)) == reference_allocation_csv(configs, alloc)
    assert joined(allocation_json_doc(configs, alloc)) == reference_allocation_json(configs, cycles, alloc)
    assert dynamic_summary_json(configs, alloc) == reference_dynamic_summary(cycles, alloc)

    # The writers key grants by identity; a matrix whose grants share no
    # objects must give the same text.
    unshared = AllocationMatrix(
        channels=tuple(tuple(tuple(list(grant)) for grant in row) for row in alloc.channels),
        per_cycle_chi=alloc.per_cycle_chi,
        per_cycle_k=alloc.per_cycle_k,
        activity=alloc.activity,
    )
    assert joined(allocation_csv(configs, unshared)) == reference_allocation_csv(configs, alloc)
    assert joined(allocation_json_doc(configs, unshared)) == reference_allocation_json(configs, cycles, alloc)

    reports = compare_schemes(lattice, configs, plan, scenario)
    schemes = reference_schemes(lattice, configs, plan, scenario)
    assert joined(scheme_report_csv(configs, reports)) == reference_scheme_report_csv(configs, schemes)


@settings(max_examples=60, deadline=None)
@given(deployments())
@example(SINGLE)
@example(IDLE)
@example(TRIANGLE)
@example(SHARED)
@example(SPARSE)
def test_writers_match_reference_loops(drawn):
    check_writers(*drawn)


@settings(max_examples=60, deadline=None)
@given(deployments())
@example(SINGLE)
@example(IDLE)
@example(TRIANGLE)
@example(SHARED)
def test_scheme_columns_match_reference_loop(drawn):
    lattice, configs, plan, scenario = drawn
    reports = compare_schemes(lattice, configs, plan, scenario)
    schemes = reference_schemes(lattice, configs, plan, scenario)
    assert [r.scheme for r in reports] == list(schemes)
    for report in reports:
        entries, max_channels = schemes[report.scheme]
        assert report.active_cycles is reports[0].active_cycles
        assert scheme_entries(report) == entries
        assert {pan: max(table, default=0) for pan, table in enumerate(report.outcomes)} == max_channels
        # each outcome table holds exactly the counts the PAN receives
        assert [set(table) for table in report.outcomes] == [set(counts) for counts in report.channel_counts]
    if drawn is SHARED:
        assert reports[2].channel_counts[0] == (7, 14)
        assert reports[2].outcomes[0] == {7: (4, 83.33333333333333), 14: (3, 87.5)}
    summary = evaluation_summary_json(configs, plan, "custom", reports)
    assert summary == reference_evaluation_summary(configs, plan, "custom", schemes)


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


def test_sparse_example_is_mostly_idle():
    lattice, configs, plan, _ = SPARSE
    alloc = allocate_dynamic(lattice, configs, plan)
    assert sorted(set(alloc.per_cycle_chi)) == [0, 1, 2, 3]
    assert (sum(map(sum, alloc.activity)), len(configs) * len(alloc.per_cycle_chi)) == (22, 896)


def test_summary_renders_a_never_active_pan_as_null():
    # compare_schemes covers one major cycle, where every PAN is active at
    # least once; a report without outcomes for a PAN still renders as
    # json.dumps renders None.
    lattice, configs, plan, scenario = IDLE
    reports = [r._replace(outcomes=({},) + r.outcomes[1:]) for r in compare_schemes(lattice, configs, plan, scenario)]
    text = evaluation_summary_json(configs, plan, "Europe", reports)
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    idle_pan = doc["per_pan"][0]
    assert idle_pan["best_makespan"] == idle_pan["max_delay_decrease_percent"] == dict.fromkeys(
        ("single", "static", "dynamic")
    )
    assert idle_pan["max_channels"] == dict.fromkeys(("single", "static", "dynamic"), 0)


def unshared(reports):
    """The reports with every outcome table replaced by an equal copy."""
    return [r._replace(outcomes=tuple(dict(table) for table in r.outcomes)) for r in reports]


@settings(max_examples=40, deadline=None)
@given(deployments())
@example(SHARED)
@example(SPARSE)
def test_shared_outcome_tables_are_an_optimisation_only(drawn):
    lattice, configs, plan, scenario = drawn
    reports = compare_schemes(lattice, configs, plan, scenario)
    copies = unshared(reports)
    assert joined(scheme_report_csv(configs, copies)) == joined(scheme_report_csv(configs, reports))
    summary = evaluation_summary_json(configs, plan, "custom", reports)
    assert evaluation_summary_json(configs, plan, "custom", copies) == summary
    # One table object per (request sum, request max, set of counts), across
    # PANs and schemes.
    tables = {}
    for report in reports:
        for cfg, counts, table in zip(configs, report.channel_counts, report.outcomes):
            requests = scenario.per_pan[cfg.pan_cell]
            assert tables.setdefault((sum(requests), max(requests), frozenset(counts)), table) is table
    assert len({id(table) for table in tables.values()}) == len(tables)


def test_summary_keys_templates_by_all_three_tables(reference_config_path):
    # The reference PANs share dynamic tables; give each PAN its own static
    # table, with its own values, while the dynamic tables stay shared.
    cfg = load_config(reference_config_path)
    configs, plan = cfg.superframes, cfg.plan()
    single, static, dynamic = compare_schemes(cfg.lattice, configs, plan, cfg.request_scenario())
    assert len({id(table) for table in dynamic.outcomes}) < len(configs)
    own = tuple(
        {k: (slots + pan, delay) for k, (slots, delay) in table.items()} for pan, table in enumerate(static.outcomes)
    )
    mixed = [single, static._replace(outcomes=own), dynamic]
    text = evaluation_summary_json(configs, plan, "custom", mixed)
    assert text == evaluation_summary_json(configs, plan, "custom", unshared(mixed))
    assert [entry["best_makespan"]["static"] for entry in json.loads(text)["per_pan"]] == [6 + p for p in range(12)]


def test_report_runs_of_one_count_several_counts_and_none():
    lattice, configs, plan, scenario = SHARED
    reports = compare_schemes(lattice, configs, plan, scenario)
    text = joined(scheme_report_csv(configs, reports))
    lines = text.split("\r\n")
    # one count over two cycles: one join with the tail and head between them
    assert [line for line in lines if line.startswith("single,1,")] == [
        "single,1,-1,1,1,1,24,0.0000",
        "single,1,-1,1,2,1,24,0.0000",
    ]
    # two counts: the head, cycle and tail pieces are interleaved by slices
    assert reports[2].channel_counts[0] == (7, 14)
    assert [line for line in lines if line.startswith("dynamic,1,")] == [
        "dynamic,1,-1,1,1,7,4,83.3333",
        "dynamic,1,-1,1,2,14,3,87.5000",
    ]
    # a PAN that is never active has an empty run: no line, no separator
    idle = [
        r._replace(
            active_cycles=((),) + r.active_cycles[1:],
            channel_counts=((),) + r.channel_counts[1:],
            outcomes=({},) + r.outcomes[1:],
        )
        for r in reports
    ]
    kept = [line for line in lines[:-1] if line.split(",")[1] != "1"]
    assert joined(scheme_report_csv(configs, idle)) == "\r\n".join(kept) + "\r\n"
    none_active = [r._replace(active_cycles=((),) * 2, channel_counts=((),) * 2, outcomes=({},) * 2) for r in reports]
    assert joined(scheme_report_csv(configs, none_active)) == lines[0] + "\r\n"


def digest(parts):
    """SHA-256 of the UTF-8 text made of ``parts``, read one part at a time."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode())
    return sha.digest()


def test_long_reports_stream_in_bounded_chunks():
    lattice, configs, plan, scenario = DEEP
    cycles = cycle_structure(configs)
    alloc = allocate_dynamic(lattice, configs, plan)
    assert cycles.u_cycles == 1 << 14 and alloc.per_cycle_k == (28,) * (1 << 14)
    reports = compare_schemes(lattice, configs, plan, scenario)
    # The JSON mirror is about 21 MB.  Texts are compared by digest, chunk
    # by chunk, and the JSON reference is encoded part by part as json.dumps
    # would encode it, so neither long text is ever held whole.
    doc = reference_allocation_doc(configs, cycles, alloc)
    streams = [
        (activity_csv(configs, alloc.activity), [reference_activity_csv(configs, alloc.activity)]),
        (allocation_csv(configs, alloc), [reference_allocation_csv(configs, alloc)]),
        (allocation_json_doc(configs, alloc), chain(json.JSONEncoder(indent=2).iterencode(doc), "\n")),
        (scheme_report_csv(configs, reports), [reference_scheme_report_csv(configs, reference_schemes(*DEEP))]),
    ]
    long_reports = 0
    for chunks, reference in streams:
        lengths = []
        assert digest(checked(chunks, lengths)) == digest(reference)
        if sum(lengths) > WRITE_CHUNK:
            long_reports += 1
            assert len(lengths) >= 2
    assert long_reports == 3


def test_chunk_boundaries_keep_the_text(monkeypatch):
    # With a bound of 300 characters the SPARSE reports are cut at many unit
    # boundaries; a unit longer than the bound (a 24-channel grant in the
    # JSON) comes alone.
    monkeypatch.setattr(jsontext, "WRITE_CHUNK", 300)
    lattice, configs, plan, scenario = SPARSE
    cycles = cycle_structure(configs)
    alloc = allocate_dynamic(lattice, configs, plan)
    reports = compare_schemes(lattice, configs, plan, scenario)
    streams = [
        (activity_csv(configs, alloc.activity), reference_activity_csv(configs, alloc.activity)),
        (allocation_csv(configs, alloc), reference_allocation_csv(configs, alloc)),
        (allocation_json_doc(configs, alloc), reference_allocation_json(configs, cycles, alloc)),
        (scheme_report_csv(configs, reports), reference_scheme_report_csv(configs, reference_schemes(*SPARSE))),
    ]
    for chunks, reference in streams:
        chunks = list(chunks)
        assert len(chunks) > 10 and all(chunks)
        assert "".join(chunks) == reference
