"""The per-(PAN, cycle) report writers against the loops they replaced.

``allocation_json_doc``, ``allocation_csv``, ``activity_csv`` and
``scheme_report_csv`` build their text directly, rendering each distinct
grant, PAN field and outcome once; the first three copy whole runs of idle
entries.  They yield the text in chunks of at most ``WRITE_CHUNK``
characters, which ``joined`` checks and joins.  ``dynamic_summary_json`` and
``evaluation_summary_json`` fill one template per cycle or PAN.  The
``reference_*`` functions below are the plain per-entry loops (and
``json.dumps``) they replaced; the writers must produce the same text on
every drawn deployment.  They take each PAN's activity from the
``is_active`` oracle, not from the allocation.  ``reference_schemes`` is the
per-(PAN, cycle) loop that ``compare_schemes`` replaced by per-PAN columns;
the columns must hold the same entries.  The evaluate writers cache their
text by each PAN's request span and counts, by value: equal copies must give
the same text, and PANs with equal counts but different spans their own.
"""

import hashlib
import json
from itertools import chain

from conftest import scheme_entries
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import is_active

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


def oracle_activity(configs):
    """Per PAN, whether it is active in each cycle of one major cycle, by
    ``is_active``."""
    cycles = cycle_structure(configs)
    return [[is_active(cfg, t, cycles.sd_min) for t in range(cycles.u_cycles)] for cfg in configs]


def reference_activity_csv(configs):
    activity = oracle_activity(configs)
    lines = ["cycle,pan_i,pan_j,active"]
    for t in range(len(activity[0])):
        for k, cfg in enumerate(configs):
            cell = cfg.pan_cell
            lines.append(f"{t + 1},{cell.i},{cell.j},{int(activity[k][t])}")
    return "\r\n".join(lines) + "\r\n"


def reference_allocation_csv(configs, alloc):
    activity = oracle_activity(configs)
    lines = ["cycle,pan_i,pan_j,active,chi,k,channels"]
    for t in range(len(alloc.per_cycle_chi)):
        for k, cfg in enumerate(configs):
            cell = cfg.pan_cell
            channels = alloc.per_cycle_grants[t][k]
            tokens = " ".join(ch.token() for ch in channels)
            lines.append(
                f"{t + 1},{cell.i},{cell.j},{int(activity[k][t])},"
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
                    [[ch.phy_channel, ch.code] for ch in alloc.per_cycle_grants[t][k]]
                    for t in range(len(alloc.per_cycle_chi))
                ],
            }
            for k, cfg in enumerate(configs)
        ],
    }


def reference_dynamic_summary(configs, cycles, alloc):
    active_pans = [sum(column) for column in zip(*oracle_activity(configs))]
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
    activity = oracle_activity(configs)
    channels_of = {
        "single": lambda pan, t: 1,
        "static": lambda pan, t: k_static,
        "dynamic": lambda pan, t: len(dynamic.per_cycle_grants[t][pan]),
    }
    schemes = {}
    for scheme, channels in channels_of.items():
        entries, max_channels = {}, {}
        for pan, cfg in enumerate(configs):
            requests = scenario.per_pan[cfg.pan_cell]
            baseline = makespan(requests, 1)
            max_channels[pan] = 0
            for t in range(len(dynamic.per_cycle_chi)):
                if not activity[pan][t]:
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
    assert joined(activity_csv(configs, alloc)) == reference_activity_csv(configs)
    assert joined(allocation_csv(configs, alloc)) == reference_allocation_csv(configs, alloc)
    assert joined(allocation_json_doc(configs, alloc)) == reference_allocation_json(configs, cycles, alloc)
    assert dynamic_summary_json(configs, alloc) == reference_dynamic_summary(configs, cycles, alloc)

    # The writers key grants by identity; a matrix whose grants and columns
    # share no objects must give the same text.
    unshared = AllocationMatrix(
        per_cycle_grants=tuple(tuple(tuple(list(grant)) for grant in column) for column in alloc.per_cycle_grants),
        per_cycle_chi=alloc.per_cycle_chi,
        per_cycle_k=alloc.per_cycle_k,
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
        assert report.spans is reports[0].spans
        assert scheme_entries(report, configs, scenario) == entries
        # the distinct counts are the counts the PAN receives, ascending, once
        assert list(report.distinct_counts) == [tuple(sorted(set(counts))) for counts in report.channel_counts]
        assert {pan: max(counts, default=0) for pan, counts in enumerate(report.distinct_counts)} == max_channels
    requests = [scenario.per_pan[cfg.pan_cell] for cfg in configs]
    assert reports[0].spans == tuple((sum(r), max(r)) for r in requests)
    if drawn is SHARED:
        assert reports[2].channel_counts[0] == (7, 14) and reports[2].distinct_counts[0] == (7, 14)
        assert [scheme_entries(reports[2], configs, scenario)[0, t] for t in (0, 1)] == [
            (7, 4, 83.33333333333333),
            (14, 3, 87.5),
        ]
    summary = joined(evaluation_summary_json(configs, plan, "custom", reports))
    assert summary == reference_evaluation_summary(configs, plan, "custom", schemes)


def test_examples_cover_edge_cases():
    pans, cycle_counts, chis, idle, negative = set(), set(), set(), False, False
    for lattice, configs, plan, _ in EXAMPLES:
        alloc = allocate_dynamic(lattice, configs, plan)
        pans.add(len(configs))
        cycle_counts.add(len(alloc.per_cycle_chi))
        chis.update(alloc.per_cycle_chi)
        idle |= any(grant == () for column in alloc.per_cycle_grants for grant in column)
        negative |= any(cfg.pan_cell.i < 0 or cfg.pan_cell.j < 0 for cfg in configs)
    assert 1 in pans and 1 in cycle_counts
    assert chis == {0, 1, 2, 3}
    assert idle and negative


def test_sparse_example_is_mostly_idle():
    lattice, configs, plan, _ = SPARSE
    alloc = allocate_dynamic(lattice, configs, plan)
    assert sorted(set(alloc.per_cycle_chi)) == [0, 1, 2, 3]
    granted = sum(grant != () for column in alloc.per_cycle_grants for grant in column)
    assert (granted, len(configs) * len(alloc.per_cycle_chi)) == (22, 896)
    assert sum(map(sum, oracle_activity(configs))) == 22


def test_summary_renders_a_never_active_pan_as_null():
    # compare_schemes covers one major cycle, where every PAN is active at
    # least once; a report where a PAN is never active still renders as
    # json.dumps renders None.
    lattice, configs, plan, scenario = IDLE
    reports = [never_active_first(r) for r in compare_schemes(lattice, configs, plan, scenario)]
    text = joined(evaluation_summary_json(configs, plan, "Europe", reports))
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    idle_pan = doc["per_pan"][0]
    assert idle_pan["best_makespan"] == idle_pan["max_delay_decrease_percent"] == dict.fromkeys(
        ("single", "static", "dynamic")
    )
    assert idle_pan["max_channels"] == dict.fromkeys(("single", "static", "dynamic"), 0)


def never_active_first(report):
    """The report with its first PAN active in no cycle."""
    return report._replace(
        active_cycles=((),) + report.active_cycles[1:],
        channel_counts=((),) + report.channel_counts[1:],
        distinct_counts=((),) + report.distinct_counts[1:],
    )


def copied(reports):
    """The reports with every span and distinct-count tuple replaced by an
    equal copy, shared by no other PAN or report."""
    return [
        r._replace(
            spans=tuple(tuple(list(span)) for span in r.spans),
            distinct_counts=tuple(tuple(list(counts)) for counts in r.distinct_counts),
        )
        for r in reports
    ]


@settings(max_examples=40, deadline=None)
@given(deployments())
@example(SHARED)
@example(SPARSE)
def test_equal_copies_of_spans_and_counts_give_the_same_text(drawn):
    lattice, configs, plan, scenario = drawn
    reports = compare_schemes(lattice, configs, plan, scenario)
    copies = copied(reports)
    assert joined(scheme_report_csv(configs, copies)) == joined(scheme_report_csv(configs, reports))
    summary = joined(evaluation_summary_json(configs, plan, "custom", reports))
    assert joined(evaluation_summary_json(configs, plan, "custom", copies)) == summary


# Two PANs out of range of each other with the same duty cycle: they get
# the same counts in every scheme, but PAN 1 serves 8 requests of 3 slots
# and PAN 2 8 of 5.
APART = deployment(2, "Europe", [(-2, 0, 0, 1, 0), (2, 0, 0, 1, 0)])[:3] + (
    RequestScenario(per_pan={CellIndex(-2, 0): (3,) * 8, CellIndex(2, 0): (5,) * 8}),
)


def test_equal_counts_with_different_spans_render_their_own_outcomes():
    lattice, configs, plan, scenario = APART
    reports = compare_schemes(lattice, configs, plan, scenario)
    for report in reports:
        assert report.channel_counts[0] == report.channel_counts[1]
        assert report.distinct_counts[0] == report.distinct_counts[1]
    assert reports[0].spans == ((24, 3), (40, 5))
    schemes = reference_schemes(lattice, configs, plan, scenario)
    text = joined(scheme_report_csv(configs, reports))
    assert text == reference_scheme_report_csv(configs, schemes)
    makespans = [line.split(",")[6] for line in text.split("\r\n")[1:-1]]
    assert makespans == ["24", "40", "6", "10", "3", "5"]
    summary = joined(evaluation_summary_json(configs, plan, "custom", reports))
    assert summary == reference_evaluation_summary(configs, plan, "custom", schemes)
    best = [entry["best_makespan"] for entry in json.loads(summary)["per_pan"]]
    assert best == [{"single": 24, "static": 6, "dynamic": 3}, {"single": 40, "static": 10, "dynamic": 5}]


def test_summary_keys_templates_by_all_three_schemes(reference_config_path):
    # The reference PANs share one request list, and several share their
    # dynamic counts; give PAN p a static count of p + 1 of its own.
    cfg = load_config(reference_config_path)
    configs, plan = cfg.superframes, cfg.plan()
    single, static, dynamic = compare_schemes(cfg.lattice, configs, plan, cfg.request_scenario())
    assert len(set(dynamic.distinct_counts)) < len(configs)
    own = static._replace(
        channel_counts=tuple((p + 1,) * len(cycles) for p, cycles in enumerate(static.active_cycles)),
        distinct_counts=tuple((p + 1,) for p in range(len(configs))),
    )
    per_pan = json.loads(joined(evaluation_summary_json(configs, plan, "custom", [single, own, dynamic])))["per_pan"]
    assert [entry["max_channels"]["static"] for entry in per_pan] == list(range(1, 13))
    assert [entry["best_makespan"]["static"] for entry in per_pan] == [makespan((3,) * 8, p + 1) for p in range(12)]


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
    idle = [never_active_first(r) for r in reports]
    kept = [line for line in lines[:-1] if line.split(",")[1] != "1"]
    assert joined(scheme_report_csv(configs, idle)) == "\r\n".join(kept) + "\r\n"
    empty = ((),) * 2
    none_active = [r._replace(active_cycles=empty, channel_counts=empty, distinct_counts=empty) for r in reports]
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
        (activity_csv(configs, alloc), [reference_activity_csv(configs)]),
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
    # At 8 characters every line and unit is longer than the bound, so each
    # comes alone; at 300 the SPARSE cycles with a 24-channel grant are cut
    # between PAN lines; at 4096 each cycle is one chunk.  A chunk of the
    # cycle-major CSVs holds whole lines and passes the bound only as a
    # single line.
    lattice, configs, plan, scenario = SPARSE
    cycles = cycle_structure(configs)
    alloc = allocate_dynamic(lattice, configs, plan)
    reports = compare_schemes(lattice, configs, plan, scenario)
    schemes = reference_schemes(*SPARSE)
    # The summary comes as its head, one chunk per PAN entry and its tail.
    summary = list(evaluation_summary_json(configs, plan, "custom", reports))
    assert "".join(summary) == reference_evaluation_summary(configs, plan, "custom", schemes)
    assert len(summary) == len(configs) + 2
    for bound in (8, 300, 4096):
        monkeypatch.setattr(jsontext, "WRITE_CHUNK", bound)
        streams = [
            (activity_csv(configs, alloc), reference_activity_csv(configs)),
            (allocation_csv(configs, alloc), reference_allocation_csv(configs, alloc)),
            (allocation_json_doc(configs, alloc), reference_allocation_json(configs, cycles, alloc)),
            (scheme_report_csv(configs, reports), reference_scheme_report_csv(configs, schemes)),
        ]
        cut_cycles = []
        for k, (chunks, reference) in enumerate(streams):
            chunks = list(chunks)
            assert all(chunks) and len(chunks) > (10 if bound <= 300 else 1)
            assert "".join(chunks) == reference
            if k > 1:
                continue
            lines = [chunk.split("\r\n")[:-1] for chunk in chunks]
            assert all(chunk.endswith("\r\n") for chunk in chunks)
            assert all(len(chunk) <= bound or len(held) == 1 for chunk, held in zip(chunks, lines))
            if bound == 8:
                assert all(len(held) == 1 for held in lines)
            # A cycle is cut where a chunk starts with the cycle the one before ended with.
            cut_cycles.append(sum(a[-1].split(",")[0] == b[0].split(",")[0] for a, b in zip(lines, lines[1:])))
        if bound == 300:
            assert cut_cycles[1] > 0
        if bound == 4096:
            assert cut_cycles == [0, 0]
