import json
import tracemalloc

import pytest
from conftest import roadmap_config, scheme_entries

from hexchan.config import load_config
from hexchan.errors import OrderingError
from hexchan.evaluate import (
    DYNAMIC,
    SINGLE,
    STATIC,
    RequestScenario,
    compare_schemes,
    delay_decrease_percent,
    evaluation_summary_json,
    makespan,
    scheme_report_csv,
)
from hexchan.lattice import CellIndex

DEFAULT_REQUESTS = (3,) * 8


@pytest.fixture
def reference(reference_config_path):
    cfg = load_config(reference_config_path)
    return cfg


def test_makespan_published_points():
    assert makespan(DEFAULT_REQUESTS, 1) == 24
    assert makespan(DEFAULT_REQUESTS, 4) == 6
    assert makespan(DEFAULT_REQUESTS, 7) == 4
    assert makespan(DEFAULT_REQUESTS, 14) == 3


def test_makespan_is_exact_for_any_integer():
    assert makespan([2**60 + 1] * 8, 1) == 8 * (2**60 + 1)
    assert makespan([2**60 + 1] * 8, 7) == -(-8 * (2**60 + 1) // 7)
    assert makespan([10**400] * 3, 2) == 15 * 10**399


def test_makespan_request_length_floor():
    assert makespan([5], 100) == 5
    assert makespan([3, 3], 14) == 3


def test_makespan_single_channel_is_total():
    assert makespan([2, 5, 1, 4], 1) == 12


def test_makespan_monotone_in_channels():
    prev = None
    for c in range(1, 30):
        m = makespan(DEFAULT_REQUESTS, c)
        if prev is not None:
            assert m <= prev
        prev = m
    # exact division once the quotient clears the longest request
    assert makespan(DEFAULT_REQUESTS, 2) == 12
    assert makespan(DEFAULT_REQUESTS, 8) == 3


def test_makespan_validation():
    with pytest.raises(ValueError):
        makespan([], 1)
    with pytest.raises(ValueError):
        makespan([3], 0)


def test_delay_decrease_values():
    assert delay_decrease_percent(24, 6) == 75.0
    assert delay_decrease_percent(24, 3) == 87.5
    assert delay_decrease_percent(10, 10) == 0.0


def test_delay_decrease_ordering_error():
    with pytest.raises(OrderingError):
        delay_decrease_percent(6, 24)


def test_request_scenario_validation():
    with pytest.raises(ValueError):
        RequestScenario(per_pan={CellIndex(0, 0): ()})
    with pytest.raises(ValueError):
        RequestScenario(per_pan={CellIndex(0, 0): (3,), CellIndex(1, 1): (3, 0)})
    with pytest.raises(ValueError):
        RequestScenario.uniform([CellIndex(0, 0)], count=0)


def test_compare_schemes_reference(reference):
    reports = compare_schemes(
        reference.lattice, reference.superframes, reference.plan(), reference.request_scenario()
    )
    by_scheme = {r.scheme: r for r in reports}
    # peak channel counts per PAN: 1 / k_static / whole data set
    peaks = {s: [max(table, default=0) for table in r.outcomes] for s, r in by_scheme.items()}
    assert set(peaks[SINGLE]) == {1}
    assert set(peaks[STATIC]) == {4}
    assert max(peaks[DYNAMIC]) == 14
    # PAN 11 (index 10) is isolated during some cycles: 3-slot makespan there
    dyn = scheme_entries(by_scheme[DYNAMIC])
    assert min(slots for (p, _), (_, slots, _) in dyn.items() if p == 10) == 3
    # and needs 4 slots when sharing with one interfering PAN (7 channels)
    assert any(count == 7 and slots == 4 for (p, _), (count, slots, _) in dyn.items() if p == 10)
    assert {slots for _, slots, _ in scheme_entries(by_scheme[SINGLE]).values()} == {24}
    assert {slots for _, slots, _ in scheme_entries(by_scheme[STATIC]).values()} == {6}


def test_scheme_ordering(reference):
    reports = compare_schemes(
        reference.lattice, reference.superframes, reference.plan(), reference.request_scenario()
    )
    single, static, dynamic = (scheme_entries(r) for r in reports)
    assert single.keys() == static.keys() == dynamic.keys()
    for key in single:
        assert dynamic[key][1] <= static[key][1]
        assert static[key][1] <= single[key][1]


def test_compare_schemes_memory_bound(tmp_path):
    # The N = 5 ROADMAP window: 61 PANs x U = 1024, 24 168 active (PAN, cycle)
    # entries per scheme.  The reports keep a few columns per PAN, not an
    # object per entry (about 1.5 MB, against 25.7 MB for per-entry dicts).
    path = tmp_path / "roadmap-n5.json"
    path.write_text(json.dumps(roadmap_config(5)), encoding="utf-8")
    cfg = load_config(path)
    tracemalloc.start()
    try:
        reports = compare_schemes(cfg.lattice, cfg.superframes, cfg.plan(), cfg.request_scenario())
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, reports[0].active_cycles)) == 24168
    assert retained < 6_000_000


def test_workload_must_cover_pans(reference):
    scenario = RequestScenario(per_pan={CellIndex(0, 0): DEFAULT_REQUESTS})
    with pytest.raises(ValueError):
        compare_schemes(reference.lattice, reference.superframes, reference.plan(), scenario)


def test_report_exports(reference):
    configs = reference.superframes
    plan = reference.plan()
    reports = compare_schemes(reference.lattice, configs, plan, reference.request_scenario())
    csv_text = "".join(scheme_report_csv(configs, reports))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "scheme,pan,pan_i,pan_j,cycle,channels,makespan_slots,delay_decrease_percent"
    assert any(line.startswith("single,") and ",24," in line for line in lines[1:])
    assert any(line.startswith("static,") and ",6," in line for line in lines[1:])
    assert any(line.startswith("dynamic,") and line.endswith("87.5000") for line in lines[1:])
    summary = json.loads(evaluation_summary_json(configs, plan, "Europe", reports))
    assert summary["computed_dynamic_peak"] == 14
    assert summary["reference_dynamic_peak"] == 14
    assert "peak_note" not in summary
    pan11 = summary["per_pan"][10]
    assert pan11["best_makespan"] == {"single": 24, "static": 6, "dynamic": 3}
    assert pan11["max_delay_decrease_percent"]["dynamic"] == 87.5


def test_japan_peak_note(reference):
    # the published peak (18) disagrees with Japan's data-channel count (20):
    # both must surface in the summary
    from hexchan.spectrum import JAPAN, channel_plan, default_domain

    plan = channel_plan(default_domain(JAPAN))
    reports = compare_schemes(reference.lattice, reference.superframes, plan, reference.request_scenario())
    summary = json.loads(evaluation_summary_json(reference.superframes, plan, "Japan", reports))
    assert summary["computed_dynamic_peak"] == 20
    assert summary["reference_dynamic_peak"] == 18
    assert "peak_note" in summary
