"""The benchmark's own arithmetic: percentile rule, self time, cache miss
ratio, aggregate fingerprint and the wrapping of layer functions.

    python3 -m pytest perfbench/tests
"""

import pytest

import layers
from stats import (
    STUDY118_AGGREGATE,
    ScenarioRecord,
    Span,
    aggregate_fingerprint,
    fingerprint_mismatches,
    miss_ratio,
    percentile,
    samples_beyond,
    self_times,
    tail_percentile,
)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (181, 90.0),
    (182, 95.0), (901, 95.0), (902, 99.0), (9001, 99.0), (9002, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n, pct", [(200, 95.0), (1000, 99.0), (20, 50.0), (137, 90.0), (182, 95.0), (181, 95.0)])
def test_samples_beyond_matches_data(n, pct):
    values = list(range(1, n + 1))
    cut = percentile(values, pct)
    assert sum(v > cut for v in values) == samples_beyond(n, pct)


def test_percentile_interpolates_like_numpy():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 95.0) == pytest.approx(4.8)


def _span(name, start, end, parent=None, flag=None):
    return Span(name, start, end, parent, 0, flag=flag)


def test_self_time_back_to_back_and_nested_children():
    spans = [
        _span("parent", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("grandchild", 1.5, 2.5, parent=1),
        _span("b", 3.0, 5.0, parent=0),      # starts where "a" ends
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0.0, 10.0), _span("a", 1.0, 4.0, 0), _span("b", 3.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_miss_ratio_counts_direct_builds_only():
    spans = [
        _span("get", 0.0, 1.0),              # 0: miss
        _span("load", 0.1, 0.5, parent=0),
        _span("get", 1.0, 1.1),              # 2: hit
        _span("get", 2.0, 3.0),              # 4: hit, the build is not its child
        _span("other", 2.1, 2.9, parent=4),
        _span("load", 2.2, 2.8, parent=5),
    ]
    spans.insert(3, spans.pop(3))
    assert miss_ratio(spans, "get", "load") == pytest.approx(1 / 3)
    assert miss_ratio([], "get", "load") == 0.0


def test_layer_metrics_split_lp_calls_by_parent():
    spans = [
        _span("op", 0.0, 10.0),
        _span("sced.run_sced", 0.0, 4.0, 0),
        _span("lp.solve_lp", 1.0, 3.0, 1, flag=False),
        _span("lp.linprog", 1.5, 2.5, 2),
        _span("attack.solve_attack", 5.0, 9.0, 0),
        _span("lp.solve_lp", 6.0, 7.0, 4, flag=True),
    ]
    m = layers.layer_metrics(spans, missing=[])
    assert m["lp.solve_lp.calls"] == 2.0
    assert m["lp.solve_lp.busy_s"] == pytest.approx(3.0)
    assert m["lp.solve_lp.sced.busy_s"] == pytest.approx(2.0)
    assert m["lp.solve_lp.attack.busy_s"] == pytest.approx(1.0)
    assert m["lp.solve_lp.self_s"] == pytest.approx(2.0)
    assert m["sced.run_sced.self_s"] == pytest.approx(2.0)
    assert m["lp.solve_lp.errors"] == 1.0
    assert m["estimation.wls_estimate.calls"] == 0.0
    assert set(m) == set(layers.UNITS) - {"trace.ops", "trace.overhead_frac"}


def test_layer_metrics_of_a_missing_target_read_null():
    m = layers.layer_metrics([_span("op", 0.0, 1.0)], missing=["lp.solve_lp"])
    assert m["lp.solve_lp.calls"] is None
    assert m["lp.solve_lp.sced.busy_s"] is None
    assert m["lp.linprog.busy_s"] == 0.0


def test_install_wraps_call_site_imports_and_restores():
    from gridfdi import harness, sced
    original = sced.run_sced
    recorder = layers.Recorder()
    restore, missing = layers.install(recorder)
    try:
        assert "sced.run_sced" not in missing
        assert harness.run_sced is sced.run_sced is not original
    finally:
        restore()
    assert harness.run_sced is sced.run_sced is original


def _record(group, smldi, attack=True, detected=True, identified=True, danger=False):
    return ScenarioRecord(group, attack, smldi, detected, identified, danger)


def test_aggregate_fingerprint():
    records = [
        _record("g", 0.50, danger=True),
        _record("g", 0.30, detected=False, identified=False),
        _record("g", 0.40, identified=False),
        _record("f", 0.10, attack=False, detected=False),
        _record("f", 0.36, attack=False, detected=True),
    ]
    got = aggregate_fingerprint(records)
    assert got["g"] == (50.0, 30.0, 40.0, 40.0, 8.2, 2, 1, 1, 0)
    assert got["f"] == (36.0, 10.0, 23.0, 23.0, 13.0, 0, 0, 0, 1)


def test_fingerprint_mismatch_tolerates_rounding_only():
    expected = {"g": (50.0, 30.0, 40.0, 40.0, 8.2, 2, 1, 1, 0)}
    assert fingerprint_mismatches({"g": (50.1, 30.0, 40.0, 39.9, 8.2, 2, 1, 1, 0)}, expected) == []
    assert fingerprint_mismatches({"g": (50.3, 30.0, 40.0, 40.0, 8.2, 2, 1, 1, 0)}, expected) == ["g"]
    assert fingerprint_mismatches({"g": (50.0, 30.0, 40.0, 40.0, 8.2, 2, 2, 1, 0)}, expected) == ["g"]
    assert fingerprint_mismatches({}, expected) == ["g"]


def test_study118_expectation_matches_the_readme_totals():
    attacks = [v for k, v in STUDY118_AGGREGATE.items() if k.startswith("attack")]
    flucts = [v for k, v in STUDY118_AGGREGATE.items() if not k.startswith("attack")]
    assert sum(v[5] for v in attacks) == 157
    assert sum(v[6] for v in attacks) == 152
    assert sum(v[8] for v in STUDY118_AGGREGATE.values()) == 0
    assert all(v[5] == 0 for v in flucts)


def test_benchmark_json_names_every_reported_metric():
    import json
    from pathlib import Path

    import run

    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.UNITS
