import numpy as np
import pytest

from gridfdi.detect import (
    AlertLevel,
    BORI_THRESHOLDS,
    CAI_TIE_TOL,
    COMBINED_ALERT,
    ConfigError,
    INDEX_THRESHOLDS,
    Snapshot,
    bori_all,
    cai_ranking,
    run_two_stage,
    smldi,
    _emldi,
    _levels,
    _load_direction,
    _mldi,
)
from gridfdi.powerflow import CRITICAL_PTDF, Ptdf


def mldi_all(snap):
    """MLDI of every branch from one snapshot."""
    return _mldi(snap, _load_direction(snap))


def emldi_all(snap):
    """EMLDI of every branch from one snapshot."""
    return _emldi(snap, _load_direction(snap))


def _level(value, thresholds):
    """Scalar reference for the detector's vector ``_levels``."""
    lo, mid, hi = thresholds
    if value > hi:
        return AlertLevel.DANGER
    if value > mid:
        return AlertLevel.WARNING
    if value > lo:
        return AlertLevel.MONITOR
    return AlertLevel.NORMAL


def combine_alert(flow_level, load_level):
    """Scalar reference for the detector's combined-alert lookup."""
    return COMBINED_ALERT[int(flow_level)][int(load_level)]


def bori(k, snap):
    """Overload-risk metrics and alert for in-service branch position k."""
    b1, b2, b = bori_all(snap)
    return b1[k], b2[k], b[k], _level(b[k], BORI_THRESHOLDS)


def mldi(k, snap):
    """Deviation index of branch k plus its indicators over the critical set:
    each critical load's direction times its sensitivity's sign."""
    critical = snap.ptdf.critical_mask[k]
    indicators = _load_direction(snap)[critical] * np.sign(snap.ptdf.matrix[k, critical])
    return mldi_all(snap)[k], indicators


def emldi(k, snap):
    value = emldi_all(snap)[k]
    return value, _level(value, INDEX_THRESHOLDS)


def toy_ptdf(matrix, load_buses):
    matrix = np.asarray(matrix, dtype=float)
    mask = np.zeros(matrix.shape, dtype=bool)
    for k in range(matrix.shape[0]):
        for n in load_buses:
            mask[k, n] = abs(matrix[k, n]) >= CRITICAL_PTDF
    return Ptdf(matrix=matrix, critical_mask=mask)


def make_snapshot(
    ptdf,
    prev_flows,
    measured_flows=None,
    sced_flows=None,
    prev_loads=None,
    measured_loads=None,
    limits=None,
):
    m, n = ptdf.matrix.shape
    prev_flows = np.asarray(prev_flows, dtype=float)
    if prev_loads is None:
        prev_loads = np.full(n, 100.0)
    if measured_loads is None:
        measured_loads = np.asarray(prev_loads, dtype=float).copy()
    return Snapshot(
        prev_flows=prev_flows,
        prev_loads=np.asarray(prev_loads, dtype=float),
        measured_flows=(
            prev_flows.copy() if measured_flows is None
            else np.asarray(measured_flows, dtype=float)
        ),
        measured_loads=np.asarray(measured_loads, dtype=float),
        sced_flows=(
            prev_flows.copy() if sced_flows is None
            else np.asarray(sced_flows, dtype=float)
        ),
        limits=np.ones(m) if limits is None else np.asarray(limits, dtype=float),
        ptdf=ptdf,
        branch_ordinals=np.arange(1, m + 1),
    )


FIVE_LOADS = toy_ptdf(
    [[0.5, 0.2, 0.1, -0.3, 0.05, 0.0],
     [0.02, -0.4, 0.2, 0.1, -0.6, 0.0]],
    load_buses=[0, 1, 2, 3, 4],
)


def test_bori_steady_state_below_limit():
    snap = make_snapshot(FIVE_LOADS, prev_flows=[0.9, 0.9])
    b1, b2, b, level = bori(0, snap)
    assert b1 == b2 == b == pytest.approx(0.9)
    assert level == AlertLevel.NORMAL


def test_bori_attack_signature():
    snap = make_snapshot(
        FIVE_LOADS,
        prev_flows=[1.0, 0.5],
        measured_flows=[0.8, 0.5],
        sced_flows=[1.0, 0.5],
    )
    b1, b2, b, level = bori(0, snap)
    assert b1 == pytest.approx(1.2)
    assert b2 == pytest.approx(1.2)
    assert level == AlertLevel.DANGER


def test_bori_zero_previous_flow():
    snap = make_snapshot(FIVE_LOADS, prev_flows=[0.0, 0.4])
    _, _, b, level = bori(0, snap)
    assert b == 0.0
    assert level == AlertLevel.NORMAL


def test_bori_negative_flow_direction():
    # congested in the negative direction, measured magnitude reduced
    snap = make_snapshot(
        FIVE_LOADS,
        prev_flows=[-1.0, 0.0],
        measured_flows=[-0.8, 0.0],
        sced_flows=[-1.0, 0.0],
    )
    _, _, b, level = bori(0, snap)
    assert b == pytest.approx(1.2)
    assert level == AlertLevel.DANGER


def test_mldi_dead_band_exact_zero():
    prev = np.full(6, 100.0)
    measured = prev * 1.049        # everything inside the 5% band
    snap = make_snapshot(FIVE_LOADS, [0.5, 0.5], prev_loads=prev,
                         measured_loads=measured)
    assert np.all(mldi_all(snap) == 0.0)
    assert np.all(emldi_all(snap) == 0.0)


def test_mldi_extreme_alignment():
    prev = np.full(6, 100.0)
    # move every critical load of branch 0 against its sensitivity sign:
    # positive-PTDF buses up 5%, negative ones down 5% -> flow must shrink
    signs = np.sign(FIVE_LOADS.matrix[0, :5])
    measured = prev.copy()
    measured[:5] = 100.0 * (1 + 0.05 * signs)
    snap = make_snapshot(FIVE_LOADS, [1.0, 1.0], prev_loads=prev,
                         measured_loads=measured)
    value, indicators = mldi(0, snap)
    assert value == pytest.approx(1.0)
    assert np.all(indicators == np.abs(np.sign(FIVE_LOADS.matrix[0, :5])))


def test_mldi_zero_previous_load_is_neutral():
    prev = np.array([100.0, 0.0, 100.0, 100.0, 100.0, 0.0])
    measured = prev * 1.20
    snap = make_snapshot(FIVE_LOADS, [1.0, 1.0], prev_loads=prev,
                         measured_loads=measured)
    _, indicators = mldi(0, snap)
    assert indicators[1] == 0.0    # bus with zero previous load


def test_load_direction_relative_to_previous_size():
    # a negative previous load that grows in size (-10 -> -5 is a rise of
    # 5 MW) reads as an increase, as a positive one does
    prev = np.array([100.0, -10.0, -10.0, 100.0, 100.0, 0.0])
    measured = np.array([106.0, -5.0, -15.0, 96.0, 94.0, 5.0])
    snap = make_snapshot(FIVE_LOADS, [1.0, 1.0], prev_loads=prev,
                         measured_loads=measured)
    assert _load_direction(snap).tolist() == [1.0, 1.0, -1.0, 0.0, -1.0, 0.0]


def test_emldi_degenerate_no_change():
    snap = make_snapshot(FIVE_LOADS, [1.0, 1.0])
    value, level = emldi(0, snap)
    assert value == 0.0
    assert level == AlertLevel.NORMAL


def test_emldi_single_mover_full_weight():
    prev = np.full(6, 100.0)
    measured = prev.copy()
    measured[0] = 106.0            # only bus 0 (PTDF +0.5) moves
    snap = make_snapshot(FIVE_LOADS, [1.0, 1.0], prev_loads=prev,
                         measured_loads=measured)
    value, level = emldi(0, snap)
    assert value == pytest.approx(1.0)
    assert level == AlertLevel.DANGER


def reference_metrics(snap, dead_band=0.05):
    """Loop-based re-derivation of the per-branch metrics, independent of
    the vectorized implementation."""
    ptdf = snap.ptdf
    m = ptdf.matrix.shape[0]
    mldi_ref = np.zeros(m)
    emldi_ref = np.zeros(m)
    bori_ref = np.zeros(m)
    for k in range(m):
        sgn_flow = np.sign(snap.prev_flows[k])
        total = 0.0
        weighted = 0.0
        weight_norm = 0.0
        critical = np.flatnonzero(ptdf.critical_mask[k])
        for n in critical:
            prev = snap.prev_loads[n]
            if prev == 0:
                indicator = 0.0
            else:
                rel = (snap.measured_loads[n] - prev) / abs(prev)
                if rel >= dead_band - 1e-9:
                    indicator = np.sign(ptdf.matrix[k, n])
                elif rel <= -(dead_band - 1e-9):
                    indicator = -np.sign(ptdf.matrix[k, n])
                else:
                    indicator = 0.0
            total += indicator
            w = abs((snap.measured_loads[n] - snap.prev_loads[n]) * ptdf.matrix[k, n])
            weighted += w * indicator
            weight_norm += w
        size = len(critical)
        mldi_ref[k] = sgn_flow * total / size if size else 0.0
        emldi_ref[k] = sgn_flow * weighted / weight_norm if weight_norm > 0 else 0.0
        hidden = snap.prev_flows[k] - snap.measured_flows[k]
        b1 = sgn_flow * (hidden + snap.prev_flows[k]) / snap.limits[k]
        b2 = sgn_flow * (hidden + snap.sced_flows[k]) / snap.limits[k]
        bori_ref[k] = max(b1, b2)
    return mldi_ref, emldi_ref, bori_ref


def test_vectorized_matches_reference(rng):
    from gridfdi.detect import bori_all

    for _ in range(50):
        prev = rng.uniform(10.0, 200.0, 6)
        prev[rng.integers(0, 6)] = 0.0     # exercise the zero-load path
        snap = make_snapshot(
            FIVE_LOADS,
            prev_flows=rng.uniform(-2, 2, 2),
            prev_loads=prev,
            measured_loads=np.abs(prev * rng.uniform(0.8, 1.2, 6)),
            measured_flows=rng.uniform(-2, 2, 2),
            sced_flows=rng.uniform(-2, 2, 2),
            limits=rng.uniform(0.5, 2.0, 2),
        )
        ref_mldi, ref_emldi, ref_bori = reference_metrics(snap)
        assert np.allclose(mldi_all(snap), ref_mldi, atol=1e-12)
        assert np.allclose(emldi_all(snap), ref_emldi, atol=1e-12)
        assert np.allclose(bori_all(snap)[2], ref_bori, atol=1e-12)


def _attack_118(case):
    """An attack on branch 118 over N(0,3%) loads that reaches Stage 2."""
    from gridfdi.harness import AttackParams, FluctuationSpec, ScenarioConfig

    return ScenarioConfig(
        case_path=str(case), mode="attack", seed=(3, 3),
        fluctuation=FluctuationSpec(0.0, 0.03),
        attack_params=AttackParams(118, 0.10, 5.0), group="x", index=0,
    )


def _fluctuation_only(case):
    from gridfdi.harness import study_118_suite

    return study_118_suite(case)[0]


def _outage_71_attack(case):
    """Target 111 over fluctuating loads with branch 71 out; its series
    branches 126 and 127 tie on the combined score."""
    from gridfdi.harness import outage_robustness_suite

    return outage_robustness_suite(case, 71)[67]


@pytest.mark.parametrize("scenario", [_attack_118, _fluctuation_only, _outage_71_attack],
                         ids=["attack-stage2", "fluctuation-only", "outage-71"])
def test_reference_oracle_on_real_snapshot(case118_path, scenario):
    from gridfdi.harness import NetworkCache, run_timeline

    snap = run_timeline(scenario(case118_path), NetworkCache()).snapshot
    ref_mldi, ref_emldi, ref_bori = reference_metrics(snap)
    assert np.allclose(mldi_all(snap), ref_mldi, atol=1e-12)
    assert np.allclose(emldi_all(snap), ref_emldi, atol=1e-12)
    assert np.allclose(bori_all(snap)[2], ref_bori, atol=1e-12)


def test_metric_ranges_random(rng):
    for _ in range(200):
        prev = rng.uniform(10.0, 200.0, 6)
        measured = prev * rng.uniform(0.7, 1.3, 6)
        flows = rng.uniform(-2.0, 2.0, 2)
        snap = make_snapshot(FIVE_LOADS, flows, prev_loads=prev,
                             measured_loads=measured,
                             measured_flows=rng.uniform(-2, 2, 2),
                             sced_flows=rng.uniform(-2, 2, 2))
        assert np.all(np.abs(mldi_all(snap)) <= 1.0 + 1e-12)
        assert np.all(np.abs(emldi_all(snap)) <= 1.0 + 1e-12)


def test_combined_alert_table():
    n, m, w, d = (AlertLevel.NORMAL, AlertLevel.MONITOR,
                  AlertLevel.WARNING, AlertLevel.DANGER)
    expected = {
        (n, n): n, (n, m): m, (n, w): m, (n, d): w,
        (m, n): m, (m, m): m, (m, w): w, (m, d): w,
        (w, n): m, (w, m): w, (w, w): w, (w, d): d,
        (d, n): w, (d, m): w, (d, w): d, (d, d): d,
    }
    for (flow, load), want in expected.items():
        assert combine_alert(flow, load) == want


def test_combined_alert_symmetric_and_monotone():
    levels = list(AlertLevel)
    for a in levels:
        for b in levels:
            assert combine_alert(a, b) == combine_alert(b, a)
            for a2 in levels:
                if a2 >= a:
                    assert combine_alert(a2, b) >= combine_alert(a, b)


def test_thresholds_are_strict():
    lo, mid, hi = INDEX_THRESHOLDS
    assert _level(lo, INDEX_THRESHOLDS) == AlertLevel.NORMAL
    assert _level(mid, INDEX_THRESHOLDS) == AlertLevel.MONITOR
    assert _level(hi, INDEX_THRESHOLDS) == AlertLevel.WARNING
    assert _level(hi + 1e-12, INDEX_THRESHOLDS) == AlertLevel.DANGER
    assert _level(BORI_THRESHOLDS[0], BORI_THRESHOLDS) == AlertLevel.NORMAL


def test_alert_monotone_in_value(rng):
    values = np.sort(rng.uniform(0.0, 2.0, 50))
    levels = [_level(v, BORI_THRESHOLDS) for v in values]
    assert all(b >= a for a, b in zip(levels, levels[1:]))


def test_vector_levels_match_scalar(rng):
    # values exactly on, and one ulp either side of, every threshold, plus
    # seeded random vectors and non-finite entries
    for thresholds in (BORI_THRESHOLDS, INDEX_THRESHOLDS):
        edges = np.array(thresholds)
        values = np.concatenate([
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            rng.uniform(-0.5, 2.0, 500), rng.normal(thresholds[1], 0.1, 500),
            [np.nan, np.inf, -np.inf],
        ])
        want = [int(_level(v, thresholds)) for v in values]
        assert _levels(values, thresholds).tolist() == want


def test_stage2_alerts_match_scalar_levels(case118_path):
    from gridfdi.harness import NetworkCache, run_timeline

    snap = run_timeline(_attack_118(case118_path), NetworkCache()).snapshot
    report = run_two_stage(snap)
    s2 = report.stage2
    assert s2 is not None
    # one load direction serves both indices
    assert np.array_equal(report.mldi, mldi_all(snap))
    assert np.array_equal(s2.emldi, emldi_all(snap))
    flow = tuple(_level(v, BORI_THRESHOLDS) for v in s2.bori)
    load = tuple(_level(v, INDEX_THRESHOLDS) for v in s2.emldi)
    assert tuple(s2.flow_alerts.tolist()) == flow
    assert tuple(s2.load_alerts.tolist()) == load
    assert tuple(s2.combined_alerts.tolist()) == tuple(map(combine_alert, flow, load))
    for alerts in (s2.flow_alerts, s2.load_alerts, s2.combined_alerts):
        assert isinstance(alerts, np.ndarray) and alerts.dtype.kind == "i"
        assert not alerts.flags.writeable
    assert AlertLevel.DANGER in s2.combined_alerts


def test_smldi_zero_and_alerts():
    value, level = smldi(np.zeros(8), np.ones(8, dtype=bool))
    assert value == 0.0
    assert level == AlertLevel.NORMAL


def test_smldi_level_matches_scalar():
    edges = np.array(INDEX_THRESHOLDS)
    for v in np.concatenate([edges, np.nextafter(edges, np.inf),
                             np.nextafter(edges, -np.inf), [0.0, 1.0]]):
        _, level = smldi(np.array([v]), np.array([True]), top_n=1)
        assert level is _level(v, INDEX_THRESHOLDS)


def test_smldi_requires_eligible():
    with pytest.raises(ConfigError):
        smldi(np.ones(4), np.zeros(4, dtype=bool))


@pytest.mark.parametrize("top_n", [0, -1])
def test_smldi_refuses_an_empty_pool(top_n):
    # an empty pool would average nothing: NaN, read as Normal
    with pytest.raises(ConfigError, match=f"top_n must be at least 1, got {top_n}"):
        smldi(np.ones(4), np.ones(4, dtype=bool), top_n)


def test_smldi_top_pool_and_ties():
    values = np.array([0.9, 0.5, 0.9, 0.1, 0.3])
    eligible = np.array([True, True, True, True, False])
    value, level = smldi(values, eligible, top_n=2)
    assert value == pytest.approx(0.9)
    assert type(level) is AlertLevel and level == AlertLevel.DANGER
    # pool larger than the eligible set: plain mean of eligible values
    value, _ = smldi(values, eligible, top_n=10)
    assert value == pytest.approx(np.mean([0.9, 0.5, 0.9, 0.1]))


def test_cai_product_and_ranking():
    cai, rank = cai_ranking(
        emldi_values=np.array([0.0, 0.5, 0.5, -0.2]),
        bori_values=np.array([5.0, 1.2, 1.2, 1.5]),
        ordinals=np.array([1, 2, 3, 4]),
    )
    assert cai[0] == 0.0
    assert np.array_equal(rank, [3, 1, 2, 4])  # tie broken by lower ordinal
    # series branches: equal in exact arithmetic, apart by roundoff; a run of
    # near-equal scores ranks by ordinal, and the scores stay as computed
    emldi = np.array([0.6, 0.5, 0.5 + 3e-16, 0.5 + 6e-16, 0.5 - 2e-6])
    cai, rank = cai_ranking(emldi, np.ones(5), ordinals=np.array([9, 2, 3, 4, 1]))
    assert np.array_equal(cai, emldi)
    assert np.array_equal(rank, [1, 2, 3, 4, 5])
    # a gap above the tolerance still ranks by score
    assert 2e-6 > CAI_TIE_TOL


def test_two_stage_gating_quiet():
    snap = make_snapshot(FIVE_LOADS, [0.5, 0.5])
    report = run_two_stage(snap)
    assert report.stage1_alert == AlertLevel.NORMAL
    assert not report.under_attack
    assert report.stage2 is None


def test_two_stage_full_run():
    ptdf = toy_ptdf(
        [[0.5, 0.4, 0.3, 0.2, 0.1, 0.0],
         [-0.5, -0.4, -0.3, -0.2, -0.1, 0.0]],
        load_buses=[0, 1, 2, 3, 4],
    )
    prev = np.full(6, 100.0)
    measured = prev.copy()
    measured[:5] *= 1.10           # all five critical loads up 10%
    snap = make_snapshot(
        ptdf,
        prev_flows=[1.0, -1.0],
        measured_flows=[0.8, -1.0],
        sced_flows=[1.0, -1.0],
        prev_loads=prev,
        measured_loads=measured,
    )
    report = run_two_stage(snap)
    assert report.under_attack
    s2 = report.stage2
    assert s2 is not None
    # branch 1: loads conspire to shrink a shrunken flow -> prime suspect
    assert s2.cai_rank[0] == 1
    assert any(s.ordinal == 1 for s in s2.suspects)
    assert all(s.cai > 0 or s.alert == AlertLevel.DANGER for s in s2.suspects)


def test_snapshot_shape_validation():
    with pytest.raises(ValueError):
        make_snapshot(FIVE_LOADS, prev_flows=[0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        make_snapshot(FIVE_LOADS, prev_flows=[0.5, 0.5], limits=[1.0, 0.0])


@pytest.mark.parametrize("field", ["prev_flows", "measured_flows", "sced_flows",
                                   "limits", "prev_loads", "measured_loads"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_snapshot_rejects_non_finite(field, bad):
    m, n = FIVE_LOADS.matrix.shape
    values = {
        "prev_flows": [0.5, 0.5], "measured_flows": [0.5, 0.5],
        "sced_flows": [0.5, 0.5], "limits": [1.0, 1.0],
        "prev_loads": np.full(n, 100.0), "measured_loads": np.full(n, 100.0),
    }
    values[field] = np.array(values[field], dtype=float)
    values[field][0] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        make_snapshot(FIVE_LOADS, **values)


def test_critical_mask_matches_sets(net118, ptdf118):
    # per branch, the load buses whose |PTDF| reaches the threshold
    load_buses = np.flatnonzero(net118.load_mw > 0).tolist()
    for k, row in enumerate(ptdf118.matrix):
        want = [n for n in load_buses if abs(row[n]) >= CRITICAL_PTDF]
        assert np.flatnonzero(ptdf118.critical_mask[k]).tolist() == want
    # the derived sizes and eligibility are stored, not rebuilt per call
    assert ptdf118.critical_sizes is ptdf118.critical_sizes
    assert ptdf118.eligible is ptdf118.eligible
    assert ptdf118.critical_sizes.tolist() == ptdf118.critical_mask.sum(axis=1).tolist()
