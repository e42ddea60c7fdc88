"""Invariance tests: what must not move when the case is restated.

Choosing another reference bus changes only the PTDF's withdrawal point,
not physical flows or the dispatch; the attacker's reference-angle pin does
move with it.  Scaling baseMVA and every reactance by the same factor leaves
angles and every MW quantity where they were and scales p.u. flows down.
Shuffling the bus and branch rows of the file only relabels: every result
is the old one, permuted.
"""

import dataclasses

import numpy as np
import pytest

from gridfdi import harness
from gridfdi.attack import AttackSpec, solve_attack
from gridfdi.cases import parse_matpower, validate_case
from gridfdi.detect import Snapshot, run_two_stage
from gridfdi.harness import (
    ATTACK_FLUCTUATION,
    AttackParams,
    NetworkCache,
    ScenarioConfig,
    run_timeline,
)
from gridfdi.powerflow import compute_ptdf, solve_dc
from gridfdi.sced import base_dispatch

_BUS_TYPE, _BR_X = 1, 3     # MATPOWER columns
K = 10.0                    # unit scale factor


@pytest.fixture(scope="module")
def raw118(case118_path):
    with open(case118_path) as fh:
        return parse_matpower(fh.read())


def _retyped(raw, types: dict):
    """Copy of ``raw`` with the given bus ids re-typed."""
    rows = [list(row) for row in raw.bus_rows]
    for row in rows:
        row[_BUS_TYPE] = types.get(int(row[0]), row[_BUS_TYPE])
    return dataclasses.replace(raw, bus_rows=rows)


def _scaled(raw, k):
    """Copy of ``raw`` with baseMVA and every reactance scaled by ``k``."""
    rows = [list(row) for row in raw.branch_rows]
    for row in rows:
        row[_BR_X] *= k
    return dataclasses.replace(raw, base_mva=raw.base_mva * k, branch_rows=rows)


def _attack(net, target=118, shift=0.10, budget=5.0):
    dispatch = base_dispatch(net)
    spec = AttackSpec(target_branch=target, load_shift_factor=shift,
                      l1_limit=budget, base_flows=dispatch.scheduled_flows,
                      base_loads=net.load_mw)
    return solve_attack(net, spec)


def _objective(net, target=118, shift=0.10, budget=5.0):
    return _attack(net, target, shift, budget).objective


@pytest.fixture(scope="module")
def moved(raw118):
    """case118 with the reference moved from bus 69 to bus 89."""
    return validate_case(_retyped(raw118, {69: 2, 89: 3}))


def test_reference_bus_moved(net118, moved):
    assert net118.buses[net118.reference_bus].external_id == 69
    assert moved.buses[moved.reference_bus].external_id == 89


def test_ptdf_shifts_by_the_new_reference_column(net118, ptdf118, moved):
    p = ptdf118.matrix
    r = moved.reference_bus
    shifted = p - p[:, [r]]
    assert np.allclose(compute_ptdf(moved).matrix, shifted, rtol=0, atol=1e-12)


def test_dc_flows_do_not_depend_on_the_reference(net118, moved):
    rng = np.random.default_rng(69_89)
    for _ in range(5):
        inj = rng.normal(size=net118.n_bus)
        inj -= inj.mean()
        assert np.allclose(solve_dc(moved, inj).flows, solve_dc(net118, inj).flows,
                           rtol=0, atol=1e-12)


def test_base_dispatch_does_not_depend_on_the_reference(net118, moved):
    a, b = base_dispatch(net118), base_dispatch(moved)
    assert np.allclose(b.scheduled_flows, a.scheduled_flows, rtol=0, atol=1e-11)
    assert np.allclose(b.gen_output, a.gen_output, rtol=0, atol=1e-9)


def test_attack_objective_moves_with_the_reference(net118, moved):
    # the attacker may not bias the reference angle, so moving the
    # reference changes which angle shifts the budget can buy
    assert abs(_objective(moved) - _objective(net118)) > 1e-6


def _timeline(monkeypatch, net):
    """Attack timeline on ``net`` (target 118, 0.10, budget 5, fluctuating
    first interval, noiseless telemetry)."""
    monkeypatch.setattr(harness, "load_case", lambda path, outages: net)
    config = ScenarioConfig(
        case_path="case", mode="attack", seed=(2018, 200),
        fluctuation=ATTACK_FLUCTUATION,
        attack_params=AttackParams(118, 0.10, 5.0),
    )
    return run_timeline(config, NetworkCache())


def test_units_scale_only_per_unit_quantities(monkeypatch, net118, raw118):
    scaled = validate_case(_scaled(raw118, K))
    base = _timeline(monkeypatch, net118)
    other = _timeline(monkeypatch, scaled)
    assert base.target_overload_mw > 0      # the attack does bite

    # MW stays MW
    for name in ("dispatch_prev", "dispatch_next"):
        assert np.allclose(getattr(other, name).gen_output,
                           getattr(base, name).gen_output, rtol=0, atol=1e-9)
    assert np.allclose(other.violations_mw, base.violations_mw, rtol=0, atol=1e-9)
    assert np.allclose(other.dispatch_next.violations_mw,
                       base.dispatch_next.violations_mw, rtol=0, atol=1e-9)
    assert np.allclose(other.attack.delta_d, base.attack.delta_d, rtol=0, atol=1e-9)
    # p.u. shrinks by 1/k
    assert np.allclose(K * other.true_flows_t0, base.true_flows_t0, rtol=0, atol=1e-12)
    assert np.allclose(K * other.true_flows_next, base.true_flows_next,
                       rtol=0, atol=1e-12)
    assert K * other.attack.objective == pytest.approx(base.attack.objective,
                                                       rel=1e-12)
    assert K * _objective(scaled) == pytest.approx(_objective(net118), rel=1e-12)


@pytest.fixture(scope="module")
def relabelled(raw118):
    """case118 with its bus and branch rows shuffled, and the permutations:
    new bus j is old bus ``bus_perm[j]``, new branch row i old row
    ``branch_perm[i]``."""
    rng = np.random.default_rng(118_186)
    bus_perm = rng.permutation(len(raw118.bus_rows))
    branch_perm = rng.permutation(len(raw118.branch_rows))
    raw = dataclasses.replace(raw118,
                              bus_rows=[raw118.bus_rows[i] for i in bus_perm],
                              branch_rows=[raw118.branch_rows[i] for i in branch_perm])
    return validate_case(raw), bus_perm, branch_perm


def _new_ordinal(branch_perm):
    """Old 1-based branch ordinal -> its ordinal after the shuffle."""
    return {int(old) + 1: new + 1 for new, old in enumerate(branch_perm)}


def test_relabelling_permutes_the_ptdf(net118, ptdf118, relabelled):
    net, bus_perm, branch_perm = relabelled
    assert (net.buses[net.reference_bus].external_id
            == net118.buses[net118.reference_bus].external_id)
    assert np.allclose(compute_ptdf(net).matrix, ptdf118.matrix[branch_perm][:, bus_perm],
                       rtol=0, atol=1e-12)


def test_relabelling_keeps_the_base_dispatch(net118, relabelled):
    net, _, branch_perm = relabelled
    a, b = base_dispatch(net118), base_dispatch(net)
    assert b.total_cost == pytest.approx(a.total_cost, rel=1e-12)
    assert np.allclose(b.scheduled_flows, a.scheduled_flows[branch_perm],
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("target", [118, 111])
def test_relabelling_keeps_the_attack(net118, relabelled, target):
    net, bus_perm, branch_perm = relabelled
    a, b = _attack(net118, target), _attack(net, _new_ordinal(branch_perm)[target])
    assert b.objective == pytest.approx(a.objective, rel=1e-12)
    assert np.allclose(b.delta_d, a.delta_d[bus_perm], rtol=0, atol=1e-9)


def test_relabelling_keeps_the_detector_report(monkeypatch, net118, relabelled):
    net, bus_perm, branch_perm = relabelled
    snap = _timeline(monkeypatch, net118).snapshot
    moved = Snapshot(
        prev_flows=snap.prev_flows[branch_perm],
        prev_loads=snap.prev_loads[bus_perm],
        measured_flows=snap.measured_flows[branch_perm],
        measured_loads=snap.measured_loads[bus_perm],
        sced_flows=snap.sced_flows[branch_perm],
        limits=net.limits_pu,
        ptdf=compute_ptdf(net),
        branch_ordinals=np.array([b.ordinal for b in net.in_service_branches]),
    )
    a, b = run_two_stage(snap), run_two_stage(moved)
    assert a.under_attack
    assert b.smldi == pytest.approx(a.smldi, rel=1e-12)
    assert b.stage1_alert == a.stage1_alert
    assert np.allclose(b.mldi, a.mldi[branch_perm], rtol=0, atol=1e-12)
    assert np.allclose(b.stage2.cai, a.stage2.cai[branch_perm], rtol=0, atol=1e-12)
    new_ordinal = _new_ordinal(branch_perm)
    assert ({s.ordinal for s in b.stage2.suspects}
            == {new_ordinal[s.ordinal] for s in a.stage2.suspects})
