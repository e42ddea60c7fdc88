import numpy as np
import pytest

from gridfdi.attack import (
    AttackSpec,
    ContractError,
    apply_attack,
    audit_attack,
    build_attack_lp,
    check_unobservability,
    solve_attack,
)
from gridfdi.cases import parse_matpower, validate_case
from gridfdi.estimation import build_measurements, wls_estimate
from gridfdi.powerflow import solve_dc
from gridfdi import lp

from oracles import attack_lp_rows, enumerate_vertices
from test_cases import TRIANGLE


def _base_state(net):
    loads = net.load_mw
    gen = np.zeros(net.n_bus)
    gen[net.generators[0].bus] = loads.sum()
    inj = (gen - loads) / net.base_mva
    flows = solve_dc(net, inj).flows
    return loads, gen, flows


def _state_118(net118):
    from gridfdi.sced import run_sced

    dispatch = run_sced(net118, net118.load_mw)
    gen = np.zeros(net118.n_bus)
    for g, mw in zip(net118.generators, dispatch.gen_output):
        gen[g.bus] += mw
    return net118.load_mw, gen, dispatch.scheduled_flows


def test_zero_budget_zero_attack(net3):
    loads, _, flows = _base_state(net3)
    result = solve_attack(net3, AttackSpec(1, 0.5, 0.0, flows, loads))
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(result.c, 0.0, atol=1e-9)
    assert np.allclose(result.delta_d, 0.0, atol=1e-7)


def test_zero_load_shift_zero_objective(net3):
    loads, _, flows = _base_state(net3)
    result = solve_attack(net3, AttackSpec(1, 0.0, 10.0, flows, loads))
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(result.delta_p, 0.0, atol=1e-8)


def test_triangle_hand_optimum(net3):
    # с pinned at the reference and zero divergence there force c2 = -c3;
    # the binding constraint is the 30 MW load's 50% shift: t = 0.005 rad,
    # flow deviation on branch 1 = 10t = 0.05 p.u.
    loads, _, flows = _base_state(net3)
    result = solve_attack(net3, AttackSpec(1, 0.5, 10.0, flows, loads))
    assert result.objective == pytest.approx(0.05, abs=1e-8)


def test_matches_vertex_enumeration(net3):
    loads, _, flows = _base_state(net3)
    spec = AttackSpec(1, 0.5, 10.0, flows, loads)
    problem = build_attack_lp(net3, spec)
    _, best = enumerate_vertices(problem)
    result = solve_attack(net3, spec)
    assert result.objective == pytest.approx(best, abs=1e-6)


def test_engines_agree_on_attack_lp(net3):
    loads, _, flows = _base_state(net3)
    spec = AttackSpec(1, 0.5, 10.0, flows, loads)
    via_simplex = solve_attack(net3, spec, engine="simplex")
    via_highs = solve_attack(net3, spec, engine="highs")
    assert via_simplex.objective == pytest.approx(via_highs.objective, abs=1e-8)


def test_matches_vertex_enumeration_tight_budget(net3):
    loads, _, flows = _base_state(net3)
    spec = AttackSpec(2, 0.3, 0.004, flows, loads)
    problem = build_attack_lp(net3, spec)
    _, best = enumerate_vertices(problem)
    result = solve_attack(net3, spec)
    assert result.objective == pytest.approx(best, abs=1e-6)


def test_sign_convention_flipped_branch():
    flipped = TRIANGLE.replace(
        "\t1\t2\t0.01\t0.1\t0\t100\t0\t0\t0\t0\t1\t-360\t360;",
        "\t2\t1\t0.01\t0.1\t0\t100\t0\t0\t0\t0\t1\t-360\t360;",
    )
    net = validate_case(parse_matpower(flipped))
    loads, _, flows = _base_state(net)
    assert flows[0] < 0  # same physics, reversed orientation
    result = solve_attack(net, AttackSpec(1, 0.5, 10.0, flows, loads))
    assert result.objective == pytest.approx(0.05, abs=1e-8)
    assert result.delta_p[0] == pytest.approx(-0.05, abs=1e-8)


def test_audit_passes_and_catches_tampering(net3):
    loads, _, flows = _base_state(net3)
    spec = AttackSpec(1, 0.5, 10.0, flows, loads)
    result = solve_attack(net3, spec)
    audit_attack(net3, spec, result)

    from dataclasses import replace
    from gridfdi.attack import AuditError

    broken = replace(result, delta_p=result.delta_p + 1e-3)
    with pytest.raises(AuditError):
        audit_attack(net3, spec, broken)


def test_small_shift_saturates_budget(net118):
    # at a 5% load shift the shift bound binds first: the objective stops
    # growing once the angle budget passes 6
    loads, gen, flows = _state_118(net118)
    at6 = solve_attack(net118, AttackSpec(111, 0.05, 6.0, flows, loads)).objective
    at10 = solve_attack(net118, AttackSpec(111, 0.05, 10.0, flows, loads)).objective
    assert at10 == pytest.approx(at6, rel=1e-6)


def test_objective_monotone_in_budget_and_shift(net118, ptdf118):
    loads, gen, flows = _state_118(net118)
    prev = -1.0
    for n1 in (0.5, 1.0, 2.0, 4.0):
        obj = solve_attack(net118, AttackSpec(118, 0.10, n1, flows, loads)).objective
        assert obj >= prev - 1e-7
        prev = obj
    prev = -1.0
    for ls in (0.05, 0.10, 0.15):
        obj = solve_attack(net118, AttackSpec(118, ls, 3.0, flows, loads)).objective
        assert obj >= prev - 1e-7
        prev = obj


def test_apply_attack_identity_for_zero(net3):
    loads, gen, flows = _base_state(net3)
    clean = build_measurements(net3, flows, loads, gen)
    zero = solve_attack(net3, AttackSpec(1, 0.5, 0.0, flows, loads))
    out = apply_attack(clean, zero)
    assert np.allclose(out.values, clean.values, atol=1e-9)


def test_unobservable_and_state_shift(net118):
    loads, gen, flows = _state_118(net118)
    clean = build_measurements(net118, flows, loads, gen)
    result = solve_attack(net118, AttackSpec(118, 0.10, 5.0, flows, loads))
    assert check_unobservability(net118, result, clean) < 1e-8

    tampered = apply_attack(clean, result)
    se_clean = wls_estimate(clean, net118)
    se_tampered = wls_estimate(tampered, net118)
    # estimated state shifts by exactly the angle bias, residuals untouched
    assert np.allclose(
        se_tampered.angles, se_clean.angles + result.c, atol=1e-7
    )
    assert np.allclose(
        se_tampered.residuals, se_clean.residuals, atol=1e-8
    )
    assert not se_tampered.bad_data


def test_total_load_preserved(net118):
    loads, gen, flows = _state_118(net118)
    result = solve_attack(net118, AttackSpec(111, 0.15, 5.0, flows, loads))
    assert result.delta_d.sum() == pytest.approx(0.0, abs=1e-6)
    assert result.tampered_loads.sum() == pytest.approx(loads.sum(), abs=1e-6)
    # load-shift bound honored everywhere
    assert np.all(np.abs(result.delta_d) <= 0.15 * loads + 1e-5)


def test_inconsistent_corruption_is_visible(net118):
    loads, gen, flows = _state_118(net118)
    clean = build_measurements(net118, flows, loads, gen)
    values = clean.values.copy()
    values[len(net118.in_service_branches) + 10] += 0.5  # one injection, raw
    se_clean = wls_estimate(clean, net118)
    se_bad = wls_estimate(clean.with_values(values), net118)
    delta = abs(
        se_bad.weighted_residual_norm - se_clean.weighted_residual_norm
    )
    assert delta > 1e-4


def test_contract_mismatch(net3, net118):
    loads, gen, flows = _base_state(net3)
    clean = build_measurements(net3, flows, loads, gen)
    loads118, gen118, flows118 = _state_118(net118)
    result = solve_attack(net118, AttackSpec(118, 0.10, 2.0, flows118, loads118))
    with pytest.raises(ContractError):
        apply_attack(clean, result)


def test_spec_validation(net3):
    loads, _, flows = _base_state(net3)
    with pytest.raises(ValueError):
        AttackSpec(1, 1.5, 1.0, flows, loads).validate(net3)
    with pytest.raises(ValueError):
        AttackSpec(1, 0.1, -1.0, flows, loads).validate(net3)
    with pytest.raises(ContractError):
        AttackSpec(1, 0.1, 1.0, flows[:2], loads).validate(net3)


def test_zero_base_flow_target_rejected(net3):
    # With zero base flow the objective sign is 0 and the attack would be a
    # silent no-op; the spec must refuse it instead.
    loads, _, flows = _base_state(net3)
    flows = flows.copy()
    flows[0] = 0.0
    with pytest.raises(ValueError, match="zero base flow"):
        solve_attack(net3, AttackSpec(1, 0.5, 10.0, flows, loads))


@pytest.mark.parametrize("target", [118, 111])
def test_objective_matches_row_oracle_118(net118, target):
    loads, _, flows = _state_118(net118)
    for shift in (0.05, 0.20):
        for budget in (1.0, 5.0, 10.0):
            spec = AttackSpec(target, shift, budget, flows, loads)
            oracle = lp.solve_lp(attack_lp_rows(net118, spec))
            assert oracle.status == lp.OPTIMAL
            result = solve_attack(net118, spec)
            assert result.objective == pytest.approx(oracle.objective_value,
                                                     abs=1e-9)


def test_lp_structure(net3):
    loads, _, flows = _base_state(net3)
    problem = build_attack_lp(net3, AttackSpec(1, 0.5, 10.0, flows, loads))
    # variables: c per bus, s per bus (the flow deltas are substituted out)
    assert problem.n_var == 3 + 3
    assert problem.lower[net3.reference_bus] == 0.0
    assert problem.upper[net3.reference_bus] == 0.0
    a_ub, _, a_eq, _ = problem.matrix_form()
    assert a_eq.shape[0] == 1                 # the no-load bus
    assert a_ub.shape[0] == 2 * 2 + 2 * 3 + 1  # load-bus pairs, |c| pairs, budget
