import numpy as np
import pytest

from gridfdi import attack
from gridfdi.attack import (
    ANCHOR_BUDGET,
    ANCHOR_SHIFT,
    AttackSpec,
    ContractError,
    apply_attack,
    audit_attack,
    build_attack_lp,
    solve_attack,
)
from gridfdi.cases import IslandError, load_case, parse_matpower, validate_case
from gridfdi.estimation import build_measurements, wls_estimate
from gridfdi.harness import NetworkCache, run_scenario, study_118_suite
from gridfdi.powerflow import solve_dc
from gridfdi import lp, sced

from oracles import (attack_lp_rows, enumerate_vertices, linprog_reference,
                     stacked_attack_rows)
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
    se_clean = wls_estimate(clean, net118)
    se_tampered = wls_estimate(apply_attack(clean, result), net118)
    assert abs(se_tampered.weighted_residual_norm
               - se_clean.weighted_residual_norm) < 1e-8
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
    with pytest.raises(ContractError, match="^base_loads length does not match bus count$"):
        AttackSpec(1, 0.1, 1.0, flows, loads[:2]).validate(net3)
    with pytest.raises(ValueError, match="bus 3 has base load -10 MW"):
        AttackSpec(1, 0.1, 1.0, flows, np.array([0.0, 90.0, -10.0])).validate(net3)


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
    # variables: c+ and c- per bus (the flow deltas are substituted out),
    # both nonnegative and fixed to zero at the reference bus
    assert problem.n_var == 3 + 3
    assert np.all(problem.lower == 0.0)
    for ref in (net3.reference_bus, 3 + net3.reference_bus):
        assert problem.upper[ref] == 0.0
    assert np.sum(np.isinf(problem.upper)) == 4
    # one row per bus, then the budget: the load shift within +-L_S * d0 at
    # the load buses, none at the no-load bus, and sum(s) at most the budget
    bound = 0.5 * loads / net3.base_mva
    assert bound[0] == 0.0 and np.all(bound[1:] > 0.0)
    assert np.array_equal(problem.row_lower, np.append(-bound, -np.inf))
    assert np.array_equal(problem.row_upper, np.append(bound, 10.0))
    # c- enters every row with the opposite sign of c+, except the budget
    a = problem.a.toarray()
    assert np.array_equal(a[:-1, 3:], -a[:-1, :3])
    assert np.array_equal(a[-1], np.ones(6))


@pytest.mark.parametrize("outages", [(), (71,)])
def test_attack_rows_equal_the_stacked_build(case118_path, outages):
    # one dense-to-CSR conversion: the very arrays of the block-by-block build
    net = load_case(case118_path, outages)
    rows, stacked = attack._attack_rows(net), stacked_attack_rows(net)
    assert rows.shape == stacked.shape and rows.has_canonical_format
    for name in ("indptr", "indices", "data"):
        got, want = getattr(rows, name), getattr(stacked, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_cold_contingency_lps_match_linprog(case118_path, monkeypatch):
    # a fresh outage network solves two LPs cold, with presolve off: its base
    # dispatch, in lazy rounds, and its anchor attack.  Each reaches the
    # optimum linprog finds with presolve on over every row.
    solved = []

    def spy(problem, start=None):
        assert start is None or start._statuses is None
        sol = solve(problem, start)
        solved.append((problem, sol))
        return sol

    solve = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", spy)
    with open(case118_path) as fh:
        raw = parse_matpower(fh.read())
    networks = 0
    for k in range(1, len(raw.branch_rows) + 1):
        try:
            net = validate_case(raw, (k,))
        except IslandError:
            continue
        flows = sced.base_dispatch(net).scheduled_flows
        anchor = AttackSpec(111 if k == 118 else 118, ANCHOR_SHIFT, ANCHOR_BUDGET,
                            flows, net.load_mw)
        attack._start(net, anchor)
        networks += 1
    monkeypatch.undo()
    assert len(solved) == 2 * networks
    for problem, sol in solved:
        assert sol.status == lp.OPTIMAL
        _, objective = linprog_reference(problem)
        assert (abs(sol.objective_value - objective)
                <= lp.FEASIBILITY_TOL * max(1.0, abs(objective)))


def test_starts_per_attack_resume_from_the_anchor(case118_path, monkeypatch):
    # a network of its own, so that it keeps no start yet
    net = load_case(case118_path)
    loads, _, flows = _state_118(net)
    sign = float(np.sign(flows[net.branch_position(118)]))
    solved = []
    solve = lp.solve_lp

    def spy(problem, start=None):
        sol = solve(problem, start)
        solved.append((start, sol))
        return sol

    def run(shift, budget, loads):
        """Solve one attack; returns the starts it added and its solves."""
        before = set(net.operators.get("attack_starts", ()))
        solved.clear()
        solve_attack(net, AttackSpec(118, shift, budget, flows, loads))
        starts = net.operators["attack_starts"]
        return {key: starts[key] for key in set(starts) - before}, list(solved)

    monkeypatch.setattr(lp, "solve_lp", spy)
    # the anchor: one start LP, solved cold, and the attack on the case
    # loads resumes from its optimum with no pivot
    added, [(cold, anchor), (start, sol)] = run(ANCHOR_SHIFT, ANCHOR_BUDGET, loads)
    assert added == {(118, sign, ANCHOR_SHIFT, ANCHOR_BUDGET): anchor.basis}
    assert cold is None and anchor.iterations > 0
    assert start is anchor.basis and sol.iterations == 0
    # another shift and budget: its own start, solved from the anchor
    added, [(warm, own), (start, sol)] = run(0.05, 2.0, loads)
    assert added == {(118, sign, 0.05, 2.0): own.basis}
    assert warm is anchor.basis and 0 < own.iterations < anchor.iterations
    assert start is own.basis and sol.iterations == 0
    # the same attack on other loads adds nothing and resumes from its own
    added, [(start, sol)] = run(0.05, 2.0, loads * 1.02)
    assert added == {} and start is own.basis
    assert sol.iterations < own.iterations


def test_a_basis_answer_cannot_write_to_the_stored_start(case118_path, monkeypatch):
    # a basis answer returns the network's stored start itself as its basis;
    # a write through it would leave every later solve of that attack a
    # start whose marginals no longer certify
    config = study_118_suite(case118_path)[80]
    assert config.mode == "attack"
    cache = NetworkCache()
    answers = []
    solve = lp.solve_lp

    def spy(problem, start=None):
        sol = solve(problem, start)
        answers.append(sol)
        return sol

    monkeypatch.setattr(lp, "solve_lp", spy)
    assert run_scenario(config, cache).error is None
    starts = cache.get(case118_path, config.outages)[0].operators["attack_starts"]
    [basis] = [sol.basis for sol in answers if sol.rounds == 0
               and any(sol.basis is start for start in starts.values())]
    for array in (basis.working, basis.fixed, basis.dual.c, basis.dual.y, basis.dual.z):
        with pytest.raises(ValueError, match="read-only"):
            array[:] = 0
    # the next solve of that attack still certifies
    assert run_scenario(config, cache).error is None


def test_start_store_keeps_at_most_its_cap(case118_path, monkeypatch):
    # the study grid asks one network for 80 starts, which must all stay
    assert attack.START_CAP >= 80
    # more distinct budgets than a small cap, each asked for twice in a
    # shuffled order: an evicted start is solved again, to the same basis, so
    # each answer equals the same attack solved alone on a network of its own
    monkeypatch.setattr(attack, "START_CAP", 4)
    net = load_case(case118_path)
    loads, _, flows = _state_118(net)
    loads = loads * (1 + np.random.default_rng(3).normal(0, 0.03, net.n_bus))
    budgets = np.random.default_rng(4).permutation(np.tile(np.arange(1.0, 9.0), 2))
    for budget in budgets:
        spec = AttackSpec(118, 0.15, float(budget), flows, loads)
        shared = solve_attack(net, spec)
        assert len(net.operators["attack_starts"]) <= 4
        alone = solve_attack(load_case(case118_path), spec)
        assert np.array_equal(shared.c, alone.c)
        assert shared.objective == alone.objective


@pytest.mark.parametrize("target", [118, 111])
def test_budget_dual_prices_each_step_of_the_budget(net118, target):
    # the attack's best objective is concave in its l1 budget, and the
    # budget row's marginal a slope of it: on the case loads, solved cold,
    # that marginal never rises with the budget, and each 1-rad step of
    # the objective lies between the marginals at its two ends
    from gridfdi.sced import base_dispatch

    flows = base_dispatch(net118).scheduled_flows
    for shift in (0.05, 0.10, 0.15, 0.20):
        objective, price = [], []
        for budget in range(1, 11):
            spec = AttackSpec(target, shift, float(budget), flows, net118.load_mw)
            sol = lp.solve_lp(build_attack_lp(net118, spec))
            assert sol.status == lp.OPTIMAL
            objective.append(sol.objective_value)
            price.append(-sol.basis.dual.y[-1])
        tol = lp.FEASIBILITY_TOL
        assert min(price) >= -tol
        assert all(later <= earlier + tol for earlier, later in zip(price, price[1:]))
        for k, step in enumerate(np.diff(objective)):
            assert price[k + 1] - tol <= step <= price[k] + tol, (shift, k + 1)
