import dataclasses

import numpy as np
import pytest

from gridfdi import lp, sced
from gridfdi.cases import parse_matpower, validate_case
from gridfdi.sced import VIOLATION_PENALTY, DispatchError, base_dispatch, run_sced

from oracles import dispatch_lp_rows

TWO_GEN = """\
function mpc = case2g
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t138\t1\t1.06\t0.94;
\t2\t2\t120\t0\t0\t0\t1\t1\t0\t138\t1\t1.06\t0.94;
];
mpc.gen = [
\t1\t0\t0\t100\t-100\t1\t100\t1\t200\t0;
\t2\t0\t0\t100\t-100\t1\t100\t1\t200\t0;
];
mpc.branch = [
\t1\t2\t0.01\t0.1\t0\t{rate}\t0\t0\t0\t0\t1\t-360\t360;
];
mpc.gencost = [
\t2\t0\t0\t3\t0\t10\t0;
\t2\t0\t0\t3\t0\t30\t0;
];
"""


def _two_gen(rate=500):
    return validate_case(parse_matpower(TWO_GEN.format(rate=rate)))


def test_single_generator_serves_all(net3):
    dispatch = run_sced(net3, net3.load_mw)
    assert dispatch.gen_output[0] == pytest.approx(80.0, abs=1e-6)
    assert dispatch.total_cost == pytest.approx(80.0 * 25.0, rel=1e-9)


def test_merit_order_unconstrained():
    net = _two_gen()
    dispatch = run_sced(net, net.load_mw)
    # cheap unit at bus 1 covers everything
    assert dispatch.gen_output[0] == pytest.approx(120.0, abs=1e-6)
    assert dispatch.gen_output[1] == pytest.approx(0.0, abs=1e-6)
    assert dispatch.total_cost == pytest.approx(1200.0, rel=1e-9)


def test_congestion_forces_expensive_unit():
    net = _two_gen(rate=50)
    dispatch = run_sced(net, net.load_mw)
    # the 50 MW tie caps cheap imports; the rest is served locally
    assert dispatch.gen_output[0] == pytest.approx(50.0, abs=1e-5)
    assert dispatch.gen_output[1] == pytest.approx(70.0, abs=1e-5)
    assert dispatch.binding_branches == (1,)
    assert abs(dispatch.scheduled_flows[0]) <= 0.5 + 1e-6


def test_power_balance(net118):
    dispatch = run_sced(net118, net118.load_mw)
    assert dispatch.gen_output.sum() == pytest.approx(
        net118.load_mw.sum(), abs=1e-6 * net118.base_mva
    )


def test_limits_respected_118(net118):
    dispatch = run_sced(net118, net118.load_mw)
    limits = net118.limits_pu
    assert np.all(np.abs(dispatch.scheduled_flows) <= limits + 1e-6)
    assert 111 in dispatch.binding_branches
    assert 118 in dispatch.binding_branches


def test_softening_limits_never_costs_more(net118):
    # the soft LP's feasible set contains the hard one's (v = 0)
    hard = run_sced(net118, net118.load_mw)
    soft = run_sced(net118, net118.load_mw, soft_limits=True)
    assert soft.total_cost <= hard.total_cost + 1e-6


def test_infeasible_reports_binding_set():
    net = _two_gen(rate=50)
    # bus-2 unit too small to cover the shortfall behind the 50 MW tie
    raw = parse_matpower(TWO_GEN.format(rate=50).replace(
        "\t2\t0\t0\t100\t-100\t1\t100\t1\t200\t0;",
        "\t2\t0\t0\t100\t-100\t1\t100\t1\t30\t0;",
    ))
    net = validate_case(raw)
    with pytest.raises(DispatchError) as err:
        run_sced(net, net.load_mw)
    assert 1 in err.value.binding


def test_soft_limits_absorb_infeasibility():
    raw = parse_matpower(TWO_GEN.format(rate=50).replace(
        "\t2\t0\t0\t100\t-100\t1\t100\t1\t200\t0;",
        "\t2\t0\t0\t100\t-100\t1\t100\t1\t30\t0;",
    ))
    net = validate_case(raw)
    dispatch = run_sced(net, net.load_mw, soft_limits=True)
    # 90 MW must cross the 50 MW tie: violation shows up in the schedule
    assert abs(dispatch.scheduled_flows[0]) == pytest.approx(0.9, abs=1e-6)
    assert 1 in dispatch.binding_branches


def test_soft_limit_violations_reported():
    # over-tight tie: 90 MW must cross a 50 MW limit
    raw = parse_matpower(TWO_GEN.format(rate=50).replace(
        "\t2\t0\t0\t100\t-100\t1\t100\t1\t200\t0;",
        "\t2\t0\t0\t100\t-100\t1\t100\t1\t30\t0;",
    ))
    net = validate_case(raw)
    dispatch = run_sced(net, net.load_mw, soft_limits=True)
    over = (np.abs(dispatch.scheduled_flows) - net.limits_pu) * net.base_mva
    assert over[0] == pytest.approx(40.0, abs=1e-6)
    assert dispatch.violations_mw == pytest.approx(over, abs=1e-6)


def test_violations_zero_unless_soft(net118):
    net = _two_gen(rate=50)
    dispatch = run_sced(net, net.load_mw)
    assert np.array_equal(dispatch.violations_mw, np.zeros(1))
    # servable within ratings: the elastic variables stay at zero
    soft = run_sced(net118, net118.load_mw, soft_limits=True)
    assert soft.violations_mw.shape == net118.branch_ordinals.shape
    assert np.all(np.abs(soft.violations_mw) <= 1e-6)


@pytest.mark.parametrize("scale", [1.0, 0.9, 1.1])
@pytest.mark.parametrize("soft", [False, True])
def test_cost_matches_row_oracle_118(net118, ptdf118, scale, soft):
    loads = net118.load_mw * scale
    dispatch = run_sced(net118, loads, soft_limits=soft)
    problem, _, _ = dispatch_lp_rows(
        net118, ptdf118, loads / net118.base_mva,
        soft_penalty=VIOLATION_PENALTY if soft else None,
    )
    oracle = lp.solve_lp(problem)
    assert oracle.status == lp.OPTIMAL
    assert dispatch.total_cost == pytest.approx(oracle.objective_value, abs=1e-9)


def test_one_row_per_branch_and_overloads_both_ways_118(net118, ptdf118):
    # one two-sided row per in-service branch plus the balance row, over
    # [p, v+, v-]
    m, ng = ptdf118.n_branches, len(net118.generators)
    problem = sced._dispatch_lp(net118, net118.load_mw / net118.base_mva, True)
    assert problem.a.shape == (m + 1, ng + 2 * m)
    assert problem.row_lower.shape == problem.row_upper.shape == (m + 1,)
    # 1.25x the case loads overload branch 111 with its flow and branch 118
    # against it; the pair-form LP built row by row prices both the same
    loads = net118.load_mw * 1.25
    soft = run_sced(net118, loads, soft_limits=True)
    forward, backward = net118.branch_position(111), net118.branch_position(118)
    assert soft.scheduled_flows[forward] > net118.limits_pu[forward]
    assert soft.scheduled_flows[backward] < -net118.limits_pu[backward]
    problem, gs, vs = dispatch_lp_rows(net118, ptdf118, loads / net118.base_mva,
                                       soft_penalty=VIOLATION_PENALTY)
    oracle = lp.solve_lp(problem)
    assert oracle.status == lp.OPTIMAL
    assert soft.total_cost == pytest.approx(oracle.objective_value, rel=1e-9)
    assert soft.violations_mw == pytest.approx(oracle.values[vs] * net118.base_mva,
                                               abs=1e-7)
    assert soft.violations_mw[backward] > 1.0
    over = (np.abs(soft.scheduled_flows) - net118.limits_pu) * net118.base_mva
    assert soft.violations_mw == pytest.approx(np.maximum(over, 0.0), abs=1e-7)


def test_capacity_shortfall():
    net = _two_gen()
    with pytest.raises(DispatchError) as err:
        run_sced(net, net.load_mw * 100)
    assert "capacity" in err.value.binding
    # case loads over capacity leave no base dispatch to seed from; a soft
    # dispatch of servable loads starts from no limit rows instead
    small = validate_case(parse_matpower(TWO_GEN.format(rate=500).replace(
        "\t100\t1\t200\t0;", "\t100\t1\t50\t0;")))
    with pytest.raises(DispatchError):
        base_dispatch(small)
    dispatch = run_sced(small, small.load_mw * 0.5, soft_limits=True)
    assert dispatch.gen_output == pytest.approx([50.0, 10.0], abs=1e-6)


def test_failed_base_dispatch_is_not_memoised():
    # the over-capacity base dispatch raises on every call and leaves no
    # entry in the network's operators, while the SCED constants stay
    small = validate_case(parse_matpower(TWO_GEN.format(rate=500).replace(
        "\t100\t1\t200\t0;", "\t100\t1\t50\t0;")))
    for _ in range(2):
        with pytest.raises(DispatchError, match="capacity"):
            base_dispatch(small)
        assert "base_dispatch" not in small.operators
    run_sced(small, small.load_mw * 0.5, soft_limits=True)
    assert "base_dispatch" not in small.operators
    assert not small.operators["sced"].rows.data.flags.writeable


def test_network_without_generators_is_refused(net3):
    net = dataclasses.replace(net3, generators=())
    for dispatch in (base_dispatch, lambda n: run_sced(n, n.load_mw, soft_limits=True)):
        with pytest.raises(DispatchError, match="^network has no in-service generators$"):
            dispatch(net)
    assert "sced" not in net.operators


def test_dispatch_lp_builds_only_its_row_bounds(net118):
    # the objective, the bounds of each mode and the rows are the network's,
    # read-only; soft limits free the elastic columns, fixed ones pin them
    d_pu = net118.load_mw / net118.base_mva
    soft, fixed = (sced._dispatch_lp(net118, d_pu, mode) for mode in (True, False))
    for name in ("objective", "lower", "a"):
        assert getattr(soft, name) is getattr(fixed, name)
    for problem in (soft, fixed, sced._dispatch_lp(net118, d_pu, True)):
        assert not (problem.objective.flags.writeable or problem.lower.flags.writeable
                    or problem.upper.flags.writeable)
    assert soft.upper is sced._dispatch_lp(net118, d_pu, True).upper
    ng = len(net118.generators)
    assert np.isinf(soft.upper[ng:]).all() and not fixed.upper[ng:].any()
    assert soft.upper[:ng].tolist() == fixed.upper[:ng].tolist()


def test_generators_sharing_a_bus_sum_onto_it():
    # both units on bus 2, where the load is: the cheaper one serves it and
    # no flow is scheduled
    net = validate_case(parse_matpower(
        TWO_GEN.format(rate=500).replace("\t1\t0\t0\t100", "\t2\t0\t0\t100", 1)))
    assert sced.per_bus(net, np.array([30.0, 50.0])).tolist() == [0.0, 80.0]
    dispatch = run_sced(net, net.load_mw)
    assert dispatch.gen_output == pytest.approx([120.0, 0.0], abs=1e-6)
    assert dispatch.scheduled_flows == pytest.approx([0.0], abs=1e-12)


def test_loads_shape_checked(net3):
    with pytest.raises(ValueError):
        run_sced(net3, np.zeros(5))


def test_seeded_soft_sced_matches_full_lp_118(net118, ptdf118, monkeypatch):
    # Soft-limit dispatches start from the base dispatch's working set and
    # generate the rest; each must equal the full LP built row by row.
    rng = np.random.default_rng(2010)
    solve = lp.solve_lp
    rounds = []

    def spy(problem, start=None):
        sol = solve(problem, start)
        rounds.append(sol.rounds)
        return sol

    base_dispatch(net118)
    monkeypatch.setattr(lp, "solve_lp", spy)
    for _ in range(20):
        loads = net118.load_mw * rng.uniform(0.9, 1.1) * (1 + rng.normal(0, 0.05, net118.n_bus))
        dispatch = run_sced(net118, loads, soft_limits=True)
        problem, gs, vs = dispatch_lp_rows(net118, ptdf118, loads / net118.base_mva,
                                           soft_penalty=VIOLATION_PENALTY)
        oracle = solve(problem)
        assert oracle.status == lp.OPTIMAL
        assert dispatch.total_cost == pytest.approx(oracle.objective_value, rel=1e-9)
        assert dispatch.gen_output == pytest.approx(oracle.values[gs] * net118.base_mva,
                                                    abs=1e-7)
        inj = -loads / net118.base_mva
        np.add.at(inj, [g.bus for g in net118.generators], oracle.values[gs])
        flows = ptdf118.matrix @ inj
        limits = net118.limits_pu
        assert dispatch.binding_branches == tuple(
            net118.branch_ordinals[np.abs(flows) >= limits - 1e-6].tolist())
        assert dispatch.violations_mw == pytest.approx(oracle.values[vs] * net118.base_mva,
                                                       abs=1e-7)
    assert len(rounds) == 20
    assert max(rounds) > 1      # some load vector needed rows beyond the seed


def test_hard_infeasibility_names_the_soft_dispatch_overloads(net118):
    # 1.25x the case loads fit the generators but not the ratings; the hard
    # dispatch names the branches that the soft dispatch of those loads
    # overloads, in its binding set and its message
    loads = net118.load_mw * 1.25
    soft = run_sced(net118, loads, soft_limits=True)
    overloaded = tuple(net118.branch_ordinals[soft.violations_mw > 1e-6].tolist())
    with pytest.raises(DispatchError) as err:
        run_sced(net118, loads)
    assert err.value.binding == overloaded == (111, 118)
    assert str(err.value).endswith("; binding: 111, 118")


@pytest.mark.parametrize("soft", [False, True])
def test_negative_total_load_fails_without_a_diagnosis(net118, monkeypatch, soft):
    # no generator can absorb power, so both modes are infeasible; a hard
    # dispatch is diagnosed by one soft dispatch, which is not diagnosed
    base_dispatch(net118)
    solve = lp.solve_lp
    calls = []

    def spy(problem, start=None):
        calls.append(problem)
        return solve(problem, start)

    monkeypatch.setattr(lp, "solve_lp", spy)
    with pytest.raises(DispatchError) as err:
        run_sced(net118, -net118.load_mw, soft_limits=soft)
    assert err.value.binding == ()
    assert str(err.value) == "dispatch infeasible for load -4242.0 MW"
    assert len(calls) == (1 if soft else 2)
