import numpy as np
import pytest

from gridfdi import lp
from gridfdi.cases import parse_matpower, validate_case
from gridfdi.sced import VIOLATION_PENALTY, DispatchError, run_sced

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
    limits = net118.limits_pu()
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
    over = (np.abs(dispatch.scheduled_flows) - net.limits_pu()) * net.base_mva
    assert over[0] == pytest.approx(40.0, abs=1e-6)
    assert dispatch.violations_mw == pytest.approx(over, abs=1e-6)


def test_violations_zero_unless_soft(net118):
    net = _two_gen(rate=50)
    dispatch = run_sced(net, net.load_mw)
    assert np.array_equal(dispatch.violations_mw, np.zeros(1))
    # servable within ratings: the elastic variables stay at zero
    soft = run_sced(net118, net118.load_mw, soft_limits=True)
    assert soft.violations_mw.shape == (len(net118.in_service_branches),)
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


def test_capacity_shortfall():
    net = _two_gen()
    with pytest.raises(DispatchError) as err:
        run_sced(net, net.load_mw * 100)
    assert "capacity" in err.value.binding


def test_loads_shape_checked(net3):
    with pytest.raises(ValueError):
        run_sced(net3, np.zeros(5))
