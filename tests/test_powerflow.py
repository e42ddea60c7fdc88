import numpy as np
import pytest

from gridfdi.cases import IslandError, parse_matpower, validate_case
from gridfdi.powerflow import (
    MIN_CRITICAL_SET,
    MIN_PIVOT_RATIO,
    NumericError,
    compute_ptdf,
    solve_dc,
    topology,
)
from gridfdi.sced import run_sced

from test_cases import TRIANGLE


def _transfer(net, at_bus, amount=1.0):
    inj = np.zeros(net.n_bus)
    inj[at_bus] = amount
    inj[net.reference_bus] -= amount
    return inj


def test_triangle_hand_values(net3):
    # +1 p.u. at bus 2, withdrawn at bus 1 (ref): 2/3 on the direct edge,
    # 1/3 around the ring (reduced 2x2 susceptance matrix inverted by hand).
    sol = solve_dc(net3, _transfer(net3, 1))
    assert sol.flows[0] == pytest.approx(-2.0 / 3.0, abs=1e-12)   # 1-2
    assert sol.flows[1] == pytest.approx(1.0 / 3.0, abs=1e-12)    # 2-3
    assert sol.flows[2] == pytest.approx(-1.0 / 3.0, abs=1e-12)   # 1-3
    assert sol.angles[net3.reference_bus] == 0.0


def test_zero_injections(net3):
    sol = solve_dc(net3, np.zeros(3))
    assert np.all(sol.angles == 0)
    assert np.all(sol.flows == 0)


def test_unbalanced_rejected(net3):
    with pytest.raises(ValueError):
        solve_dc(net3, np.array([1.0, 0.0, 0.0]))


def test_nodal_balance_118(net118):
    dispatch = run_sced(net118, net118.load_mw)
    inj = -net118.load_mw / net118.base_mva
    for g, mw in zip(net118.generators, dispatch.gen_output):
        inj[g.bus] += mw / net118.base_mva
    sol = solve_dc(net118, inj)
    divergence = topology(net118).incidence.T @ sol.flows
    assert np.max(np.abs(inj - divergence)) < 1e-8


def test_linearity(net118, rng):
    n = net118.n_bus
    u = rng.normal(size=n)
    u -= u.mean()
    v = rng.normal(size=n)
    v -= v.mean()
    a, b = 1.7, -0.4
    combined = solve_dc(net118, a * u + b * v)
    su, sv = solve_dc(net118, u), solve_dc(net118, v)
    assert np.allclose(combined.flows, a * su.flows + b * sv.flows, atol=1e-9)
    assert np.allclose(combined.angles, a * su.angles + b * sv.angles, atol=1e-9)


def test_ptdf_triangle(net3, ptdf3):
    col = ptdf3.matrix[:, 1]     # bus 2
    assert col[0] == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert col[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert col[2] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_ptdf_reference_column_zero(ptdf3, ptdf118):
    assert np.all(ptdf3.matrix[:, ptdf3.reference_bus] == 0)
    assert np.all(ptdf118.matrix[:, ptdf118.reference_bus] == 0)


def test_ptdf_finite_difference_118(net118, ptdf118):
    # every column equals a finite-difference transfer through solve_dc
    eps = 1e-4
    for bus in range(0, net118.n_bus, 7):   # full sweep lives in acceptance
        if bus == net118.reference_bus:
            continue
        sol = solve_dc(net118, _transfer(net118, bus, eps))
        assert np.allclose(ptdf118.matrix[:, bus], sol.flows / eps, atol=1e-8)


def test_ptdf_flow_identity(net118, ptdf118, rng):
    inj = rng.normal(size=net118.n_bus)
    inj -= inj.mean()
    direct = solve_dc(net118, inj).flows
    assert np.allclose(ptdf118.matrix @ inj, direct, atol=1e-8)


def test_ptdf_cached_read_only(net118, ptdf118):
    assert compute_ptdf(net118) is ptdf118
    assert net118.operators["ptdf"] is ptdf118
    for arr in (ptdf118.matrix, ptdf118.nl_sizes, ptdf118.eligible,
                ptdf118.critical_mask, *ptdf118.critical_sets):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        ptdf118.matrix[0, 0] = 1.0


def test_outage_ptdf_matches_lodf_update(case118_path, net118, ptdf118):
    # Guo, Fu, Li & Shahidehpour, "Direct calculation of line outage
    # distribution factors", IEEE TPWRS 2009: removing branch l (bus i to
    # bus j) moves lodf[k] * P[l] onto every other branch k.
    with open(case118_path) as fh:
        raw = parse_matpower(fh.read())
    p = ptdf118.matrix
    checked = islanding = 0
    worst = 0.0
    for l, br in enumerate(net118.in_service_branches):
        try:
            net = validate_case(raw, (br.ordinal,))
        except IslandError:
            islanding += 1
            continue
        i, j = br.from_bus, br.to_bus
        lodf = (p[:, i] - p[:, j]) / (1.0 - (p[l, i] - p[l, j]))
        want = np.delete(p + np.outer(lodf, p[l]), l, axis=0)
        worst = max(worst, np.abs(compute_ptdf(net).matrix - want).max())
        checked += 1
    assert (checked, islanding) == (177, 9)
    assert worst <= 1e-10


def test_ptdf_magnitude_bound(ptdf118):
    assert np.abs(ptdf118.matrix).max() <= 1.0 + 1e-9


def test_critical_sets_load_buses_only(net118, ptdf118):
    load_set = set(net118.load_buses.tolist())
    for k, buses in enumerate(ptdf118.critical_sets):
        assert set(buses.tolist()) <= load_set
        assert np.all(np.abs(ptdf118.matrix[k, buses]) >= 0.01)
        assert ptdf118.nl_sizes[k] == len(buses)


def test_eligibility_rule(ptdf118):
    assert np.array_equal(ptdf118.eligible, ptdf118.nl_sizes >= MIN_CRITICAL_SET)
    assert MIN_CRITICAL_SET == 5


@pytest.mark.parametrize("branches", [
    # bus 4 hangs off bus 3 on a near-zero susceptance link (x = 1e12 p.u.)
    ((1, 2, 0.1), (2, 3, 0.1), (1, 3, 0.1), (3, 4, 1e12)),
    # the ring's susceptances cancel (0.1 + 0.1 - 0.2 = 0): the LU factor has
    # an exactly zero, hence finite, pivot
    ((1, 2, 0.1), (2, 3, 0.1), (1, 3, -0.2)),
], ids=["weak-link", "exact-zero-pivot"])
@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_reduced_b_raises(branches):
    buses = sorted({b for br in branches for b in br[:2]})
    text = TRIANGLE.split("mpc.bus = [")[0] + "mpc.bus = [\n" + "".join(
        f"\t{b}\t{3 if b == 1 else 1}\t{0 if b == 1 else 10}\t0\t0\t0\t1\t1\t0"
        "\t138\t1\t1.06\t0.94;\n" for b in buses
    ) + "];\n" + TRIANGLE[TRIANGLE.index("mpc.gen = ["):TRIANGLE.index("mpc.branch = [")]
    text += "mpc.branch = [\n" + "".join(
        f"\t{f}\t{t}\t0.01\t{x}\t0\t100\t0\t0\t0\t0\t1\t-360\t360;\n"
        for f, t, x in branches
    ) + "];\n" + TRIANGLE[TRIANGLE.index("mpc.gencost = ["):]
    net = validate_case(parse_matpower(text))
    with pytest.raises(NumericError, match="singular"):
        solve_dc(net, np.zeros(net.n_bus))


def test_case118_pivot_ratio_clear_of_threshold(net118):
    pivots = np.abs(np.diag(topology(net118).factor[0]))
    assert pivots.min() / pivots.max() > 1e6 * MIN_PIVOT_RATIO
