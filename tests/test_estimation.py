import numpy as np
import pytest

from gridfdi import load_case
from gridfdi.estimation import (
    LNR_THRESHOLD,
    MeasurementSet,
    ObservabilityError,
    build_measurements,
    estimated_flows,
    measurement_matrix,
    wls_estimate,
)
from gridfdi.powerflow import compute_ptdf, solve_dc, topology

from oracles import estimated_flows_loop, measurement_matrix_loop


def _true_state(net):
    loads = net.load_mw
    gen = np.zeros(net.n_bus)
    gen[net.generators[0].bus] = loads.sum()
    inj = (gen - loads) / net.base_mva
    sol = solve_dc(net, inj)
    return loads, gen, sol


def test_measurement_counts(net3, net118):
    loads, gen, sol = _true_state(net3)
    meas = build_measurements(net3, sol.flows, loads, gen)
    assert len(meas) == 3 + 3

    loads = net118.load_mw
    gen = np.zeros(net118.n_bus)
    gen[net118.reference_bus] = loads.sum()
    inj = (gen - loads) / net118.base_mva
    sol = solve_dc(net118, inj)
    meas = build_measurements(net118, sol.flows, loads, gen)
    assert len(meas) == 186 + 118


def test_noiseless_values_exact(net3):
    loads, gen, sol = _true_state(net3)
    meas = build_measurements(net3, sol.flows, loads, gen)
    assert np.allclose(meas.values[:3], sol.flows)
    assert np.allclose(meas.values[3:], (gen - loads) / net3.base_mva)
    assert np.all(meas.weights == 1.0)


def test_seed_determinism(net3):
    loads, gen, sol = _true_state(net3)
    sigma = {"flow": 0.01, "injection": 0.02}
    a = build_measurements(net3, sol.flows, loads, gen, sigma, seed=42)
    b = build_measurements(net3, sol.flows, loads, gen, sigma, seed=42)
    c = build_measurements(net3, sol.flows, loads, gen, sigma, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.all(a.weights[:3] == 1.0 / 0.01**2)
    assert np.all(a.weights[3:] == 1.0 / 0.02**2)


def test_noiseless_estimate_exact(net3):
    loads, gen, sol = _true_state(net3)
    meas = build_measurements(net3, sol.flows, loads, gen)
    result = wls_estimate(meas, net3)
    assert result.weighted_residual_norm < 1e-10
    assert np.allclose(estimated_flows(net3, result.angles), sol.flows, atol=1e-10)
    assert not result.bad_data


def test_gross_error_fires_lnr(net118):
    loads = net118.load_mw
    gen = np.zeros(net118.n_bus)
    gen[net118.reference_bus] = loads.sum()
    inj = (gen - loads) / net118.base_mva
    sol = solve_dc(net118, inj)
    sigma = 0.01
    meas = build_measurements(
        net118, sol.flows, loads, gen,
        {"flow": sigma, "injection": sigma}, seed=7,
    )
    corrupted = meas.values.copy()
    bad_index = 0                       # flow measurement on branch 1
    corrupted[bad_index] += 10 * sigma
    result = wls_estimate(meas.with_values(corrupted), net118)
    assert result.bad_data
    assert result.lnr_value > LNR_THRESHOLD
    assert result.lnr_index == bad_index


def test_idempotence(net3):
    loads, gen, sol = _true_state(net3)
    meas = build_measurements(net3, sol.flows, loads, gen)
    first = wls_estimate(meas, net3)
    h = measurement_matrix(meas, net3)
    replay = meas.with_values(h @ first.angles)
    second = wls_estimate(replay, net3)
    assert np.allclose(second.angles, first.angles, atol=1e-12)


def test_observability_error(net3):
    # a single flow measurement cannot pin down two free angles
    meas = MeasurementSet(
        kinds=("flow",),
        indices=np.array([0]),
        values=np.array([0.1]),
        weights=np.array([1.0]),
    )
    with pytest.raises(ObservabilityError):
        wls_estimate(meas, net3)


def test_flow_shape_checked(net3):
    with pytest.raises(ValueError):
        build_measurements(net3, np.zeros(5), net3.load_mw, np.zeros(3))


def _noisy(net, sigma, seed):
    loads, gen, sol = _true_state(net)
    return build_measurements(net, sol.flows, loads, gen, sigma, seed=seed)


@pytest.mark.parametrize("outages", [None, (), (71,)],
                         ids=["case3", "case118", "case118-out71"])
def test_operators_match_branch_loop(net3, case118_path, outages, rng):
    net = net3 if outages is None else load_case(case118_path, outages)
    meas = _noisy(net, {"flow": 0.01, "injection": 0.02}, seed=1)
    h = measurement_matrix(meas, net)
    assert np.max(np.abs(h - measurement_matrix_loop(meas, net))) <= 1e-12
    angles = rng.normal(size=net.n_bus)
    assert np.max(np.abs(
        estimated_flows(net, angles) - estimated_flows_loop(net, angles)
    )) <= 1e-12


def test_cached_wls_keeps_weight_sets_apart(case118_path):
    net = load_case(case118_path)
    keep = topology(net).keep
    sigmas = ({"flow": 0.01, "injection": 0.02}, {"flow": 0.03, "injection": 0.005})
    for seed in range(6):   # alternate the two weight sets; later calls hit
        meas = _noisy(net, sigmas[seed % 2], seed)
        result = wls_estimate(meas, net)
        root_w = np.sqrt(meas.weights)
        h = measurement_matrix_loop(meas, net)[:, keep]
        x, *_ = np.linalg.lstsq(h * root_w[:, None], meas.values * root_w, rcond=None)
        assert np.allclose(result.angles[keep], x, rtol=0, atol=1e-9)
        r = meas.values - h @ x
        assert result.weighted_residual_norm == pytest.approx(
            float(r @ (meas.weights * r)), rel=1e-8)


def test_outage_networks_never_share_operators(case118_path, rng):
    nets = [load_case(case118_path, (k,)) for k in (71, 96)]
    inj = rng.normal(size=nets[0].n_bus)
    inj -= inj.mean()
    for net in nets:
        wls_estimate(_noisy(net, {}, seed=None), net)
    assert topology(nets[0]) is not topology(nets[1])
    assert nets[0].operators["wls"] is not nets[1].operators["wls"]
    assert compute_ptdf(nets[0]) is not compute_ptdf(nets[1])
    for net in nets:
        assert compute_ptdf(net) is compute_ptdf(net)
        assert not compute_ptdf(net).matrix.flags.writeable
    for net in nets:
        # dense oracle: rows of H give Bf (flows) and B (injections)
        meas = _noisy(net, {}, seed=None)
        h = measurement_matrix_loop(meas, net)
        m = len(net.in_service_branches)
        keep = topology(net).keep
        theta = np.zeros(net.n_bus)
        theta[keep] = np.linalg.solve(h[m:][np.ix_(keep, keep)], inj[keep])
        assert np.allclose(solve_dc(net, inj).flows, h[:m] @ theta, atol=1e-10)


def test_solve_dc_after_ptdf_matches_ptdf(case118_path, rng):
    net = load_case(case118_path)
    ptdf = compute_ptdf(net)
    inj = rng.normal(size=net.n_bus)
    inj -= inj.mean()
    assert np.allclose(solve_dc(net, inj).flows, ptdf.matrix @ inj, rtol=0, atol=1e-12)


def test_critical_measurements_counted_and_skipped(net3):
    # Two free angles.  Flow 1 measured twice is redundant; flow 2 is the
    # only measurement of the bus-3 angle, so it is critical and its residual
    # is zero whatever its value.
    meas = MeasurementSet(
        kinds=("flow", "flow", "flow"),
        indices=np.array([0, 0, 1]),
        values=np.array([0.30, 0.32, 0.1]),
        weights=np.ones(3),
    )
    result = wls_estimate(meas, net3)
    assert result.critical_count == 1
    assert result.lnr_index in (0, 1)
    assert abs(result.residuals[2]) < 1e-12
    gross = wls_estimate(meas.with_values(meas.values + [0, 0, 10.0]), net3)
    assert gross.lnr_value == pytest.approx(result.lnr_value)

    # A minimal set: every measurement is critical, nothing is screened.
    minimal = MeasurementSet(
        kinds=("flow", "flow"), indices=np.array([0, 1]),
        values=np.array([0.3, 0.1]), weights=np.ones(2),
    )
    result = wls_estimate(minimal, net3)
    assert result.critical_count == 2
    assert result.lnr_index is None and result.lnr_value == 0.0


@pytest.mark.parametrize("sigma", [{}, {"flow": 0.005, "injection": 0.005}])
def test_full_set_118_has_no_critical_measurement(net118, sigma):
    result = wls_estimate(_noisy(net118, sigma, seed=5), net118)
    assert result.critical_count == 0
