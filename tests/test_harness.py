import dataclasses

import numpy as np
import pytest
from scipy import sparse

from gridfdi import attack, harness, lp
from gridfdi.cases import DataError
from gridfdi.detect import AlertLevel
from gridfdi.harness import (
    AttackParams,
    ConfigError,
    FluctuationSpec,
    NetworkCache,
    ScenarioConfig,
    ScenarioOutcome,
    gen_fluctuation,
    outage_robustness_suite,
    study_118_suite,
    run_experiment,
    run_scenario,
    run_timeline,
)
from gridfdi.powerflow import solve_dc
from gridfdi.sced import base_dispatch, run_sced


@pytest.fixture(scope="module")
def cache():
    return NetworkCache()


def _config(case118_path, **kw):
    defaults = dict(
        case_path=case118_path, mode="fluctuation_only", seed=(11, 0),
        group="test", index=0,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_fluctuation_zero_sigma_zero_mu(rng):
    loads = np.array([100.0, 0.0, 50.0])
    assert np.all(gen_fluctuation(loads, 0.0, 0.0, rng) == 0.0)


def test_fluctuation_deterministic_mean(rng):
    loads = np.array([100.0, 0.0, 50.0])
    delta = gen_fluctuation(loads, 0.01, 0.0, rng)
    assert np.allclose(delta, 0.01 * loads)


def test_fluctuation_clip_bound():
    loads = np.full(5000, 100.0)
    rng = np.random.default_rng(3)
    delta = gen_fluctuation(loads, 0.0, 0.03, rng)
    rel = np.abs(delta) / loads
    assert rel.max() <= 1.96 * 0.03 + 1e-12
    # the clip actually engages somewhere in a draw this large
    assert rel.max() == pytest.approx(1.96 * 0.03, abs=1e-4)


def test_fluctuation_zero_load_buses_never_move(rng):
    loads = np.array([0.0, 120.0, 0.0])
    delta = gen_fluctuation(loads, 0.02, 0.05, rng)
    assert delta[0] == delta[2] == 0.0


def test_config_validation(case118_path):
    with pytest.raises(ConfigError):
        _config(case118_path, mode="attack").validate()
    with pytest.raises(ConfigError):
        _config(
            case118_path,
            attack_params=AttackParams(118, 0.1, 5.0),
        ).validate()
    with pytest.raises(ConfigError):
        _config(case118_path, mode="both").validate()
    with pytest.raises(ConfigError, match="^fluctuation sigma must be nonnegative$"):
        _config(case118_path, fluctuation=FluctuationSpec(0.0, -0.01)).validate()
    _config(case118_path).validate()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("mode, params, field", [
    ("fluctuation_only", {"fluctuation": FluctuationSpec(0.0, NAN)},
     "fluctuation.sigma"),
    ("fluctuation_only", {"fluctuation": FluctuationSpec(INF, 0.03)},
     "fluctuation.mu"),
    ("fluctuation_only", {"fluctuation": FluctuationSpec(-INF, 0.03)},
     "fluctuation.mu"),
    ("attack", {"attack_params": AttackParams(118, NAN, 5.0)},
     "attack_params.load_shift_factor"),
    ("attack", {"attack_params": AttackParams(118, 0.1, NAN)},
     "attack_params.l1_limit"),
    ("attack", {"attack_params": AttackParams(118, 0.1, INF)},
     "attack_params.l1_limit"),
])
def test_config_rejects_non_finite_parameters(case118_path, cache, mode, params,
                                              field):
    config = _config(case118_path, mode=mode, **params)
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        config.validate()
    # a run fails on the parameter, before any solve sees it
    outcome = run_experiment([config], cache).outcomes[0]
    assert outcome.error.startswith(f"ConfigError: {field} must be finite")


def test_quiescent_timeline(case118_path, cache):
    config = _config(case118_path)      # no fluctuation, no attack
    result = run_timeline(config, cache)
    snap = result.snapshot
    assert np.allclose(snap.measured_flows, snap.prev_flows, atol=1e-8)
    assert np.allclose(snap.measured_loads, snap.prev_loads, atol=1e-6)
    assert np.allclose(snap.sced_flows, snap.prev_flows, atol=1e-6)
    outcome = run_scenario(config, cache)
    assert outcome.report.stage1_alert == AlertLevel.NORMAL
    assert not outcome.under_attack


def test_timeline_deterministic(case118_path, cache):
    config = _config(
        case118_path, mode="attack", fluctuation=FluctuationSpec(0.0, 0.03),
        attack_params=AttackParams(118, 0.10, 5.0), seed=(11, 3),
    )
    a = run_timeline(config, cache)
    b = run_timeline(config, cache)
    assert np.array_equal(a.snapshot.measured_loads, b.snapshot.measured_loads)
    assert np.array_equal(a.snapshot.measured_flows, b.snapshot.measured_flows)
    assert np.array_equal(a.true_flows_next, b.true_flows_next)


def test_zero_fluctuation_is_constant_load(case118_path, cache):
    kw = dict(mode="attack", attack_params=AttackParams(118, 0.10, 5.0),
              seed=(11, 4))
    a = run_timeline(_config(case118_path, **kw), cache)
    b = run_timeline(_config(case118_path, fluctuation=FluctuationSpec(0.0, 0.0),
                             **kw), cache)
    assert a.loads_true.tobytes() == b.loads_true.tobytes()
    assert a.snapshot.measured_loads.tobytes() == b.snapshot.measured_loads.tobytes()
    assert a.true_flows_next.tobytes() == b.true_flows_next.tobytes()


def test_conservation_both_intervals(case118_path, cache):
    config = _config(
        case118_path, mode="attack", fluctuation=FluctuationSpec(0.01, 0.03),
        attack_params=AttackParams(111, 0.10, 5.0), seed=(11, 4),
    )
    result = run_timeline(config, cache)
    tol = 1e-6 * result.snapshot.prev_loads.sum()
    assert result.dispatch_prev.gen_output.sum() == pytest.approx(
        result.loads_prev.sum(), abs=tol
    )
    assert result.dispatch_next.gen_output.sum() == pytest.approx(
        result.snapshot.measured_loads.sum(), abs=tol
    )


@pytest.mark.parametrize("index", [0, 30, 50, 79, 100, 150, 200, 239])
def test_noiseless_telemetry_fits_the_true_state(case118_path, cache, index):
    # The reference unit's metered output carries the load drift, so the
    # noiseless measurements fit one state: the estimate returns the flows
    # the EMS should see and leaves no residual.
    config = study_118_suite(case118_path)[index]
    result = run_timeline(config, cache)
    expected = (result.true_flows_t0 if result.attack is None
                else result.attack.cyber_flows)
    assert np.max(np.abs(result.snapshot.measured_flows - expected)) <= 1e-9
    assert result.lnr_value <= 1e-9
    assert result.gen_metered.sum() == pytest.approx(result.loads_true.sum(), abs=1e-9)


def test_attack_timeline_detects_and_overloads(case118_path, cache):
    config = _config(
        case118_path, mode="attack",
        attack_params=AttackParams(118, 0.10, 5.0), seed=(11, 5),
    )
    outcome = run_scenario(config, cache)
    assert outcome.under_attack
    assert outcome.smldi > 0.5
    assert outcome.target_in_suspects
    assert outcome.target_overload_mw > 0
    assert outcome.residual_delta < 1e-8
    assert outcome.lnr_value < 3.0
    # per-branch deviation metric on the target, from the kept report
    pos = int(np.nonzero(outcome.report.branch_ordinals == 118)[0][0])
    assert outcome.report.mldi[pos] > 0.5


def test_boolean_target_is_refused(case118_path, cache):
    # True hashes as 1: taken as an ordinal, it would attack branch 1
    config = dataclasses.replace(study_118_suite(case118_path)[80],
                                 attack_params=AttackParams(True, 0.1, 5.0))
    with pytest.raises(DataError, match="branch ordinal True is a bool"):
        run_timeline(config, cache)


def test_truth_equals_schedule_plus_hidden_deviation(case118_path, cache):
    # the forged loads divergence-match the hidden flow deltas, so physics
    # lands exactly at schedule + delta on every branch
    config = _config(
        case118_path, mode="attack",
        attack_params=AttackParams(118, 0.10, 5.0), seed=(11, 9),
    )
    result = run_timeline(config, cache)
    assert np.allclose(
        result.true_flows_next,
        result.snapshot.sced_flows + result.attack.delta_p,
        atol=1e-8,
    )


@pytest.mark.parametrize("scenario", ["constant-attack", "fluctuating", "outage-71"])
def test_true_flows_match_the_balanced_dc_solve(case118_path, cache, scenario):
    # the timeline maps unbalanced injections through the PTDF; the DC
    # solve with the imbalance put on the reference bus must agree
    config = {
        "constant-attack": _config(case118_path, mode="attack", seed=(11, 4),
                                   attack_params=AttackParams(118, 0.10, 5.0)),
        "fluctuating": _config(case118_path, fluctuation=FluctuationSpec(0.01, 0.03)),
        "outage-71": outage_robustness_suite(case118_path, 71)[71],
    }[scenario]
    result = run_timeline(config, cache)
    net = cache.get(config.case_path, config.outages)[0]
    for dispatch, flows in ((result.dispatch_prev, result.true_flows_t0),
                            (result.dispatch_next, result.true_flows_next)):
        inj = -result.loads_true / net.base_mva
        np.add.at(inj, [g.bus for g in net.generators], dispatch.gen_output / net.base_mva)
        inj[net.reference_bus] -= inj.sum()
        assert np.abs(flows - solve_dc(net, inj).flows).max() <= 1e-12


@pytest.mark.parametrize("target", [118, 111])
@pytest.mark.parametrize("fluctuation", [None, FluctuationSpec(0.0, 0.03)],
                         ids=["constant", "fluct"])
@pytest.mark.parametrize("sigma", [0.0, 0.005], ids=["noiseless", "noisy"])
def test_zero_budget_attack_equals_fluctuation_only(case118_path, cache,
                                                    target, fluctuation, sigma):
    # with no angle budget the attacker forges nothing, so the timeline must
    # be the fluctuation-only one drawn from the same seed, bit for bit
    noise = {"flow": sigma, "injection": sigma} if sigma else {}
    plain = run_timeline(_config(case118_path, seed=(11, 7), noise_sigma=noise,
                                 fluctuation=fluctuation), cache)
    zero = run_timeline(_config(
        case118_path, mode="attack", seed=(11, 7), noise_sigma=noise,
        fluctuation=fluctuation, attack_params=AttackParams(target, 0.10, 0.0),
    ), cache)
    assert not np.any(zero.attack.delta_d)
    for name in ("prev_flows", "prev_loads", "measured_flows", "measured_loads",
                 "sced_flows"):
        a, b = getattr(zero.snapshot, name), getattr(plain.snapshot, name)
        assert a.tobytes() == b.tobytes(), name
    assert zero.true_flows_next.tobytes() == plain.true_flows_next.tobytes()


def test_scenario_failure_recorded(case118_path, cache):
    config = _config(
        case118_path, mode="attack",
        attack_params=AttackParams(9999, 0.10, 5.0), seed=(11, 6),
    )
    report = run_experiment([config], cache)
    assert report.outcomes[0].error is not None
    assert report.groups[0].failures == 1


def test_suite_shapes(case118_path):
    full = study_118_suite(case118_path)
    assert len(full) == 240
    assert sum(1 for c in full if c.mode == "fluctuation_only") == 80
    attacks = [c for c in full if c.mode == "attack"]
    assert len(attacks) == 160
    assert {c.attack_params.target_branch for c in attacks} == {111, 118}
    assert {c.attack_params.load_shift_factor for c in attacks} == {
        0.05, 0.10, 0.15, 0.20
    }
    assert {c.attack_params.l1_limit for c in attacks} == set(
        float(v) for v in range(1, 11)
    )
    assert len({c.group for c in full}) == 8
    assert len({tuple(c.seed) for c in full}) == 240

    mini = outage_robustness_suite(case118_path, 71)
    assert len(mini) == 72
    assert all(c.outages == (71,) for c in mini)
    assert sum(1 for c in mini if c.mode == "attack") == 32


def test_empty_suite(cache):
    report = run_experiment([], cache)
    assert report.outcomes == ()
    assert report.groups == ()


def test_experiment_reproducible(case118_path, cache):
    suite = [
        _config(case118_path, fluctuation=FluctuationSpec(0.0, 0.03),
                seed=(11, i), index=i, group="fluct")
        for i in range(3)
    ]
    first = run_experiment(suite, cache)
    second = run_experiment(suite, cache)
    assert [o.smldi for o in first.outcomes] == [o.smldi for o in second.outcomes]
    g1, g2 = first.groups[0], second.groups[0]
    assert g1 == g2


def test_base_dispatch_solved_once_per_network(case118_path):
    cache = NetworkCache()
    kept = []
    for outages in ((), (71,), (30,)):
        net, _ = cache.get(case118_path, outages)
        first = run_timeline(_config(case118_path, outages=outages), cache)
        second = run_timeline(_config(case118_path, outages=outages,
                                      seed=(11, 1), index=1), cache)
        base = base_dispatch(net)
        assert first.dispatch_prev is base and second.dispatch_prev is base

        # run_sced on the case loads starts from the base dispatch's own
        # optimal basis, so it lands on the same vertex, up to roundoff
        fresh = run_sced(net, net.load_mw, soft_limits=True)
        for name in ("gen_output", "scheduled_flows", "violations_mw"):
            cached = getattr(base, name)
            assert np.abs(cached - getattr(fresh, name)).max() <= 1e-9
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0
        assert base.total_cost == pytest.approx(fresh.total_cost, rel=1e-12)
        assert base.binding_branches == fresh.binding_branches
        kept.append(base)
    # each outage network solves its own
    assert len({id(d) for d in kept}) == 3
    assert not np.array_equal(kept[1].scheduled_flows, kept[2].scheduled_flows)


def _write_through(value):
    """Write into every public field of ``value``, recursively: a frozen
    dataclass refuses new fields, an array refuses new entries, and any
    other object, such as a HiGHS basis, takes the write.  No field may be
    a sparse matrix, whose arrays can be rebound however read-only."""
    assert not sparse.issparse(value), "a public field holds a sparse matrix"
    if isinstance(value, np.ndarray):
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if not f.name.startswith("_"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, f.name, None)
                _write_through(getattr(value, f.name))
    elif isinstance(value, lp.highs.HighsBasis):
        value.col_status = [lp.highs.HighsBasisStatus.kBasic] * len(value.col_status)


def test_stored_starts_refuse_writes(case118_path):
    # the dispatch start and an attack start, written through every public
    # field, still start the next grid pass: nothing reaches what they hold
    cache = NetworkCache()
    suite = study_118_suite(case118_path)
    assert all(o.error is None for o in run_experiment(suite, cache).outcomes)
    net, _ = cache.get(case118_path, ())
    starts = net.operators["attack_starts"]
    _write_through(net.operators["base_dispatch"][1])
    _write_through(starts[next(k for k in starts if k[2:] == (0.05, 2.0))])
    assert [o.error for o in run_experiment(suite, cache).outcomes if o.error] == []


def _mixed_subset(case118_path):
    """Grid scenarios of every kind: fluctuation-only under each load
    distribution, and attacks on both targets from constant and from
    fluctuating loads."""
    grid = study_118_suite(case118_path)
    return [grid[k] for k in (0, 30, 50, 70, 84, 117, 125, 151, 163, 198, 204, 239)]


def test_outcomes_do_not_depend_on_scenario_order(case118_path):
    # every LP starts from a basis fixed by its network, never from the
    # scenario run before it
    suite = _mixed_subset(case118_path)
    forwards = run_experiment(suite, NetworkCache())
    backwards = run_experiment(suite[::-1], NetworkCache())
    assert all(o.error is None for o in forwards.outcomes)
    for ahead, behind in zip(forwards.outcomes, backwards.outcomes[::-1]):
        assert ahead.config == behind.config
        np.testing.assert_equal(dataclasses.astuple(ahead), dataclasses.astuple(behind))


def test_bounded_cache_matches_the_default_one(case118_path, monkeypatch):
    # scenarios of four networks in a shuffled order through a cache that
    # keeps two: evicted networks are loaded again, and every outcome is the
    # one a cache that keeps all four gives
    grid = study_118_suite(case118_path)
    suite = [grid[k] for k in (0, 84, 163)]
    for outage in (71, 30, 50):
        mini = outage_robustness_suite(case118_path, outage)
        suite += [mini[k] for k in (0, 45, 60)]
    suite = [suite[k] for k in np.random.default_rng(3).permutation(len(suite))]
    default = run_experiment(suite, NetworkCache())
    loads = []
    real = harness.load_case
    monkeypatch.setattr(harness, "load_case", lambda *key: loads.append(key) or real(*key))
    monkeypatch.setattr(harness, "NETWORKS_KEPT", 2)
    bounded = run_experiment(suite, NetworkCache())
    assert len(set(loads)) == 4 and len(loads) > 4
    assert all(o.error is None for o in default.outcomes)
    for kept, every in zip(bounded.outcomes, default.outcomes):
        np.testing.assert_equal(dataclasses.astuple(kept), dataclasses.astuple(every))


def test_warm_starts_agree_with_cold_solves(case118_path, monkeypatch):
    # each attack and soft-SCED LP, solved again without its start
    warm = []
    solve, case_start = lp.solve_lp, attack._start
    starting = []   # set while an attack start is solved on the case loads

    def spy(problem, start=None):
        sol = solve(problem, start)
        if start is not None:
            warm.append((problem, sol, bool(starting)))
        return sol

    def start_spy(*args):
        starting.append(True)
        try:
            return case_start(*args)
        finally:
            starting.pop()

    monkeypatch.setattr(lp, "solve_lp", spy)
    monkeypatch.setattr(attack, "_start", start_spy)
    run_experiment(_mixed_subset(case118_path), NetworkCache())
    monkeypatch.undo()
    assert {problem.sense for problem, _, _ in warm} == {"max", "min"}
    # a basis answer returns its start as its basis, so the scenario attack
    # LPs are told from the start solves by the call they come from
    warm_iterations, cold_iterations = np.zeros((2, 2), dtype=int)
    for problem, sol, start_solve in warm:
        cold = lp.solve_lp(problem)
        assert np.abs(sol.values - cold.values).max() <= 1e-9
        assert sol.objective_value == pytest.approx(cold.objective_value,
                                                    abs=lp.FEASIBILITY_TOL)
        scenario_attack = problem.sense == "max" and not start_solve
        warm_iterations[int(scenario_attack)] += sol.iterations
        cold_iterations[int(scenario_attack)] += cold.iterations
    assert warm_iterations.sum() < cold_iterations.sum()
    # a scenario's attack resumes from the same attack on the case loads
    assert cold_iterations[1] > 0
    assert 10 * warm_iterations[1] <= cold_iterations[1]


def test_basis_answers_match_highs_from_the_same_start(case118_path, monkeypatch):
    # every warm solve of the seed-2018 grid and the outage-71 suite, solved
    # again by HiGHS alone from the same start
    solve, basis_point = lp.solve_lp, lp._basis_point
    highs_only = []
    pairs = []

    def point(*args):
        return None if highs_only else basis_point(*args)

    def spy(problem, start=None):
        sol = solve(problem, start)
        if start is not None and start._statuses is not None:
            highs_only.append(True)
            pairs.append((sol, solve(problem, start)))
            highs_only.pop()
        return sol

    monkeypatch.setattr(lp, "_basis_point", point)
    monkeypatch.setattr(lp, "solve_lp", spy)
    cache = NetworkCache()
    for suite in (study_118_suite(case118_path), outage_robustness_suite(case118_path, 71)):
        assert all(o.error is None for o in run_experiment(suite, cache).outcomes)
    monkeypatch.undo()
    answered = [sol.rounds == 0 for sol, _ in pairs]
    # a basis answer exactly where HiGHS needs one call and no pivot
    assert answered == [(highs.rounds, highs.iterations) == (1, 0) for _, highs in pairs]
    assert sum(answered) > len(pairs) // 4
    for sol, highs in pairs:
        assert sol.status == highs.status == lp.OPTIMAL
        if sol.rounds == 0:
            assert sol.iterations == 0
            assert np.abs(sol.values - highs.values).max() <= 1e-12


def test_group_statistics_do_not_depend_on_suite_order(case118_path, monkeypatch):
    # numpy sums these five in order, and the reversed order rounds the
    # mean differently
    smldi = [0.913, 0.607, 0.729, 0.544, 0.935]
    assert np.mean(smldi) != np.mean(smldi[::-1])

    def scenario(config, cache):
        return ScenarioOutcome(config, smldi=smldi[config.index], under_attack=True,
                               target_overload_mw=smldi[config.index])

    monkeypatch.setattr(harness, "run_scenario", scenario)
    suite = [_config(case118_path, mode="attack", index=k,
                     attack_params=AttackParams(118, 0.1, 5.0)) for k in range(5)]
    forwards = run_experiment(suite, None).groups
    backwards = run_experiment(suite[::-1], None).groups
    assert forwards == backwards
    assert forwards[0].smldi_average == forwards[0].mean_overload_mw == 0.7456
