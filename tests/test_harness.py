import numpy as np
import pytest

from gridfdi.detect import AlertLevel
from gridfdi.harness import (
    AttackParams,
    ConfigError,
    FluctuationSpec,
    NetworkCache,
    ScenarioConfig,
    gen_fluctuation,
    outage_robustness_suite,
    study_118_suite,
    run_experiment,
    run_scenario,
    run_timeline,
)
from gridfdi.sced import run_sced


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
    _config(case118_path).validate()


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
        base = net.operators["base_dispatch"]
        assert first.dispatch_prev is base and second.dispatch_prev is base

        fresh = run_sced(net, net.load_mw, soft_limits=True)
        for name in ("gen_output", "scheduled_flows", "violations_mw"):
            cached = getattr(base, name)
            assert np.array_equal(cached, getattr(fresh, name))
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0
        assert base.total_cost == fresh.total_cost
        assert base.binding_branches == fresh.binding_branches
        kept.append(base)
    # each outage network solves its own
    assert len({id(d) for d in kept}) == 3
    assert not np.array_equal(kept[1].scheduled_flows, kept[2].scheduled_flows)
