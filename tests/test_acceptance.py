"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
PASS/FAIL line per criterion.  The 240-scenario study grid is executed once
per session and shared across criteria.
"""

import time

import numpy as np
import pytest

from gridfdi import bundled_case
from gridfdi.attack import AttackSpec, build_attack_lp, solve_attack
from gridfdi.detect import (
    AlertLevel,
    COMBINED_ALERT,
    Snapshot,
    smldi,
)
from gridfdi.estimation import build_measurements, wls_estimate
from gridfdi.harness import (
    NetworkCache,
    outage_robustness_suite,
    study_118_suite,
    run_experiment,
)
from gridfdi.lp import FEASIBILITY_TOL
from gridfdi.powerflow import solve_dc
from gridfdi.sced import run_sced

import golden
from oracles import enumerate_vertices
from test_detect import emldi_all, mldi_all


def _criterion(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def cache():
    return NetworkCache()


@pytest.fixture(scope="module")
def suite_run(cache):
    suite = study_118_suite(bundled_case())
    start = time.monotonic()
    report = run_experiment(suite, cache)
    runtime = time.monotonic() - start
    attacks = [o for o in report.outcomes if o.config.mode == "attack"]
    flucts = [o for o in report.outcomes if o.config.mode == "fluctuation_only"]
    return report, attacks, flucts, runtime


def test_criterion_01_ptdf_oracle(net3, ptdf3, net118, ptdf118):
    start = time.monotonic()

    ok = (
        abs(ptdf3.matrix[0, 1] + 2.0 / 3.0) < 1e-12
        and abs(ptdf3.matrix[1, 1] - 1.0 / 3.0) < 1e-12
        and abs(ptdf3.matrix[2, 1] + 1.0 / 3.0) < 1e-12
    )

    worst = 0.0
    for net, ptdf in ((net3, ptdf3), (net118, ptdf118)):
        eps = 1e-4
        for bus in range(net.n_bus):
            if bus == net.reference_bus:
                continue
            inj = np.zeros(net.n_bus)
            inj[bus] = eps
            inj[net.reference_bus] -= eps
            fd = solve_dc(net, inj).flows / eps
            worst = max(worst, float(np.abs(ptdf.matrix[:, bus] - fd).max()))
    elapsed = time.monotonic() - start
    ok = ok and worst < 1e-8 and elapsed < 5.0
    _criterion(
        1, ok,
        f"PTDF vs finite differences: worst {worst:.2e} (<1e-8), "
        f"hand-derived 2/3 and 1/3 splits exact, {elapsed:.1f}s (<5s)",
    )


def test_criterion_02_unobservability(suite_run, net118, ptdf118):
    report, attacks, _, _ = suite_run
    solved = [o for o in attacks if o.error is None]
    worst_delta = max(o.residual_delta for o in solved)
    worst_lnr = max(o.lnr_value for o in solved)

    # positive control: one gross random error must trip the screen
    dispatch = run_sced(net118, net118.load_mw)
    gen = np.zeros(net118.n_bus)
    for g, mw in zip(net118.generators, dispatch.gen_output):
        gen[g.bus] += mw
    sigma = 0.01
    meas = build_measurements(
        net118, dispatch.scheduled_flows, net118.load_mw, gen,
        {"flow": sigma, "injection": sigma}, seed=2018,
    )
    corrupted = meas.values.copy()
    corrupted[0] += 10 * sigma
    gross = wls_estimate(meas.with_values(corrupted), net118)

    ok = (
        len(solved) == 160
        and worst_delta < 1e-8
        and worst_lnr <= 3.0
        and gross.bad_data
        and gross.lnr_index == 0
    )
    _criterion(
        2, ok,
        f"unobservability: {len(solved)}/160 attacks, worst |dJ| "
        f"{worst_delta:.2e} (<1e-8), worst LNR {worst_lnr:.2f} (<=3), "
        f"gross error LNR {gross.lnr_value:.1f} fires at the right index",
    )


# Each second difference of the attack objective combines three LP optima,
# each held to FEASIBILITY_TOL, with coefficients 1, -2, 1.
CONCAVITY_TOL = 4 * FEASIBILITY_TOL


def test_criterion_03_attack_audit_and_monotonicity(suite_run):
    # The attack LP maximises over the tampering, so on constant loads its
    # objective is nondecreasing and concave in the budget and in the shift.
    _, attacks, _, _ = suite_run
    failures = [o for o in attacks if o.error is not None]

    violations, bends = [], []
    worst_bend = {"n1": -np.inf, "ls": -np.inf}
    constant = [
        o for o in attacks
        if o.error is None and o.config.fluctuation is None
    ]
    for target in (111, 118):
        rows = [(o.config.attack_params, o.attack_objective_pu) for o in constant
                if o.config.attack_params.target_branch == target]
        lines = []   # (axis, the other parameter, [(parameter, objective)])
        for ls in (0.05, 0.10, 0.15, 0.20):
            lines.append(("n1", ls, sorted((p.l1_limit, obj) for p, obj in rows
                                           if abs(p.load_shift_factor - ls) < 1e-12)))
        for n1 in range(1, 11):
            lines.append(("ls", n1, sorted((p.load_shift_factor, obj) for p, obj in rows
                                           if p.l1_limit == float(n1))))
        for axis, at, line in lines:
            objs = np.array([obj for _, obj in line])
            violations += [
                (target, axis, at, a, b)
                for a, b in zip(objs, objs[1:]) if b < a - 1e-7
            ]
            second = np.diff(objs, 2)
            worst_bend[axis] = max(worst_bend[axis], second.max())
            bends += [(target, axis, at, d) for d in second if d > CONCAVITY_TOL]

    ok = not failures and not violations and not bends
    _criterion(
        3, ok,
        f"attack audit: {len(attacks) - len(failures)}/160 solved and "
        f"re-verified at 1e-7; monotonicity violations: {len(violations)}; "
        f"concavity violations: {len(bends)} (largest second difference "
        f"{worst_bend['n1']:.1e} in the budget, {worst_bend['ls']:.1e} in the "
        f"shift, <= {CONCAVITY_TOL:.0e})",
    )


def test_criterion_04_toy_lp_oracle(net3):
    loads = net3.load_mw
    gen = np.zeros(3)
    gen[net3.generators[0].bus] = loads.sum()
    flows = solve_dc(net3, (gen - loads) / net3.base_mva).flows
    gaps = []
    for target, ls, n1 in ((1, 0.5, 10.0), (2, 0.3, 0.004), (3, 0.2, 1.0)):
        spec = AttackSpec(target, ls, n1, flows, loads)
        _, best = enumerate_vertices(build_attack_lp(net3, spec))
        result = solve_attack(net3, spec)
        gaps.append(abs(result.objective - best))
    ok = max(gaps) < 1e-6
    _criterion(
        4, ok,
        f"attack LP vs exhaustive vertex enumeration: worst gap "
        f"{max(gaps):.2e} (<1e-6) over {len(gaps)} toy instances",
    )


def test_criterion_05_metric_ranges_and_dead_band(net118, ptdf118):
    rng = np.random.default_rng(118)
    m = ptdf118.n_branches
    ordinals = np.arange(1, m + 1)
    worst = 0.0
    for _ in range(1000):
        prev_loads = rng.uniform(1.0, 300.0, net118.n_bus)
        snap = Snapshot(
            prev_flows=rng.uniform(-2, 2, m),
            prev_loads=prev_loads,
            measured_flows=rng.uniform(-2, 2, m),
            measured_loads=prev_loads * rng.uniform(0.6, 1.4, net118.n_bus),
            sced_flows=rng.uniform(-2, 2, m),
            limits=rng.uniform(0.1, 3.0, m),
            ptdf=ptdf118,
            branch_ordinals=ordinals,
        )
        lo = mldi_all(snap)
        hi = emldi_all(snap)
        sm, _ = smldi(lo, ptdf118.eligible)
        worst = max(worst, np.abs(lo).max(), np.abs(hi).max(), abs(sm))

    base = np.full(net118.n_bus, 100.0)
    flows = np.full(m, 0.7)
    quiet = Snapshot(
        prev_flows=flows, prev_loads=base,
        measured_flows=flows.copy(),
        measured_loads=base * 1.049,
        sced_flows=flows.copy(),
        limits=np.ones(m), ptdf=ptdf118, branch_ordinals=ordinals,
    )
    lo, hi = mldi_all(quiet), emldi_all(quiet)
    sm, _ = smldi(lo, ptdf118.eligible)
    dead = float(np.abs(lo).max() + np.abs(hi).max() + abs(sm))
    ok = worst <= 1.0 + 1e-12 and dead == 0.0
    _criterion(
        5, ok,
        f"metric ranges on 1000 random snapshots: max |value| {worst:.6f} "
        f"(<=1); sub-5% uniform load move yields exactly 0 (got {dead})",
    )


def test_criterion_06_combined_alert_table():
    n, m, w, d = (AlertLevel.NORMAL, AlertLevel.MONITOR,
                  AlertLevel.WARNING, AlertLevel.DANGER)
    printed = {
        (n, n): n, (n, m): m, (n, w): m, (n, d): w,
        (m, n): m, (m, m): m, (m, w): w, (m, d): w,
        (w, n): m, (w, m): w, (w, w): w, (w, d): d,
        (d, n): w, (d, m): w, (d, w): d, (d, d): d,
    }
    mismatches = [
        pair for pair, want in printed.items()
        if COMBINED_ALERT[pair[0]][pair[1]] != want
    ]
    _criterion(
        6, not mismatches,
        f"combined alert lookup: {16 - len(mismatches)}/16 pairs match the table",
    )


def test_criterion_07_smldi_separation(suite_run):
    report, attacks, flucts, runtime = suite_run
    solved = [o for o in attacks if o.error is None]
    att_hi = sum(o.smldi > 0.35 for o in solved)
    flt_lo = sum(o.smldi < 0.35 for o in flucts)
    groups = {g.group: g for g in report.groups}
    base_avg = groups["N(0,0.03)"].smldi_average
    attack_avgs = {
        name: g.smldi_average for name, g in groups.items()
        if name.startswith("attack")
    }
    false_alarms = sum(g.false_alarms for g in report.groups)
    ok = (
        att_hi >= 0.95 * 160
        and flt_lo >= 0.95 * 80
        and 0.05 <= base_avg <= 0.20
        and all(0.55 <= v <= 0.85 for v in attack_avgs.values())
        and false_alarms <= 4
        and runtime < 600.0
    )
    _criterion(
        7, ok,
        f"separation: attacks >35%: {att_hi}/160 (>=152), fluctuations <35%: "
        f"{flt_lo}/80 (>=76), N(0,3%) avg {base_avg:.1%} in [5%,20%], attack "
        f"group avgs {sorted(round(v, 3) for v in attack_avgs.values())} in "
        f"[55%,85%], false alarms {false_alarms} (<=4), suite {runtime:.0f}s (<600s)",
    )


def test_criterion_08_identification(suite_run):
    _, attacks, _, _ = suite_run
    solved = [o for o in attacks if o.error is None]
    identified = sum(bool(o.target_in_suspects) for o in solved)
    # rank exists only where stage 1 escalated; misses are already capped
    # by the 90% identification requirement
    ranks = [o.target_cai_rank for o in solved if o.target_cai_rank is not None]
    mean_rank = float(np.mean(ranks))
    ok = identified >= 0.90 * 160 and mean_rank <= 2.0
    _criterion(
        8, ok,
        f"identification: target in suspects for {identified}/160 (>=144), "
        f"average target rank {mean_rank:.2f} (<=2.0) over {len(ranks)} "
        f"escalated scenarios",
    )


def test_criterion_09_target_111_spot_check(suite_run):
    _, attacks, _, _ = suite_run
    series = sorted(
        (
            o for o in attacks
            if o.error is None
            and o.config.fluctuation is None
            and o.config.attack_params.target_branch == 111
            and abs(o.config.attack_params.load_shift_factor - 0.10) < 1e-12
        ),
        key=lambda o: o.config.attack_params.l1_limit,
    )
    rank_one = sum(o.target_cai_rank == 1 for o in series)
    danger = sum(bool(o.target_danger) for o in series)
    ok = len(series) == 10 and rank_one >= 8 and danger >= 7
    _criterion(
        9, ok,
        f"branch-111 constant-load 10%-shift sweep: rank-1 for {rank_one}/10 "
        f"(>=8), combined alert Danger for {danger}/10 (>=7)",
    )


def _scenario_118_ls10_n5(attacks):
    for o in attacks:
        p = o.config.attack_params
        if (
            o.config.fluctuation is None
            and p.target_branch == 118
            and abs(p.load_shift_factor - 0.10) < 1e-12
            and p.l1_limit == 5.0
        ):
            return o
    raise AssertionError("scenario missing from the grid")


def test_criterion_10_tamper_count(suite_run):
    _, attacks, _, _ = suite_run
    o = _scenario_118_ls10_n5(attacks)
    ok = o.error is None and o.tampered_load_count >= 90
    _criterion(
        10, ok,
        f"branch-118 10%-shift budget-5 attack forges "
        f"{o.tampered_load_count}/99 load measurements (>=90)",
    )


def test_criterion_11_physical_overload(suite_run):
    _, attacks, _, _ = suite_run
    o = _scenario_118_ls10_n5(attacks)
    ok = o.error is None and o.target_overload_mw > 0.0
    _criterion(
        11, ok,
        f"same attack drives true post-dispatch flow {o.target_overload_mw:.1f} MW "
        f"above the branch-118 rating (>0)",
    )


@pytest.fixture(scope="module")
def outage_runs(cache):
    return {outage: run_experiment(outage_robustness_suite(bundled_case(), outage),
                                   cache)
            for outage in (1, 71, 141)}


def test_criterion_12_outage_robustness(outage_runs):
    lines = []
    ok = True
    for outage, report in outage_runs.items():
        attacks = [o for o in report.outcomes if o.config.mode == "attack"]
        flucts = [o for o in report.outcomes
                  if o.config.mode == "fluctuation_only"]
        detected = sum(
            bool(o.under_attack) for o in attacks if o.error is None
        )
        alarms = sum(bool(o.under_attack) for o in flucts if o.error is None)
        failed = sum(1 for o in report.outcomes if o.error is not None)
        ok = ok and detected == 32 and alarms <= 2 and failed == 0
        lines.append(f"outage {outage}: {detected}/32 detected, "
                     f"{alarms} false alarms, {failed} failures")
    _criterion(12, ok, "; ".join(lines))


def test_smldi_pool_size_robustness(suite_run, cache):
    """Separation at the 35% line holds for pools of 8, 10 and 12 branches."""
    report, attacks, flucts, _ = suite_run
    _, ptdf = cache.get(bundled_case(), ())
    for top_n in (8, 12):
        att, flt = 0, 0
        for o in attacks:
            if o.error is None:
                value, _ = smldi(o.report.mldi, ptdf.eligible, top_n)
                att += value > 0.35
        for o in flucts:
            value, _ = smldi(o.report.mldi, ptdf.eligible, top_n)
            flt += value < 0.35
        assert att >= 0.95 * 160, f"top_n={top_n}: attacks above 35%: {att}"
        assert flt >= 0.95 * 80, f"top_n={top_n}: fluctuations below 35%: {flt}"


def test_golden_outcome_record(suite_run, outage_runs):
    """Every scenario of the grid and the outage-71 suite decides as the
    committed record says (``scripts/write_golden.py`` rewrites it)."""
    record = golden.build_record({"grid": suite_run[0].outcomes,
                                  "outage71": outage_runs[71].outcomes})
    moved = golden.diff(golden.load_record(), record)
    assert not moved, "\n".join(moved)
