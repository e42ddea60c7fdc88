"""Scenario generation and the two-interval timeline simulation.

A scenario walks the operating sequence across two dispatch intervals:
dispatch on trusted loads, loads drift (optionally), the attacker forges the
current interval's measurements (optionally), state estimation runs on what
arrived, dispatch runs again on the estimated picture, and the ground truth
is whatever physics then does with the real loads.  The detector sees exactly
one :class:`~gridfdi.detect.Snapshot` per scenario.

Batch experiments aggregate detector output per scenario group, mirroring the
case-study tables (max / min / median / average / std of the system-wide
score plus detection and identification counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attack import (AttackResult, AttackSpec, apply_attack,
                     check_unobservability, solve_attack)
from .cases import Network, load_case
from .detect import DetectionReport, Snapshot, run_two_stage
from .estimation import (
    INJECTION,
    build_measurements,
    estimated_flows,
    wls_estimate,
)
from .powerflow import compute_ptdf, solve_dc
from .sced import Dispatch, run_sced

FLUCTUATION_CUTOFF = 1.96   # clip standard-normal draws; 95% two-sided band


class ConfigError(Exception):
    """Scenario configuration inconsistent with its mode."""


@dataclass(frozen=True)
class FluctuationSpec:
    mu: float       # mean relative drift (fraction)
    sigma: float    # standard deviation (fraction)

    def label(self):
        return f"N({self.mu:g},{self.sigma:g})"


@dataclass(frozen=True)
class AttackParams:
    target_branch: int        # 1-based file ordinal
    load_shift_factor: float
    l1_limit: float


@dataclass(frozen=True)
class ScenarioConfig:
    case_path: str
    mode: str                                  # "fluctuation_only" | "attack"
    seed: tuple[int, ...] | int
    outages: tuple[int, ...] = ()
    fluctuation: FluctuationSpec | None = None  # None = constant load
    attack_params: AttackParams | None = None
    noise_sigma: dict = field(default_factory=dict)
    top_n: int = 10
    dead_band: float = 0.05
    group: str = ""
    index: int = 0

    def validate(self):
        if self.mode == "fluctuation_only":
            if self.attack_params is not None:
                raise ConfigError("fluctuation_only scenario carries attack params")
        elif self.mode == "attack":
            if self.attack_params is None:
                raise ConfigError("attack scenario lacks attack params")
        else:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.fluctuation is not None and self.fluctuation.sigma < 0:
            raise ConfigError("fluctuation sigma must be nonnegative")


def gen_fluctuation(loads_mw: np.ndarray, mu: float, sigma: float, rng) -> np.ndarray:
    """Per-bus load drift: clipped standard-normal draws, scaled and shifted,
    then applied multiplicatively (so zero-load buses never move)."""
    v = rng.standard_normal(len(loads_mw))
    v = np.clip(v, -FLUCTUATION_CUTOFF, FLUCTUATION_CUTOFF)
    v = v * sigma + mu
    return np.asarray(loads_mw, dtype=float) * v


@dataclass(frozen=True)
class TimelineResult:
    snapshot: Snapshot
    attack: AttackResult | None
    dispatch_prev: Dispatch
    dispatch_next: Dispatch
    loads_prev: np.ndarray       # MW
    loads_true: np.ndarray       # MW at t=0 (what physics sees)
    true_flows_t0: np.ndarray    # p.u. before re-dispatch
    true_flows_next: np.ndarray  # p.u. after re-dispatch, true loads
    violations_mw: np.ndarray    # per-branch |flow| - limit (positive = overload)
    target_overload_mw: float | None
    lnr_value: float             # largest normalized residual seen by the EMS
    residual_delta: float | None # |J_tampered - J_clean|, attack scenarios only


class NetworkCache:
    """Per-(case, outages) network reuse across scenarios; each network keeps
    its own operators, the PTDF among them."""

    def __init__(self):
        self._nets: dict = {}

    def get(self, case_path: str, outages: tuple[int, ...]):
        """``(network, its PTDF)``, loading the case on first use."""
        key = (str(case_path), tuple(outages))
        net = self._nets.get(key)
        if net is None:
            net = self._nets[key] = load_case(case_path, outages)
        return net, compute_ptdf(net)


def _base_dispatch(net: Network) -> Dispatch:
    """Interval-1 dispatch on the case loads.  It depends on the network
    alone, so it is solved once per instance, kept in ``net.operators`` and
    shared read-only by every timeline on that network."""
    dispatch = net.operators.get("base_dispatch")
    if dispatch is None:
        dispatch = run_sced(net, net.load_mw, soft_limits=True)
        for arr in (dispatch.gen_output, dispatch.scheduled_flows,
                    dispatch.violations_mw):
            arr.setflags(write=False)
        net.operators["base_dispatch"] = dispatch
    return dispatch


def _gen_by_bus(net: Network, dispatch: Dispatch) -> np.ndarray:
    out = np.zeros(net.n_bus)
    np.add.at(out, [g.bus for g in net.generators], dispatch.gen_output)
    return out


def _balanced_flows(net: Network, gen_mw, loads_mw):
    inj = (np.asarray(gen_mw) - np.asarray(loads_mw)) / net.base_mva
    inj[net.reference_bus] -= inj.sum()
    return solve_dc(net, inj).flows


def run_timeline(config: ScenarioConfig, cache: NetworkCache | None = None) -> TimelineResult:
    """Simulate one scenario and assemble the detector snapshot plus ground
    truth; deterministic for identical (config, seed)."""
    config.validate()
    cache = cache or NetworkCache()
    net, ptdf = cache.get(config.case_path, config.outages)
    seed_seq = np.random.SeedSequence(config.seed)
    fluct_seed, noise_seed = seed_seq.spawn(2)

    # Interval 1: trusted loads, dispatch, actual flows.
    loads_prev = net.load_mw
    dispatch_prev = _base_dispatch(net)
    gen_prev = _gen_by_bus(net, dispatch_prev)

    # Loads drift into interval 2; the old dispatch rides through, imbalance
    # lands on the reference unit.
    if config.fluctuation is not None and (
        config.fluctuation.sigma > 0 or config.fluctuation.mu != 0
    ):
        rng = np.random.default_rng(fluct_seed)
        loads_true = loads_prev + gen_fluctuation(
            loads_prev, config.fluctuation.mu, config.fluctuation.sigma, rng
        )
    else:
        loads_true = loads_prev.copy()
    true_flows_t0 = _balanced_flows(net, gen_prev, loads_true)

    # The attacker observes the real t=0 state and forges the telemetry.
    attack = None
    if config.mode == "attack":
        spec = AttackSpec(
            target_branch=config.attack_params.target_branch,
            load_shift_factor=config.attack_params.load_shift_factor,
            l1_limit=config.attack_params.l1_limit,
            base_flows=true_flows_t0,
            base_loads=loads_true,
        )
        attack = solve_attack(net, spec)

    clean = build_measurements(
        net, true_flows_t0, loads_true, gen_prev,
        noise_sigma=config.noise_sigma, seed=noise_seed,
    )
    meas = apply_attack(clean, attack) if attack is not None else clean

    se = wls_estimate(meas, net)
    residual_delta = None
    if attack is not None:
        residual_delta = check_unobservability(net, attack, clean)
    measured_flows = estimated_flows(net, se.angles)
    measured_loads = _loads_from_measurements(net, meas, gen_prev)

    # Interval 2 dispatch runs on the estimated picture.
    dispatch_next = run_sced(net, measured_loads, soft_limits=True)
    gen_next = _gen_by_bus(net, dispatch_next)

    # Ground truth: the new dispatch against the *real* loads.
    true_flows_next = _balanced_flows(net, gen_next, loads_true)
    limits = net.limits_pu()
    violations_mw = (np.abs(true_flows_next) - limits) * net.base_mva

    target_overload = None
    if config.mode == "attack":
        pos = net.branch_position(config.attack_params.target_branch)
        target_overload = float(violations_mw[pos])

    snapshot = Snapshot(
        prev_flows=dispatch_prev.scheduled_flows,
        prev_loads=loads_prev,
        measured_flows=measured_flows,
        measured_loads=measured_loads,
        sced_flows=dispatch_next.scheduled_flows,
        limits=limits,
        ptdf=ptdf,
        branch_ordinals=np.array(
            [b.ordinal for b in net.in_service_branches]
        ),
    )
    return TimelineResult(
        snapshot=snapshot,
        attack=attack,
        dispatch_prev=dispatch_prev,
        dispatch_next=dispatch_next,
        loads_prev=loads_prev,
        loads_true=loads_true,
        true_flows_t0=true_flows_t0,
        true_flows_next=true_flows_next,
        violations_mw=violations_mw,
        target_overload_mw=target_overload,
        lnr_value=se.lnr_value,
        residual_delta=residual_delta,
    )


def _loads_from_measurements(net: Network, meas, gen_mw: np.ndarray) -> np.ndarray:
    """Load telemetry as the control room reads it: trusted generation minus
    the (possibly forged) net-injection measurements."""
    is_inj = np.array(meas.kinds, dtype=object) == INJECTION
    inj = np.zeros(net.n_bus)
    inj[meas.indices[is_inj]] = meas.values[is_inj]
    return np.asarray(gen_mw) - inj * net.base_mva


# --- batch experiments --------------------------------------------------------


@dataclass(frozen=True)
class ScenarioOutcome:
    config: ScenarioConfig
    report: DetectionReport | None
    smldi: float | None
    under_attack: bool | None
    target_in_suspects: bool | None
    target_cai_rank: int | None
    target_cai_top: bool | None
    target_danger: bool | None
    target_overload_mw: float | None
    attack_objective_pu: float | None = None
    tampered_load_count: int | None = None
    residual_delta: float | None = None
    lnr_value: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class GroupStats:
    group: str
    n: int
    failures: int
    smldi_max: float
    smldi_min: float
    smldi_median: float
    smldi_average: float
    smldi_std: float
    detected: int
    identified: int
    danger_marked: int
    false_alarms: int
    mean_overload_mw: float | None


@dataclass(frozen=True)
class ExperimentReport:
    outcomes: tuple[ScenarioOutcome, ...]
    groups: tuple[GroupStats, ...]


def run_scenario(config: ScenarioConfig, cache: NetworkCache | None = None) -> ScenarioOutcome:
    timeline = run_timeline(config, cache)
    report = run_two_stage(
        timeline.snapshot, top_n=config.top_n, dead_band=config.dead_band
    )

    in_suspects = rank = top = danger = None
    if config.mode == "attack":
        target = config.attack_params.target_branch
        in_suspects = False
        danger = False
        top = False
        if report.stage2 is not None:
            pos = int(np.nonzero(report.branch_ordinals == target)[0][0])
            rank = int(report.stage2.cai_rank[pos])
            top = rank <= 3 and report.stage2.cai[pos] > 0
            danger = report.stage2.combined_alerts[pos].name == "DANGER"
            in_suspects = any(s.ordinal == target for s in report.stage2.suspects)
    tampered_count = None
    if timeline.attack is not None:
        tampered_count = int(np.sum(np.abs(timeline.attack.delta_d) > 1e-6))
    return ScenarioOutcome(
        config=config,
        report=report,
        smldi=report.smldi,
        under_attack=report.under_attack,
        target_in_suspects=in_suspects,
        target_cai_rank=rank,
        target_cai_top=top,
        target_danger=danger,
        target_overload_mw=timeline.target_overload_mw,
        attack_objective_pu=(
            None if timeline.attack is None else timeline.attack.objective
        ),
        tampered_load_count=tampered_count,
        residual_delta=timeline.residual_delta,
        lnr_value=timeline.lnr_value,
    )


def run_experiment(suite, cache: NetworkCache | None = None) -> ExperimentReport:
    """Run every scenario (failures recorded, not fatal) and aggregate per
    group; the outcome order follows the suite order regardless of how the
    scenarios were executed."""
    cache = cache or NetworkCache()
    outcomes = []
    for config in suite:
        try:
            outcome = run_scenario(config, cache)
        except Exception as exc:  # per-scenario isolation
            outcome = ScenarioOutcome(
                config=config, report=None, smldi=None, under_attack=None,
                target_in_suspects=None, target_cai_rank=None,
                target_cai_top=None, target_danger=None,
                target_overload_mw=None, error=f"{type(exc).__name__}: {exc}",
            )
        outcomes.append(outcome)

    group_names = []
    for o in outcomes:
        if o.config.group not in group_names:
            group_names.append(o.config.group)

    groups = []
    for name in group_names:
        members = [o for o in outcomes if o.config.group == name]
        ok = [o for o in members if o.error is None]
        smldis = np.array([o.smldi for o in ok]) if ok else np.zeros(0)
        attacks = [o for o in ok if o.config.mode == "attack"]
        flucts = [o for o in ok if o.config.mode == "fluctuation_only"]
        overloads = [
            o.target_overload_mw for o in attacks if o.target_overload_mw is not None
        ]
        groups.append(GroupStats(
            group=name,
            n=len(members),
            failures=len(members) - len(ok),
            smldi_max=float(smldis.max()) if len(smldis) else 0.0,
            smldi_min=float(smldis.min()) if len(smldis) else 0.0,
            smldi_median=float(np.median(smldis)) if len(smldis) else 0.0,
            smldi_average=float(smldis.mean()) if len(smldis) else 0.0,
            smldi_std=float(smldis.std()) if len(smldis) else 0.0,
            detected=sum(bool(o.under_attack) for o in attacks),
            identified=sum(bool(o.target_in_suspects) for o in attacks),
            danger_marked=sum(bool(o.target_danger) for o in attacks),
            false_alarms=sum(bool(o.under_attack) for o in flucts),
            mean_overload_mw=float(np.mean(overloads)) if overloads else None,
        ))
    return ExperimentReport(outcomes=tuple(outcomes), groups=tuple(groups))


# --- canonical suites -----------------------------------------------------------

FLUCTUATION_GRID = (
    FluctuationSpec(0.0, 0.03),
    FluctuationSpec(0.0, 0.05),
    FluctuationSpec(-0.01, 0.03),
    FluctuationSpec(0.01, 0.03),
)

ATTACK_FLUCTUATION = FluctuationSpec(0.0, 0.03)


def study_118_suite(case_path: str, seed: int = 2018,
                    outages: tuple[int, ...] = ()) -> list[ScenarioConfig]:
    """The full 118-bus study grid: 80 fluctuation-only scenarios (20 per
    distribution) plus 160 attacks (2 targets x 4 load-shift factors x
    10 l1 budgets x constant/fluctuating first interval)."""
    return _grid(
        case_path, seed, outages,
        targets=(118, 111),
        shifts=(0.05, 0.10, 0.15, 0.20),
        budgets=tuple(range(1, 11)),
        fluct_per_dist=20,
    )


def outage_robustness_suite(case_path: str, outage: int,
                            seed: int = 2018) -> list[ScenarioConfig]:
    """Mini-suite per outage configuration: 40 fluctuation-only scenarios
    plus 32 attacks (2 targets x 4 shifts x budgets {5, 10} x constant and
    fluctuating first interval)."""
    return _grid(
        case_path, seed, (outage,),
        targets=(118, 111),
        shifts=(0.05, 0.10, 0.15, 0.20),
        budgets=(5, 10),
        fluct_per_dist=10,
    )


def _grid(case_path, seed, outages, targets, shifts, budgets, fluct_per_dist):
    suite = []
    index = 0
    for fluct in FLUCTUATION_GRID:
        for _ in range(fluct_per_dist):
            suite.append(ScenarioConfig(
                case_path=str(case_path),
                mode="fluctuation_only",
                seed=(seed, index),
                outages=tuple(outages),
                fluctuation=fluct,
                group=fluct.label(),
                index=index,
            ))
            index += 1
    for target in targets:
        for fluct in (None, ATTACK_FLUCTUATION):
            label = "constant" if fluct is None else fluct.label()
            for shift in shifts:
                for budget in budgets:
                    suite.append(ScenarioConfig(
                        case_path=str(case_path),
                        mode="attack",
                        seed=(seed, index),
                        outages=tuple(outages),
                        fluctuation=fluct,
                        attack_params=AttackParams(
                            target_branch=target,
                            load_shift_factor=shift,
                            l1_limit=float(budget),
                        ),
                        group=f"attack-{target}-{label}",
                        index=index,
                    ))
                    index += 1
    return suite
