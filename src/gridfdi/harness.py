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

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .attack import AttackResult, AttackSpec, apply_attack, solve_attack
from .cases import Network, load_case
from .detect import AlertLevel, ConfigError, DetectionReport, Snapshot, run_two_stage
from .estimation import build_measurements, estimated_flows, wls_estimate
from .powerflow import compute_ptdf
from .sced import Dispatch, base_dispatch, per_bus, run_sced

FLUCTUATION_CUTOFF = 1.96   # clip standard-normal draws; 95% two-sided band
NETWORKS_KEPT = 16          # networks a NetworkCache holds, least recently used out


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
        for name in ("fluctuation", "attack_params"):
            params = getattr(self, name)
            for f in fields(params) if params is not None else ():
                value = getattr(params, f.name)
                if not np.isfinite(value):
                    raise ConfigError(f"{name}.{f.name} must be finite, got {value}")
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
    gen_metered: np.ndarray      # MW per bus at t=0, the reference unit's drift included
    true_flows_t0: np.ndarray    # p.u. before re-dispatch
    true_flows_next: np.ndarray  # p.u. after re-dispatch, true loads
    violations_mw: np.ndarray    # per-branch |flow| - limit (positive = overload)
    target_overload_mw: float | None
    lnr_value: float             # largest normalized residual seen by the EMS
    residual_delta: float | None # |J_tampered - J_clean|, attack scenarios only


class NetworkCache:
    """Per-(case, outages) network reuse across scenarios, the
    ``NETWORKS_KEPT`` used last; each network keeps its own operators, the
    PTDF among them.  ``first`` keeps the first network of each case file
    past eviction, for the reference bus a report names: the case sets it."""

    def __init__(self):
        # load_case is looked up by name on each miss, so a wrapper put on it
        # after the cache was made sees the load
        self._load = functools.lru_cache(NETWORKS_KEPT)(lambda *key: load_case(*key))
        self.first = {}

    def get(self, case_path: str, outages: tuple[int, ...]):
        """``(network, its PTDF)``, loading the case on first use."""
        net = self._load(str(case_path), tuple(outages))
        self.first.setdefault(str(case_path), net)
        return net, compute_ptdf(net)


def run_timeline(config: ScenarioConfig, cache: NetworkCache) -> TimelineResult:
    """Simulate one scenario and assemble the detector snapshot plus ground
    truth; deterministic for identical (config, seed)."""
    config.validate()
    net, ptdf = cache.get(config.case_path, config.outages)
    seed_seq = np.random.SeedSequence(config.seed)
    fluct_seed, noise_seed = seed_seq.spawn(2)

    # Interval 1: trusted loads, dispatch, actual flows.
    loads_prev = net.load_mw
    dispatch_prev = base_dispatch(net)
    gen_prev = per_bus(net, dispatch_prev.gen_output)

    # Loads drift into interval 2; the old dispatch rides through, imbalance
    # lands on the reference unit, and telemetry meters what it produces.
    if config.fluctuation is not None:
        rng = np.random.default_rng(fluct_seed)
        loads_true = loads_prev + gen_fluctuation(
            loads_prev, config.fluctuation.mu, config.fluctuation.sigma, rng
        )
    else:
        loads_true = loads_prev.copy()
    # The PTDF's reference column is zero, so it maps the unbalanced
    # injections to the flows with the imbalance on the reference bus.
    true_flows_t0 = ptdf.matrix @ ((gen_prev - loads_true) / net.base_mva)
    gen_metered = gen_prev.copy()
    gen_metered[net.reference_bus] += loads_true.sum() - gen_prev.sum()

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
        net, true_flows_t0, loads_true, gen_metered,
        noise_sigma=config.noise_sigma, seed=noise_seed,
    )
    meas = apply_attack(clean, attack) if attack is not None else clean

    se = wls_estimate(meas, net)
    residual_delta = None if attack is None else abs(
        se.weighted_residual_norm - wls_estimate(clean, net).weighted_residual_norm)
    measured_flows = estimated_flows(net, se.angles)
    measured_loads = _loads_from_measurements(net, meas, gen_metered)

    # Interval 2 dispatch runs on the estimated picture.
    dispatch_next = run_sced(net, measured_loads, soft_limits=True)
    gen_next = per_bus(net, dispatch_next.gen_output)

    # Ground truth: the new dispatch against the *real* loads.
    true_flows_next = ptdf.matrix @ ((gen_next - loads_true) / net.base_mva)
    limits = net.limits_pu
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
        branch_ordinals=net.branch_ordinals,
    )
    return TimelineResult(
        snapshot=snapshot,
        attack=attack,
        dispatch_prev=dispatch_prev,
        dispatch_next=dispatch_next,
        loads_prev=loads_prev,
        loads_true=loads_true,
        gen_metered=gen_metered,
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
    inj = np.zeros(net.n_bus)
    inj[meas.indices[~meas.is_flow]] = meas.values[~meas.is_flow]
    return np.asarray(gen_mw) - inj * net.base_mva


# --- batch experiments --------------------------------------------------------


@dataclass(frozen=True)
class ScenarioOutcome:
    config: ScenarioConfig
    report: DetectionReport | None = None
    smldi: float | None = None
    under_attack: bool | None = None
    target_in_suspects: bool | None = None
    target_cai_rank: int | None = None
    target_danger: bool | None = None
    target_overload_mw: float | None = None
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


def run_scenario(config: ScenarioConfig, cache: NetworkCache) -> ScenarioOutcome:
    timeline = run_timeline(config, cache)
    report = run_two_stage(timeline.snapshot)

    in_suspects = rank = danger = None
    if config.mode == "attack":
        target = config.attack_params.target_branch
        in_suspects = False
        danger = False
        if report.stage2 is not None:
            pos = int(np.nonzero(report.branch_ordinals == target)[0][0])
            rank = int(report.stage2.cai_rank[pos])
            danger = bool(report.stage2.combined_alerts[pos] == AlertLevel.DANGER)
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
        target_danger=danger,
        target_overload_mw=timeline.target_overload_mw,
        attack_objective_pu=(
            None if timeline.attack is None else timeline.attack.objective
        ),
        tampered_load_count=tampered_count,
        residual_delta=timeline.residual_delta,
        lnr_value=timeline.lnr_value,
    )


def run_experiment(suite, cache: NetworkCache) -> ExperimentReport:
    """Run every scenario (failures recorded, not fatal) and aggregate per
    group; the outcome order follows the suite order regardless of how the
    scenarios were executed."""
    outcomes = []
    for config in suite:
        try:
            outcome = run_scenario(config, cache)
        except Exception as exc:  # per-scenario isolation
            outcome = ScenarioOutcome(config, error=f"{type(exc).__name__}: {exc}")
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
        average = _mean(smldis) if len(smldis) else 0.0
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
            smldi_average=average,
            smldi_std=math.sqrt(_mean((smldis - average) ** 2)) if len(smldis) else 0.0,
            detected=sum(bool(o.under_attack) for o in attacks),
            identified=sum(bool(o.target_in_suspects) for o in attacks),
            danger_marked=sum(bool(o.target_danger) for o in attacks),
            false_alarms=sum(bool(o.under_attack) for o in flucts),
            mean_overload_mw=_mean(overloads) if overloads else None,
        ))
    return ExperimentReport(outcomes=tuple(outcomes), groups=tuple(groups))


def _mean(values) -> float:
    """Mean whose sum is exact before it is rounded, so it does not depend
    on the order of ``values``."""
    return math.fsum(values) / len(values)


# --- canonical suites -----------------------------------------------------------

FLUCTUATION_GRID = (
    FluctuationSpec(0.0, 0.03),
    FluctuationSpec(0.0, 0.05),
    FluctuationSpec(-0.01, 0.03),
    FluctuationSpec(0.01, 0.03),
)

ATTACK_FLUCTUATION = FluctuationSpec(0.0, 0.03)


def study_118_suite(case_path: str, seed: int = 2018) -> list[ScenarioConfig]:
    """The full 118-bus study grid: 80 fluctuation-only scenarios (20 per
    distribution) plus 160 attacks (2 targets x 4 load-shift factors x
    10 l1 budgets x constant/fluctuating first interval)."""
    return _grid(
        case_path, seed, (),
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
