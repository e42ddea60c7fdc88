"""Worst-case load-redistribution attack against DC state estimation.

The attacker biases the estimated bus angles by a vector ``c`` (reference
entry fixed at zero).  The implied flow deviations ``dp`` and load deviations
follow from the network equations, so the tampered measurement set stays
perfectly consistent and invisible to residual-based bad-data screens.  The
attack maximizes the hidden flow deviation on a chosen target branch, subject
to a per-bus load-shift bound and an l1 budget on the angle bias; buses
without load must see no injection change at all, because their (trusted)
generator and zero-injection telemetry cannot be forged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import lp
from .cases import Network
from .estimation import FLOW, INJECTION, MeasurementSet, wls_estimate
from .powerflow import topology

AUDIT_TOL = 1e-7


class ContractError(Exception):
    """Mismatched network / measurement / attack dimensions."""


class AuditError(Exception):
    """A solved attack failed its independent constraint re-check."""


@dataclass(frozen=True)
class AttackSpec:
    target_branch: int        # 1-based file ordinal
    load_shift_factor: float  # fraction of each true load the attacker may shift
    l1_limit: float           # budget on sum |c_n| (rad)
    base_flows: np.ndarray    # p.u. per in-service branch, observed at t=0
    base_loads: np.ndarray    # MW per bus, true loads at t=0

    def validate(self, net: Network):
        if not 0.0 <= self.load_shift_factor <= 1.0:
            raise ValueError(
                f"load shift factor must be in [0, 1], got {self.load_shift_factor}"
            )
        if self.l1_limit < 0.0:
            raise ValueError(f"l1 budget must be nonnegative, got {self.l1_limit}")
        n_active = len(net.in_service_branches)
        if np.asarray(self.base_flows).shape != (n_active,):
            raise ContractError("base_flows length does not match in-service branches")
        if np.asarray(self.base_loads).shape != (net.n_bus,):
            raise ContractError("base_loads length does not match bus count")
        if self.target_flow(net) == 0.0:  # also raises if out of service
            raise ValueError(f"target branch {self.target_branch} has zero base"
                             " flow, so the attack has no direction")

    def target_flow(self, net: Network) -> float:
        """Pre-attack flow on the target branch (p.u.)."""
        return float(self.base_flows[net.branch_position(self.target_branch)])


@dataclass(frozen=True)
class AttackResult:
    c: np.ndarray              # rad per bus (angle bias)
    s: np.ndarray              # absolute-value auxiliaries per bus
    delta_p: np.ndarray        # p.u. per in-service branch (hidden flow deltas)
    delta_d: np.ndarray        # MW per bus (malicious load deviations)
    objective: float           # sgn(target base flow) * delta_p on the target
    tampered_loads: np.ndarray # MW per bus
    cyber_flows: np.ndarray    # p.u. per in-service branch, what the EMS sees
    base_mva: float


def _divergence(net: Network, delta_p: np.ndarray) -> np.ndarray:
    """Net outflow delta per bus implied by branch flow deltas."""
    return topology(net).incidence.T @ delta_p


def _flow_deltas(net: Network, c: np.ndarray) -> np.ndarray:
    """Hidden flow delta per in-service branch for angle bias ``c``."""
    topo = topology(net)
    return (c[topo.to_bus] - c[topo.from_bus]) / topo.x


def build_attack_lp(net: Network, spec: AttackSpec) -> lp.LinearProgram:
    """Assemble the attack LP over variables [c, s].

    The flow deltas ``dp = -Bf c`` are substituted out: the objective is
    ``sgn * dp[target] = -sgn * Bf[target] c`` and the malicious load
    deviation per bus, the dp divergence, is ``-B c``.  Rows: per load bus
    that deviation bounded by +-L_S * d_n0; zero deviation at non-load buses;
    |c| <= s elementwise with sum(s) capped by the l1 budget; c fixed to zero
    at the reference bus.
    """
    spec.validate(net)
    topo = topology(net)
    n = net.n_bus
    d0_pu = np.asarray(spec.base_loads, dtype=float) / net.base_mva
    target_pos = net.branch_position(spec.target_branch)
    sgn = float(np.sign(spec.target_flow(net)))

    problem = lp.LinearProgram(sense="max")
    cs = problem.add_variables("c", n)
    problem.add_variables("s", n, lower=0.0)
    problem.fix_variable(cs.start + net.reference_bus, 0.0)
    problem.objective[cs] = -sgn * topo.bf[target_pos]

    is_load = np.array([b.is_load_bus for b in net.buses])
    load = np.flatnonzero(is_load)
    deviation = -topo.b
    # <= rows, as COO triplets: per load bus the pair +-deviation <= bound,
    # then -c - s <= 0 and c - s <= 0 per bus, then sum(s) <= N1.
    shift_rows = (np.repeat(deviation[load], 2, axis=0)
                  * np.tile([1.0, -1.0], len(load))[:, None])
    r, col = np.nonzero(shift_rows)
    k = len(shift_rows)
    abs_rows = k + np.arange(2 * n)
    bus = np.repeat(np.arange(n), 2)
    rows = np.concatenate([r, abs_rows, abs_rows, np.full(n, k + 2 * n)])
    cols = np.concatenate([col, bus, n + bus, n + np.arange(n)])
    data = np.concatenate([shift_rows[r, col], np.tile([-1.0, 1.0], n),
                           -np.ones(2 * n), np.ones(n)])
    b_ub = np.concatenate([
        np.repeat(spec.load_shift_factor * d0_pu[load], 2),
        np.zeros(2 * n),
        [spec.l1_limit],
    ])
    problem.add_rows(sparse.csr_array((data, (rows, cols)), shape=(k + 2 * n + 1, 2 * n)),
                     lp.LE, b_ub)

    quiet = deviation[~is_load]
    problem.add_rows(sparse.csr_array(np.hstack([quiet, np.zeros_like(quiet)])),
                     lp.EQ, np.zeros(len(quiet)))
    return problem


def solve_attack(net: Network, spec: AttackSpec, engine: str = "auto") -> AttackResult:
    """Solve the attack LP and reconstruct the consistent tampered state.

    Flow and load deltas are recomputed from the solved angle bias so the
    network-equation invariants hold to machine precision; the result is then
    audited against every constraint before being returned.
    """
    problem = build_attack_lp(net, spec)
    sol = lp.solve_lp(problem, engine=engine)
    if sol.status != lp.OPTIMAL:
        raise lp.SolverError(f"attack LP terminated {sol.status}")

    n = net.n_bus
    c = sol.values[0:n]
    s = sol.values[n : 2 * n]
    delta_p = _flow_deltas(net, c)
    div_pu = _divergence(net, delta_p)
    is_load = np.array([b.is_load_bus for b in net.buses])
    delta_d = np.where(is_load, div_pu, 0.0) * net.base_mva

    target_pos = net.branch_position(spec.target_branch)
    sgn = float(np.sign(spec.target_flow(net)))
    result = AttackResult(
        c=c,
        s=s,
        delta_p=delta_p,
        delta_d=delta_d,
        objective=sgn * delta_p[target_pos],
        tampered_loads=np.asarray(spec.base_loads, dtype=float) + delta_d,
        cyber_flows=np.asarray(spec.base_flows, dtype=float) - delta_p,
        base_mva=net.base_mva,
    )
    audit_attack(net, spec, result)
    return result


def audit_attack(net: Network, spec: AttackSpec, result: AttackResult,
                 tol: float = AUDIT_TOL) -> None:
    """Independent re-check of every attack constraint; raises on violation."""
    c, s, dp = result.c, result.s, result.delta_p

    if abs(c[net.reference_bus]) > tol:
        raise AuditError("reference-bus bias not zero")
    bad = np.abs(dp - _flow_deltas(net, c)) > tol
    if np.any(bad):
        ordinal = net.in_service_branches[np.argmax(bad)].ordinal
        raise AuditError(f"flow-delta equation violated on branch {ordinal}")

    div_pu = _divergence(net, dp)
    is_load = np.array([b.is_load_bus for b in net.buses])
    bound = spec.load_shift_factor * np.asarray(spec.base_loads) / net.base_mva
    checks = (
        (is_load & (np.abs(div_pu) > bound + tol), "load shift bound violated at bus"),
        (is_load & (np.abs(result.delta_d / net.base_mva - div_pu) > tol),
         "load deviation mismatch at bus"),
        (~is_load & (np.abs(div_pu) > tol), "injection change at no-load bus"),
    )
    for bad, message in checks:
        if np.any(bad):
            raise AuditError(f"{message} {net.buses[np.argmax(bad)].external_id}")

    if np.any(np.abs(c) > s + tol):
        raise AuditError("absolute-value auxiliaries below |c|")
    if s.sum() > spec.l1_limit + tol:
        raise AuditError("l1 budget exceeded")

    expect_cyber = np.asarray(spec.base_flows) - dp
    if np.max(np.abs(result.cyber_flows - expect_cyber)) > tol:
        raise AuditError("cyber flows inconsistent with flow deltas")


def apply_attack(clean: MeasurementSet, result: AttackResult) -> MeasurementSet:
    """Swap true measurements for the attacker's consistent false ones.

    Flow entries drop by the hidden flow delta; injection entries at load
    buses drop by the malicious load deviation (higher cyber load means lower
    net injection).  Generator-only buses are untouched.
    """
    kinds = np.array(clean.kinds, dtype=object)
    is_flow, is_inj = kinds == FLOW, kinds == INJECTION
    n_flow = int(is_flow.sum())
    if n_flow and n_flow != len(result.delta_p):
        raise ContractError(
            f"measurement set has {n_flow} flow entries, attack has"
            f" {len(result.delta_p)} branches"
        )
    delta_d_pu = result.delta_d / result.base_mva
    idx = np.asarray(clean.indices)
    if np.any(idx[is_inj] >= len(delta_d_pu)):
        raise ContractError("injection index outside attack bus range")
    values = clean.values.copy()
    values[is_flow] -= result.delta_p[idx[is_flow]]
    values[is_inj] -= delta_d_pu[idx[is_inj]]
    return clean.with_values(values)


def check_unobservability(
    net: Network, result: AttackResult, clean: MeasurementSet
) -> float:
    """|J(tampered) - J(clean)| from full WLS runs; ~0 for a consistent attack."""
    tampered = apply_attack(clean, result)
    j_clean = wls_estimate(clean, net).weighted_residual_norm
    j_tampered = wls_estimate(tampered, net).weighted_residual_norm
    return abs(j_tampered - j_clean)
