"""Worst-case load-redistribution attack against DC state estimation.

The attacker biases the estimated bus angles by a vector ``c`` (reference
entry fixed at zero).  The implied flow deviations ``dp`` and load deviations
follow from the network equations, so the tampered measurement set stays
perfectly consistent and invisible to residual-based bad-data screens.  The
attack maximizes the hidden flow deviation on a chosen target branch, subject
to a per-bus load-shift bound and an l1 budget on the angle bias; buses
without load must see no injection change at all, because their (trusted)
generator and zero-injection telemetry cannot be forged.

Only the right-hand sides of the attack LP depend on the load shift, the
budget and the loads; the objective depends on the network, the target and
the sign of its base flow.  So each solve starts from the optimal basis of
the same attack (target, sign, shift and budget) on the network's case
loads, solved on first use.  That start is itself solved from the *anchor*,
the attack with shift ``ANCHOR_SHIFT`` and budget ``ANCHOR_BUDGET`` on the
case loads, which alone is solved cold.  Starts depend on the network and
the attack alone, so answers do not depend on call order.  The network keeps
at most ``START_CAP`` of them, read-only, through :func:`cases.kept`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from . import lp
from .cases import Network, kept, per_network
from .estimation import MeasurementSet, estimated_flows
from .powerflow import topology

AUDIT_TOL = 1e-7
ANCHOR_SHIFT = 0.10   # load shift of the attack every start resumes from
ANCHOR_BUDGET = 5.0   # and its l1 budget (rad)
START_CAP = 128       # attack starts kept per network; the study grid has 80


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
        if not 0.0 <= self.l1_limit < np.inf:
            raise ValueError(
                f"l1 budget must be nonnegative and finite, got {self.l1_limit}"
            )
        n_active = len(net.in_service_branches)
        if np.asarray(self.base_flows).shape != (n_active,):
            raise ContractError("base_flows length does not match in-service branches")
        if np.asarray(self.base_loads).shape != (net.n_bus,):
            raise ContractError("base_loads length does not match bus count")
        negative = net.load_bus_mask & (np.asarray(self.base_loads) < 0.0)
        if self.load_shift_factor > 0.0 and np.any(negative):
            bus = int(np.argmax(negative))
            raise ValueError(f"bus {net.buses[bus].external_id} has base load"
                             f" {self.base_loads[bus]:g} MW; a load shift needs a"
                             " nonnegative load at every load bus")
        if self.target_flow(net) == 0.0:  # also raises if out of service
            raise ValueError(f"target branch {self.target_branch} has zero base"
                             " flow, so the attack has no direction")

    def target_flow(self, net: Network) -> float:
        """Pre-attack flow on the target branch (p.u.)."""
        return float(self.base_flows[net.branch_position(self.target_branch)])


@dataclass(frozen=True)
class AttackResult:
    c: np.ndarray              # rad per bus (angle bias)
    s: np.ndarray              # c+ + c- per bus, at least |c|
    delta_p: np.ndarray        # p.u. per in-service branch (hidden flow deltas)
    delta_d: np.ndarray        # MW per bus (malicious load deviations)
    objective: float           # sgn(target base flow) * delta_p on the target
    tampered_loads: np.ndarray # MW per bus
    cyber_flows: np.ndarray    # p.u. per in-service branch, what the EMS sees
    base_mva: float


def _divergence(net: Network, delta_p: np.ndarray) -> np.ndarray:
    """Net outflow delta per bus implied by branch flow deltas."""
    return topology(net).incidence.T @ delta_p


@per_network("attack_rows")
def _attack_rows(net: Network) -> sparse.csr_array:
    """The attack LP's rows over [c+, c-], built once per network and
    read-only: per bus, in bus order, the load deviation ``(-B)(c+ - c-)``;
    then the budget row ``sum(c+ + c-)``."""
    b = topology(net).b
    return sparse.csr_array(np.vstack([np.hstack([-b, b]), np.ones((1, 2 * net.n_bus))]))


def build_attack_lp(net: Network, spec: AttackSpec) -> lp.LinearProgram:
    """Assemble the attack LP in split form over variables [c+, c-], both
    nonnegative and fixed to zero at the reference bus: ``c = c+ - c-`` and
    ``s = c+ + c-``.

    The flow deltas ``dp = -Bf c`` are substituted out: the objective is
    ``sgn * dp[target] = -sgn * Bf[target] c`` and the malicious load
    deviation per bus, the dp divergence, is ``-B c``.  Rows: per bus that
    deviation within +-L_S * d_n0 at load buses and zero elsewhere; sum(s)
    capped by the l1 budget.  Only the row bounds and the objective depend
    on ``spec``.
    """
    spec.validate(net)
    n = net.n_bus
    d0_pu = np.asarray(spec.base_loads, dtype=float) / net.base_mva
    target_pos = net.branch_position(spec.target_branch)
    sgn = float(np.sign(spec.target_flow(net)))

    gain = -sgn * topology(net).bf[target_pos]
    upper = np.full(2 * n, np.inf)
    upper[[net.reference_bus, n + net.reference_bus]] = 0.0
    bound = np.where(net.load_bus_mask, spec.load_shift_factor * d0_pu, 0.0)
    return lp.LinearProgram(
        sense="max", objective=np.concatenate([gain, -gain]),
        lower=np.zeros(2 * n), upper=upper, a=_attack_rows(net),
        row_lower=np.append(-bound, -np.inf), row_upper=np.append(bound, spec.l1_limit),
    )


def solve_attack(net: Network, spec: AttackSpec) -> AttackResult:
    """Solve the attack LP and reconstruct the consistent tampered state.

    Flow and load deltas are recomputed from the solved angle bias so the
    network-equation invariants hold to machine precision; the result is then
    audited against every constraint before being returned.
    """
    problem = build_attack_lp(net, spec)
    sol = lp.solve_lp(problem, _start(net, spec))
    if sol.status != lp.OPTIMAL:
        raise lp.SolverError(f"attack LP terminated {sol.status}")

    n = net.n_bus
    c_plus, c_minus = sol.values[:n], sol.values[n:]
    c = c_plus - c_minus
    s = c_plus + c_minus
    delta_p = -estimated_flows(net, c)
    div_pu = _divergence(net, delta_p)
    delta_d = np.where(net.load_bus_mask, div_pu, 0.0) * net.base_mva

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


def _start(net: Network, spec: AttackSpec) -> lp.Basis:
    """The optimal basis of ``spec``'s attack on the case loads, kept
    read-only by the network.  Only the right-hand sides differ between any
    two of these LPs, so each basis stays dual feasible for the others and
    the dual simplex resumes from it.  A start is solved from the anchor's,
    which its build asks for first, so eviction spares it; the anchor itself
    is solved cold.  A start evicted and asked for again is solved again,
    to the same basis."""
    sign = float(np.sign(spec.target_flow(net)))
    key = (spec.target_branch, sign, spec.load_shift_factor, spec.l1_limit)

    def build():
        anchor = replace(spec, load_shift_factor=ANCHOR_SHIFT, l1_limit=ANCHOR_BUDGET)
        start = None if key[2:] == (ANCHOR_SHIFT, ANCHOR_BUDGET) else _start(net, anchor)
        case = replace(spec, base_loads=net.load_mw)
        return lp.solve_lp(build_attack_lp(net, case), start).basis
    return kept(net, "attack_starts", START_CAP, key, build)


def audit_attack(net: Network, spec: AttackSpec, result: AttackResult) -> None:
    """Independent re-check of every attack constraint; raises on violation."""
    c, s, dp = result.c, result.s, result.delta_p

    if abs(c[net.reference_bus]) > AUDIT_TOL:
        raise AuditError("reference-bus bias not zero")
    bad = np.abs(dp + estimated_flows(net, c)) > AUDIT_TOL
    if np.any(bad):
        ordinal = net.in_service_branches[np.argmax(bad)].ordinal
        raise AuditError(f"flow-delta equation violated on branch {ordinal}")

    div_pu = _divergence(net, dp)
    is_load = net.load_bus_mask
    bound = spec.load_shift_factor * np.asarray(spec.base_loads) / net.base_mva
    checks = (
        (is_load & (np.abs(div_pu) > bound + AUDIT_TOL),
         "load shift bound violated at bus"),
        (is_load & (np.abs(result.delta_d / net.base_mva - div_pu) > AUDIT_TOL),
         "load deviation mismatch at bus"),
        (~is_load & (np.abs(div_pu) > AUDIT_TOL), "injection change at no-load bus"),
    )
    for bad, message in checks:
        if np.any(bad):
            raise AuditError(f"{message} {net.buses[np.argmax(bad)].external_id}")

    if np.any(np.abs(c) > s + AUDIT_TOL):
        raise AuditError("absolute-value auxiliaries below |c|")
    if s.sum() > spec.l1_limit + AUDIT_TOL:
        raise AuditError("l1 budget exceeded")

    expect_cyber = np.asarray(spec.base_flows) - dp
    if np.max(np.abs(result.cyber_flows - expect_cyber)) > AUDIT_TOL:
        raise AuditError("cyber flows inconsistent with flow deltas")


def apply_attack(clean: MeasurementSet, result: AttackResult) -> MeasurementSet:
    """Swap true measurements for the attacker's consistent false ones.

    Flow entries drop by the hidden flow delta; injection entries at load
    buses drop by the malicious load deviation (higher cyber load means lower
    net injection).  Generator-only buses are untouched.
    """
    is_flow, is_inj = clean.is_flow, ~clean.is_flow
    n_flow = int(np.count_nonzero(is_flow))
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
