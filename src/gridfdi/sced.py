"""DC security-constrained economic dispatch.

Minimizes linear generation cost subject to power balance, generator bounds
and two-sided thermal limits on every in-service branch (flows via the
network's cached PTDF).  Scheduled flows are what the detector later compares against.

With ``soft_limits`` the branch constraints become elastic at a penalty price
far above any generation cost, the way production dispatch engines keep
running when a load pattern is not servable within ratings; violations then
show up in the schedule and in ``Dispatch.violations_mw`` instead of an
exception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import lp
from .cases import Network
from .powerflow import compute_ptdf

BINDING_TOL = 1e-6
VIOLATION_PENALTY = 2000.0   # $/MWh on limit violations in soft mode


class DispatchError(Exception):
    """Infeasible dispatch; ``binding`` names the constraints that cannot hold."""

    def __init__(self, message, binding=()):
        super().__init__(message)
        self.binding = tuple(binding)


@dataclass(frozen=True)
class Dispatch:
    gen_output: np.ndarray        # MW per in-service generator
    scheduled_flows: np.ndarray   # p.u. per in-service branch
    total_cost: float             # $/h
    binding_branches: tuple[int, ...]  # 1-based ordinals at or above their limit
    violations_mw: np.ndarray     # MW over the limit per branch; soft limits only


def _dispatch_lp(net, d_pu, soft_penalty=None, limit_costs=True):
    """The SCED LP over [p, v]: the balance row, then a +- limit row pair per
    in-service branch, ``+-(PTDF_gen p - PTDF d) - v <= limit``, the elastic
    ``v >= 0`` present only when ``soft_penalty`` prices it."""
    ptdf = compute_ptdf(net)
    gens = net.generators
    base = net.base_mva
    problem = lp.LinearProgram(sense="min")
    gs = problem.add_variables(len(gens))
    problem.lower[gs] = np.array([g.p_min for g in gens]) / base
    problem.upper[gs] = np.array([g.p_max for g in gens]) / base
    if limit_costs:
        problem.objective[gs] = np.array([g.linear_cost for g in gens]) * base

    vs = None
    if soft_penalty is not None:
        vs = problem.add_variables(ptdf.n_branches, lower=0.0)
        problem.objective[vs] = soft_penalty * base

    balance = np.zeros((1, problem.n_var))
    balance[0, gs] = 1.0
    problem.add_rows(balance, lp.EQ, [d_pu.sum()])

    m = ptdf.n_branches
    sens = ptdf.matrix[:, [g.bus for g in gens]]
    shift = ptdf.matrix @ d_pu
    sign = np.tile([1.0, -1.0], m)
    rows = np.repeat(sens, 2, axis=0) * sign[:, None]
    r, c = np.nonzero(rows)
    data = rows[r, c]
    if vs is not None:   # -v_k in both rows of branch k
        r = np.concatenate([r, np.arange(2 * m)])
        c = np.concatenate([c, vs.start + np.repeat(np.arange(m), 2)])
        data = np.concatenate([data, -np.ones(2 * m)])
    rhs = np.repeat(net.limits_pu(), 2) + sign * np.repeat(shift, 2)
    problem.add_rows(sparse.csr_array((data, (r, c)), shape=(2 * m, problem.n_var)),
                     lp.LE, rhs)
    return problem, gs, vs


def run_sced(net: Network, loads_mw: np.ndarray,
             soft_limits: bool = False) -> Dispatch:
    """Cost-minimal dispatch serving ``loads_mw`` (per bus) within every
    in-service branch limit, flows taken through the network's cached PTDF.

    ``soft_limits=True`` prices violations instead of failing and reports
    them in ``Dispatch.violations_mw``.
    """
    loads_mw = np.asarray(loads_mw, dtype=float)
    if loads_mw.shape != (net.n_bus,):
        raise ValueError(f"expected {net.n_bus} bus loads, got {loads_mw.shape}")
    gens = net.generators
    if not gens:
        raise DispatchError("network has no in-service generators")

    total_load = float(loads_mw.sum())
    total_cap = sum(g.p_max for g in gens)
    if total_cap < total_load - 1e-9:
        raise DispatchError(
            f"total capacity {total_cap:.1f} MW below load {total_load:.1f} MW",
            binding=("capacity",),
        )

    base = net.base_mva
    d_pu = loads_mw / base
    problem, gs, vs = _dispatch_lp(
        net, d_pu, soft_penalty=VIOLATION_PENALTY if soft_limits else None,
    )
    sol = lp.solve_lp(problem)
    if sol.status != lp.OPTIMAL:
        raise DispatchError(
            f"dispatch {sol.status} for load {total_load:.1f} MW",
            binding=_diagnose_infeasibility(net, d_pu),
        )

    p = sol.values[gs]
    inj = -d_pu.copy()
    np.add.at(inj, [g.bus for g in gens], p)
    flows = compute_ptdf(net).matrix @ inj
    binding = tuple(
        net.in_service_branches[k].ordinal
        for k in np.flatnonzero(np.abs(flows) >= net.limits_pu() - BINDING_TOL)
    )
    violations = np.zeros(len(flows)) if vs is None else sol.values[vs] * base
    return Dispatch(
        gen_output=p * base,
        scheduled_flows=flows,
        total_cost=float(sol.objective_value),
        binding_branches=binding,
        violations_mw=violations,
    )


def _diagnose_infeasibility(net, d_pu):
    """Re-solve with elastic limits; the stretched branches are the culprits."""
    problem, _, vs = _dispatch_lp(net, d_pu, soft_penalty=1.0, limit_costs=False)
    try:
        sol = lp.solve_lp(problem)
    except lp.SolverError:
        return ()
    if sol.status != lp.OPTIMAL:
        return ()
    stretched = sol.values[vs]
    return tuple(
        net.in_service_branches[k].ordinal
        for k in np.nonzero(stretched > BINDING_TOL)[0]
    )
