"""DC security-constrained economic dispatch.

Minimizes linear generation cost subject to power balance, generator bounds
and one two-sided row per in-service branch that keeps its flow, taken
through the network's cached PTDF, within the thermal limit.  Scheduled flows
are what the detector later compares against.

With ``soft_limits`` each branch row becomes elastic, one violation variable
per direction, at a penalty price far above any generation cost, the way
production dispatch engines keep running when a load pattern is not servable
within ratings; violations then show up in the schedule and in
``Dispatch.violations_mw`` instead of an exception.

Both modes generate their limit rows (Zhai, Guan, Cheng & Wu, "Fast
identification of inactive security constraints in SCUC problems", IEEE
TPWRS 2010): nearly all limits never bind, so each solve starts from the
rows that the network's base dispatch (:func:`base_dispatch`, case loads)
ended with and from its final basis, which stays dual feasible since only
right-hand sides and bounds differ.  The base dispatch starts from no limit
row and no basis, and so does every dispatch on a network whose base
dispatch fails.  Starts depend on the network alone, so answers do not
depend on call order.  The LP's constants, that empty start among them, are
built once per network; a dispatch builds only its row bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import lp
from .cases import Network, per_network
from .powerflow import compute_ptdf

BINDING_TOL = 1e-6
VIOLATION_PENALTY = 2000.0   # $/MWh on limit violations in soft mode


class DispatchError(Exception):
    """Infeasible dispatch; ``binding`` names the constraints that cannot
    hold, and the message names them too."""

    def __init__(self, message, binding=()):
        self.binding = tuple(binding)
        if self.binding:
            message += f"; binding: {', '.join(map(str, self.binding))}"
        super().__init__(message)


@dataclass(frozen=True)
class Dispatch:
    gen_output: np.ndarray        # MW per in-service generator
    scheduled_flows: np.ndarray   # p.u. per in-service branch
    total_cost: float             # $/h
    binding_branches: tuple[int, ...]  # 1-based ordinals at or above their limit
    violations_mw: np.ndarray     # MW over the limit per branch; soft limits only


@dataclass(frozen=True)
class _Operators:
    """The SCED LP's constants over [p, v+, v-] for one network, read-only:
    generator buses; the objective, the lower bounds and the upper bounds
    with the elastic columns free (soft limits) or fixed at zero; the
    rows, one per in-service branch, ``PTDF_gen p - v+_k + v-_k``, then the
    balance row; the total capacity; and the empty start, no limit row and
    no basis, the balance row being in every working set."""

    gen_bus: np.ndarray
    objective: np.ndarray    # $/h per p.u.
    lower: np.ndarray        # p.u.
    soft_upper: np.ndarray
    fixed_upper: np.ndarray
    rows: sparse.csr_array
    capacity_mw: float
    empty: lp.Basis


@per_network("sced")
def _operators(net: Network) -> _Operators:
    gens = net.generators
    if not gens:
        raise DispatchError("network has no in-service generators")
    ptdf = compute_ptdf(net)
    base = net.base_mva
    ng, m = len(gens), ptdf.n_branches
    gen_bus = np.array([g.bus for g in gens], dtype=int)
    sens = ptdf.matrix[:, gen_bus]
    r, c = np.nonzero(sens)
    branch = np.arange(m)
    rows = sparse.csr_array(
        (np.concatenate([sens[r, c], -np.ones(m), np.ones(m), np.ones(ng)]),
         (np.concatenate([r, branch, branch, np.full(ng, m)]),
          np.concatenate([c, ng + branch, ng + m + branch, np.arange(ng)]))),
        shape=(m + 1, ng + 2 * m),
    )
    elastic = np.zeros(2 * m)
    p_max = np.array([g.p_max for g in gens]) / base
    return _Operators(
        gen_bus=gen_bus,
        objective=np.append(np.array([g.linear_cost for g in gens]) * base,
                            elastic + VIOLATION_PENALTY * base),
        lower=np.append(np.array([g.p_min for g in gens]) / base, elastic),
        soft_upper=np.append(p_max, elastic + np.inf),
        fixed_upper=np.append(p_max, elastic),
        rows=rows,
        capacity_mw=sum(g.p_max for g in gens),
        empty=lp.Basis(np.arange(m + 1) == m),
    )


def per_bus(net: Network, per_gen: np.ndarray) -> np.ndarray:
    """Per-generator values summed onto their buses."""
    return np.bincount(_operators(net).gen_bus, per_gen, net.n_bus)


def _dispatch_lp(net, d_pu, soft):
    """The SCED LP over [p, v+, v-]: one row per branch, kept within
    ``PTDF d +- limit``, then the balance row; only these row bounds depend
    on the loads.  The elastic ``v+, v- >= 0`` are priced at
    ``VIOLATION_PENALTY``; without ``soft`` they are fixed at zero."""
    ops = _operators(net)
    limits = net.limits_pu
    shift, total = compute_ptdf(net).matrix @ d_pu, d_pu.sum()
    return lp.LinearProgram(
        sense="min", objective=ops.objective, lower=ops.lower,
        upper=ops.soft_upper if soft else ops.fixed_upper, a=ops.rows,
        row_lower=np.append(shift - limits, total),
        row_upper=np.append(shift + limits, total),
    )


def run_sced(net: Network, loads_mw: np.ndarray,
             soft_limits: bool = False) -> Dispatch:
    """Cost-minimal dispatch serving ``loads_mw`` (per bus) within every
    in-service branch limit, flows taken through the network's cached PTDF.

    ``soft_limits=True`` prices violations instead of failing and reports
    them in ``Dispatch.violations_mw``.  Either way the limit rows are
    generated from the base dispatch's seed, the solve starts from the base
    dispatch's basis and the answer is certified against all of them.
    """
    loads_mw = np.asarray(loads_mw, dtype=float)
    if loads_mw.shape != (net.n_bus,):
        raise ValueError(f"expected {net.n_bus} bus loads, got {loads_mw.shape}")
    try:
        start = _base(net)[1]
    except DispatchError:
        start = _operators(net).empty   # case loads not dispatchable
    return _solve(net, loads_mw, soft_limits, start)[0]


def base_dispatch(net: Network) -> Dispatch:
    """Soft-limit dispatch on the case loads.  It depends on the network
    alone, so it is solved once per instance, from an empty working set, and
    shared read-only by every caller on that network."""
    return _base(net)[0]


@per_network("base_dispatch")
def _base(net: Network) -> tuple[Dispatch, lp.Basis]:
    return _solve(net, net.load_mw, True, _operators(net).empty)


def _solve(net, loads_mw, soft, start):
    """``(dispatch, final basis)``, solved from ``start``."""
    ops = _operators(net)
    total_load = float(loads_mw.sum())
    if ops.capacity_mw < total_load - 1e-9:
        raise DispatchError(
            f"total capacity {ops.capacity_mw:.1f} MW below load {total_load:.1f} MW",
            binding=("capacity",),
        )

    base = net.base_mva
    d_pu = loads_mw / base
    sol = lp.solve_lp(_dispatch_lp(net, d_pu, soft), start)
    if sol.status != lp.OPTIMAL:
        raise DispatchError(
            f"dispatch {sol.status} for load {total_load:.1f} MW",
            binding=() if soft else _diagnose_infeasibility(net, loads_mw, start),
        )

    ng = ops.gen_bus.size
    p = sol.values[:ng]
    flows = compute_ptdf(net).matrix @ (per_bus(net, p) - d_pu)
    dispatch = Dispatch(
        gen_output=p * base,
        scheduled_flows=flows,
        total_cost=float(sol.objective_value),
        binding_branches=tuple(
            net.branch_ordinals[np.abs(flows) >= net.limits_pu - BINDING_TOL].tolist()),
        violations_mw=sol.values[ng:].reshape(2, -1).sum(axis=0) * base,
    )
    return dispatch, sol.basis


def _diagnose_infeasibility(net, loads_mw, start):
    """The branches the soft dispatch of the same loads overloads; none
    when that dispatch fails too."""
    try:
        soft = _solve(net, loads_mw, True, start)[0]
    except (DispatchError, lp.SolverError):
        return ()
    return tuple(net.branch_ordinals[soft.violations_mw > BINDING_TOL].tolist())
