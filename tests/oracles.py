"""Independent brute-force oracles used by the tests.

The LP oracle enumerates basic feasible points directly from the constraint
geometry (equalities always active, every choice of remaining active
inequalities), so it shares no code path with the HiGHS solver.
"""

import dataclasses
import itertools

import numpy as np

from gridfdi import lp

_TOL = 1e-9


def enumerate_vertices(problem: lp.LinearProgram):
    """All vertices of a bounded feasible region; returns (best_x, best_obj)
    for the problem's sense, or (None, None) when no vertex is feasible."""
    n = problem.n_var
    a_ub, b_ub, a_eq, b_eq = problem.matrix_form()

    eq_rows, eq_rhs = list(a_eq.toarray()), list(b_eq)
    ineq_rows, ineq_rhs = list(a_ub.toarray()), list(b_ub)  # row @ x <= rhs
    for j in range(n):
        lo, hi = problem.lower[j], problem.upper[j]
        e = np.zeros(n)
        e[j] = 1.0
        if lo == hi:
            eq_rows.append(e.copy())
            eq_rhs.append(lo)
            continue
        if np.isfinite(hi):
            ineq_rows.append(e.copy())
            ineq_rhs.append(hi)
        if np.isfinite(lo):
            ineq_rows.append(-e)
            ineq_rhs.append(-lo)

    # Dependent equalities would make every square system singular; keep an
    # independent set (a dropped row that contradicts it fails _feasible).
    eq_rows, eq_rhs = _independent_rows(eq_rows, eq_rhs)
    n_free = n - len(eq_rows)
    candidates = []
    for picks in itertools.combinations(range(len(ineq_rows)), n_free):
        a = np.array(eq_rows + [ineq_rows[i] for i in picks])
        b = np.array(eq_rhs + [ineq_rhs[i] for i in picks])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if _feasible(problem, x):
            candidates.append(x)

    if not candidates:
        return None, None
    objs = [float(problem.objective @ x) for x in candidates]
    best = int(np.argmax(objs)) if problem.sense == "max" else int(np.argmin(objs))
    return candidates[best], objs[best]


def _independent_rows(rows, rhs):
    """Greedy rank test: keep each row that raises the rank of those kept."""
    kept, kept_rhs = [], []
    for row, b in zip(rows, rhs):
        if np.linalg.matrix_rank(np.array(kept + [row])) > len(kept):
            kept.append(row)
            kept_rhs.append(b)
    return kept, kept_rhs


def boxed_vertex_verdict(problem: lp.LinearProgram, box: float = 1e3):
    """(status, objective) from vertex enumeration with every bound clipped
    to +-box: no feasible vertex means infeasible, a best vertex on the box
    means unbounded, anything else is the optimum."""
    boxed = dataclasses.replace(problem, lower=np.clip(problem.lower, -box, box),
                                upper=np.clip(problem.upper, -box, box))
    x, best = enumerate_vertices(boxed)
    if x is None:
        return lp.INFEASIBLE, None
    if np.any(np.abs(x) >= box - 1e-6):
        return lp.UNBOUNDED, None
    return lp.OPTIMAL, best


def _feasible(problem, x):
    if np.any(x < problem.lower - 1e-7) or np.any(x > problem.upper + 1e-7):
        return False
    for con in problem.constraints:
        lhs = con.a.toarray() @ x
        if con.relation == lp.LE and np.any(lhs > con.rhs + 1e-7):
            return False
        if con.relation == lp.GE and np.any(lhs < con.rhs - 1e-7):
            return False
        if con.relation == lp.EQ and np.any(np.abs(lhs - con.rhs) > 1e-7):
            return False
    return True


def random_bounded_lp(rng, n_var=None, n_con=None):
    """A random bounded-feasible LP: finite box plus a few inequality rows
    through the box interior, so 0-ish points stay feasible."""
    n = n_var or int(rng.integers(2, 7))
    m = n_con or int(rng.integers(1, 7))
    problem = lp.LinearProgram(sense="max")
    problem.add_variables(n, lower=0.0, upper=float(rng.uniform(0.5, 3.0)))
    problem.objective[:] = rng.uniform(-1.0, 1.0, n)
    for _ in range(m):
        row = rng.uniform(-1.0, 1.0, n)
        # keep the origin feasible so the region is never empty
        problem.add_rows([row], lp.LE, [float(rng.uniform(0.1, 2.0))])
    return problem


def measurement_matrix_loop(meas, net):
    """Dense H built branch by branch from the network's branch records:
    a flow row carries +-1/x at the branch ends, an injection row sums the
    rows of every branch touching the bus."""
    branches = net.in_service_branches
    h = np.zeros((len(meas), net.n_bus))
    for i, (kind, idx) in enumerate(zip(meas.kinds, meas.indices)):
        if kind == "flow":
            br = branches[idx]
            w = 1.0 / br.reactance
            h[i, br.from_bus] += w
            h[i, br.to_bus] -= w
        elif kind == "injection":
            for br in branches:
                w = 1.0 / br.reactance
                if br.from_bus == idx:
                    h[i, br.from_bus] += w
                    h[i, br.to_bus] -= w
                elif br.to_bus == idx:
                    h[i, br.to_bus] += w
                    h[i, br.from_bus] -= w
        else:
            raise ValueError(f"unknown measurement kind {kind!r}")
    return h


def estimated_flows_loop(net, angles):
    """Branch flows from bus angles, one branch at a time."""
    return np.array([
        (angles[br.from_bus] - angles[br.to_bus]) / br.reactance
        for br in net.in_service_branches
    ])


def dispatch_lp_rows(net, ptdf, d_pu, soft_penalty=None):
    """The SCED LP built one row at a time: the balance row, then a +- limit
    row pair per in-service branch (each with its elastic variable in soft
    mode).  Returns (problem, generator slice, elastic slice or None)."""
    gens = net.generators
    base = net.base_mva
    problem = lp.LinearProgram(sense="min")
    gs = problem.add_variables(len(gens))
    for i, g in enumerate(gens):
        problem.lower[gs][i] = g.p_min / base
        problem.upper[gs][i] = g.p_max / base
        problem.objective[gs][i] = g.linear_cost * base

    vs = None
    if soft_penalty is not None:
        vs = problem.add_variables(ptdf.n_branches, lower=0.0)
        problem.objective[vs] = soft_penalty * base

    balance = np.zeros(problem.n_var)
    balance[gs] = 1.0
    problem.add_rows([balance], lp.EQ, [d_pu.sum()])

    sens = np.zeros((ptdf.n_branches, len(gens)))
    for i, g in enumerate(gens):
        sens[:, i] = ptdf.matrix[:, g.bus]
    shift = ptdf.matrix @ d_pu
    limits = net.limits_pu()
    for k in range(ptdf.n_branches):
        for sign in (1.0, -1.0):
            row = np.zeros(problem.n_var)
            row[gs] = sign * sens[k]
            if vs is not None:
                row[vs.start + k] = -1.0
            problem.add_rows([row], lp.LE, [limits[k] + sign * shift[k]])
    return problem, gs, vs


def attack_lp_rows(net, spec):
    """The attack LP over [c, s, dp] built one row at a time from the branch
    and bus records: dp tied to the angle bias per branch, the dp divergence
    bounded at load buses and zero elsewhere, |c| <= s, sum(s) <= budget."""
    branches = net.in_service_branches
    m, n = len(branches), net.n_bus
    d0_pu = np.asarray(spec.base_loads, dtype=float) / net.base_mva
    target_pos = net.branch_position(spec.target_branch)
    sgn = float(np.sign(spec.target_flow(net)))

    problem = lp.LinearProgram(sense="max")
    cs = problem.add_variables(n)
    ss = problem.add_variables(n, lower=0.0)
    dps = problem.add_variables(m)
    problem.fix_variable(cs.start + net.reference_bus, 0.0)
    problem.objective[dps.start + target_pos] = sgn

    width = problem.n_var
    for k, br in enumerate(branches):   # dp_k + (c_from - c_to)/x_k = 0
        row = np.zeros(width)
        row[cs.start + br.from_bus] += 1.0 / br.reactance
        row[cs.start + br.to_bus] -= 1.0 / br.reactance
        row[dps.start + k] = 1.0
        problem.add_rows([row], lp.EQ, [0.0])

    for bus in net.buses:
        row = np.zeros(width)
        for k, br in enumerate(branches):
            if br.from_bus == bus.internal_index:
                row[dps.start + k] += 1.0
            if br.to_bus == bus.internal_index:
                row[dps.start + k] -= 1.0
        if bus.is_load_bus:
            bound = spec.load_shift_factor * d0_pu[bus.internal_index]
            problem.add_rows([row], lp.LE, [bound])
            problem.add_rows([-row], lp.LE, [bound])
        else:
            problem.add_rows([row], lp.EQ, [0.0])

    for i in range(n):
        row = np.zeros(width)
        row[cs.start + i] = -1.0
        row[ss.start + i] = -1.0
        problem.add_rows([row], lp.LE, [0.0])
        row = np.zeros(width)
        row[cs.start + i] = 1.0
        row[ss.start + i] = -1.0
        problem.add_rows([row], lp.LE, [0.0])
    budget = np.zeros(width)
    budget[ss] = 1.0
    problem.add_rows([budget], lp.LE, [spec.l1_limit])
    return problem
