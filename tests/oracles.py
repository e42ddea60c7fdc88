"""Independent brute-force oracles used by the tests.

The LP oracle enumerates basic feasible points directly from the constraint
geometry (equalities always active, every choice of remaining active
inequalities), so it shares no code path with either solver engine.
"""

import itertools

import numpy as np

from gridfdi import lp

_TOL = 1e-9


def enumerate_vertices(problem: lp.LinearProgram):
    """All vertices of a bounded feasible region; returns (best_x, best_obj)
    for the problem's sense, or (None, None) when no vertex is feasible."""
    n = problem.n_var

    eq_rows, eq_rhs = [], []
    ineq_rows, ineq_rhs = [], []   # normalized to row @ x <= rhs
    for con in problem.constraints:
        if con.relation == lp.EQ:
            eq_rows.append(con.row)
            eq_rhs.append(con.rhs)
        elif con.relation == lp.LE:
            ineq_rows.append(con.row)
            ineq_rhs.append(con.rhs)
        else:
            ineq_rows.append(-con.row)
            ineq_rhs.append(-con.rhs)
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

    n_free = n - len(eq_rows)
    candidates = []
    for picks in itertools.combinations(range(len(ineq_rows)), n_free):
        a = np.array(eq_rows + [ineq_rows[i] for i in picks])
        b = np.array(eq_rhs + [ineq_rhs[i] for i in picks])
        if a.shape[0] != n:
            break
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


def _feasible(problem, x):
    if np.any(x < problem.lower - 1e-7) or np.any(x > problem.upper + 1e-7):
        return False
    for con in problem.constraints:
        lhs = float(con.row @ x)
        if con.relation == lp.LE and lhs > con.rhs + 1e-7:
            return False
        if con.relation == lp.GE and lhs < con.rhs - 1e-7:
            return False
        if con.relation == lp.EQ and abs(lhs - con.rhs) > 1e-7:
            return False
    return True


def random_bounded_lp(rng, n_var=None, n_con=None):
    """A random bounded-feasible LP: finite box plus a few inequality rows
    through the box interior, so 0-ish points stay feasible."""
    n = n_var or int(rng.integers(2, 7))
    m = n_con or int(rng.integers(1, 7))
    problem = lp.LinearProgram(sense="max")
    problem.add_variables("x", n, lower=0.0, upper=float(rng.uniform(0.5, 3.0)))
    problem.objective[:] = rng.uniform(-1.0, 1.0, n)
    for _ in range(m):
        row = rng.uniform(-1.0, 1.0, n)
        # keep the origin feasible so the region is never empty
        problem.add_constraint(row, lp.LE, float(rng.uniform(0.1, 2.0)))
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
