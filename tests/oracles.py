"""Independent brute-force oracles used by the tests.

The LP oracle enumerates basic feasible points directly from the constraint
geometry (equalities always active, every choice of remaining active
inequalities), so it shares no code path with the HiGHS solver.
"""

import dataclasses
import itertools

import numpy as np
import scipy.optimize
from scipy import sparse

from gridfdi import lp, powerflow

_TOL = 1e-9


def matrix_lp(sense, objective, lower, upper, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """A :class:`lp.LinearProgram` from dense ``a_ub x <= b_ub`` and
    ``a_eq x = b_eq`` rows, stacked in that order into one row block; a
    block left out has no rows.  Every vector is a fresh float array, so
    tests may edit it."""
    n = len(objective)
    a_ub, a_eq = (np.asarray(rows, dtype=float).reshape(-1, n) for rows in (a_ub, a_eq))
    b_ub, b_eq = np.array(b_ub, dtype=float), np.array(b_eq, dtype=float)
    return lp.LinearProgram(
        sense=sense, objective=np.array(objective, dtype=float),
        lower=np.array(lower, dtype=float), upper=np.array(upper, dtype=float),
        a=sparse.csr_array(np.vstack([a_ub, a_eq])),
        row_lower=np.concatenate([np.full(b_ub.size, -np.inf), b_eq]),
        row_upper=np.concatenate([b_ub, b_eq]),
    )


def enumerate_vertices(problem: lp.LinearProgram):
    """All vertices of a bounded feasible region; returns (best_x, best_obj)
    for the problem's sense, or (None, None) when no vertex is feasible."""
    n = problem.n_var
    # every row and every column bound, each as (coefficients, lower, upper)
    sides = [(row, lo, hi) for row, lo, hi in zip(
        problem.a.toarray(), problem.row_lower, problem.row_upper)]
    sides += [(e, lo, hi) for e, lo, hi in zip(np.eye(n), problem.lower, problem.upper)]
    eq_rows, eq_rhs, ineq_rows, ineq_rhs = [], [], [], []   # row @ x <= rhs
    for row, lo, hi in sides:
        if lo == hi:
            eq_rows.append(row)
            eq_rhs.append(lo)
            continue
        if np.isfinite(hi):
            ineq_rows.append(row)
            ineq_rhs.append(hi)
        if np.isfinite(lo):
            ineq_rows.append(-row)
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
    ax = problem.a.toarray() @ x
    return not (np.any(x < problem.lower - 1e-7) or np.any(x > problem.upper + 1e-7)
                or np.any(ax < problem.row_lower - 1e-7)
                or np.any(ax > problem.row_upper + 1e-7))


def random_bounded_lp(rng, n_var=None, n_con=None):
    """A random bounded-feasible LP: finite box plus a few inequality rows
    through the box interior, so 0-ish points stay feasible."""
    n = n_var or int(rng.integers(2, 7))
    m = n_con or int(rng.integers(1, 7))
    upper = float(rng.uniform(0.5, 3.0))
    objective = rng.uniform(-1.0, 1.0, n)
    rows, rhs = [], []
    for _ in range(m):
        rows.append(rng.uniform(-1.0, 1.0, n))
        # keep the origin feasible so the region is never empty
        rhs.append(float(rng.uniform(0.1, 2.0)))
    return matrix_lp("max", objective, np.zeros(n), np.full(n, upper), rows, rhs)


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
    gs = slice(0, len(gens))
    vs = None if soft_penalty is None else slice(len(gens), len(gens) + ptdf.n_branches)
    width = vs.stop if vs is not None else gs.stop
    lower, upper, objective = np.zeros(width), np.full(width, np.inf), np.zeros(width)
    for i, g in enumerate(gens):
        lower[i] = g.p_min / base
        upper[i] = g.p_max / base
        objective[i] = g.linear_cost * base
    if vs is not None:
        objective[vs] = soft_penalty * base

    balance = np.zeros(width)
    balance[gs] = 1.0

    sens = np.zeros((ptdf.n_branches, len(gens)))
    for i, g in enumerate(gens):
        sens[:, i] = ptdf.matrix[:, g.bus]
    shift = ptdf.matrix @ d_pu
    limits = net.limits_pu
    rows, rhs = [], []
    for k in range(ptdf.n_branches):
        for sign in (1.0, -1.0):
            row = np.zeros(width)
            row[gs] = sign * sens[k]
            if vs is not None:
                row[vs.start + k] = -1.0
            rows.append(row)
            rhs.append(limits[k] + sign * shift[k])
    problem = matrix_lp("min", objective, lower, upper, rows, rhs, [balance], [d_pu.sum()])
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

    cs, ss, dps = slice(0, n), slice(n, 2 * n), slice(2 * n, 2 * n + m)
    width = dps.stop
    lower, upper = np.full(width, -np.inf), np.full(width, np.inf)
    lower[ss] = 0.0
    lower[cs.start + net.reference_bus] = upper[cs.start + net.reference_bus] = 0.0
    objective = np.zeros(width)
    objective[dps.start + target_pos] = sgn

    ub, ub_rhs, eq = [], [], []
    for k, br in enumerate(branches):   # dp_k + (c_from - c_to)/x_k = 0
        row = np.zeros(width)
        row[cs.start + br.from_bus] += 1.0 / br.reactance
        row[cs.start + br.to_bus] -= 1.0 / br.reactance
        row[dps.start + k] = 1.0
        eq.append(row)

    for i, bus in enumerate(net.buses):
        row = np.zeros(width)
        for k, br in enumerate(branches):
            if br.from_bus == i:
                row[dps.start + k] += 1.0
            if br.to_bus == i:
                row[dps.start + k] -= 1.0
        if bus.load_mw > 0:
            bound = spec.load_shift_factor * d0_pu[i]
            ub += [row, -row]
            ub_rhs += [bound, bound]
        else:
            eq.append(row)

    for i in range(n):
        for sign in (-1.0, 1.0):    # sign * c_i - s_i <= 0
            row = np.zeros(width)
            row[cs.start + i] = sign
            row[ss.start + i] = -1.0
            ub.append(row)
            ub_rhs.append(0.0)
    budget = np.zeros(width)
    budget[ss] = 1.0
    ub.append(budget)
    ub_rhs.append(spec.l1_limit)
    return matrix_lp("max", objective, lower, upper, ub, ub_rhs, eq, np.zeros(len(eq)))


def linprog_reference(problem, rows=None):
    """scipy's ``linprog(method="highs")``, presolve on, as a reference: the
    LP ``problem`` over the rows ``rows`` of ``a`` (every row without), a row
    with equal bounds as an ``A_eq`` row and each other finite row bound as
    an ``A_ub`` row; returns (x, objective)."""
    sign = -1.0 if problem.sense == "max" else 1.0
    if rows is None:
        rows = np.arange(problem.a.shape[0])
    a, lo, hi = problem.a[rows], problem.row_lower[rows], problem.row_upper[rows]
    eq = lo == hi
    below, above = ~eq & np.isfinite(hi), ~eq & np.isfinite(lo)
    res = scipy.optimize.linprog(
        sign * problem.objective, A_ub=sparse.vstack([a[below], -a[above]]),
        b_ub=np.concatenate([hi[below], -lo[above]]), A_eq=a[eq], b_eq=lo[eq],
        bounds=np.column_stack([problem.lower, problem.upper]), method="highs",
        options={"presolve": True})
    assert res.status == 0, res.message
    return res.x, sign * res.fun


def stacked_attack_rows(net):
    """The attack LP's rows over [c+, c-] built block by block, sparse
    throughout: ``-B`` beside ``B``, then the budget row of ones."""
    deviation = sparse.csr_array(-powerflow.topology(net).b)
    return sparse.vstack([sparse.hstack([deviation, -deviation]),
                          np.ones((1, 2 * net.n_bus))], format="csr")
