"""Linear programs in matrix form for the dispatch and attack builders.

Constraints are kept as blocks of rows, ``A x (relation) b``, with ``A`` a
scipy CSR matrix; a builder adds each family of rows as one block.  Two
interchangeable engines sit behind :func:`solve_lp`:

* ``simplex`` -- a self-contained two-phase dense simplex using Bland's rule
  (deterministic, cycle-free, meant for small problems and as a reference);
  it densifies the blocks;
* ``highs`` -- scipy's HiGHS adapter, used by default for the case-study
  sized problems; it receives the sparse blocks unchanged.

Every optimal solution is re-checked against all constraints and bounds at
``FEASIBILITY_TOL`` before it is returned; a violation raises
:class:`SolverError` rather than returning a silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

FEASIBILITY_TOL = 1e-7
_PIVOT_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "=", ">="


class SolverError(Exception):
    """Numeric breakdown or an unusable solver answer."""


@dataclass
class Constraint:
    """A block of rows ``a @ x (relation) rhs``."""

    a: sparse.csr_array
    relation: str
    rhs: np.ndarray


@dataclass
class LinearProgram:
    """An LP: ``sense`` objective over bounded variables and row blocks."""

    sense: str = "max"                      # "max" | "min"
    objective: np.ndarray = field(default_factory=lambda: np.zeros(0))
    names: list[str] = field(default_factory=list)
    lower: np.ndarray = field(default_factory=lambda: np.zeros(0))
    upper: np.ndarray = field(default_factory=lambda: np.zeros(0))
    constraints: list[Constraint] = field(default_factory=list)

    @property
    def n_var(self):
        return len(self.names)

    def add_variables(self, prefix: str, count: int, lower=-np.inf, upper=np.inf):
        """Append ``count`` variables; returns their index slice."""
        start = self.n_var
        self.names.extend(f"{prefix}{i}" for i in range(count))
        self.lower = np.concatenate([self.lower, np.full(count, float(lower))])
        self.upper = np.concatenate([self.upper, np.full(count, float(upper))])
        self.objective = np.concatenate([self.objective, np.zeros(count)])
        return slice(start, start + count)

    def fix_variable(self, index: int, value: float):
        self.lower[index] = value
        self.upper[index] = value

    def add_rows(self, a, relation: str, rhs):
        """Append the block ``a @ x (relation) rhs``; ``a`` is 2-D, sparse or
        dense, with one entry of ``rhs`` per row."""
        if relation not in (LE, EQ, GE):
            raise ValueError(f"unknown relation {relation!r}")
        self.constraints.append(Constraint(
            a=sparse.csr_array(a, dtype=float), relation=relation,
            rhs=np.asarray(rhs, dtype=float),
        ))

    def add_constraint(self, row, relation: str, rhs: float):
        """Append one row ``row @ x (relation) rhs``."""
        self.add_rows(np.atleast_2d(np.asarray(row, dtype=float)), relation, [rhs])

    def validate(self):
        n = self.n_var
        if self.objective.shape != (n,):
            raise ValueError("objective length does not match variable count")
        if np.any(self.lower > self.upper + 1e-15):
            raise ValueError("a variable has lower bound above its upper bound")
        for i, con in enumerate(self.constraints):
            if con.a.shape[1] != n:
                raise ValueError(f"constraint block {i} shape {con.a.shape} has not"
                                 f" {n} columns")
            if con.rhs.shape != (con.a.shape[0],):
                raise ValueError(f"constraint block {i} has {con.a.shape[0]} rows"
                                 f" but rhs shape {con.rhs.shape}")
        if self.sense not in ("max", "min"):
            raise ValueError(f"unknown sense {self.sense!r}")

    def matrix_form(self):
        """``(a_ub, b_ub, a_eq, b_eq)``: the blocks stacked in insertion order
        as CSR matrices, ``>=`` rows negated into ``a_ub x <= b_ub``."""
        ub = [(c.a, c.rhs) if c.relation == LE else (-c.a, -c.rhs)
              for c in self.constraints if c.relation != EQ]
        eq = [(c.a, c.rhs) for c in self.constraints if c.relation == EQ]
        return (*_stack(ub, self.n_var), *_stack(eq, self.n_var))


def _stack(blocks, n):
    if not blocks:
        return sparse.csr_array((0, n)), np.zeros(0)
    a, b = zip(*blocks)
    if len(a) == 1:
        return a[0], b[0]
    return sparse.vstack(a, format="csr"), np.concatenate(b)


@dataclass(frozen=True)
class LpSolution:
    status: str
    values: np.ndarray | None
    objective_value: float | None


def solve_lp(lp: LinearProgram, engine: str = "auto") -> LpSolution:
    """Solve an LP; deterministic for identical input and engine."""
    lp.validate()
    if engine == "auto":
        engine = "highs"
    if engine == "highs":
        sol = _solve_highs(lp)
    elif engine == "simplex":
        sol = _solve_simplex(lp)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    if sol.status == OPTIMAL:
        _check_solution(lp, sol)
    return sol


def _check_solution(lp: LinearProgram, sol: LpSolution):
    x = sol.values
    if np.any(x < lp.lower - FEASIBILITY_TOL) or np.any(x > lp.upper + FEASIBILITY_TOL):
        raise SolverError("solution violates variable bounds")
    a_ub, b_ub, a_eq, b_eq = lp.matrix_form()
    excess = a_ub @ x - b_ub
    if excess.size and excess.max() > FEASIBILITY_TOL:
        i = int(np.argmax(excess))
        raise SolverError(f"row {i} of A_ub (<=) violated by {excess[i]:.3e}")
    off = a_eq @ x - b_eq
    if off.size and np.abs(off).max() > FEASIBILITY_TOL:
        i = int(np.argmax(np.abs(off)))
        raise SolverError(f"row {i} of A_eq (=) off by {off[i]:.3e}")
    obj = float(lp.objective @ x)
    if abs(obj - sol.objective_value) > FEASIBILITY_TOL * max(1.0, abs(obj)):
        raise SolverError("objective value inconsistent with solution vector")


# --- scipy/HiGHS adapter -----------------------------------------------------


def _solve_highs(lp: LinearProgram) -> LpSolution:
    from scipy.optimize import linprog

    sign = -1.0 if lp.sense == "max" else 1.0
    a_ub, b_ub, a_eq, b_eq = lp.matrix_form()
    res = linprog(
        c=sign * lp.objective,
        A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=b_ub if a_ub.shape[0] else None,
        A_eq=a_eq if a_eq.shape[0] else None,
        b_eq=b_eq if a_eq.shape[0] else None,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
    )
    if res.status == 0:
        return LpSolution(OPTIMAL, np.asarray(res.x), float(sign * res.fun))
    if res.status == 2:
        return LpSolution(INFEASIBLE, None, None)
    if res.status == 3:
        return LpSolution(UNBOUNDED, None, None)
    raise SolverError(f"HiGHS failed: status {res.status} ({res.message})")


# --- built-in dense simplex --------------------------------------------------
#
# Variables are shifted/flipped/split to nonnegative form, x = base + S u,
# finite upper bounds become rows, and the resulting
#     min c.x  s.t.  A x {<=,=} b,  x >= 0
# is solved by a two-phase tableau simplex on the densified blocks.  Bland's
# rule (lowest eligible index enters, lowest basic index leaves on ties) makes
# every pivot sequence deterministic and cycling impossible.


def _solve_simplex(lp: LinearProgram) -> LpSolution:
    n = lp.n_var
    sign = -1.0 if lp.sense == "max" else 1.0
    c_orig = sign * lp.objective

    # Nonnegative substitution per variable, x = base + S u: u = x - lo
    # (capped at hi - lo when hi is finite), u = hi - x, or x = u+ - u-.
    base = np.zeros(n)
    cols = []            # columns of S, one per u
    caps = []            # (u index, hi - lo) per finite cap
    for j in range(n):
        lo, hi = lp.lower[j], lp.upper[j]
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lo):
            base[j] = lo
            if np.isfinite(hi):
                caps.append((len(cols), hi - lo))
            cols.append(e)
        elif np.isfinite(hi):
            base[j] = hi
            cols.append(-e)
        else:
            cols += [e, -e]
    s = np.column_stack(cols)
    cap_cols = [k for k, _ in caps]

    a_ub, b_ub, a_eq, b_eq = lp.matrix_form()
    a = np.vstack([a_ub.toarray(), a_eq.toarray()])
    rows = np.vstack([a @ s, np.eye(s.shape[1])[cap_cols]])
    rels = [LE] * a_ub.shape[0] + [EQ] * a_eq.shape[0] + [LE] * len(caps)
    rhs = np.concatenate([np.concatenate([b_ub, b_eq]) - a @ base,
                          [cap for _, cap in caps]])

    status, u = _two_phase(rows, rels, rhs, c_orig @ s)
    if status != OPTIMAL:
        return LpSolution(status, None, None)

    x = base + s @ u
    obj = float(c_orig @ x)
    return LpSolution(OPTIMAL, x, sign * obj if lp.sense == "max" else obj)


def _two_phase(a, rels, b, c):
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    rels = list(rels)
    for i in range(m):
        if b[i] < 0:
            a[i] *= -1.0
            b[i] *= -1.0
            rels[i] = {LE: GE, GE: LE, EQ: EQ}[rels[i]]

    slack_cols = sum(1 for r in rels if r in (LE, GE))
    art_cols = sum(1 for r in rels if r in (EQ, GE))
    total = n + slack_cols + art_cols
    t = np.zeros((m, total + 1))
    t[:, :n] = a
    t[:, -1] = b

    basis = np.empty(m, dtype=int)
    s_at, a_at = n, n + slack_cols
    artificials = []
    for i, rel in enumerate(rels):
        if rel == LE:
            t[i, s_at] = 1.0
            basis[i] = s_at
            s_at += 1
        elif rel == GE:
            t[i, s_at] = -1.0
            s_at += 1
            t[i, a_at] = 1.0
            basis[i] = a_at
            artificials.append(a_at)
            a_at += 1
        else:
            t[i, a_at] = 1.0
            basis[i] = a_at
            artificials.append(a_at)
            a_at += 1

    if artificials:
        phase1 = np.zeros(total)
        phase1[artificials] = 1.0
        value = _run_simplex(t, basis, phase1, allow_cols=total)
        if value > FEASIBILITY_TOL:
            return INFEASIBLE, None
        _expel_artificials(t, basis, n + slack_cols)

    full_c = np.zeros(total)
    full_c[:n] = c
    value = _run_simplex(t, basis, full_c, allow_cols=n + slack_cols)
    if value is None:
        return UNBOUNDED, None
    x = np.zeros(total)
    x[basis] = t[:, -1]
    return OPTIMAL, x[:n]


def _run_simplex(t, basis, c, allow_cols):
    """Bland-rule simplex on tableau ``t``; returns objective or None (unbounded)."""
    m = t.shape[0]
    max_iter = 2000 + 200 * (m + allow_cols)
    for _ in range(max_iter):
        # Reduced costs for the current basis.
        y = c[basis]
        reduced = c[:allow_cols] - y @ t[:, :allow_cols]
        entering = -1
        for j in range(allow_cols):
            if reduced[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return float(y @ t[:, -1])
        col = t[:, entering]
        best, leave = np.inf, -1
        for i in range(m):
            if col[i] > _PIVOT_TOL:
                ratio = t[i, -1] / col[i]
                if ratio < best - _PIVOT_TOL or (
                    abs(ratio - best) <= _PIVOT_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        if leave < 0:
            return None
        _pivot(t, leave, entering)
        basis[leave] = entering
    raise SolverError("simplex iteration limit exceeded")


def _expel_artificials(t, basis, real_cols):
    """Pivot zero-level artificial variables out of the basis when possible."""
    m = t.shape[0]
    for i in range(m):
        if basis[i] >= real_cols:
            pivot_col = -1
            for j in range(real_cols):
                if abs(t[i, j]) > _PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(t, i, pivot_col)
                basis[i] = pivot_col
            # else: redundant row, the artificial stays basic at zero level


def _pivot(t, row, col):
    t[row] /= t[row, col]
    for i in range(t.shape[0]):
        if i != row and abs(t[i, col]) > 0:
            t[i] -= t[i, col] * t[row]
