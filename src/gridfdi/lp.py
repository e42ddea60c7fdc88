"""Linear programs in matrix form for the dispatch and attack builders.

Constraints are kept as blocks of rows, ``A x (relation) b``, with ``A`` a
scipy CSR matrix; a builder adds each family of rows as one block.
:func:`solve_lp` hands the stacked blocks to scipy's HiGHS adapter unchanged.

Every optimal answer is certified before it is returned.  The primal check
re-tests all bounds and rows at ``FEASIBILITY_TOL``.  The dual certificate
reads the HiGHS marginals ``y`` (rows) and ``z`` (bounds) of the minimisation
form and checks stationarity ``c = A_ub' y_ub + A_eq' y_eq + z_l + z_u``, the
signs ``y_ub <= 0``, ``z_l >= 0``, ``z_u <= 0``, zero marginals on infinite
bounds, and a primal-dual gap within ``FEASIBILITY_TOL``.  Residuals are
relative: stationarity and signs to ``max(1, |c|_inf)``, the gap to
``max(1, |objective|)``.  A primal point that passes both is optimal up to
those tolerances, whatever produced it; a failure raises
:class:`SolverError` rather than returning a silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

FEASIBILITY_TOL = 1e-7

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
    lower: np.ndarray = field(default_factory=lambda: np.zeros(0))
    upper: np.ndarray = field(default_factory=lambda: np.zeros(0))
    constraints: list[Constraint] = field(default_factory=list)

    @property
    def n_var(self):
        return self.lower.size

    def add_variables(self, count: int, lower=-np.inf, upper=np.inf):
        """Append ``count`` variables; returns their index slice."""
        start = self.n_var
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


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an LP with HiGHS and certify an optimal answer; deterministic
    for identical input."""
    # Looked up at call time, so a wrapper installed on scipy.optimize is used.
    from scipy.optimize import linprog

    lp.validate()
    sign = -1.0 if lp.sense == "max" else 1.0
    c = sign * lp.objective
    a_ub, b_ub, a_eq, b_eq = lp.matrix_form()
    res = linprog(
        c=c,
        A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=b_ub if a_ub.shape[0] else None,
        A_eq=a_eq if a_eq.shape[0] else None,
        b_eq=b_eq if a_eq.shape[0] else None,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
    )
    if res.status == 2:
        return LpSolution(INFEASIBLE, None, None)
    if res.status == 3:
        return LpSolution(UNBOUNDED, None, None)
    if res.status != 0:
        raise SolverError(f"HiGHS failed: status {res.status} ({res.message})")
    x = np.asarray(res.x, dtype=float)
    obj = float(c @ x)
    if abs(obj - res.fun) > FEASIBILITY_TOL * max(1.0, abs(obj)):
        raise SolverError("objective value inconsistent with solution vector")
    _check_primal(lp, x, a_ub, b_ub, a_eq, b_eq)
    _check_dual(lp, c, obj, res, a_ub, b_ub, a_eq, b_eq)
    return LpSolution(OPTIMAL, x, float(sign * res.fun))


def _check_primal(lp, x, a_ub, b_ub, a_eq, b_eq):
    if np.any(x < lp.lower - FEASIBILITY_TOL) or np.any(x > lp.upper + FEASIBILITY_TOL):
        raise SolverError("solution violates variable bounds")
    excess = a_ub @ x - b_ub
    if excess.size and excess.max() > FEASIBILITY_TOL:
        i = int(np.argmax(excess))
        raise SolverError(f"row {i} of A_ub (<=) violated by {excess[i]:.3e}")
    off = a_eq @ x - b_eq
    if off.size and np.abs(off).max() > FEASIBILITY_TOL:
        i = int(np.argmax(np.abs(off)))
        raise SolverError(f"row {i} of A_eq (=) off by {off[i]:.3e}")


def _check_dual(lp, c, obj, res, a_ub, b_ub, a_eq, b_eq):
    """Dual certificate of ``min c x`` from the HiGHS marginals."""
    y_ub = _marginals(res, "ineqlin", b_ub.size)
    y_eq = _marginals(res, "eqlin", b_eq.size)
    z_l = _marginals(res, "lower", lp.n_var)
    z_u = _marginals(res, "upper", lp.n_var)
    tol = FEASIBILITY_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))

    stationarity = c - a_ub.T @ y_ub - a_eq.T @ y_eq - z_l - z_u
    if stationarity.size and np.abs(stationarity).max() > tol:
        i = int(np.argmax(np.abs(stationarity)))
        raise SolverError(f"dual stationarity off by {stationarity[i]:.3e}"
                          f" at variable {i}")
    for name, wrong in (("A_ub row", y_ub), ("lower bound", -z_l), ("upper bound", z_u)):
        if wrong.size and wrong.max() > tol:
            i = int(np.argmax(wrong))
            raise SolverError(f"{name} {i} marginal has the wrong sign ({wrong[i]:.3e})")
    lo, hi = np.isfinite(lp.lower), np.isfinite(lp.upper)
    if np.any(np.abs(z_l[~lo]) > tol) or np.any(np.abs(z_u[~hi]) > tol):
        raise SolverError("nonzero marginal on an infinite bound")

    dual = b_ub @ y_ub + b_eq @ y_eq + lp.lower[lo] @ z_l[lo] + lp.upper[hi] @ z_u[hi]
    if abs(obj - dual) > FEASIBILITY_TOL * max(1.0, abs(obj)):
        raise SolverError(f"primal-dual gap {obj - dual:.3e} at objective {obj:.6g}")


def _marginals(res, name, size):
    y = getattr(getattr(res, name, None), "marginals", None)
    if y is None or np.shape(y) != (size,):
        raise SolverError(f"HiGHS returned no {name} marginals of length {size}")
    return np.asarray(y, dtype=float)
