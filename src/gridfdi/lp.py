"""Linear programs in the matrix form HiGHS receives.

An LP is ``sense c x`` over ``lower <= x <= upper`` with ``a_ub x <= b_ub``
and ``a_eq x = b_eq``; the dispatch and attack builders pass their
per-network CSR blocks in as they are.

Inequality rows may be *lazy*: they start outside the working set that is
handed to HiGHS.  After each solve every lazy row the point violates joins
the working set and the LP is solved again, until no row is violated.  The
reduced LP is a relaxation of the full one, so its infeasibility is the full
LP's; an unbounded reduced LP is re-solved with every row.  The final answer
is certified against *all* rows, the marginals of rows left outside padded
with zeros, so a certified point is optimal for the full LP.

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

from dataclasses import dataclass

import numpy as np
from scipy import sparse

FEASIBILITY_TOL = 1e-7

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SolverError(Exception):
    """Numeric breakdown or an unusable solver answer."""


@dataclass
class LinearProgram:
    """Maximise or minimise ``objective @ x`` over ``lower <= x <= upper``,
    ``a_ub @ x <= b_ub`` and ``a_eq @ x == b_eq``.  ``lazy`` is one flag, or
    one per row of ``a_ub``, for rows that start outside the working set."""

    sense: str                              # "max" | "min"
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_ub: sparse.csr_array
    b_ub: np.ndarray
    a_eq: sparse.csr_array
    b_eq: np.ndarray
    lazy: bool | np.ndarray = False

    @property
    def n_var(self):
        return self.lower.size

    def validate(self):
        if self.sense not in ("max", "min"):
            raise ValueError(f"unknown sense {self.sense!r}")
        n = self.n_var
        if self.objective.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("objective or upper bound length does not match"
                             " variable count")
        if np.any(self.lower > self.upper + 1e-15):
            raise ValueError("a variable has lower bound above its upper bound")
        for name, a, b in (("a_ub", self.a_ub, self.b_ub), ("a_eq", self.a_eq, self.b_eq)):
            if a.ndim != 2 or a.shape[1] != n:
                raise ValueError(f"{name} shape {a.shape} has not {n} columns")
            if b.shape != (a.shape[0],):
                raise ValueError(f"{name} has {a.shape[0]} rows but its right-hand"
                                 f" side has shape {b.shape}")
        if np.shape(self.lazy) not in ((), self.b_ub.shape):
            raise ValueError(f"lazy shape {np.shape(self.lazy)} matches neither one"
                             f" flag nor the {self.b_ub.size} rows of a_ub")


@dataclass(frozen=True)
class LpSolution:
    status: str
    values: np.ndarray | None
    objective_value: float | None
    rounds: int = 1                     # HiGHS solves, one per working set
    working: np.ndarray | None = None   # final working set over the rows of a_ub


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an LP with HiGHS, adding violated lazy rows until none is left,
    and certify an optimal answer against every row; deterministic for
    identical input."""
    # Looked up at call time, so a wrapper installed on scipy.optimize is used.
    from scipy.optimize import linprog

    lp.validate()
    sign = -1.0 if lp.sense == "max" else 1.0
    c = sign * lp.objective
    working = ~np.broadcast_to(np.asarray(lp.lazy, dtype=bool), lp.b_ub.shape)
    bounds = np.column_stack([lp.lower, lp.upper])
    rounds = 0
    while True:
        rounds += 1
        rows = np.flatnonzero(working)
        a_work = lp.a_ub if rows.size == lp.b_ub.size else lp.a_ub[rows]
        res = linprog(
            c=c,
            A_ub=a_work if rows.size else None,
            b_ub=lp.b_ub[rows] if rows.size else None,
            A_eq=lp.a_eq if lp.a_eq.shape[0] else None,
            b_eq=lp.b_eq if lp.a_eq.shape[0] else None,
            bounds=bounds,
            method="highs",
        )
        if res.status == 2:
            return LpSolution(INFEASIBLE, None, None, rounds, working)
        if res.status == 3:
            if working.all():
                return LpSolution(UNBOUNDED, None, None, rounds, working)
            working[:] = True
            continue
        if res.status != 0:
            raise SolverError(f"HiGHS failed: status {res.status} ({res.message})")
        x = np.asarray(res.x, dtype=float)
        violated = ~working & (lp.a_ub @ x - lp.b_ub > 0.0)
        if not violated.any():
            break
        working |= violated

    obj = float(c @ x)
    if abs(obj - res.fun) > FEASIBILITY_TOL * max(1.0, abs(obj)):
        raise SolverError("objective value inconsistent with solution vector")
    _check_primal(lp, x)
    y_ub = np.zeros(lp.b_ub.size)
    y_ub[rows] = _marginals(res, "ineqlin", rows.size)
    _check_dual(lp, c, obj, res, y_ub)
    return LpSolution(OPTIMAL, x, float(sign * res.fun), rounds, working)


def _check_primal(lp, x):
    if np.any(x < lp.lower - FEASIBILITY_TOL) or np.any(x > lp.upper + FEASIBILITY_TOL):
        raise SolverError("solution violates variable bounds")
    excess = lp.a_ub @ x - lp.b_ub
    if excess.size and excess.max() > FEASIBILITY_TOL:
        i = int(np.argmax(excess))
        raise SolverError(f"row {i} of A_ub (<=) violated by {excess[i]:.3e}")
    off = lp.a_eq @ x - lp.b_eq
    if off.size and np.abs(off).max() > FEASIBILITY_TOL:
        i = int(np.argmax(np.abs(off)))
        raise SolverError(f"row {i} of A_eq (=) off by {off[i]:.3e}")


def _check_dual(lp, c, obj, res, y_ub):
    """Dual certificate of ``min c x`` from the HiGHS marginals; ``y_ub``
    holds the row marginals over every row of ``a_ub``."""
    y_eq = _marginals(res, "eqlin", lp.b_eq.size)
    z_l = _marginals(res, "lower", lp.n_var)
    z_u = _marginals(res, "upper", lp.n_var)
    tol = FEASIBILITY_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))

    stationarity = c - lp.a_ub.T @ y_ub - lp.a_eq.T @ y_eq - z_l - z_u
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

    dual = lp.b_ub @ y_ub + lp.b_eq @ y_eq + lp.lower[lo] @ z_l[lo] + lp.upper[hi] @ z_u[hi]
    if abs(obj - dual) > FEASIBILITY_TOL * max(1.0, abs(obj)):
        raise SolverError(f"primal-dual gap {obj - dual:.3e} at objective {obj:.6g}")


def _marginals(res, name, size):
    y = getattr(getattr(res, name, None), "marginals", None)
    if y is None or np.shape(y) != (size,):
        raise SolverError(f"HiGHS returned no {name} marginals of length {size}")
    return np.asarray(y, dtype=float)
