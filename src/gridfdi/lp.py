"""Linear programs in the matrix form HiGHS receives.

An LP is ``sense c x`` over ``lower <= x <= upper`` with ``a_ub x <= b_ub``
and ``a_eq x = b_eq``; the dispatch and attack builders pass their
per-network CSR blocks in as they are.

A solve starts from a :class:`Basis`, which names the *working set*: the
rows of ``a_ub`` handed to HiGHS first; without one every row is.  After
each solve every row outside the working set that the point violates joins
it and the LP is solved again, until no row is violated.  The reduced LP is
a relaxation of the full one, so its infeasibility is the full LP's; an
unbounded reduced LP is re-solved with every row.  The final answer is
certified against *all* rows, the marginals of rows left outside padded
with zeros, so a certified point is optimal for the full LP.

Each working set is one call into HiGHS, Huangfu & Hall's dual revised
simplex (Math. Prog. Comp. 2018), through the bindings scipy ships as
``scipy.optimize._highspy._core``.  Every call builds a fresh solver with the
same fixed options (presolve on, dual simplex, no output, no debug checks).
The working rows of ``a_ub`` and then the rows of ``a_eq`` go in row-wise,
their CSR arrays concatenated.

A start that holds HiGHS statuses too, such as the basis an optimal answer
returns, starts warm, and each later round starts from the round before,
the new rows' slacks basic.  An optimal basis stays dual feasible when only
the right-hand sides change (Bertsimas & Tsitsiklis, *Introduction to
Linear Optimization*, 1997, §5.1), so the dual simplex resumes from it
without a phase 1.  Answers do not depend on call order as long as each
start comes from an instance fixed by the caller, never from the LP solved
last, as the dispatch and attack layers do.

``LinearProgram.validate`` refuses non-finite data and NaN bounds before
anything reaches HiGHS, since a NaN right-hand side would pass every
comparison below.  Every optimal answer is certified before it is returned.
The primal check re-tests all bounds and rows at ``FEASIBILITY_TOL``.  The
dual certificate reads the HiGHS marginals ``y`` (rows) and ``z`` (columns,
split by sign into ``z_l = max(z, 0)`` and ``z_u = min(z, 0)``) of the
minimisation form and checks stationarity ``c = A_ub' y_ub + A_eq' y_eq +
z_l + z_u``, the signs ``y_ub <= 0``, ``z_l >= 0``, ``z_u <= 0``, zero
marginals on infinite bounds, and a primal-dual gap within
``FEASIBILITY_TOL``.  Residuals are relative: stationarity and signs to
``max(1, |c|_inf)``, the gap to ``max(1, |objective|)``.  A primal point that
passes both is optimal up to those tolerances, whatever produced it; a
failure raises :class:`SolverError` rather than returning a silently wrong
answer.  So does a non-finite point or marginal, which every comparison would
let through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

try:
    from scipy.optimize._highspy import _core as highs
except ImportError as exc:
    raise ImportError("gridfdi calls HiGHS through scipy.optimize._highspy._core,"
                      " which this scipy does not provide; scipy 1.17 does") from exc

FEASIBILITY_TOL = 1e-7

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SolverError(Exception):
    """Numeric breakdown or an unusable solver answer."""


@dataclass
class LinearProgram:
    """Maximise or minimise ``objective @ x`` over ``lower <= x <= upper``,
    ``a_ub @ x <= b_ub`` and ``a_eq @ x == b_eq``, exactly as HiGHS receives
    it; which rows of ``a_ub`` go first is the start's (:class:`Basis`)."""

    sense: str                              # "max" | "min"
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_ub: sparse.csr_array
    b_ub: np.ndarray
    a_eq: sparse.csr_array
    b_eq: np.ndarray

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
            if getattr(a, "format", None) != "csr":
                raise ValueError(f"{name} is not a CSR matrix")
            if a.ndim != 2 or a.shape[1] != n:
                raise ValueError(f"{name} shape {a.shape} has not {n} columns")
            if b.shape != (a.shape[0],):
                raise ValueError(f"{name} has {a.shape[0]} rows but its right-hand"
                                 f" side has shape {b.shape}")
        for name, v in (("objective", self.objective), ("a_ub", self.a_ub.data),
                        ("b_ub", self.b_ub), ("a_eq", self.a_eq.data), ("b_eq", self.b_eq)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} holds a non-finite value")
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ValueError("a variable bound is NaN")


@dataclass(frozen=True)
class Basis:
    """Where a solve starts: ``working`` flags the rows of ``a_ub`` that go
    to HiGHS first.  ``statuses``, if set, is a HiGHS basis over the columns
    and the working rows (then every row of ``a_eq``), each other row of
    ``a_ub`` counting as basic; without it the solve starts cold."""

    working: np.ndarray                      # bool per row of a_ub
    statuses: highs.HighsBasis | None = None


@dataclass(frozen=True)
class LpSolution:
    status: str
    values: np.ndarray | None
    objective_value: float | None
    rounds: int = 1                     # HiGHS solves, one per working set
    iterations: int = 0                 # HiGHS simplex iterations over all rounds
    stationarity: float | None = None   # worst relative stationarity residual
    gap: float | None = None            # relative primal-dual gap
    basis: Basis | None = None          # final basis of an optimal answer


def solve_lp(lp: LinearProgram, start: Basis | None = None) -> LpSolution:
    """Solve an LP with HiGHS from the working set of ``start`` (every row
    without one), adding violated rows until none is left, and certify an
    optimal answer against every row; deterministic for identical input.
    A ``start`` with statuses, such as ``LpSolution.basis`` of an LP of the
    same shape, starts warm; each later round starts from the one before."""
    lp.validate()
    if start is None:
        start = Basis(np.ones(lp.b_ub.shape, dtype=bool))
    working = np.asarray(start.working, dtype=bool)
    if working.shape != lp.b_ub.shape:
        raise ValueError(f"start basis has working shape {working.shape},"
                         f" the LP {lp.b_ub.size} rows of a_ub")
    sign = -1.0 if lp.sense == "max" else 1.0
    c = sign * lp.objective
    basis = None if start.statuses is None else start
    rounds = iterations = 0
    while True:
        rounds += 1
        rows = np.flatnonzero(working)
        ans = _run_highs(c, lp.lower, lp.upper, _row_block(lp.a_ub, rows), lp.b_ub[rows],
                         lp.a_eq, lp.b_eq, None if basis is None else _narrow(basis, working))
        iterations += ans.iterations
        if ans.status == INFEASIBLE:
            return LpSolution(INFEASIBLE, None, None, rounds, iterations)
        if ans.status == UNBOUNDED:
            if working.all():
                return LpSolution(UNBOUNDED, None, None, rounds, iterations)
            working = np.ones_like(working)
            continue
        x = ans.x
        basis = Basis(working, ans.basis)
        violated = ~working & (lp.a_ub @ x - lp.b_ub > 0.0)
        if not violated.any():
            break
        working = working | violated

    obj = float(c @ x)
    # written so that a NaN, and so any non-finite x, fails it too
    if not abs(obj - ans.fun) <= FEASIBILITY_TOL * max(1.0, abs(obj)):
        raise SolverError("objective value inconsistent with solution vector")
    _check_primal(lp, x)
    y_ub = np.zeros(lp.b_ub.size)
    y_ub[rows] = ans.row_dual[:rows.size]
    stationarity, gap = _check_dual(lp, c, obj, y_ub, ans.row_dual[rows.size:],
                                    ans.z_lower, ans.z_upper)
    return LpSolution(OPTIMAL, x, float(sign * ans.fun), rounds, iterations,
                      stationarity, gap, basis)


def _row_block(a, rows):
    """The CSR arrays ``(indptr, indices, data)`` of the rows ``rows`` of
    ``a``, gathered without building a matrix."""
    if rows.size == a.shape[0]:
        return a.indptr, a.indices, a.data
    first = a.indptr[rows]
    count = a.indptr[rows + 1] - first
    indptr = np.concatenate([[0], np.cumsum(count)])
    take = np.repeat(first - indptr[:-1], count) + np.arange(indptr[-1])
    return indptr, a.indices[take], a.data[take]


def _narrow(basis: Basis, working) -> highs.HighsBasis:
    """``basis`` over the rows in ``working``: a row outside ``basis.working``
    enters basic.  Each read of a HiGHS status list builds it anew, so each
    list is read once."""
    if np.array_equal(basis.working, working):
        return basis.statuses
    row_status = basis.statuses.row_status
    known = dict(zip(np.flatnonzero(basis.working).tolist(), row_status))
    basic = highs.HighsBasisStatus.kBasic
    narrow = highs.HighsBasis()
    narrow.col_status = basis.statuses.col_status
    narrow.row_status = ([known.get(i, basic) for i in np.flatnonzero(working).tolist()]
                         + row_status[len(known):])
    narrow.valid = True
    return narrow


def _highs_options():
    """Presolve on, dual simplex, no output and no debug checks: the
    settings of scipy's ``method="highs"``."""
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    return options


_OPTIONS = _highs_options()
_ROWWISE = int(highs.MatrixFormat.kRowwise)
_MINIMIZE = int(highs.ObjSense.kMinimize)
_STATUS = {
    highs.HighsModelStatus.kOptimal: OPTIMAL,
    highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}


@dataclass
class _Answer:
    """One HiGHS solve of ``min c x``; the solution fields are set only when
    ``status`` is optimal."""

    status: str
    iterations: int
    x: np.ndarray | None = None
    fun: float | None = None
    row_dual: np.ndarray | None = None   # the a_ub rows passed, then a_eq's
    z_lower: np.ndarray | None = None
    z_upper: np.ndarray | None = None
    basis: highs.HighsBasis | None = None


def _run_highs(c, lower, upper, a_ub, b_ub, a_eq, b_eq, start=None) -> _Answer:
    """Solve ``min c x`` over the bounds, ``a_ub x <= b_ub`` and
    ``a_eq x = b_eq`` with a fresh HiGHS instance, from the basis ``start``
    if one is given.  ``a_ub`` is a CSR triple ``(indptr, indices, data)``,
    ``a_eq`` a CSR matrix."""
    ub_ptr, ub_index, ub_value = a_ub
    indptr = np.concatenate([ub_ptr, ub_ptr[-1] + a_eq.indptr[1:]]).astype(np.int32)
    solver = highs._Highs()
    error = highs.HighsStatus.kError
    # The passModel overload that takes arrays reads their buffers, where a
    # HighsLp copies each array element by element; every column continuous.
    failed = (solver.passOptions(_OPTIONS) == error
              or solver.passModel(
                  c.size, b_ub.size + b_eq.size, int(indptr[-1]), _ROWWISE, _MINIMIZE, 0.0,
                  c, lower, upper,
                  np.concatenate([np.full(b_ub.size, -highs.kHighsInf), b_eq]),
                  np.concatenate([b_ub, b_eq]), indptr,
                  np.concatenate([ub_index, a_eq.indices]).astype(np.int32),
                  np.concatenate([ub_value, a_eq.data]),
                  np.zeros(c.size, dtype=np.int32)) == error
              or (start is not None and solver.setBasis(start) == error)
              or solver.run() == error)
    model_status = solver.getModelStatus()
    status = None if failed else _STATUS.get(model_status)
    if status is None:
        raise SolverError(f"HiGHS failed: {solver.modelStatusToString(model_status)}")
    info = solver.getInfo()
    answer = _Answer(status, int(info.simplex_iteration_count))
    if status != OPTIMAL:
        return answer

    solution = solver.getSolution()
    if not (solution.value_valid and solution.dual_valid):
        raise SolverError("HiGHS reported an optimum without primal and dual values")
    z = np.array(solution.col_dual)
    answer.x = np.array(solution.col_value)
    answer.fun = info.objective_function_value
    answer.row_dual = np.array(solution.row_dual)
    # Any split with z_l >= 0, z_u <= 0 and z_l + z_u = z is a dual; the
    # infinite-bound check and the gap decide whether it certifies x.
    answer.z_lower = np.maximum(z, 0.0)
    answer.z_upper = np.minimum(z, 0.0)
    answer.basis = solver.getBasis()
    return answer


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


def _check_dual(lp, c, obj, y_ub, y_eq, z_l, z_u):
    """Dual certificate of ``min c x`` from the HiGHS marginals; ``y_ub``
    holds the row marginals over every row of ``a_ub``.  Returns the worst
    relative stationarity residual and the relative primal-dual gap."""
    if not all(np.isfinite(v).all() for v in (y_ub, y_eq, z_l, z_u)):
        raise SolverError("HiGHS returned a non-finite marginal")
    scale = max(1.0, float(np.abs(c).max(initial=0.0)))
    tol = FEASIBILITY_TOL * scale

    stationarity = (c - _transpose_times(lp.a_ub, y_ub) - _transpose_times(lp.a_eq, y_eq)
                    - z_l - z_u)
    worst = float(np.abs(stationarity).max(initial=0.0))
    if worst > tol:
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
    if not abs(obj - dual) <= FEASIBILITY_TOL * max(1.0, abs(obj)):
        raise SolverError(f"primal-dual gap {obj - dual:.3e} at objective {obj:.6g}")
    return worst / scale, abs(obj - dual) / max(1.0, abs(obj))


def _transpose_times(a, y):
    """``a.T @ y`` for a CSR ``a``, without building the transpose."""
    return np.bincount(a.indices, a.data * np.repeat(y, np.diff(a.indptr)),
                       minlength=a.shape[1])
