"""Linear programs in the form HiGHS receives.

An LP is ``sense c x`` over ``lower <= x <= upper`` and ``row_lower <= a x
<= row_upper``: one CSR row block, an equality row having equal bounds and
a one-sided row an infinite one.  The dispatch and attack builders pass
their per-network blocks in as they are.

A solve starts from a :class:`Basis`, which names the *working set*: the
rows of ``a`` handed to HiGHS first; without one every row is.  After each
solve every row outside the working set that the point violates joins it
and the LP is solved again, until no row is violated.  The reduced LP is a
relaxation of the full one, so its infeasibility is the full LP's; an
unbounded reduced LP is re-solved with every row.  The final answer is
certified against *all* rows, the marginals of rows left outside padded
with zeros, so a certified point is optimal for the full LP.

Each working set is one call into HiGHS, Huangfu & Hall's dual revised
simplex (Math. Prog. Comp. 2018), through the bindings scipy ships as
``scipy.optimize._highspy._core``.  Each thread keeps one solver, given the
fixed options (presolve on, dual simplex, no output, no debug checks) once
when it is built; every call passes it a whole new model, which clears the
model, basis and solution of the call before.  The working rows go in
row-wise, gathered from the CSR arrays of ``a``.

A start that holds HiGHS statuses too, such as the basis an optimal answer
returns, starts warm, and each later round starts from the round before,
the new rows' slacks basic.  An optimal basis stays dual feasible when only
the right-hand sides change (Bertsimas & Tsitsiklis, *Introduction to
Linear Optimization*, 1997, §5.1), so the dual simplex resumes from it
without a phase 1.  Answers do not depend on call order as long as each
start comes from an instance fixed by the caller, never from the LP solved
last, as the dispatch and attack layers do.

``LinearProgram.validate`` refuses non-finite data, NaN bounds and a bound
infinite on the wrong side before anything reaches HiGHS, since a NaN bound
would pass every comparison below; columns and rows obey the same rules.
Every optimal answer is certified before it is returned.  The primal check
re-tests the bounds of every column and row at ``FEASIBILITY_TOL``.  The
dual certificate reads the HiGHS marginals ``y`` (rows) and ``z`` (columns)
of the minimisation form and checks stationarity ``c = a' y + z`` and a
primal-dual gap within ``FEASIBILITY_TOL``; each marginal prices one bound
of its row or column, a positive one the lower and a negative one the
upper, and a marginal on an infinite bound fails.  Residuals are relative:
stationarity and marginals to ``max(1, |c|_inf)``, the gap to
``max(1, |objective|)``.  A primal point that passes both is optimal up to
those tolerances, whatever produced it; a failure raises
:class:`SolverError` rather than returning a silently wrong answer.  So does
a non-finite point or marginal, which every comparison would let through.
"""

from __future__ import annotations

import threading
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
    """Maximise or minimise ``objective @ x`` over ``lower <= x <= upper``
    and ``row_lower <= a @ x <= row_upper``, exactly as HiGHS receives it;
    which rows of ``a`` go first is the start's (:class:`Basis`)."""

    sense: str                              # "max" | "min"
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a: sparse.csr_array
    row_lower: np.ndarray
    row_upper: np.ndarray

    @property
    def n_var(self):
        return self.lower.size

    def validate(self):
        if self.sense not in ("max", "min"):
            raise ValueError(f"unknown sense {self.sense!r}")
        n = self.n_var
        if self.objective.shape != (n,):
            raise ValueError("objective length does not match variable count")
        if getattr(self.a, "format", None) != "csr":
            raise ValueError("a is not a CSR matrix")
        if self.a.ndim != 2 or self.a.shape[1] != n:
            raise ValueError(f"a shape {self.a.shape} has not {n} columns")
        for name, v in (("objective", self.objective), ("a", self.a.data)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} holds a non-finite value")
        _check_bounds("variable", self.lower, self.upper, n)
        _check_bounds("row", self.row_lower, self.row_upper, self.a.shape[0])


def _check_bounds(name, lower, upper, size):
    """The rules bounds of columns and of rows share: one pair per entry,
    none NaN, a lower bound below +inf and an upper one above -inf, and no
    lower bound above its upper bound."""
    if lower.shape != (size,) or upper.shape != (size,):
        raise ValueError(f"{name} bounds have shapes {lower.shape} and {upper.shape},"
                         f" not ({size},)")
    # written so that a NaN fails it too
    if not ((lower < np.inf).all() and (upper > -np.inf).all()):
        raise ValueError(f"a {name} bound is NaN or infinite on the wrong side")
    if np.any(lower > upper + 1e-15):
        raise ValueError(f"a {name} has lower bound above its upper bound")


@dataclass(frozen=True)
class Basis:
    """Where a solve starts: ``working`` flags the rows of ``a`` that go to
    HiGHS first.  ``statuses``, if set, is a HiGHS basis over the columns and
    the working rows, each other row counting as basic; without it the solve
    starts cold."""

    working: np.ndarray                      # bool per row of a
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
        start = Basis(np.ones(lp.row_lower.shape, dtype=bool))
    working = np.asarray(start.working, dtype=bool)
    if working.shape != lp.row_lower.shape:
        raise ValueError(f"start basis has working shape {working.shape},"
                         f" the LP {lp.row_lower.size} rows")
    sign = -1.0 if lp.sense == "max" else 1.0
    c = sign * lp.objective
    basis = None if start.statuses is None else start
    rounds = iterations = 0
    while True:
        rounds += 1
        rows = np.flatnonzero(working)
        ans = _run_highs(c, lp.lower, lp.upper, _row_block(lp.a, rows),
                         lp.row_lower[rows], lp.row_upper[rows],
                         None if basis is None else _narrow(basis, working))
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
        ax = lp.a @ x
        violated = ~working & ((ax > lp.row_upper) | (ax < lp.row_lower))
        if not violated.any():
            break
        working = working | violated

    obj = float(c @ x)
    # written so that a NaN, and so any non-finite x, fails it too
    if not abs(obj - ans.fun) <= FEASIBILITY_TOL * max(1.0, abs(obj)):
        raise SolverError("objective value inconsistent with solution vector")
    _check_primal("variable", x, lp.lower, lp.upper)
    _check_primal("row", ax, lp.row_lower, lp.row_upper)
    y = np.zeros(lp.row_lower.size)
    y[rows] = ans.row_dual
    stationarity, gap = _check_dual(lp, c, obj, y, ans.col_dual)
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
    known = dict(zip(np.flatnonzero(basis.working).tolist(), basis.statuses.row_status))
    basic = highs.HighsBasisStatus.kBasic
    narrow = highs.HighsBasis()
    narrow.col_status = basis.statuses.col_status
    narrow.row_status = [known.get(i, basic) for i in np.flatnonzero(working).tolist()]
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
_THREAD = threading.local()   # .solver: this thread's HiGHS instance
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
    row_dual: np.ndarray | None = None   # per row passed
    col_dual: np.ndarray | None = None
    basis: highs.HighsBasis | None = None


def _run_highs(c, lower, upper, a, row_lower, row_upper, start=None) -> _Answer:
    """Solve ``min c x`` over the bounds and ``row_lower <= a x <= row_upper``
    with this thread's HiGHS instance, from the basis ``start`` if one is
    given.  ``a`` is a CSR triple ``(indptr, indices, data)``."""
    indptr, indices, data = a
    solver = _solver()
    error = highs.HighsStatus.kError
    # The passModel overload that takes arrays reads their buffers, where a
    # HighsLp copies each array element by element; every column continuous.
    failed = (solver.passModel(
                  c.size, row_lower.size, int(indptr[-1]), _ROWWISE, _MINIMIZE, 0.0,
                  c, lower, upper, row_lower, row_upper,
                  indptr.astype(np.int32, copy=False), indices.astype(np.int32, copy=False),
                  data, np.zeros(c.size, dtype=np.int32)) == error
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
    answer.x = np.array(solution.col_value)
    answer.fun = info.objective_function_value
    answer.row_dual = np.array(solution.row_dual)
    answer.col_dual = np.array(solution.col_dual)
    answer.basis = solver.getBasis()
    return answer


def _solver():
    """This thread's HiGHS instance, built with ``_OPTIONS`` on first use.
    Building one and passing it the options costs about as much as passing
    it the model, so it is kept; ``passModel`` clears everything a solve
    leaves in it but the options."""
    solver = getattr(_THREAD, "solver", None)
    if solver is None:
        solver = highs._Highs()
        if solver.passOptions(_OPTIONS) == highs.HighsStatus.kError:
            raise SolverError("HiGHS refused the solver options")
        _THREAD.solver = solver
    return solver


def _check_primal(name, v, lower, upper):
    """Every ``v`` within its bounds at ``FEASIBILITY_TOL``: the columns'
    values or the rows' activities."""
    excess = np.maximum(lower - v, v - upper)
    if excess.size and excess.max() > FEASIBILITY_TOL:
        i = int(np.argmax(excess))
        raise SolverError(f"{name} {i} outside its bounds by {excess[i]:.3e}")


def _check_dual(lp, c, obj, y, z):
    """Dual certificate of ``min c x`` from the HiGHS marginals ``y`` over
    every row of ``a`` and ``z`` over the columns.  Returns the worst
    relative stationarity residual and the relative primal-dual gap."""
    if not (np.isfinite(y).all() and np.isfinite(z).all()):
        raise SolverError("HiGHS returned a non-finite marginal")
    scale = max(1.0, float(np.abs(c).max(initial=0.0)))
    tol = FEASIBILITY_TOL * scale

    stationarity = c - _transpose_times(lp.a, y) - z
    worst = float(np.abs(stationarity).max(initial=0.0))
    if worst > tol:
        i = int(np.argmax(np.abs(stationarity)))
        raise SolverError(f"dual stationarity off by {stationarity[i]:.3e}"
                          f" at variable {i}")

    dual = (_priced("row", y, lp.row_lower, lp.row_upper, tol)
            + _priced("variable", z, lp.lower, lp.upper, tol))
    if not abs(obj - dual) <= FEASIBILITY_TOL * max(1.0, abs(obj)):
        raise SolverError(f"primal-dual gap {obj - dual:.3e} at objective {obj:.6g}")
    return worst / scale, abs(obj - dual) / max(1.0, abs(obj))


def _priced(name, marginal, lower, upper, tol):
    """The dual objective's share of the bounds ``lower`` and ``upper``: a
    positive marginal prices the lower bound, a negative one the upper, and
    a marginal beyond ``tol`` on an infinite bound is no certificate."""
    bound = np.where(marginal > 0.0, lower, upper)
    infinite = ~np.isfinite(bound)
    wrong = infinite & (np.abs(marginal) > tol)
    if wrong.any():
        i = int(np.argmax(wrong))
        raise SolverError(f"{name} {i} has marginal {marginal[i]:.3e} on an infinite bound")
    return float(bound[~infinite] @ marginal[~infinite])


def _transpose_times(a, y):
    """``a.T @ y`` for a CSR ``a``, without building the transpose."""
    return np.bincount(a.indices, a.data * np.repeat(y, np.diff(a.indptr)),
                       minlength=a.shape[1])
