"""Linear programs in the form HiGHS receives.

An LP is ``sense c x`` over ``lower <= x <= upper`` and ``row_lower <= a x
<= row_upper``: one CSR row block, an equality row having equal bounds and
a one-sided row an infinite one, passed in by the dispatch and attack
builders as they are.

A solve starts from a :class:`Basis`, which names the *working set*: the
rows of ``a`` handed to HiGHS first; without one every row is.  Each row
outside it that the point violates joins it and the LP is solved again,
until none is.  The reduced LP is a relaxation of the full one, so its
infeasibility is the full LP's; an unbounded one is re-solved with every
row.  The answer is certified against *all* rows, the marginals of rows
left out padded with zeros, so a certified point is optimal for the full LP.

Each working set is one call into HiGHS, Huangfu & Hall's dual revised
simplex (Math. Prog. Comp. 2018), through the bindings scipy ships as
``scipy.optimize._highspy._core``.  Each thread keeps one solver, given
scipy's ``method="highs"`` options once (dual simplex, no output, no debug
checks) but presolve off: HiGHS skips presolve from a basis anyway, and on
a cold solve of these small LPs it takes about a fifth of the time and
saves no pivot.  Every call passes the solver a
whole new model, which clears the model, basis and solution of the call
before.  The working rows go in row-wise, and with them only the columns
that have a nonzero in one of them.  Every other column sits at the bound
its cost picks, the lower one for a nonnegative cost, its marginal its
cost; one whose picked bound is infinite goes to HiGHS too.  Of the
dispatch LP's 391 columns about 25 reach HiGHS.  The basis a solve returns
still covers every column.

A start that holds HiGHS statuses too, such as the basis an optimal answer
returns, starts the first round warm when it covers the columns that round
hands HiGHS; later rounds, and the retry with every row, start cold.  An
optimal basis stays dual feasible when only the right-hand sides change
(Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*, 1997, §5.1),
so the dual simplex resumes from it without a phase 1.  Answers do not
depend on call order while each start comes from an instance fixed by the
caller, never from the LP solved last, as in the dispatch and attack layers.

Such a start is first evaluated as it stands, with no HiGHS call: its
nonbasic columns and working rows sit at the bounds their statuses name,
which fix the basic columns through one square solve.  A point within every
column and row bound at ``FEASIBILITY_TOL`` is optimal, since the start's
marginals price it (same section), and is the answer: a *basis answer*,
with ``rounds == 0``, ``iterations == 0`` and the start as its basis.  This
needs a start solved with the same ``c`` and the very same ``a`` object, as
the dispatch and attack starts are, whose statuses each name a bound or
basic, with a nonsingular block; its LU factor, nonzeros only, is kept with
the start.  Otherwise HiGHS solves from the start as above; it stays the
only optimiser.  On the seed-2018 grid 173 of the 478 warm solves are basis
answers: 132 attack LPs and 41 dispatches, exactly those on which HiGHS
takes one call and no pivot.

``LinearProgram.validate`` refuses non-finite data, NaN bounds and a bound
infinite on the wrong side before anything reaches HiGHS, on every call;
columns and rows obey the same rules.  Past it, one test decides whether a
value leaves its bounds, for the basis answer, the rows joining the working
set and the primal check alike, and a NaN leaves every bound.  Every
optimal answer is certified before it is returned.  The primal check
re-tests the bounds of every column and row at ``FEASIBILITY_TOL``.  The
dual certificate reads the HiGHS marginals ``y`` (rows) and ``z`` (columns)
of the minimisation form and checks stationarity ``c = a' y + z`` and a
primal-dual gap within ``FEASIBILITY_TOL``; a positive marginal prices the
lower bound of its row or column and a negative one the upper, and one on
an infinite bound fails.  Residuals are relative: stationarity and
marginals to ``max(1, |c|_inf)``, the gap to ``max(1, |objective|)``.  A
point that passes both is optimal up to those tolerances, whatever produced
it; a failure, a non-finite point or marginal, and a NaN residual, raise
:class:`SolverError` rather than return a silently wrong answer.  A basis
answer is certified with the marginals of the start's own solve.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgetrf as _getrf, dgetrs as _getrs

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
        n, a = self.n_var, self.a
        if self.objective.shape != (n,):
            raise ValueError("objective length does not match variable count")
        if getattr(a, "format", None) != "csr":
            raise ValueError("a is not a CSR matrix")
        if a.ndim != 2 or a.shape[1] != n:
            raise ValueError(f"a shape {a.shape} has not {n} columns")
        for name, v in (("objective", self.objective), ("a", a.data)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} holds a non-finite value")
        _check_bounds("variable", self.lower, self.upper, n)
        _check_bounds("row", self.row_lower, self.row_upper, a.shape[0])


def _check_bounds(name, lower, upper, size):
    """The rules bounds of columns and of rows share: one pair per entry,
    none NaN, a lower bound below +inf and an upper one above -inf, and no
    lower bound above its upper bound."""
    if lower.shape != (size,) or upper.shape != (size,):
        raise ValueError(f"{name} bounds have shapes {lower.shape} and {upper.shape},"
                         f" not ({size},)")
    # written so that a NaN fails it too; the failure then names its rule
    if not ((lower < np.inf) & (upper > -np.inf) & (lower <= upper + 1e-15)).all():
        if not ((lower < np.inf).all() and (upper > -np.inf).all()):
            raise ValueError(f"a {name} bound is NaN or infinite on the wrong side")
        raise ValueError(f"a {name} has lower bound above its upper bound")


@dataclass(frozen=True)
class _Dual:
    """The LP ``min c x`` over the rows ``a`` that a solve ended on, and its
    marginals: ``y`` per row of ``a``, zero outside the working set, and
    ``z`` per column."""

    a: sparse.csr_array
    c: np.ndarray
    y: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class Basis:
    """Where a solve starts: ``working`` flags the rows of ``a`` that go to
    HiGHS first; without ``_statuses`` the solve starts cold.  The basis a
    solve ends with sets the rest: ``_statuses`` is the HiGHS basis of its
    last call, over the working rows, each other row counting as basic, and
    over the columns HiGHS saw; ``fixed`` the status of each column HiGHS did
    not see (-1 for one it saw); ``dual`` the LP and the marginals.  A kept
    start is read-only, but a HiGHS basis cannot be frozen, so it is private."""

    working: np.ndarray                      # bool per row of a
    fixed: np.ndarray | None = None          # int8 HiGHS status per column
    dual: _Dual | None = None
    _statuses: highs.HighsBasis | None = None

    @cached_property
    def _layout(self):
        """``(basic columns, per column whether it sits at its upper bound,
        the nonbasic working rows, per such row whether at its upper bound,
        the factor of those rows over the basic columns)``, built on first
        use from ``dual.a``; None when a status names no bound (``kZero``,
        ``kNonbasic``) or that block is not square or singular.  Each read of
        a HiGHS status list builds it anew, so each is read once here."""
        cols = self.fixed.copy()
        cols[cols < 0] = np.fromiter(map(int, self._statuses.col_status), np.int8)
        rows = np.fromiter(map(int, self._statuses.row_status), np.int8)
        if not (np.isin(cols, _NAMED).all() and np.isin(rows, _NAMED).all()):
            return None
        basic = np.flatnonzero(cols == _BASIC)
        at_bound = rows != _BASIC
        rows_at_bound = np.flatnonzero(self.working)[at_bound]
        if basic.size != rows_at_bound.size:
            return None
        factor = _Factor.of(self.dual.a, rows_at_bound, basic)
        if factor is None:
            return None
        return basic, cols == _UPPER, rows_at_bound, rows[at_bound] == _UPPER, factor


@dataclass(frozen=True)
class _Factor:
    """LAPACK's ``P B = L U`` of a square block ``B``, kept as the nonzeros
    of the packed ``L`` and ``U`` only: on case118 about 2 400 of the 13 700
    entries of an attack LP's basic block, 24 KB instead of 110 KB.  SuperLU
    keeps fewer, but leaves about 100 KB a factor in the C heap."""

    size: int
    entries: np.ndarray      # column-major flat positions of the nonzeros
    values: np.ndarray
    pivots: np.ndarray

    @classmethod
    def of(cls, a, rows, cols):
        """The factor of the rows ``rows`` of the CSR ``a`` over its columns
        ``cols``, the two equally many; None when it is singular."""
        k = cols.size
        if k == 0:      # LAPACK refuses an empty matrix
            return cls(0, np.zeros(0, np.uint8), np.zeros(0), np.zeros(0, np.int32))
        indptr, indices, data = _row_block(a, rows)
        position = np.full(a.shape[1], -1)
        position[cols] = np.arange(k)
        r, j = np.repeat(np.arange(k), np.diff(indptr)), position[indices]
        keep = j >= 0
        # summed into the transpose, so LAPACK reads it in column order uncopied
        block = np.bincount(j[keep] * k + r[keep], data[keep], k * k).reshape(k, k).T
        lu, pivots, info = _getrf(block, overwrite_a=True)
        if info > 0:
            return None
        packed = lu.ravel(order="F")
        entries = np.flatnonzero(packed)
        return cls(k, entries.astype(np.min_scalar_type(k * k)), packed[entries], pivots)

    def solve(self, rhs):
        """``B^-1 rhs``, by LAPACK on the factor spread out dense."""
        k = self.size
        lu = np.zeros(k * k)
        lu[self.entries] = self.values
        x, _ = _getrs(lu.reshape(k, k).T, self.pivots, rhs)
        return x


@dataclass(frozen=True)
class LpSolution:
    status: str
    values: np.ndarray | None
    objective_value: float | None
    rounds: int = 1                     # HiGHS calls, one per working set (0: a basis answer)
    iterations: int = 0                 # HiGHS simplex iterations over all rounds
    stationarity: float | None = None   # worst relative stationarity residual
    gap: float | None = None            # relative primal-dual gap
    basis: Basis | None = None          # final basis of an optimal answer


def solve_lp(lp: LinearProgram, start: Basis | None = None) -> LpSolution:
    """Solve an LP from the working set of ``start`` (every row without one)
    and certify an optimal answer against every row; deterministic for
    identical input.  A ``start`` with statuses, such as ``LpSolution.basis``
    of an LP of the same shape, is first evaluated as it stands and answers
    when its point is within every bound; otherwise HiGHS resumes from it
    on the first round, and violated rows join, each later round cold, until
    none is left."""
    lp.validate()
    if start is None:
        start = Basis(np.ones(lp.row_lower.shape, dtype=bool))
    working = np.asarray(start.working, dtype=bool)
    if working.shape != lp.row_lower.shape:
        raise ValueError(f"start basis has working shape {working.shape},"
                         f" the LP {lp.row_lower.size} rows")
    if start._statuses is not None and start.fixed.shape != lp.lower.shape:
        raise SolverError(f"start basis has {start.fixed.size} columns,"
                          f" the LP {lp.n_var}")
    sign = -1.0 if lp.sense == "max" else 1.0
    c = sign * lp.objective
    if start._statuses is not None:
        point = _basis_point(lp, c, start)
        if point is not None:
            x, ax = point
            return _certified(lp, c, sign, x, ax, float(c @ x), start.dual, 0, 0, start)

    # a column in no working row sits at the bound its cost picks, its
    # marginal its cost, unless that bound is infinite
    picked = np.where(c < 0, lp.upper, lp.lower)
    side = np.where(c < 0, _UPPER, _LOWER).astype(np.int8)
    rounds = iterations = 0
    while True:
        rounds += 1
        rows = np.flatnonzero(working)
        indptr, indices, data = _row_block(lp.a, rows)
        seen = ~np.isfinite(picked)
        seen[indices] = True
        if not seen.any():
            seen[:] = True      # HiGHS calls a model with no column empty, not optimal
        cols = np.flatnonzero(seen)
        fixed = np.where(seen, np.int8(-1), side)
        # HiGHS resumes from the start only on the first round, and only
        # when the start covers the very columns it sees; later rounds go cold
        warm = (rounds == 1 and start._statuses is not None
                and np.array_equal(start.fixed, fixed))
        ans = _run_highs(c[cols], lp.lower[cols], lp.upper[cols],
                         (indptr, (np.cumsum(seen) - 1)[indices], data),
                         lp.row_lower[rows], lp.row_upper[rows],
                         start._statuses if warm else None)
        iterations += ans.iterations
        if ans.status == INFEASIBLE:
            return LpSolution(INFEASIBLE, None, None, rounds, iterations)
        if ans.status == UNBOUNDED:
            if working.all():
                return LpSolution(UNBOUNDED, None, None, rounds, iterations)
            working = np.ones_like(working)
            continue
        x = picked.copy()
        x[cols] = ans.x
        ax = lp.a @ x
        violated = ~working & _outside(ax, lp.row_lower, lp.row_upper, 0.0)
        if not violated.any():
            break
        working = working | violated

    y = np.zeros(lp.row_lower.size)
    y[rows] = ans.row_dual
    z = c.copy()
    z[cols] = ans.col_dual
    dual = _Dual(lp.a, c, y, z)
    fun = ans.fun + float(c[~seen] @ picked[~seen])
    return _certified(lp, c, sign, x, ax, fun, dual, rounds, iterations,
                      Basis(working, fixed, dual, ans.basis))


def _basis_point(lp, c, start):
    """``(x, a x)`` at the basis of ``start`` when that point is within
    every column and row bound, else None.  Nonbasic columns sit at the
    bound their status names, and the nonbasic working rows at theirs fix
    the basic columns.  Such a point is optimal: between two LPs that share
    ``c`` and ``a`` only bounds differ, so the start's marginals stay dual
    feasible for it (Bertsimas & Tsitsiklis 1997, section 5.1).  So the
    start must come from a solve with this ``c`` and this very ``a``."""
    dual = start.dual
    if (dual is None or dual.a is not lp.a or not np.array_equal(dual.c, c)
            or start._layout is None):
        return None
    basic, col_upper, rows, row_upper, factor = start._layout
    x = np.where(col_upper, lp.upper, lp.lower)
    x[basic] = 0.0
    rhs = np.where(row_upper, lp.row_upper[rows], lp.row_lower[rows])
    if not (np.isfinite(x).all() and np.isfinite(rhs).all()):
        return None             # a status names an infinite bound
    if basic.size:
        x[basic] = factor.solve(rhs - (lp.a @ x)[rows])
    if _outside(x, lp.lower, lp.upper, FEASIBILITY_TOL).any():
        return None
    ax = lp.a @ x
    if _outside(ax, lp.row_lower, lp.row_upper, FEASIBILITY_TOL).any():
        return None
    return x, ax


def _outside(v, lower, upper, tol):
    """Per entry, whether ``v`` leaves ``[lower, upper]`` by more than
    ``tol``; written so that a NaN does."""
    return ~(np.maximum(lower - v, v - upper) <= tol)


def _certified(lp, c, sign, x, ax, fun, dual, rounds, iterations, basis):
    """The optimal answer ``x`` of ``min c x``, whose objective the solver
    put at ``fun``, once it passes the primal check and the dual
    certificate with the marginals of ``dual``."""
    obj = float(c @ x)
    # written so that a NaN, and so any non-finite x, fails it too
    if not abs(obj - fun) <= FEASIBILITY_TOL * max(1.0, abs(obj)):
        raise SolverError("objective value inconsistent with solution vector")
    _check_primal("variable", x, lp.lower, lp.upper)
    _check_primal("row", ax, lp.row_lower, lp.row_upper)
    stationarity, gap = _check_dual(lp, c, obj, dual.y, dual.z)
    return LpSolution(OPTIMAL, x, float(sign * fun), rounds, iterations,
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


def _highs_options():
    """Scipy's ``method="highs"`` settings, dual simplex with no output and
    no debug checks, but presolve off: only a cold call would run it, and on
    these small LPs it costs more time than it saves."""
    options = highs.HighsOptions()
    options.presolve = "off"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    return options


_OPTIONS = _highs_options()
_LOWER, _BASIC, _UPPER = (int(getattr(highs.HighsBasisStatus, s))
                          for s in ("kLower", "kBasic", "kUpper"))
_NAMED = (_LOWER, _BASIC, _UPPER)   # the statuses that name a bound, or none
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
    outside = _outside(v, lower, upper, FEASIBILITY_TOL)
    if outside.any():
        i = int(np.argmax(outside))
        raise SolverError(f"{name} {i} outside its bounds by"
                          f" {np.maximum(lower[i] - v[i], v[i] - upper[i]):.3e}")


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
    if not worst <= tol:        # written so that a NaN fails it too
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
    wrong = infinite & ~(np.abs(marginal) <= tol)
    if wrong.any():
        i = int(np.argmax(wrong))
        raise SolverError(f"{name} {i} has marginal {marginal[i]:.3e} on an infinite bound")
    return float(bound[~infinite] @ marginal[~infinite])


def _transpose_times(a, y):
    """``a.T @ y`` for a CSR ``a``, without building the transpose."""
    return np.bincount(a.indices, a.data * np.repeat(y, np.diff(a.indptr)),
                       minlength=a.shape[1])
