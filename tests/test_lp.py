import dataclasses
import threading

import numpy as np
import pytest

from gridfdi import attack, lp, sced
from gridfdi.cases import read_only

from oracles import (boxed_vertex_verdict, enumerate_vertices, linprog_reference, matrix_lp,
                     random_bounded_lp)

INF = np.inf


def _single_var(a_ub=(), b_ub=()):
    return matrix_lp("max", [1.0], [0.0], [1.0], a_ub, b_ub)


def test_single_bound():
    sol = lp.solve_lp(_single_var())
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.values[0] == pytest.approx(1.0, abs=1e-9)


def test_simplex_on_triangle():
    p = matrix_lp("max", [1.0, 1.0], [0.0, 0.0], [INF, INF], [[1.0, 1.0]], [1.0])
    sol = lp.solve_lp(p)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_infeasible():
    # x >= 2 (as -x <= -2) and x <= 1
    p = matrix_lp("max", [1.0], [-INF], [INF], [[-1.0], [1.0]], [-2.0, 1.0])
    sol = lp.solve_lp(p)
    assert sol.status == lp.INFEASIBLE
    assert sol.values is None


def test_unbounded():
    p = matrix_lp("max", [1.0], [0.0], [INF])
    sol = lp.solve_lp(p)
    assert sol.status == lp.UNBOUNDED


@pytest.mark.parametrize("problem, status", [
    # x <= -1 over x >= 0 with y free and max y: infeasible and unbounded
    (matrix_lp("max", [0.0, 1.0], [0.0, -INF], [INF, INF], [[1.0, 0.0]], [-1.0]),
     lp.INFEASIBLE),
    # x + y = 5 beyond the reach of the box 0 <= x, y <= 1
    (matrix_lp("max", [1.0, 0.0], [0.0, 0.0], [1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[5.0]),
     lp.INFEASIBLE),
    # max x + y over x - y = 0, both columns free
    (matrix_lp("max", [1.0, 1.0], [-INF, -INF], [INF, INF], a_eq=[[1.0, -1.0]], b_eq=[0.0]),
     lp.UNBOUNDED),
])
def test_cold_statuses_without_presolve(problem, status):
    # presolve is off, so the simplex itself must reach each of these statuses
    sol = lp.solve_lp(problem)
    assert (sol.status, sol.values, sol.rounds) == (status, None, 1)


def test_equality_and_negative_bounds():
    # min x + y st x + y = 1, -2 <= x <= 0.25, y free
    p = matrix_lp("min", [2.0, 1.0], [-2.0, -INF], [0.25, INF], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    sol = lp.solve_lp(p)
    assert sol.status == lp.OPTIMAL
    # cheapest: push expensive x to its lower bound
    assert sol.values[0] == pytest.approx(-2.0, abs=1e-9)
    assert sol.values[1] == pytest.approx(3.0, abs=1e-9)


def test_fixed_variable():
    # x0 fixed at 2 by equal bounds
    p = matrix_lp("max", [1.0, 1.0], [2.0, 0.0], [2.0, 5.0], [[1.0, 1.0]], [4.0])
    sol = lp.solve_lp(p)
    assert sol.values[0] == pytest.approx(2.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(4.0, abs=1e-9)


def test_matches_vertex_enumeration(rng):
    for _ in range(25):
        p = random_bounded_lp(rng)
        _, best = enumerate_vertices(p)
        assert best is not None
        sol = lp.solve_lp(p)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(best, abs=1e-6)


def test_relaxation_monotonicity(rng):
    for _ in range(15):
        p = random_bounded_lp(rng)
        base = lp.solve_lp(p).objective_value
        k = int(rng.integers(0, p.row_upper.size))
        p.row_upper[k] += float(rng.uniform(0.1, 1.0))
        relaxed = lp.solve_lp(p).objective_value
        assert relaxed >= base - 1e-9

        p.upper[int(rng.integers(0, p.n_var))] += float(rng.uniform(0.1, 1.0))
        wider = lp.solve_lp(p).objective_value
        assert wider >= relaxed - 1e-9


def test_deterministic(rng):
    p = random_bounded_lp(rng, n_var=5, n_con=5)
    a = lp.solve_lp(p)
    b = lp.solve_lp(p)
    assert np.array_equal(a.values, b.values)
    assert a.objective_value == b.objective_value


def test_validation_errors():
    p = matrix_lp("max", [0.0, 0.0], [-INF, -INF], [INF, INF], [[1.0, 0.0]], [1.0])
    p.validate()
    with pytest.raises(ValueError):   # a one-column row for two variables
        dataclasses.replace(p, a=matrix_lp("max", [0.0], [0.0], [0.0], [[1.0]],
                                           [1.0]).a).validate()

    q = matrix_lp("max", [0.0], [2.0], [1.0])
    with pytest.raises(ValueError):
        q.validate()

    r = matrix_lp("upward", [0.0], [-INF], [INF])
    with pytest.raises(ValueError):
        r.validate()


def _three_rows(**change):
    """Two variables, two <= rows and one = row, any argument of
    ``matrix_lp`` replaced by ``change``."""
    args = {"a_ub": [[1.0, 0.0], [0.0, 1.0]], "b_ub": [1.0, 1.0],
            "a_eq": [[1.0, 1.0]], "b_eq": [1.0], **change}
    return matrix_lp("min", [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], **args)


@pytest.mark.parametrize("bad, message", [
    (_three_rows(b_ub=[1.0, 2.0, 3.0]), "row bounds have shapes"),
    (_three_rows(b_eq=[]), "row bounds have shapes"),
    (dataclasses.replace(_three_rows(), a=matrix_lp("min", [0.0] * 3, [0.0] * 3, [1.0] * 3,
                                                    a_eq=[[1.0] * 3]).a), "columns"),
    (dataclasses.replace(_three_rows(), objective=np.zeros(3)), "variable count"),
    (dataclasses.replace(_three_rows(), upper=np.ones(3)), "variable bounds have shapes"),
], ids=["b_ub", "b_eq", "a_eq-columns", "objective", "upper"])
def test_validate_rejects_mismatched_shapes(bad, message):
    # each bad LP breaks one shape of _three_rows(), which is sound
    _three_rows().validate()
    with pytest.raises(ValueError, match=message):
        bad.validate()
    with pytest.raises(ValueError, match=message):
        lp.solve_lp(bad)


@pytest.mark.parametrize("working", [[True, False, True, True], [True]],
                         ids=["long", "short"])
def test_start_working_shape_must_match_rows(working):
    # one flag per row of a; a single flag would broadcast over all three
    with pytest.raises(ValueError, match="working shape"):
        lp.solve_lp(_three_rows(), _working(*working))


def test_mixed_structures_match_boxed_vertex_enumeration():
    # free / one-sided / fixed variables with <=, >=, = rows in all senses;
    # the second half adds two-sided rows, both bounds finite and distinct
    rng = np.random.default_rng(777)
    ranged = 0
    for trial in range(120):
        relations = ("<=", ">=", "=") + (("range",) if trial >= 60 else ())
        n = int(rng.integers(1, 7))
        sense = "max" if rng.random() < 0.5 else "min"
        lower, upper = np.full(n, -INF), np.full(n, INF)
        for j in range(n):
            kind = rng.integers(0, 5)
            if kind == 1:
                lower[j] = float(rng.uniform(-3, 0))
            elif kind == 2:
                upper[j] = float(rng.uniform(0, 3))
            elif kind == 3:
                lo = float(rng.uniform(-2, 1))
                lower[j], upper[j] = lo, lo + float(rng.uniform(0, 2))
            elif kind == 4:
                lower[j] = upper[j] = float(rng.uniform(-1, 1))
        objective = rng.uniform(-1, 1, n)
        ub, ub_rhs, eq, eq_rhs, range_lower = [], [], [], [], {}
        for _ in range(int(rng.integers(1, 6))):
            rel = relations[rng.integers(0, len(relations))]
            row, rhs = rng.uniform(-1, 1, n), float(rng.uniform(-1, 2))
            if rel == "=":
                eq.append(row)
                eq_rhs.append(rhs)
            elif rel == "range":   # rhs <= row x <= rhs + width
                range_lower[len(ub)] = rhs
                ub.append(row)
                ub_rhs.append(rhs + float(rng.uniform(0.1, 2)))
            else:   # a >= row enters negated
                sign = 1.0 if rel == "<=" else -1.0
                ub.append(sign * row)
                ub_rhs.append(sign * rhs)
        p = matrix_lp(sense, objective, lower, upper, ub, ub_rhs, eq, eq_rhs)
        for k, lo in range_lower.items():   # the <= rows come first
            p.row_lower[k] = lo
        ranged += len(range_lower)
        status, best = boxed_vertex_verdict(p)
        sol = lp.solve_lp(p)
        assert sol.status == status
        if status == lp.OPTIMAL:
            assert sol.objective_value == pytest.approx(best, abs=1e-6)
    assert ranged > 0


def test_vertex_oracle_handles_dependent_equalities():
    # max x0 st x0 + x1 = 1 and 2x0 + 2x1 = 2 over the unit box: the second
    # row repeats the first, and the optimum is x = (1, 0)
    p = matrix_lp("max", [1.0, 0.0], [0.0, 0.0], [1.0, 1.0],
                  a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0])
    x, best = enumerate_vertices(p)
    assert best == pytest.approx(1.0, abs=1e-12)
    assert x == pytest.approx([1.0, 0.0], abs=1e-12)
    assert lp.solve_lp(p).objective_value == pytest.approx(best, abs=1e-9)
    # a dependent row that contradicts the others leaves nothing feasible
    p.row_lower[1] = p.row_upper[1] = 3.0
    assert enumerate_vertices(p) == (None, None)
    assert lp.solve_lp(p).status == lp.INFEASIBLE


def _fake_highs(monkeypatch, edit):
    """Route solve_lp through the real HiGHS call, then let ``edit`` change
    the returned answer."""
    real = lp._run_highs

    def fake(*args, **kwargs):
        ans = real(*args, **kwargs)
        edit(ans)
        return ans

    monkeypatch.setattr(lp, "_run_highs", fake)


def test_solution_audit_catches_bad_engine(monkeypatch):
    p = _single_var([[1.0]], [0.5])

    def infeasible_x(ans):
        ans.x, ans.fun = np.array([1.0]), -1.0

    _fake_highs(monkeypatch, infeasible_x)
    with pytest.raises(lp.SolverError, match="row 0 outside its bounds"):
        lp.solve_lp(p)


def test_certificate_rejects_feasible_non_optimal_point(monkeypatch):
    # max x + y st x + y <= 1: (0.25, 0.25) is feasible, its objective is
    # consistent, the optimal marginals are stationary and correctly signed;
    # only the primal-dual gap of 0.5 shows that it is not optimal.
    p = matrix_lp("max", [1.0, 1.0], [0.0, 0.0], [INF, INF], [[1.0, 1.0]], [1.0])

    def worse_x(ans):
        ans.x, ans.fun = np.array([0.25, 0.25]), -0.5

    _fake_highs(monkeypatch, worse_x)
    with pytest.raises(lp.SolverError, match="gap"):
        lp.solve_lp(p)


@pytest.mark.parametrize("y, z, message", [
    (0.0, 0.5, "stationarity"),          # 1 + y - z = 0.5
    (1.0, 2.0, "row 0 has marginal"),    # prices the row's lower bound, -inf
    (-2.0, -1.0, "variable 0 has marginal"),  # prices x <= inf
], ids=["stationarity", "row", "infinite-upper"])
def test_certificate_rejects_bad_marginal(monkeypatch, y, z, message):
    # min x st x >= 0 as a row (-x <= 0) and as a bound: optimum x = 0,
    # objective 0.  Every edited marginal pair has a zero gap; all but the
    # first stay stationary (1 + y - z = 0), so only one check can fail.
    p = matrix_lp("min", [1.0], [0.0], [INF], [[-1.0]], [0.0])

    def bad_marginals(ans):
        ans.row_dual = np.array([y])
        ans.col_dual = np.array([z])

    assert lp.solve_lp(p).objective_value == pytest.approx(0.0, abs=1e-12)
    _fake_highs(monkeypatch, bad_marginals)
    with pytest.raises(lp.SolverError, match=message):
        lp.solve_lp(p)


@pytest.mark.parametrize("field, message", [
    ("x", "objective value"), ("fun", "objective value"),
    ("row_dual", "non-finite"), ("col_dual", "non-finite"),
])
def test_certificate_rejects_non_finite_answer(monkeypatch, field, message):
    # a NaN compares false against every tolerance, so without an explicit
    # check it would pass the primal and dual tests unseen
    p = matrix_lp("min", [1.0], [0.0], [INF], [[-1.0]], [0.0])

    def poison(ans):
        setattr(ans, field, np.nan if field == "fun" else np.full(1, np.nan))

    _fake_highs(monkeypatch, poison)
    with pytest.raises(lp.SolverError, match=message):
        lp.solve_lp(p)


def test_other_highs_status_raises(monkeypatch):
    # only optimal, infeasible and unbounded map to an answer; HiGHS reports
    # this LP infeasible, so with that mapping gone it must raise
    p = matrix_lp("max", [1.0], [-INF], [INF], [[-1.0], [1.0]], [-2.0, 1.0])
    monkeypatch.delitem(lp._STATUS, lp.highs.HighsModelStatus.kInfeasible)
    with pytest.raises(lp.SolverError, match="HiGHS failed: Infeasible"):
        lp.solve_lp(p)


def _fresh_solver():
    solver = lp.highs._Highs()
    assert solver.passOptions(lp._OPTIONS) == lp.highs.HighsStatus.kOk
    return solver


def _highs_calls(monkeypatch, job):
    """Each HiGHS call ``job`` makes, as its answer with the basis statuses
    read out, and then how the job ended: its solution or its error."""
    calls = []
    real = lp._run_highs

    def spy(*args):
        ans = real(*args)
        basis = ans.basis and [list(map(int, ans.basis.col_status)),
                               list(map(int, ans.basis.row_status))]
        calls.append(dataclasses.astuple(dataclasses.replace(ans, basis=basis)))
        return ans

    with monkeypatch.context() as m:
        m.setattr(lp, "_run_highs", spy)
        try:
            end = dataclasses.astuple(dataclasses.replace(job(m), basis=None))
        except lp.SolverError as exc:
            end = str(exc)
    return calls, end


def test_reused_solver_leaks_no_state(monkeypatch):
    # a shuffled run of every kind of solve through the one solver this
    # thread keeps, against the same solves on a fresh solver each call
    p = _chained_lazy_lp()
    # the start basis answers ``moved`` at (6.5, 4.5) with no HiGHS call; it
    # puts x at 11.5 in ``beyond``, past its bound, so HiGHS resumes from it
    moved = dataclasses.replace(p, row_upper=np.array([11.0, 2.0]))
    beyond = dataclasses.replace(p, row_upper=np.array([22.0, 1.0]))
    basis = lp.solve_lp(p).basis
    infeasible = matrix_lp("max", [1.0], [-INF], [INF], [[-1.0], [1.0]], [-2.0, 1.0])

    def unmapped(m):
        # the status of test_other_highs_status_raises
        m.delitem(lp._STATUS, lp.highs.HighsModelStatus.kInfeasible)
        return lp.solve_lp(infeasible)

    jobs = [
        lambda m: lp.solve_lp(p),                           # optimal, cold
        lambda m: lp.solve_lp(moved, basis),                # optimal, basis answer
        lambda m: lp.solve_lp(beyond, basis),               # optimal, warm
        lambda m: lp.solve_lp(p, _working(False, False)),   # three rounds
        lambda m: lp.solve_lp(infeasible),
        lambda m: lp.solve_lp(matrix_lp("max", [1.0], [0.0], [INF])),  # unbounded
        unmapped,
    ]
    # each job three times in a shuffled order, then a normal solve, so that
    # one follows every error
    order = np.random.default_rng(7).permutation(3 * len(jobs)) % len(jobs)
    order = np.append(order, 0)
    kept = [_highs_calls(monkeypatch, jobs[k]) for k in order]
    assert lp._solver() is lp._solver()
    monkeypatch.setattr(lp, "_solver", _fresh_solver)
    fresh = [_highs_calls(monkeypatch, jobs[k]) for k in order]
    np.testing.assert_equal(kept, fresh)
    ends = [end for _, end in kept]
    assert ends.count("HiGHS failed: Infeasible") == 3
    # one call per job but the basis answer's none and the lazy one's three;
    # the failed call returns none
    assert sum(len(calls) for calls, _ in kept) == 3 * (1 + 0 + 1 + 3 + 1 + 1) + 1


def test_each_thread_keeps_its_own_solver():
    p = _chained_lazy_lp()
    here = lp.solve_lp(p)
    there = []

    def other():
        there.append((lp._solver(), lp.solve_lp(p)))

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    [(solver, sol)] = there
    assert solver is not lp._solver()
    assert np.array_equal(sol.values, here.values) and sol.iterations == here.iterations


def test_validate_rejects_non_csr_blocks():
    p = matrix_lp("min", [1.0], [0.0], [INF], [[-1.0]], [0.0])
    with pytest.raises(ValueError, match="CSR"):
        dataclasses.replace(p, a=p.a.tocsc()).validate()
    with pytest.raises(ValueError, match="CSR"):
        dataclasses.replace(p, a=p.a.toarray()).validate()


@pytest.mark.parametrize("block, value", [
    ("objective", np.nan), ("a_ub", np.inf), ("b_ub", np.nan), ("a_eq", np.nan),
    ("b_eq", -np.inf), ("lower", np.nan), ("upper", np.nan),
])
def test_validate_rejects_non_finite_data(block, value):
    # a NaN bound passes every certificate comparison, so bad numbers are
    # stopped before they reach HiGHS; only a bound may be infinite, and
    # only on its own side (an equality row at -inf has an upper bound -inf)
    args = {"objective": [1.0, 1.0], "lower": [0.0, 0.0], "upper": [1.0, 1.0],
            "a_ub": [[1.0, 0.0]], "b_ub": [1.0], "a_eq": [[1.0, 1.0]], "b_eq": [1.0]}
    args[block] = np.array(args[block], dtype=float)
    args[block].flat[0] = value
    message = {"objective": "objective holds", "a_ub": "a holds", "a_eq": "a holds",
               "b_ub": "row bound is NaN", "b_eq": "row bound is NaN",
               "lower": "variable bound is NaN", "upper": "variable bound is NaN"}[block]
    with pytest.raises(ValueError, match=message):
        lp.solve_lp(matrix_lp("min", **args))


def test_read_only_block_is_checked_on_every_solve():
    # a network's row block is read-only, and its checks still run on every
    # solve: one holding a NaN is refused each time
    p = matrix_lp("min", [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [[1.0, 0.0], [1.0, 1.0]],
                  [1.0, 1.5])
    bad = p.a.copy()
    bad.data[0] = np.nan
    with_nan = dataclasses.replace(p, a=read_only(bad))
    for _ in range(2):
        with pytest.raises(ValueError, match="a holds a non-finite value"):
            lp.solve_lp(with_nan)

    sound = read_only(p.a.copy())
    on_sound = dataclasses.replace(p, a=sound)
    assert np.array_equal(lp.solve_lp(on_sound).values, lp.solve_lp(p).values)
    # a block made writable again and given a NaN is refused
    sound.data.setflags(write=True)
    sound.data[0] = np.nan
    with pytest.raises(ValueError, match="a holds a non-finite value"):
        lp.solve_lp(on_sound)
    sound.data[0] = 1.0
    read_only(sound)
    # the objective and every bound are checked on each call
    for change, message in (({"objective": np.array([np.nan, 1.0])}, "objective holds"),
                            ({"upper": np.array([1.0, np.nan])}, "variable bound is NaN"),
                            ({"row_upper": np.array([1.0, -np.inf])}, "row bound is NaN"),
                            ({"lower": np.array([2.0, 0.0])}, "lower bound above")):
        with pytest.raises(ValueError, match=message):
            lp.solve_lp(dataclasses.replace(on_sound, **change))
    with pytest.raises(ValueError, match="has not 3 columns"):
        dataclasses.replace(on_sound, objective=np.ones(3), lower=np.zeros(3),
                            upper=np.ones(3)).validate()


def test_nan_written_through_a_read_only_view_is_refused():
    # the block's data is a read-only view of a writable buffer, so no flag
    # of the block shows that the buffer took a NaN after the first solve
    p = matrix_lp("min", [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [[1.0, 0.0], [1.0, 1.0]],
                  [1.0, 1.5])
    buffer = p.a.data.copy()
    block = p.a.copy()
    block.data = buffer.view()
    on_view = dataclasses.replace(p, a=read_only(block))
    assert lp.solve_lp(on_view).status == lp.OPTIMAL
    buffer[0] = np.nan
    with pytest.raises(ValueError, match="a holds a non-finite value"):
        lp.solve_lp(on_view)


def test_certificate_refuses_nan_activity_and_stationarity():
    # min x st -x <= 0 and x >= 0: each call hands the certificate the
    # optimum's own marginals with one NaN residual
    p = matrix_lp("min", [1.0], [0.0], [INF], [[-1.0]], [0.0])
    sol = lp.solve_lp(p)
    x, dual = sol.values, sol.basis.dual
    with pytest.raises(lp.SolverError, match="row 0 outside its bounds by nan"):
        lp._certified(p, p.objective, 1.0, x, np.array([np.nan]), 0.0, dual, 1, 0,
                      sol.basis)
    nan_a = p.a.copy()
    nan_a.data[0] = np.nan
    with pytest.raises(lp.SolverError, match="dual stationarity off by nan"):
        lp._certified(dataclasses.replace(p, a=nan_a), p.objective, 1.0, x, p.a @ x,
                      0.0, dual, 1, 0, sol.basis)
    # the one bounds test counts a NaN as outside, whatever the tolerance
    assert lp._outside(np.array([np.nan, 0.5, 1.5]), np.zeros(3), np.ones(3),
                       1.0).tolist() == [True, False, False]


def _working(*flags):
    """A cold start from the rows of ``a`` flagged True."""
    return lp.Basis(np.array(flags, dtype=bool))


def _chained_lazy_lp():
    # max 2x + y over [0, 10]^2 with the rows x + y <= 12 and x - y <= 1.
    # From no row, round 1 stops at (10, 10), which breaks only the first
    # row; round 2 at (10, 2), which breaks the second; round 3 ends at
    # (6.5, 5.5).
    return matrix_lp("max", [2.0, 1.0], [0.0, 0.0], [10.0, 10.0],
                     [[1.0, 1.0], [1.0, -1.0]], [12.0, 1.0])


def test_lazy_rows_reach_the_all_rows_optimum():
    p = _chained_lazy_lp()
    x, best = enumerate_vertices(p)
    sol = lp.solve_lp(p, _working(False, False))
    assert sol.status == lp.OPTIMAL
    assert sol.rounds == 3
    assert sol.basis.working.tolist() == [True, True]
    assert sol.objective_value == pytest.approx(best, abs=1e-9)
    assert sol.values == pytest.approx(x, abs=1e-9)
    assert best == pytest.approx(18.5, abs=1e-12)


def test_rounds_count_working_sets():
    # without a start every row is in the working set
    sol = lp.solve_lp(_chained_lazy_lp())
    assert (sol.rounds, sol.basis.working.tolist()) == (1, [True, True])
    assert sol.objective_value == pytest.approx(18.5, abs=1e-9)

    # an unviolated row outside never joins: max -x over [0, 10] with x <= 5
    p = matrix_lp("max", [-1.0], [0.0], [10.0], [[1.0]], [5.0])
    sol = lp.solve_lp(p, _working(False))
    assert (sol.rounds, sol.basis.working.tolist()) == (1, [False])
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)


def test_lazy_ge_rows_and_per_row_flags():
    # min x + y st x + y >= 3 (outside), x - y >= -1 (working) over [0, 5]^2,
    # both rows negated into <= rows
    p = matrix_lp("min", [1.0, 1.0], [0.0, 0.0], [5.0, 5.0],
                  [[-1.0, -1.0], [-1.0, 1.0]], [-3.0, 1.0])
    _, best = enumerate_vertices(p)
    sol = lp.solve_lp(p, _working(False, True))
    assert sol.rounds == 2
    assert sol.objective_value == pytest.approx(best, abs=1e-9)
    assert best == pytest.approx(3.0, abs=1e-12)


def test_lazy_rows_infeasible():
    # x >= 2 holds in every working set; x <= 1 joins in round 2
    p = matrix_lp("max", [1.0], [0.0], [10.0], [[-1.0], [1.0]], [-2.0, 1.0])
    sol = lp.solve_lp(p, _working(True, False))
    assert (sol.status, sol.rounds, sol.values) == (lp.INFEASIBLE, 2, None)
    # an infeasible first working set ends the solve at once
    p = matrix_lp("max", [1.0], [0.0], [10.0], [[-1.0], [1.0], [1.0]], [-2.0, 1.0, 20.0])
    sol = lp.solve_lp(p, _working(True, True, False))
    assert (sol.status, sol.rounds) == (lp.INFEASIBLE, 1)


def test_lazy_rows_unbounded_working_set():
    # max x, x >= 0: unbounded without x <= 4, which then decides
    p = matrix_lp("max", [1.0], [0.0], [INF], [[1.0], [-1.0]], [4.0, 0.0])
    sol = lp.solve_lp(p, _working(False, False))
    assert (sol.status, sol.rounds) == (lp.OPTIMAL, 2)
    assert sol.objective_value == pytest.approx(4.0, abs=1e-9)
    # and the full LP may be unbounded too: -x <= 1 and -x <= 0 cap nothing
    q = matrix_lp("max", [1.0], [0.0], [INF], [[-1.0], [-1.0]], [1.0, 0.0])
    sol = lp.solve_lp(q, _working(False, False))
    assert (sol.status, sol.rounds) == (lp.UNBOUNDED, 2)


def test_random_lazy_rows_match_vertex_enumeration(rng):
    grown = 0
    for _ in range(25):
        p = random_bounded_lp(rng)
        _, best = enumerate_vertices(p)
        sol = lp.solve_lp(p, lp.Basis(rng.random(p.row_upper.size) >= 0.7))
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(best, abs=1e-6)
        grown += sol.rounds > 1
    assert grown > 0      # some start lacked a row the optimum needs


def _attack_118(net118, target, budget):
    dispatch = sced.base_dispatch(net118)
    spec = attack.AttackSpec(target, 0.10, budget, dispatch.scheduled_flows,
                             net118.load_mw)
    return attack.build_attack_lp(net118, spec)


def test_same_answers_as_linprog_on_case118(net118, monkeypatch):
    # the soft-limit SCED as run_sced solves it, seeded and started from the
    # base dispatch, at case loads and at drifted loads; then three attack
    # LPs solved cold
    solved = []

    def spy(problem, start=None):
        assert start is not None
        sol = solve(problem, start)
        solved.append((problem, sol))
        return sol

    solve = lp.solve_lp
    sced.base_dispatch(net118)
    monkeypatch.setattr(lp, "solve_lp", spy)
    drift = 1 + np.random.default_rng(2018).normal(0, 0.03, net118.n_bus)
    for loads in (net118.load_mw, net118.load_mw * drift):
        sced.run_sced(net118, loads, soft_limits=True)
    monkeypatch.undo()
    assert len(solved) == 2 and all(not sol.basis.working.all() for _, sol in solved)
    for target, budget in ((118, 2.0), (111, 2.0), (111, 10.0)):
        problem = _attack_118(net118, target, budget)
        solved.append((problem, lp.solve_lp(problem)))

    # a warm solve may end at the same vertex by other pivots, and linprog,
    # which has no two-sided row, gets each attack row as a <= pair: every
    # answer agrees up to roundoff
    for problem, sol in solved:
        x, objective = linprog_reference(problem, np.flatnonzero(sol.basis.working))
        assert np.abs(sol.values - x).max() <= 1e-9
        assert sol.objective_value == pytest.approx(objective, abs=lp.FEASIBILITY_TOL)


def test_solution_carries_solver_statistics(net118):
    sol = lp.solve_lp(_attack_118(net118, 118, 5.0))
    assert sol.status == lp.OPTIMAL
    assert sol.iterations > 0
    assert 0.0 <= sol.stationarity <= lp.FEASIBILITY_TOL
    assert 0.0 <= sol.gap <= lp.FEASIBILITY_TOL
    # only an optimal answer has a certificate
    infeasible = lp.solve_lp(matrix_lp("max", [1.0], [-INF], [INF], [[-1.0], [1.0]],
                                       [-2.0, 1.0]))
    assert (infeasible.stationarity, infeasible.gap) == (None, None)


def _counted_highs_calls(monkeypatch):
    """A list that grows by one entry per HiGHS call from here on."""
    calls = []
    real = lp._run_highs

    def count(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lp, "_run_highs", count)
    return calls


def test_basis_answer_needs_no_highs_call(monkeypatch, capfd):
    # a basis with no basic column: its bounds alone place the point, and
    # LAPACK, which refuses an empty matrix (and says so), is not called
    single = _single_var()
    again = lp.solve_lp(single, lp.solve_lp(single).basis)
    assert (again.rounds, again.values.tolist()) == (0, [1.0])
    assert capfd.readouterr() == ("", "")
    # only the row bounds move, and the optimal basis of the chained LP stays
    # optimal: (6.5, 5.5) moves to (6.5, 4.5)
    p = _chained_lazy_lp()
    cold = lp.solve_lp(p)
    moved = dataclasses.replace(p, row_upper=np.array([11.0, 2.0]))
    calls = _counted_highs_calls(monkeypatch)
    sol = lp.solve_lp(moved, cold.basis)
    assert calls == []
    assert (sol.status, sol.rounds, sol.iterations) == (lp.OPTIMAL, 0, 0)
    assert sol.basis is cold.basis
    assert sol.values == pytest.approx([6.5, 4.5], abs=1e-12)
    assert sol.objective_value == pytest.approx(17.5, abs=1e-12)
    assert 0.0 <= sol.stationarity <= lp.FEASIBILITY_TOL
    assert 0.0 <= sol.gap <= lp.FEASIBILITY_TOL
    # and HiGHS, from the same start, ends at the same point with no pivot
    monkeypatch.setattr(lp, "_basis_point", lambda *args: None)
    highs = lp.solve_lp(moved, cold.basis)
    assert (len(calls), highs.rounds, highs.iterations) == (1, 1, 0)
    assert np.abs(highs.values - sol.values).max() <= 1e-12


@pytest.mark.parametrize("case", ["column", "outside-row", "zero-status", "singular",
                                  "objective"])
def test_start_falls_back_to_highs(case, monkeypatch):
    p = _chained_lazy_lp()
    if case == "column":
        # the basis puts x at 11.5, beyond its bound of 10
        start = lp.solve_lp(p).basis
        p = dataclasses.replace(p, row_upper=np.array([22.0, 1.0]))
    elif case == "outside-row":
        # working set: the first row; at (10, 2) the second, outside, reads 8 > 1
        start = lp.solve_lp(dataclasses.replace(p, row_upper=np.array([12.0, 20.0])),
                            _working(True, False)).basis
        assert start.working.tolist() == [True, False]
    elif case == "zero-status":
        # the free column x0 is in no row and costs nothing: HiGHS leaves it
        # nonbasic at zero, a status that names no bound
        p = matrix_lp("min", [0.0, 1.0], [-INF, 0.0], [INF, 10.0], [[0.0, -1.0]], [-1.0])
        start = lp.solve_lp(p).basis
        assert lp.highs.HighsBasisStatus.kZero in start._statuses.col_status
        assert start._layout is None
    elif case == "singular":
        # parallel rows, and the optimal basis edited so that both columns
        # are basic and both rows at their upper bounds
        p = matrix_lp("max", [2.0, 1.0], [0.0, 0.0], [10.0, 10.0],
                      [[1.0, 1.0], [2.0, 2.0]], [12.0, 30.0])
        edited = lp.highs.HighsBasis()
        edited.col_status = [lp.highs.HighsBasisStatus.kBasic] * 2
        edited.row_status = [lp.highs.HighsBasisStatus.kUpper] * 2
        edited.valid = True
        start = dataclasses.replace(lp.solve_lp(p).basis, _statuses=edited)
        assert start._layout is None
    else:
        # a start of another objective: its marginals do not price this one
        start = lp.solve_lp(dataclasses.replace(p, objective=np.array([1.0, 2.0]))).basis
    calls = _counted_highs_calls(monkeypatch)
    sol = lp.solve_lp(p, start)
    assert len(calls) == sol.rounds >= 1
    assert sol.objective_value == pytest.approx(lp.solve_lp(p).objective_value, abs=1e-9)


def test_highs_sees_only_the_columns_of_its_working_rows(monkeypatch):
    # the chained LP with a third column x2, priced -1, only in the second
    # row: round 1 leaves it out at its lower bound, round 2 takes it in
    p = matrix_lp("max", [2.0, 1.0, -1.0], [0.0] * 3, [10.0] * 3,
                  [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]], [12.0, 1.0])
    _, best = enumerate_vertices(p)
    calls = _counted_highs_calls(monkeypatch)
    sol = lp.solve_lp(p, _working(True, False))
    assert [args[0].size for args in calls] == [2, 3]
    assert sol.objective_value == pytest.approx(best, abs=1e-9)
    assert sol.basis.fixed.tolist() == [-1, -1, -1]
    assert len(sol.basis._statuses.col_status) == 3
    # with the second row slack x2 never joins: its cost alone places it at
    # its lower bound, and its marginal is that cost
    q = dataclasses.replace(p, row_upper=np.array([12.0, 20.0]))
    sol = lp.solve_lp(q, _working(True, False))
    assert sol.rounds == 1 and [args[0].size for args in calls[2:]] == [2]
    assert sol.values == pytest.approx([10.0, 2.0, 0.0], abs=1e-12)
    assert sol.basis.fixed.tolist() == [-1, -1, int(lp.highs.HighsBasisStatus.kLower)]
    assert sol.basis.dual.z[2] == 1.0


def test_start_from_a_basis(monkeypatch):
    # an optimal basis restarts its own LP with no pivot
    p = _chained_lazy_lp()
    cold = lp.solve_lp(p)
    again = lp.solve_lp(p, cold.basis)
    assert again.iterations == 0
    assert again.values == pytest.approx(cold.values, abs=1e-12)
    assert lp.solve_lp(p, _working(False, False)).basis.working.tolist() == [True, True]
    # only round 1 resumes from the start: the reduced basis of ``loose``
    # solves it with no pivot, x - y <= 1 then joins, and round 2 starts cold
    loose = matrix_lp("max", [2.0, 1.0], [0.0, 0.0], [10.0, 10.0],
                      [[1.0, 1.0], [1.0, -1.0]], [12.0, 20.0])
    reduced = lp.solve_lp(loose, _working(True, False))
    assert reduced.basis.working.tolist() == [True, False]
    assert reduced.values == pytest.approx([10.0, 2.0], abs=1e-12)
    starts, warm = _highs_starts(monkeypatch, lambda: lp.solve_lp(p, reduced.basis))
    assert starts == [True, False]
    assert warm.rounds == 2
    assert warm.values == pytest.approx([6.5, 5.5], abs=1e-12)
    # a basis of another LP's shape is refused
    with pytest.raises(ValueError, match="start basis"):
        lp.solve_lp(_single_var([[1.0]], [0.5]), cold.basis)
    wider = matrix_lp("max", [2.0, 1.0, 1.0], [0.0] * 3, [10.0] * 3,
                      [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]], [12.0, 1.0])
    with pytest.raises(lp.SolverError):
        lp.solve_lp(wider, cold.basis)
    # only an optimal answer carries a basis
    infeasible = lp.solve_lp(matrix_lp("max", [1.0], [-INF], [INF], [[-1.0], [1.0]],
                                       [-2.0, 1.0]))
    assert infeasible.basis is None


def _highs_starts(monkeypatch, job):
    """Per HiGHS call ``job`` makes, whether it was handed a start, and the
    job's result."""
    starts = []
    real = lp._run_highs

    def spy(*args):
        starts.append(args[6] is not None)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(lp, "_run_highs", spy)
        result = job()
    return starts, result


def test_highs_gets_a_start_only_on_the_first_round(monkeypatch):
    # a start with no working row: its columns sit at (10, 10), which breaks
    # both rows of the chained LP in turn, so three rounds, and only the
    # first resumes from the start
    p = _chained_lazy_lp()
    slack = dataclasses.replace(p, row_upper=np.array([30.0, 20.0]))
    start = lp.solve_lp(slack, _working(False, False)).basis
    assert start.working.tolist() == [False, False]
    starts, sol = _highs_starts(monkeypatch, lambda: lp.solve_lp(p, start))
    assert starts == [True, False, False]
    cold = lp.solve_lp(p, _working(False, False))
    assert (sol.rounds, sol.iterations) == (cold.rounds, cold.iterations)
    assert np.array_equal(sol.values, cold.values)


def test_start_over_other_columns_goes_cold(monkeypatch):
    # the start left x2, which is in no working row, at its lower bound; a
    # cost of +1 puts it at its upper one, so round 1 hands HiGHS no start
    # and the solve is the cold one
    q = matrix_lp("max", [2.0, 1.0, -1.0], [0.0] * 3, [10.0] * 3,
                  [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]], [12.0, 20.0])
    start = lp.solve_lp(q, _working(True, False)).basis
    lower, upper = (int(getattr(lp.highs.HighsBasisStatus, s)) for s in ("kLower", "kUpper"))
    assert start.fixed.tolist() == [-1, -1, lower]
    r = dataclasses.replace(q, objective=np.array([2.0, 1.0, 1.0]))
    starts, sol = _highs_starts(monkeypatch, lambda: lp.solve_lp(r, start))
    assert starts == [False]
    assert sol.basis.fixed.tolist() == [-1, -1, upper]
    cold = lp.solve_lp(r, _working(True, False))
    assert (sol.rounds, sol.iterations) == (cold.rounds, cold.iterations)
    assert np.array_equal(sol.values, cold.values)
    assert sol.objective_value == cold.objective_value
