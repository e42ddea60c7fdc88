import numpy as np
import pytest
import scipy.optimize

from gridfdi import lp

from oracles import boxed_vertex_verdict, enumerate_vertices, random_bounded_lp


def _single_var():
    p = lp.LinearProgram(sense="max")
    p.add_variables(1, lower=0.0, upper=1.0)
    p.objective[:] = [1.0]
    return p


def test_single_bound():
    sol = lp.solve_lp(_single_var())
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.values[0] == pytest.approx(1.0, abs=1e-9)


def test_simplex_on_triangle():
    p = lp.LinearProgram(sense="max")
    p.add_variables(2, lower=0.0)
    p.objective[:] = [1.0, 1.0]
    p.add_rows([[1.0, 1.0]], lp.LE, [1.0])
    sol = lp.solve_lp(p)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_infeasible():
    p = lp.LinearProgram(sense="max")
    p.add_variables(1)
    p.objective[:] = [1.0]
    p.add_rows([[1.0]], lp.GE, [2.0])
    p.add_rows([[1.0]], lp.LE, [1.0])
    sol = lp.solve_lp(p)
    assert sol.status == lp.INFEASIBLE
    assert sol.values is None


def test_unbounded():
    p = lp.LinearProgram(sense="max")
    p.add_variables(1, lower=0.0)
    p.objective[:] = [1.0]
    sol = lp.solve_lp(p)
    assert sol.status == lp.UNBOUNDED


def test_equality_and_negative_bounds():
    # min x + y st x + y = 1, -2 <= x <= 0.25, y free
    p = lp.LinearProgram(sense="min")
    p.add_variables(1, lower=-2.0, upper=0.25)
    p.add_variables(1)
    p.objective[:] = [2.0, 1.0]
    p.add_rows([[1.0, 1.0]], lp.EQ, [1.0])
    sol = lp.solve_lp(p)
    assert sol.status == lp.OPTIMAL
    # cheapest: push expensive x to its lower bound
    assert sol.values[0] == pytest.approx(-2.0, abs=1e-9)
    assert sol.values[1] == pytest.approx(3.0, abs=1e-9)


def test_fixed_variable():
    p = lp.LinearProgram(sense="max")
    p.add_variables(2, lower=0.0, upper=5.0)
    p.fix_variable(0, 2.0)
    p.objective[:] = [1.0, 1.0]
    p.add_rows([[1.0, 1.0]], lp.LE, [4.0])
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
        k = int(rng.integers(0, len(p.constraints)))
        p.constraints[k].rhs += float(rng.uniform(0.1, 1.0))
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
    p = lp.LinearProgram(sense="max")
    p.add_variables(2)
    with pytest.raises(ValueError):
        p.add_rows([[1.0, 0.0]], "<", [1.0])
    p.add_rows([[1.0]], lp.LE, [1.0])   # wrong width caught at validate
    with pytest.raises(ValueError):
        p.validate()

    q = lp.LinearProgram(sense="max")
    q.add_variables(1, lower=2.0, upper=1.0)
    with pytest.raises(ValueError):
        q.validate()

    r = lp.LinearProgram(sense="upward")
    r.add_variables(1)
    with pytest.raises(ValueError):
        r.validate()


def test_mixed_structures_match_boxed_vertex_enumeration():
    # free / one-sided / fixed variables with <=, >=, = rows in all senses
    rng = np.random.default_rng(777)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        p = lp.LinearProgram(sense="max" if rng.random() < 0.5 else "min")
        p.add_variables(n)
        for j in range(n):
            kind = rng.integers(0, 5)
            if kind == 1:
                p.lower[j] = float(rng.uniform(-3, 0))
            elif kind == 2:
                p.upper[j] = float(rng.uniform(0, 3))
            elif kind == 3:
                lo = float(rng.uniform(-2, 1))
                p.lower[j], p.upper[j] = lo, lo + float(rng.uniform(0, 2))
            elif kind == 4:
                p.fix_variable(j, float(rng.uniform(-1, 1)))
        p.objective[:] = rng.uniform(-1, 1, n)
        for _ in range(int(rng.integers(1, 6))):
            rel = (lp.LE, lp.GE, lp.EQ)[rng.integers(0, 3)]
            p.add_rows([rng.uniform(-1, 1, n)], rel, [float(rng.uniform(-1, 2))])
        status, best = boxed_vertex_verdict(p)
        sol = lp.solve_lp(p)
        assert sol.status == status
        if status == lp.OPTIMAL:
            assert sol.objective_value == pytest.approx(best, abs=1e-6)


def test_vertex_oracle_handles_dependent_equalities():
    # max x0 st x0 + x1 = 1 and 2x0 + 2x1 = 2 over the unit box: the second
    # row repeats the first, and the optimum is x = (1, 0)
    p = lp.LinearProgram(sense="max")
    p.add_variables(2, lower=0.0, upper=1.0)
    p.objective[:] = [1.0, 0.0]
    p.add_rows([[1.0, 1.0], [2.0, 2.0]], lp.EQ, [1.0, 2.0])
    x, best = enumerate_vertices(p)
    assert best == pytest.approx(1.0, abs=1e-12)
    assert x == pytest.approx([1.0, 0.0], abs=1e-12)
    assert lp.solve_lp(p).objective_value == pytest.approx(best, abs=1e-9)
    # a dependent row that contradicts the others leaves nothing feasible
    p.constraints[-1].rhs[1] = 3.0
    assert enumerate_vertices(p) == (None, None)
    assert lp.solve_lp(p).status == lp.INFEASIBLE


def _fake_linprog(monkeypatch, edit):
    """Route solve_lp through the real HiGHS call, then let ``edit`` change
    the returned result."""
    real = scipy.optimize.linprog

    def fake(*args, **kwargs):
        res = real(*args, **kwargs)
        edit(res)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", fake)


def test_solution_audit_catches_bad_engine(monkeypatch):
    p = _single_var()
    p.add_rows([[1.0]], lp.LE, [0.5])

    def infeasible_x(res):
        res.x, res.fun = np.array([1.0]), -1.0

    _fake_linprog(monkeypatch, infeasible_x)
    with pytest.raises(lp.SolverError, match="A_ub"):
        lp.solve_lp(p)


def test_certificate_rejects_feasible_non_optimal_point(monkeypatch):
    # max x + y st x + y <= 1: (0.25, 0.25) is feasible, its objective is
    # consistent, the optimal marginals are stationary and correctly signed;
    # only the primal-dual gap of 0.5 shows that it is not optimal.
    p = lp.LinearProgram(sense="max")
    p.add_variables(2, lower=0.0)
    p.objective[:] = [1.0, 1.0]
    p.add_rows([[1.0, 1.0]], lp.LE, [1.0])

    def worse_x(res):
        res.x, res.fun = np.array([0.25, 0.25]), -0.5

    _fake_linprog(monkeypatch, worse_x)
    with pytest.raises(lp.SolverError, match="gap"):
        lp.solve_lp(p)


@pytest.mark.parametrize("y_ub, z_l, z_u, message", [
    (0.0, 0.5, 0.0, "stationarity"),     # 1 + y_ub - z_l - z_u = 0.5
    (1.0, 2.0, 0.0, "wrong sign"),       # row marginal > 0
    (-2.0, -1.0, 0.0, "wrong sign"),     # lower-bound marginal < 0
    (0.0, 2.0, -1.0, "infinite bound"),  # marginal on x <= inf
], ids=["stationarity", "row", "lower", "infinite-upper"])
def test_certificate_rejects_bad_marginal(monkeypatch, y_ub, z_l, z_u, message):
    # min x st x >= 0 as a row and as a bound: optimum x = 0, objective 0.
    # Every edited marginal set has a zero gap; all but the first stay
    # stationary (1 + y_ub - z_l - z_u = 0), so only one check can fail.
    p = lp.LinearProgram(sense="min")
    p.add_variables(1, lower=0.0)
    p.objective[:] = [1.0]
    p.add_rows([[1.0]], lp.GE, [0.0])

    def bad_marginals(res):
        res.ineqlin.marginals = np.array([y_ub])
        res.lower.marginals = np.array([z_l])
        res.upper.marginals = np.array([z_u])

    assert lp.solve_lp(p).objective_value == pytest.approx(0.0, abs=1e-12)
    _fake_linprog(monkeypatch, bad_marginals)
    with pytest.raises(lp.SolverError, match=message):
        lp.solve_lp(p)


def _chained_lazy_lp():
    # max 2x + y over [0, 10]^2 with the lazy rows x + y <= 12 and x - y <= 1.
    # Round 1 stops at (10, 10), which breaks only the first row; round 2 at
    # (10, 2), which breaks the second; round 3 ends at (6.5, 5.5).
    p = lp.LinearProgram(sense="max")
    p.add_variables(2, lower=0.0, upper=10.0)
    p.objective[:] = [2.0, 1.0]
    p.add_rows([[1.0, 1.0], [1.0, -1.0]], lp.LE, [12.0, 1.0], lazy=True)
    return p


def test_lazy_rows_reach_the_all_rows_optimum():
    p = _chained_lazy_lp()
    x, best = enumerate_vertices(p)
    sol = lp.solve_lp(p)
    assert sol.status == lp.OPTIMAL
    assert sol.rounds == 3
    assert sol.working.tolist() == [True, True]
    assert sol.objective_value == pytest.approx(best, abs=1e-9)
    assert sol.values == pytest.approx(x, abs=1e-9)
    assert best == pytest.approx(18.5, abs=1e-12)


def test_rounds_count_working_sets():
    eager = _chained_lazy_lp()
    eager.constraints[0].lazy[:] = False
    sol = lp.solve_lp(eager)
    assert (sol.rounds, sol.working.tolist()) == (1, [True, True])
    assert sol.objective_value == pytest.approx(18.5, abs=1e-9)

    # an unviolated lazy row never joins: max -x over [0, 10] with x <= 5
    p = lp.LinearProgram(sense="max")
    p.add_variables(1, lower=0.0, upper=10.0)
    p.objective[:] = [-1.0]
    p.add_rows([[1.0]], lp.LE, [5.0], lazy=True)
    sol = lp.solve_lp(p)
    assert (sol.rounds, sol.working.tolist()) == (1, [False])
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)


def test_lazy_ge_rows_and_per_row_flags():
    # min x + y st x + y >= 3 (lazy), x - y >= -1 (eager) over [0, 5]^2
    p = lp.LinearProgram(sense="min")
    p.add_variables(2, lower=0.0, upper=5.0)
    p.objective[:] = [1.0, 1.0]
    p.add_rows([[1.0, 1.0], [1.0, -1.0]], lp.GE, [3.0, -1.0], lazy=[True, False])
    _, best = enumerate_vertices(p)
    sol = lp.solve_lp(p)
    assert sol.rounds == 2
    assert sol.objective_value == pytest.approx(best, abs=1e-9)
    assert best == pytest.approx(3.0, abs=1e-12)


def test_lazy_rows_infeasible():
    # x >= 2 holds in every working set; the lazy x <= 1 joins in round 2
    p = lp.LinearProgram(sense="max")
    p.add_variables(1, lower=0.0, upper=10.0)
    p.objective[:] = [1.0]
    p.add_rows([[1.0]], lp.GE, [2.0])
    p.add_rows([[1.0]], lp.LE, [1.0], lazy=True)
    sol = lp.solve_lp(p)
    assert (sol.status, sol.rounds, sol.values) == (lp.INFEASIBLE, 2, None)
    # an infeasible first working set ends the solve at once
    p.constraints[-1].lazy[:] = False
    p.add_rows([[1.0]], lp.LE, [20.0], lazy=True)
    sol = lp.solve_lp(p)
    assert (sol.status, sol.rounds) == (lp.INFEASIBLE, 1)


def test_lazy_rows_unbounded_working_set():
    # max x, x >= 0: unbounded without the lazy x <= 4, which then decides
    p = lp.LinearProgram(sense="max")
    p.add_variables(1, lower=0.0)
    p.objective[:] = [1.0]
    p.add_rows([[1.0], [-1.0]], lp.LE, [4.0, 0.0], lazy=True)
    sol = lp.solve_lp(p)
    assert (sol.status, sol.rounds) == (lp.OPTIMAL, 2)
    assert sol.objective_value == pytest.approx(4.0, abs=1e-9)
    # and the full LP may be unbounded too: -x <= 1 and -x <= 0 cap nothing
    q = lp.LinearProgram(sense="max")
    q.add_variables(1, lower=0.0)
    q.objective[:] = [1.0]
    q.add_rows([[-1.0], [-1.0]], lp.LE, [1.0, 0.0], lazy=True)
    sol = lp.solve_lp(q)
    assert (sol.status, sol.rounds) == (lp.UNBOUNDED, 2)


def test_lazy_equality_rows_rejected():
    p = lp.LinearProgram(sense="max")
    p.add_variables(1)
    with pytest.raises(ValueError, match="lazy"):
        p.add_rows([[1.0]], lp.EQ, [1.0], lazy=True)


def test_random_lazy_rows_match_vertex_enumeration(rng):
    for _ in range(25):
        p = random_bounded_lp(rng)
        _, best = enumerate_vertices(p)
        for con in p.constraints:
            con.lazy[:] = rng.random() < 0.7
        sol = lp.solve_lp(p)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(best, abs=1e-6)
