import importlib.machinery
import os
import re

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sps

from singlepull import domains, lp, simplex

from conftest import mixed_instance, stall_highs
from lp_reference import linprog_form


def solve_dense(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """simplex.solve on linprog-style rows A_ub x <= b_ub and A_eq x = b_eq; None for none."""
    c = np.asarray(c, float)
    A_ub, A_eq = (np.zeros((0, c.size)) if A is None else np.atleast_2d(A) for A in (A_ub, A_eq))
    b_ub, b_eq = (np.asarray([] if b is None else b, float) for b in (b_ub, b_eq))
    A = sps.csr_matrix(np.vstack((A_ub, A_eq)), dtype=float)
    lower = np.concatenate((np.full(b_ub.size, -np.inf), b_eq))
    return simplex.solve(c, A, lower, np.concatenate((b_ub, b_eq)))


class TestBasics:
    def test_box_lp(self):
        res = solve_dense([1, 1], [[1, 0], [0, 1]], [1, 1])
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(res.x, [1, 1], atol=1e-9)

    def test_infeasible(self):
        # x <= -1 with x >= 0
        with pytest.raises(simplex.SolverStall, match=r"model status kInfeasible \(Infeasible\)"):
            solve_dense([1], [[1]], [-1])

    def test_unbounded(self):
        with pytest.raises(simplex.SolverStall):
            solve_dense([1], [[-1]], [1])

    def test_equality_rows(self):
        # max x + 2y s.t. x + y = 1
        res = solve_dense([1, 2], A_eq=[[1, 1]], b_eq=[1])
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(res.x, [0, 1], atol=1e-9)

    def test_negative_rhs_equality(self):
        # max -x s.t. -x = -2  ->  x = 2
        res = solve_dense([-1], A_eq=[[-1]], b_eq=[-2])
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_determinism(self):
        c = [1, 1, 1]
        A = [[1, 2, 0], [0, 1, 1]]
        r1 = solve_dense(c, A, [4, 3])
        r2 = solve_dense(c, A, [4, 3])
        assert np.array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations


class TestAgainstScipy:
    """Random LPs against an independent HiGHS call, and a degenerate LP.

    Where the reference finds an optimum the objectives agree; every other
    outcome must raise SolverStall.
    """

    def check(self, c, A_ub, b_ub, A_eq=None, b_eq=None):
        ref = scipy.optimize.linprog(-np.asarray(c), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                                     b_eq=b_eq, bounds=(0, None), method="highs")
        if ref.status == 0:
            mine = solve_dense(c, A_ub, b_ub, A_eq, b_eq)
            assert mine.objective == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
        else:
            with pytest.raises(simplex.SolverStall):
                solve_dense(c, A_ub, b_ub, A_eq, b_eq)
        return ref.status

    def test_random_inequality_lps(self, rng):
        statuses = set()
        for trial in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 6))
            A = rng.normal(size=(m, n))
            b = rng.uniform(0.5, 2.0, size=m)  # feasible at x = 0
            statuses.add(self.check(rng.normal(size=n), A, b))
        assert 0 in statuses and len(statuses) > 1

    def test_random_mixed_lps(self, rng):
        for trial in range(40):
            n = int(rng.integers(3, 8))
            m_eq = int(rng.integers(1, 3))
            m_ub = int(rng.integers(1, 4))
            x_feas = rng.uniform(0.0, 1.0, size=n)
            A_eq = rng.normal(size=(m_eq, n))
            b_eq = A_eq @ x_feas  # equality rows consistent by construction
            A_ub = rng.normal(size=(m_ub, n))
            b_ub = A_ub @ x_feas + rng.uniform(0.1, 1.0, size=m_ub)
            self.check(rng.normal(size=n), A_ub, b_ub, A_eq, b_eq)

    def test_degenerate_transportation_lp(self):
        # Degenerate assignment-style LP; exercises tie-breaking.
        n = 3
        rows = []
        for i in range(n):
            row = np.zeros(n * n)
            row[i * n:(i + 1) * n] = 1
            rows.append(row)
        for j in range(n):
            row = np.zeros(n * n)
            row[j::n] = 1
            rows.append(row)
        res = solve_dense(np.ones(n * n), A_eq=np.array(rows), b_eq=np.ones(2 * n))
        assert res.objective == pytest.approx(n, abs=1e-8)


class TestMatchesLinprog:
    """The direct HiGHS call against linprog(method="highs-ds") on the same matrices.

    Same input and same options: the same vertex to the byte, the same
    objective and the same iteration count, on every occupancy program.
    """

    @staticmethod
    def instances():
        for family in domains.FAMILIES:
            for seed in (0, 1):
                yield domains.make_instance(domains.DomainSpec(family, 2, 3, seed=seed),
                                            budget=1, rho=2, horizon=4)
        yield mixed_instance()

    @pytest.mark.parametrize("variant", lp.VARIANTS)
    def test_occupancy_programs_are_bit_identical(self, variant):
        for inst in self.instances():
            prob = lp.build_occupancy_lp(inst, variant)
            mine = simplex.solve(prob.objective, prob.A, prob.lower, prob.upper)
            ref = scipy.optimize.linprog(-prob.objective, **linprog_form(prob), bounds=(0, None),
                                         method="highs-ds")
            assert ref.status == 0
            x = np.asarray(ref.x, dtype=float)
            assert mine.x.tobytes() == x.tobytes()
            assert mine.objective == float(prob.objective @ x)
            assert mine.iterations == ref.nit
            duals = np.concatenate((ref.ineqlin.marginals, ref.eqlin.marginals))
            assert mine.row_dual.tobytes() == duals.tobytes()

    @pytest.mark.parametrize("variant", lp.VARIANTS)
    def test_primal_simplex_reaches_the_same_optimum(self, variant):
        for inst in self.instances():
            prob = lp.build_occupancy_lp(inst, variant)
            dual, primal = (simplex.solve(prob.objective, prob.A, prob.lower, prob.upper,
                                          strategy=strategy)
                            for strategy in (simplex.DUAL, simplex.PRIMAL))
            assert primal.objective == pytest.approx(dual.objective, rel=1e-9, abs=0.0)
            assert primal.row_dual.shape == (prob.A.shape[0],)

    def test_solves_without_linprog(self, monkeypatch):
        def no_linprog(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(scipy.optimize, "linprog", no_linprog)
        res = solve_dense([1, 1], [[1, 0], [0, 1]], [1, 1])
        assert np.array_equal(res.x, [1.0, 1.0])


def test_non_finite_input_raises_value_error():
    parts = {"c": [1.0, 1.0], "A_ub": [[1.0, 0.0]], "b_ub": [1.0],
             "A_eq": [[0.0, 1.0]], "b_eq": [1.0]}
    for entry in parts:
        for value in (np.nan, np.inf, -np.inf):
            bad = np.array(parts[entry])
            bad.flat[-1] = value
            with pytest.raises(ValueError, match="finite"):
                solve_dense(**{**parts, entry: bad})


def test_row_bounds_are_checked():
    # lower may be -inf on a row with no lower side; any other non-finite
    # bound, and a NaN in either, is rejected before HiGHS sees it
    c, A = np.ones(1), sps.csr_matrix([[1.0]])
    for lower, upper in ((np.nan, 1.0), (0.0, np.nan), (np.inf, 1.0),
                         (0.0, np.inf), (-np.inf, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            simplex.solve(c, A, np.array([lower]), np.array([upper]))
    res = simplex.solve(c, A, np.array([-np.inf]), np.array([1.0]))
    assert res.x.tolist() == [1.0] and res.objective == 1.0


def test_bounds_need_one_entry_per_row():
    # one row: two entries in either bound, or none, are rejected before HiGHS
    c, A = np.ones(2), sps.csr_matrix([[1.0, 1.0]])
    one, two = np.array([1.0]), np.array([-np.inf, -np.inf])
    for lower, upper in ((two, np.ones(2)), (np.array([-np.inf]), np.ones(2)), (two, one),
                         (np.array([]), one)):
        with pytest.raises(ValueError, match=re.escape(
                f"A is 1 x 2, so c needs 2 entries and lower and upper 1 each; "
                f"got 2, {lower.size} and {upper.size}")):
            simplex.solve(c, A, lower, upper)


def test_a_needs_one_column_per_entry_of_c():
    A, lower, upper = sps.csr_matrix([[1.0, 1.0]]), np.array([-np.inf]), np.array([1.0])
    for c in (np.ones(1), np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError, match=re.escape(
                f"A is 1 x 2, so c needs 2 entries and lower and upper 1 each; "
                f"got {c.size}, 1 and 1")):
            simplex.solve(c, A, lower, upper)
    assert simplex.solve(np.ones(2), A, lower, upper).objective == 1.0


# HiGHS model statuses that end a solve without an optimum, with their
# descriptions: iteration limit, infeasible, unbounded, solver error.
STALLS = {"kIterationLimit": "Iteration limit reached", "kInfeasible": "Infeasible",
          "kUnbounded": "Unbounded", "kSolveError": "Solve error"}


@pytest.mark.parametrize("status", STALLS)
def test_non_optimal_status_raises_solver_stall(monkeypatch, status):
    stall_highs(monkeypatch, status)
    with pytest.raises(simplex.SolverStall, match=rf"model status {status} \({STALLS[status]}\)"):
        solve_dense([1.0], [[1.0]], [1.0])


def test_an_optimum_off_its_rows_raises_solver_stall(monkeypatch):
    # linprog rejects a reported optimum that misses a row by more than
    # 10 sqrt(1e-9); so does solve
    _core = simplex._highs()

    class OffRows(_core._Highs):
        def getSolution(self):
            solution = super().getSolution()
            solution.col_value = [v + 1e-3 for v in solution.col_value]
            return solution

    monkeypatch.setattr(_core, "_Highs", OffRows)
    with pytest.raises(simplex.SolverStall, match="misses its constraints by 1.00e-03"):
        solve_dense([1, 1], [[1, 0], [0, 1]], [1, 1])


def test_a_missing_binding_raises_import_error(monkeypatch):
    # no fallback: without the binding's file the first solve names where it looked
    where = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    monkeypatch.setattr(simplex, "_highs", simplex._highs.__wrapped__)  # uncached
    with pytest.raises(ImportError, match=re.escape(
            f"scipy {scipy.__version__} has no HiGHS binding _core in {where}")):
        solve_dense([1.0], [[1.0]], [1.0])
