import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sps

from singlepull import simplex


def solve_dense(c, A, senses, b, **kw):
    return simplex.solve(np.asarray(c, float), sps.csr_matrix(np.atleast_2d(A)),
                         senses, np.asarray(b, float), **kw)


class TestBasics:
    def test_box_lp(self):
        res = solve_dense([1, 1], [[1, 0], [0, 1]], ["<=", "<="], [1, 1])
        assert res.status == simplex.OPTIMAL
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(res.x, [1, 1], atol=1e-9)

    def test_infeasible(self):
        # x <= -1 with x >= 0
        res = solve_dense([1], [[1]], ["<="], [-1])
        assert res.status == simplex.INFEASIBLE

    def test_unbounded(self):
        res = solve_dense([1], [[-1]], ["<="], [1])
        assert res.status == simplex.UNBOUNDED

    def test_equality_rows(self):
        # max x + 2y s.t. x + y = 1
        res = solve_dense([1, 2], [[1, 1]], ["="], [1])
        assert res.status == simplex.OPTIMAL
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(res.x, [0, 1], atol=1e-9)

    def test_negative_rhs_equality(self):
        # max -x s.t. -x = -2  ->  x = 2
        res = solve_dense([-1], [[-1]], ["="], [-2])
        assert res.status == simplex.OPTIMAL
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_upper_bounds(self):
        res = solve_dense([3, 1], [[1, 1]], ["<="], [10],
                          upper=np.array([2.0, np.inf]))
        assert res.objective == pytest.approx(3 * 2 + 8, abs=1e-8)

    def test_lower_bounds(self):
        # min x (= max -x) with x >= 1.5
        res = solve_dense([-1, 0], [[1, 0]], ["<="], [5],
                          lower=np.array([1.5, 0.0]))
        assert res.x[0] == pytest.approx(1.5, abs=1e-9)

    def test_determinism(self):
        c = [1, 1, 1]
        A = [[1, 2, 0], [0, 1, 1]]
        r1 = solve_dense(c, A, ["<=", "<="], [4, 3])
        r2 = solve_dense(c, A, ["<=", "<="], [4, 3])
        assert np.array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations


class TestAgainstScipy:
    """Cross-check against an independent implementation on random LPs."""

    def test_random_inequality_lps(self, rng):
        for trial in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 6))
            A = rng.normal(size=(m, n))
            b = rng.uniform(0.5, 2.0, size=m)  # feasible at x = 0
            c = rng.normal(size=n)
            mine = solve_dense(c, A, ["<="] * m, b)
            # presolve off: HiGHS otherwise reports unbounded primals as
            # "infeasible" (dual infeasibility) on these problems
            ref = scipy.optimize.linprog(-np.asarray(c), A_ub=A, b_ub=b,
                                         bounds=[(0, None)] * n, method="highs",
                                         options={"presolve": False})
            if mine.status == simplex.OPTIMAL:
                assert ref.status == 0
                assert mine.objective == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
            elif mine.status == simplex.UNBOUNDED:
                assert ref.status == 3
            else:
                assert ref.status == 2

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
            c = rng.normal(size=n)
            A = np.vstack([A_eq, A_ub])
            senses = ["="] * m_eq + ["<="] * m_ub
            mine = solve_dense(c, A, senses, np.concatenate([b_eq, b_ub]))
            ref = scipy.optimize.linprog(-np.asarray(c), A_ub=A_ub, b_ub=b_ub,
                                         A_eq=A_eq, b_eq=b_eq,
                                         bounds=[(0, None)] * n, method="highs")
            if mine.status == simplex.OPTIMAL:
                assert ref.status == 0
                assert mine.objective == pytest.approx(-ref.fun, abs=1e-6, rel=1e-6)
            elif mine.status == simplex.UNBOUNDED:
                assert ref.status == 3
            else:
                assert ref.status == 2

    def test_degenerate_transportation_lp(self):
        # Degenerate assignment-style LP; exercises tie-breaking.
        n = 3
        c = np.ones(n * n)
        rows = []
        for i in range(n):
            row = np.zeros(n * n)
            row[i * n:(i + 1) * n] = 1
            rows.append(row)
        for j in range(n):
            row = np.zeros(n * n)
            row[j::n] = 1
            rows.append(row)
        A = np.array(rows)
        b = np.ones(2 * n)
        res = solve_dense(c, A, ["="] * (2 * n), b)
        assert res.status == simplex.OPTIMAL
        assert res.objective == pytest.approx(n, abs=1e-8)


class TestStatus:
    def test_presolve_mislabel_is_reported_unbounded(self):
        # Feasible at x = 0 (b > 0) and unbounded along the ray (0, 1, 1, 0);
        # HiGHS dual simplex with presolve (scipy 1.17) labels it infeasible.
        c = [1.0, 1.7, 1.6, 0.6]
        A = [[-1.3, 0.2, -0.8, -0.7], [0.5, -1.0, 0.4, 0.4]]
        b = [1.7, 1.1]
        res = solve_dense(c, A, ["<=", "<="], b)
        assert res.status == simplex.UNBOUNDED
        assert res.x is None and res.objective is None

    @pytest.mark.parametrize("second, expected", [(0, simplex.UNBOUNDED),
                                                  (2, simplex.INFEASIBLE),
                                                  (4, simplex.SolverStall)])
    def test_non_optimal_status_settled_by_feasibility_solve(self, monkeypatch,
                                                             second, expected):
        statuses = iter([4, second])

        def fake_linprog(c, **kw):
            return scipy.optimize.OptimizeResult(status=next(statuses), nit=1,
                                                 message="injected", x=None)

        monkeypatch.setattr(scipy.optimize, "linprog", fake_linprog)
        if expected is simplex.SolverStall:
            with pytest.raises(simplex.SolverStall):
                solve_dense([1.0], [[1.0]], ["<="], [1.0])
        else:
            res = solve_dense([1.0], [[1.0]], ["<="], [1.0])
            assert res.status == expected and res.iterations == 2
