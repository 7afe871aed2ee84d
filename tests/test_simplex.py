import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sps

from singlepull import simplex


def solve_dense(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    as_csr = lambda A: None if A is None else sps.csr_matrix(np.atleast_2d(A), dtype=float)
    return simplex.solve(np.asarray(c, float), as_csr(A_ub), b_ub, as_csr(A_eq), b_eq)


class TestBasics:
    def test_box_lp(self):
        res = solve_dense([1, 1], [[1, 0], [0, 1]], [1, 1])
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(res.x, [1, 1], atol=1e-9)

    def test_infeasible(self):
        # x <= -1 with x >= 0
        with pytest.raises(simplex.SolverStall, match="status 2"):
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


# scipy.optimize.linprog's non-optimal statuses: iteration limit, infeasible,
# unbounded, numerical difficulties.
@pytest.mark.parametrize("status", [1, 2, 3, 4])
def test_non_optimal_status_raises_solver_stall(monkeypatch, status):
    def fake_linprog(c, **kw):
        return scipy.optimize.OptimizeResult(status=status, nit=1, x=None,
                                             message=f"injected message {status}")

    monkeypatch.setattr(scipy.optimize, "linprog", fake_linprog)
    with pytest.raises(simplex.SolverStall,
                       match=rf"status {status} \(injected message {status}\)"):
        solve_dense([1.0], [[1.0]], [1.0])
