"""Linear-program solver adapter over HiGHS dual simplex.

Solves problems of the form

    maximize    c @ x
    subject to  A_i @ x (<= or =) b_i
                l <= x <= u   (l = 0, u = inf by default)

with scipy's HiGHS dual simplex (``linprog(method="highs-ds")``), which
returns a basic optimum and is deterministic for a given input. HiGHS
presolve can report some feasible-but-unbounded programs as infeasible, so
every non-optimal outcome is settled by a second solve of the same
constraints with a zero objective: a feasible second solve means the
program is unbounded, an infeasible one means it is infeasible, and
anything else raises SolverStall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

FEAS_TOL = 1e-9

# scipy.optimize.linprog status codes
_LINPROG_OPTIMAL = 0
_LINPROG_INFEASIBLE = 2


class SolverStall(RuntimeError):
    """Raised when the solver ends without a definite status."""


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int  # simplex iterations reported by HiGHS, over every solve made


def solve(
    c: np.ndarray,
    a_rows: sps.spmatrix,
    senses: list[str],
    b: np.ndarray,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
) -> SimplexResult:
    """Solve max c@x s.t. a_rows x (senses) b, lower <= x <= upper."""
    # Imported here: scipy.optimize is the slowest import in the package
    # and only runs that solve a program need it.
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float)
    n = c.size
    A = sps.csr_matrix(a_rows, dtype=float)
    b = np.asarray(b, dtype=float)
    m = A.shape[0]
    if A.shape != (m, n) or len(senses) != m or b.size != m:
        raise ValueError("inconsistent problem dimensions")
    if any(s not in ("<=", "=") for s in senses):
        raise ValueError(f"senses must be '<=' or '=', got {sorted(set(senses))}")

    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if np.any(lower > upper + FEAS_TOL):
        return SimplexResult(INFEASIBLE, None, None, 0)

    is_eq = np.array([s == "=" for s in senses], dtype=bool)
    constraints = {"bounds": np.column_stack([lower, upper]), "method": "highs-ds"}
    if (~is_eq).any():
        constraints.update(A_ub=A[~is_eq], b_ub=b[~is_eq])
    if is_eq.any():
        constraints.update(A_eq=A[is_eq], b_eq=b[is_eq])
    res = linprog(-c, **constraints)
    iterations = int(res.nit)
    if res.status == _LINPROG_OPTIMAL:
        x = np.asarray(res.x, dtype=float)
        return SimplexResult(OPTIMAL, x, float(c @ x), iterations)

    feas = linprog(np.zeros(n), **constraints)
    iterations += int(feas.nit)
    if feas.status == _LINPROG_OPTIMAL:
        return SimplexResult(UNBOUNDED, None, None, iterations)
    if feas.status == _LINPROG_INFEASIBLE:
        return SimplexResult(INFEASIBLE, None, None, iterations)
    raise SolverStall(f"HiGHS ended with status {res.status} ({res.message}); "
                      f"feasibility re-solve ended with status {feas.status} ({feas.message})")
