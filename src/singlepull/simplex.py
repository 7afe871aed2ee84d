"""Linear-program solver adapter over HiGHS dual simplex.

Solves

    maximize    c @ x
    subject to  A_ub @ x <= b_ub,  A_eq @ x = b_eq,  x >= 0

with one call to scipy's HiGHS dual simplex (``linprog(method="highs-ds")``),
which returns a basic optimum and is deterministic for a given input. The
occupancy LPs are feasible (the all-passive flow meets every budget row)
and bounded (each (type, t) block carries mass 1), so any other outcome is
a solver failure and raises SolverStall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SolverStall(RuntimeError):
    """Raised when HiGHS ends without an optimum."""


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int  # simplex iterations reported by HiGHS


def solve(c, A_ub, b_ub, A_eq, b_eq) -> SimplexResult:
    """Solve max c@x s.t. A_ub x <= b_ub, A_eq x = b_eq, x >= 0."""
    # Imported here: scipy.optimize is the slowest import in the package
    # and only runs that solve a program need it.
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float)
    res = linprog(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise SolverStall(f"HiGHS ended with status {res.status} ({res.message})")
    x = np.asarray(res.x, dtype=float)
    return SimplexResult(x, float(c @ x), int(res.nit))
