"""Linear-program solver adapter over HiGHS's simplex.

Solves

    maximize    c @ x
    subject to  lower <= A @ x <= upper,  x >= 0

in HiGHS's own form: a canonical CSR matrix A goes in as its row-wise
matrix, lower and upper as its row bounds (-inf in lower on an inequality
row, lower == upper on an equality). One direct call into the HiGHS binding
that scipy ships (``scipy.optimize._highspy._core``), loaded from its file
so that scipy.optimize's __init__ never runs, passes the arrays through the
binding's array overload of passModel and sets the options that
``linprog(method="highs-ds")`` sets: on the same program HiGHS returns the
same basic optimum and iteration count as through that wrapper. The
occupancy LPs are feasible (the all-passive flow meets every budget row)
and bounded (each (type, t) block carries mass 1), so any other outcome is
a solver failure and raises SolverStall.

The simplex strategy is DUAL unless the caller asks for PRIMAL. Callers
that read the vertex, SPI's and meanfield's solves, keep the dual simplex:
a degenerate program has many optimal vertices, and the dual simplex's is
linprog's, the one their orders and the golden digests were read from.
`lp.upper_bound` reads only the budget rows' duals, as the prices of its
Lagrangian bound L(pi), which holds at any prices pi >= 0; so it takes the
primal simplex, which is faster on most of the bound's programs.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np
import scipy

# linprog's check of a reported optimum against its rows and bounds:
# 10 sqrt(tol) at its default tol of 1e-9.
RESIDUAL_TOL = 10 * np.sqrt(1e-9)

# The simplex strategies solve accepts.
DUAL, PRIMAL = "dual", "primal"


class SolverStall(RuntimeError):
    """Raised when HiGHS ends without an optimum."""


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int  # simplex iterations reported by HiGHS
    row_dual: np.ndarray  # HiGHS's row duals of min -c @ x: <= 0 on a binding upper side


@functools.cache
def _highs():
    """scipy's HiGHS binding, loaded from its file: importing it by name first
    runs scipy.optimize's __init__, every optimizer with it, which no solve uses.
    It is the module ``from scipy.optimize._highspy import _core`` returns."""
    where = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec("scipy.optimize._highspy._core", [where])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no HiGHS binding _core in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solve(c, A, lower, upper, *, strategy=DUAL) -> SimplexResult:
    """Solve max c@x s.t. lower <= A x <= upper, x >= 0, for a canonical CSR matrix A.

    strategy is DUAL or PRIMAL, HiGHS's dual or primal simplex. Bounds that
    do not have one entry per row of A, a c that does not have one entry
    per column, a NaN anywhere, a non-finite entry in c, A or upper, or +inf
    in lower raises ValueError before HiGHS sees it.
    """
    # Loaded here: only runs that solve a program need the binding.
    highs = _highs()
    m, n = A.shape
    if not (np.shape(c) == (n,) and np.shape(lower) == np.shape(upper) == (m,)):
        raise ValueError(f"A is {m} x {n}, so c needs {n} entries and lower and upper {m} "
                         f"each; got {np.size(c)}, {np.size(lower)} and {np.size(upper)}")
    if not (all(np.isfinite(v).all() for v in (c, A.data, upper)) and np.all(lower < np.inf)):
        raise ValueError("c, A and upper must be finite, and lower finite or -inf")
    strategies = highs.simplex_constants.SimplexStrategy
    options = highs.HighsOptions()
    options.presolve = "on"
    options.solver = "simplex"
    options.simplex_strategy = {DUAL: strategies.kSimplexStrategyDual,
                                PRIMAL: strategies.kSimplexStrategyPrimal}[strategy]
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False

    # A fresh object per call: a reused one warm-starts from its last basis,
    # which can end at another optimal vertex.
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(n, m, A.nnz, highs.MatrixFormat.kRowwise, highs.ObjSense.kMinimize, 0.0,
                     -c, np.zeros(n), np.full(n, np.inf), lower, upper,
                     A.indptr, A.indices, A.data, np.zeros(n, dtype=np.int32))
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverStall(f"HiGHS ended with model status {status.name} "
                          f"({solver.modelStatusToString(status)})")
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    row = A @ x
    residual = max(np.max(-x, initial=0.0), np.max(lower - row, initial=0.0),
                   np.max(row - upper, initial=0.0))
    if residual > RESIDUAL_TOL:
        raise SolverStall(f"HiGHS's optimum misses its constraints by {residual:.2e}")
    return SimplexResult(x, float(c @ x), int(solver.getInfo().simplex_iteration_count),
                         np.array(solution.row_dual))
