"""Linear-program solver adapter over HiGHS dual simplex.

Solves

    maximize    c @ x
    subject to  A_ub @ x <= b_ub,  A_eq @ x = b_eq,  x >= 0

with one direct call into the HiGHS binding that scipy ships
(``scipy.optimize._highspy._core``), loaded from its file so that
scipy.optimize's __init__ never runs. It sets the options that
``linprog(method="highs-ds")`` sets, so on the same input HiGHS returns the
same basic optimum and iteration count as through that wrapper, without
the wrapper's per-column loop over bound marginals this module never reads.
The occupancy LPs are feasible (the all-passive flow meets every budget
row) and bounded (each (type, t) block carries mass 1), so any other
outcome is a solver failure and raises SolverStall.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.sparse as sps

# linprog's check of a reported optimum against its rows and bounds:
# 10 sqrt(tol) at its default tol of 1e-9.
RESIDUAL_TOL = 10 * np.sqrt(1e-9)


class SolverStall(RuntimeError):
    """Raised when HiGHS ends without an optimum."""


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int  # simplex iterations reported by HiGHS


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


def solve(c, A_ub, b_ub, A_eq, b_eq) -> SimplexResult:
    """Solve max c@x s.t. A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    A matrix and its right-hand side may both be None for no rows of that
    kind. A non-finite entry in c, a matrix or a right-hand side raises
    ValueError before HiGHS sees it.
    """
    # Loaded here: only runs that solve a program need the binding.
    highs = _highs()

    c = np.asarray(c, dtype=float).reshape(-1)
    A_ub, b_ub = _rows(A_ub, b_ub, c.size)
    A_eq, b_eq = _rows(A_eq, b_eq, c.size)
    A = sps.vstack((A_ub, A_eq), format="csc")
    if not all(np.isfinite(v).all() for v in (c, A.data, b_ub, b_eq)):
        raise ValueError("c, the constraint matrices and right-hand sides must be finite")

    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = c.size
    model.num_row_ = model.a_matrix_.num_row_ = A.shape[0]
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_, model.a_matrix_.index_, model.a_matrix_.value_ = (
        A.indptr, A.indices, A.data)
    model.col_cost_ = -c
    model.col_lower_, model.col_upper_ = np.zeros(c.size), np.full(c.size, np.inf)
    model.row_lower_ = np.concatenate((np.full(b_ub.size, -np.inf), b_eq))
    model.row_upper_ = np.concatenate((b_ub, b_eq))
    options = highs.HighsOptions()
    options.presolve = "on"
    options.solver = "simplex"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False

    # A fresh object per call: a reused one warm-starts from its last basis,
    # which can end at another optimal vertex.
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(model)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverStall(f"HiGHS ended with model status {status.name} "
                          f"({solver.modelStatusToString(status)})")
    x = np.array(solver.getSolution().col_value)
    row = A @ x
    residual = max(np.max(-x, initial=0.0), np.max(row[:b_ub.size] - b_ub, initial=0.0),
                   np.max(np.abs(row[b_ub.size:] - b_eq), initial=0.0))
    if residual > RESIDUAL_TOL:
        raise SolverStall(f"HiGHS's optimum misses its constraints by {residual:.2e}")
    return SimplexResult(x, float(c @ x), int(solver.getInfo().simplex_iteration_count))


def _rows(A, b, n_cols):
    """One kind of constraint rows as (CSR matrix, right-hand side); None means none."""
    A = sps.csr_array((0, n_cols)) if A is None else sps.csr_array(A, dtype=float)
    b = np.asarray([] if b is None else b, dtype=float).reshape(-1)
    if A.shape != (b.size, n_cols):
        raise ValueError(f"a {A.shape} constraint matrix does not fit {b.size} "
                         f"right-hand sides and {n_cols} columns")
    return A, b
