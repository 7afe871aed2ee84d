"""Occupancy-measure linear programs for replicated bandit instances.

Three variants share the original states, the column layout, the budget
rows and the flow/initial structure:

* MEAN_FIELD   -- per-step activation budget only.
* SPRMAB_LP    -- plus one expected single-activation row per type (total
                  activation mass over the horizon <= 1).
* DUMMY        -- a pull retires the arm onto the passive chain (Whittle's
                  retirement option): it also pays the passive value-to-go
                  W_{t+1} (W_T = 0, W_t = r(., 0) + P(., 0) W_{t+1}) and sends
                  no mass on. Same optimum as the dummy-expanded program.

The program is posed per class: one occupancy measure per arm type, with
the replication factor rho as an objective weight and the activation budget
normalized to K per class. This keeps the LP size independent of rho.

The program is held as HiGHS states it: one canonical CSR matrix A and row
bounds lower <= A x <= upper (LpProblem gives the row order). A is built
once from a COO triple, written by column arithmetic over (type, t, s, a)
on the stacked transitions of each group of model.by_state_count, the
grouping the index passes use too; its CSR form does not depend on the
group order. `simplex.solve` hands A and the bounds to HiGHS in one direct
call into the binding scipy ships, loaded from its file without importing
scipy.optimize, with the options of linprog's dual simplex. Every variant
is feasible and bounded, so a solve either returns the optimum or raises
SolverStall.

With K >= N the budget rows never bind (each type's pull mass per epoch is
at most 1) and the program is N independent per-type programs (Hawkins
2003). Presolve cannot see that without summing each type's flow rows, so
`solve_lp` leaves the budget rows out of the HiGHS call there; their duals
are 0. The builder's row layout is the same at every K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from . import simplex
from .model import Instance, by_state_count

MEAN_FIELD = "mean_field"
SPRMAB_LP = "sprmab_lp"
DUMMY = "dummy"
VARIANTS = (MEAN_FIELD, SPRMAB_LP, DUMMY)


@dataclass
class LpProblem:
    """maximize objective @ x  s.t.  lower <= A x <= upper,  x >= 0.

    Columns are type-major, then epoch t = 0..horizon-1, state, action: type
    n's block has 2 n_states[n] horizon columns, and its (s, a, t) column is
    the block's first plus (t n_states[n] + s) 2 + a.

    A is canonical CSR (sorted columns, no duplicates). Row t < horizon is
    epoch t's budget row: its pull columns sum to at most K. In SPRMAB_LP the
    next n_types rows each sum a type's pull columns over the horizon to at
    most 1. lower is -inf on these rows and equals upper on the flow rows.
    """

    objective: np.ndarray
    A: sps.csr_matrix
    lower: np.ndarray
    upper: np.ndarray
    n_states: tuple[int, ...]
    horizon: int

    @property
    def n_vars(self) -> int:
        return 2 * self.horizon * sum(self.n_states)


@dataclass
class LpSolution:
    objective: float
    occupancy: list[np.ndarray]  # per type, shape (S_n, 2, T)
    iterations: int = 0
    status = "OPTIMAL"  # not a field: solve_lp returns only optima


def build_occupancy_lp(instance: Instance, variant: str) -> LpProblem:
    """Assemble one of the three occupancy LPs over the instance's types.

    The instance was checked when it was made.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")

    T = instance.horizon
    n_states = tuple(m.n_states for m in instance.types)
    sizes = np.array(n_states)
    n_ub = T + (instance.n_types if variant == SPRMAB_LP else 0)
    offsets = 2 * T * (np.cumsum(sizes) - sizes)  # each type's first column
    flow_first = n_ub + offsets // 2  # each type's first flow row, (t, s) order
    objective = np.empty(2 * T * sizes.sum())
    upper = np.zeros(n_ub + T * sizes.sum())
    upper[:T], upper[T:n_ub] = instance.budget, 1.0
    t = np.arange(T)
    entries = ([], [], [])  # (rows, cols, vals) of A
    # Types that share a state count share one index arithmetic: type n's
    # column of (t, s, a) is offsets[n] + (t S + s) 2 + a.
    for ids, P, rewards in by_state_count(instance.types):  # P[type, s', a, s]
        members, S = np.array(ids), P.shape[1]
        col = offsets[members, None, None, None] + (t[:, None, None] * S
                                                     + np.arange(S)[:, None]) * 2 + np.arange(2)
        gain = rewards[:, None]  # what column (t, s, a) pays, broadcast over t
        if variant == DUMMY:
            # after[:, t] is W_{t+1}, the passive chain's value-to-go from t + 1.
            after = np.zeros((len(ids), T, S))
            for u in range(T - 2, -1, -1):
                after[:, u] = rewards[..., 0] + (P[:, :, 0] @ after[:, u + 1, :, None])[..., 0]
            gain = np.repeat(gain, T, axis=1)
            gain[..., 1] += (P[:, None, :, 1] @ after[..., None])[..., 0]
        objective[col] = instance.rho * gain
        # Per-step activation budget, normalized per class: row t.
        _append(entries, t[:, None], col[..., 1], 1.0)
        if variant == SPRMAB_LP:
            # Expected single-activation row per type.
            _append(entries, T + members[:, None, None], col[..., 1], 1.0)
        # Row (t, s) of a type sums both actions of (s, t): at t = 0 it equals
        # the initial mass, for t >= 1 the inflow, sum over (s', a) of
        # P[s', a, s] mu(s', a, t - 1), over a = 0 alone in DUMMY.
        row = flow_first[members, None, None] + t[:, None] * S + np.arange(S)
        _append(entries, row[..., None], col, 1.0)
        inflow = P[:, :, :1] if variant == DUMMY else P
        k, sp, a, s2 = np.nonzero(inflow)
        _append(entries, row[k, 1:, s2].T, col[k, :-1, sp, a].T, -inflow[k, sp, a, s2])
        upper[row[:, 0]] = [instance.initial[n] for n in ids]
    rows, cols, vals = (np.concatenate(part) for part in entries)
    A = sps.coo_matrix((vals, (rows, cols)), shape=(upper.size, objective.size)).tocsr()
    lower = np.concatenate((np.full(n_ub, -np.inf), upper[n_ub:]))
    return LpProblem(objective=objective, A=A, lower=lower, upper=upper,
                     n_states=n_states, horizon=T)


def _append(triple, rows, cols, vals):
    """Add the entries (rows, cols, vals), broadcast together, to a (rows, cols, vals) triple."""
    rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
    for part, x in zip(triple, (rows, cols, vals)):
        part.append(x.ravel())


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve to a deterministic basic optimum; raises SolverStall on failure.

    When the budget K is at least the number of types N, HiGHS gets every row
    but the T budget rows: a type's pull mass per epoch is at most 1, so they
    cannot bind, and the program splits into one program per type, which
    presolve solves outright. Their duals are 0. Below that, every row goes in.
    """
    T, sizes = problem.horizon, problem.n_states
    first = T if np.all(problem.upper[:T] >= len(sizes)) else 0
    res = simplex.solve(problem.objective, problem.A[first:], problem.lower[first:],
                        problem.upper[first:])
    blocks = np.split(res.x, 2 * T * np.cumsum(sizes[:-1]))
    occupancy = [x.reshape(T, S, 2).transpose(1, 2, 0) for x, S in zip(blocks, sizes)]
    return LpSolution(res.objective, occupancy, res.iterations)


def upper_bound(instance: Instance) -> float:
    """Total-reward upper bound: optimum of the DUMMY LP.

    It equals the optimum of the occupancy LP over dummy-expanded states.
    The objective already carries the per-class weight rho, so the LP value
    bounds the expected total reward of any feasible policy on the
    replicated population from above.
    """
    return solve_lp(build_occupancy_lp(instance, DUMMY)).objective
