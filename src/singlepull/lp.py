"""Occupancy-measure linear programs for replicated bandit instances.

Three variants share the flow/initial structure and differ in the state
space and in whether an expected single-activation row is present:

* MEAN_FIELD   -- original states, per-step activation budget only.
* SPRMAB_LP    -- original states, plus one expected single-activation row
                  per type (total activation mass over the horizon <= 1).
* DUMMY        -- dummy-expanded states, no single-activation row; the
                  absorbing dummy copies make repeated activation worthless,
                  so the single-pull behaviour emerges from the dynamics.

The program is posed per class: one occupancy measure per arm type, with
the replication factor rho as an objective weight and the activation budget
normalized to K per class. This keeps the LP size independent of rho.

The constraint matrices are assembled as scipy.sparse blocks straight from
each type's transition tensor, and `simplex.solve` hands them to HiGHS in
one call. Every variant is feasible and bounded, so a solve either returns
the optimum or raises SolverStall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from . import simplex
from .model import Instance, expand_initial, expand_with_dummies, require_valid

MEAN_FIELD = "mean_field"
SPRMAB_LP = "sprmab_lp"
DUMMY = "dummy"
VARIANTS = (MEAN_FIELD, SPRMAB_LP, DUMMY)

MEASURE_TOL = 1e-7


@dataclass(frozen=True)
class VarIndex:
    """Bijection (type n, state s, action a, time t) <-> column index.

    Times are 0-based decision epochs 0..T-1. Types may have different
    state counts; columns are laid out type-major, then time, state, action.
    """

    n_states: tuple[int, ...]
    horizon: int

    @property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for s in self.n_states:
            out.append(acc)
            acc += s * 2 * self.horizon
        return tuple(out)

    @property
    def n_vars(self) -> int:
        return sum(s * 2 * self.horizon for s in self.n_states)

    def col(self, n: int, s: int, a: int, t: int) -> int:
        S = self.n_states[n]
        if not (0 <= s < S and a in (0, 1) and 0 <= t < self.horizon):
            raise IndexError(f"bad variable key ({n}, {s}, {a}, {t})")
        return self.offsets[n] + (t * S + s) * 2 + a


@dataclass
class LpProblem:
    """maximize objective @ x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0."""

    objective: np.ndarray
    A_ub: sps.csr_matrix
    b_ub: np.ndarray
    A_eq: sps.csr_matrix
    b_eq: np.ndarray
    var_index: VarIndex
    variant: str = ""

    @property
    def n_vars(self) -> int:
        return self.var_index.n_vars


@dataclass
class LpSolution:
    objective: float
    occupancy: list[np.ndarray]  # per type, shape (S_n, 2, T)
    var_index: VarIndex
    iterations: int = 0
    status = "OPTIMAL"  # not a field: solve_lp returns only optima


def build_occupancy_lp(instance: Instance, variant: str) -> LpProblem:
    """Assemble one of the three occupancy LPs for a validated instance."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    require_valid(instance)
    if instance.horizon < 1:
        raise ValueError("horizon must be at least 1")

    if variant == DUMMY:
        if any(m.expanded for m in instance.types):
            raise ValueError("dummy variant expects unexpanded types")
        models = [expand_with_dummies(m) for m in instance.types]
        initials = [expand_initial(m, d) for m, d in zip(instance.types, instance.initial)]
    else:
        models = list(instance.types)
        initials = list(instance.initial)

    T = instance.horizon
    vi = VarIndex(n_states=tuple(m.n_states for m in models), horizon=T)
    # Each type's columns are laid out (t, s, a), so per-type row blocks are
    # Kronecker products over time. An explicit format keeps kron off its BSR
    # path, which would store the zeros of the right factor.
    objective = np.concatenate([np.tile(instance.rho * m.rewards.reshape(-1), T)
                                for m in models])
    # Per-step activation budget, normalized per class.
    ub_blocks = [sps.hstack([sps.kron(sps.eye(T), _active_row(m.n_states), format="csr")
                             for m in models])]
    b_ub = [np.full(T, float(instance.budget))]
    if variant == SPRMAB_LP:
        # Expected single-activation row per type.
        ub_blocks.append(sps.block_diag([_active_row(T * m.n_states) for m in models]))
        b_ub.append(np.ones(len(models)))
    # Per type, row (t, s) sums both actions of (s, t): at t = 0 it equals the
    # initial mass (zero on dummy states), for t >= 1 the inflow from t - 1.
    eq_blocks, b_eq = [], []
    for m, init in zip(models, initials):
        S = m.n_states
        inflow = sps.csr_matrix(m.transitions.transpose(2, 0, 1).reshape(S, 2 * S))
        eq_blocks.append(sps.kron(sps.eye(T * S), np.ones((1, 2)), format="csr")
                         - sps.kron(sps.eye(T, k=-1), inflow, format="csr"))
        b_eq.append(np.concatenate([init, np.zeros((T - 1) * S)]))
    return LpProblem(
        objective=objective,
        A_ub=sps.vstack(ub_blocks, format="csr"),
        b_ub=np.concatenate(b_ub),
        A_eq=sps.block_diag(eq_blocks, format="csr"),
        b_eq=np.concatenate(b_eq),
        var_index=vi,
        variant=variant,
    )


def _active_row(n_states: int) -> sps.csr_matrix:
    """One row with a 1 on the active column of each of n_states (s, a) pairs."""
    return sps.csr_matrix(np.tile([0.0, 1.0], n_states)[None, :])


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve to a deterministic basic optimum; raises SolverStall on failure."""
    res = simplex.solve(problem.objective, problem.A_ub, problem.b_ub,
                        problem.A_eq, problem.b_eq)
    vi = problem.var_index
    T = vi.horizon
    occupancy = [res.x[off:off + 2 * S * T].reshape(T, S, 2).transpose(1, 2, 0)
                 for off, S in zip(vi.offsets, vi.n_states)]
    return LpSolution(res.objective, occupancy, vi, res.iterations)


def upper_bound(instance: Instance) -> float:
    """Total-reward upper bound: optimum of the dummy-expanded LP.

    The objective already carries the per-class weight rho, so the LP value
    bounds the expected total reward of any feasible policy on the
    replicated population from above.
    """
    return solve_lp(build_occupancy_lp(instance, DUMMY)).objective


def measure_residuals(solution: LpSolution) -> float:
    """Largest deviation of any per-(type, t) occupancy sum from 1."""
    worst = 0.0
    for block in solution.occupancy:
        sums = block.sum(axis=(0, 1))
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    return worst
