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
scipy.optimize, with the options of linprog's simplex. Every variant is
feasible and bounded, so a solve either returns the optimum or raises
SolverStall.

With K >= N the budget rows never bind (each type's pull mass per epoch is
at most 1) and the program is N independent per-type programs (Hawkins
2003). There `solve_lp` solves DUMMY and MEAN_FIELD by the per-type DP, with
no HiGHS call, and returns the DP's value and the occupancy of its policy
(ties rest). SPRMAB_LP's per-type rows are not a DP, so HiGHS gets its rows
after the T budget rows. Either way the budget duals are 0. The builder's
row layout is the same at every K.

The bound is certified by weak Lagrangian duality (Hawkins 2003; Brown &
Smith 2020): for any prices pi >= 0 on the T budget rows,

    L(pi) = K sum_t pi_t + sum_n mu_n . V_n(pi)  >=  the LP optimum,

where V_n is type n's per-type DP in which a pull at t also costs pi_t:
whittle.finite_horizon_q, the package's one finite-horizon backward
induction, which the Q-difference index reads at pi = 0 too. So
`upper_bound` returns L(pi) at the budget duals HiGHS reports, a bound that
does not depend on which optimal vertex HiGHS stops at, and that solve may
use the primal simplex, which is faster on these programs. SPI and
meanfield read the vertex itself, so their solves keep the dual simplex, the
default: its vertex is the one linprog(method="highs-ds") returns, and the
golden digests pin the orders read from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from . import simplex, whittle
from .model import ArmModel, Instance, by_state_count

MEAN_FIELD = "mean_field"
SPRMAB_LP = "sprmab_lp"
DUMMY = "dummy"
VARIANTS = (MEAN_FIELD, SPRMAB_LP, DUMMY)

# upper_bound's certificate check: L(pi) may exceed HiGHS's c @ x by this
# much relative before the solve counts as stopped short of the optimum.
CERTIFICATE_TOL = 1e-9


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

    variant, types, initial and rho are what the per-type DP reads.
    """

    objective: np.ndarray
    A: sps.csr_matrix
    lower: np.ndarray
    upper: np.ndarray
    n_states: tuple[int, ...]
    horizon: int
    variant: str
    types: tuple[ArmModel, ...]
    initial: tuple[np.ndarray, ...]
    rho: int

    @property
    def n_vars(self) -> int:
        return 2 * self.horizon * sum(self.n_states)


@dataclass
class LpSolution:
    objective: float
    occupancy: list[np.ndarray]  # per type, shape (S_n, 2, T)
    iterations: int = 0
    budget_dual: np.ndarray | None = None  # pi >= 0 on the T budget rows
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
                     n_states=n_states, horizon=T, variant=variant, types=instance.types,
                     initial=instance.initial, rho=instance.rho)


def _append(triple, rows, cols, vals):
    """Add the entries (rows, cols, vals), broadcast together, to a (rows, cols, vals) triple."""
    rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
    for part, x in zip(triple, (rows, cols, vals)):
        part.append(x.ravel())


def _covers(problem: LpProblem) -> bool:
    """Whether every budget row allows a pull of each type, so that none can bind."""
    return bool(np.all(problem.upper[:problem.horizon] >= len(problem.n_states)))


def solve_lp(problem: LpProblem, strategy: str = simplex.DUAL) -> LpSolution:
    """Solve to a deterministic optimum; raises SolverStall on failure.

    When the budget K is at least the number of types N the budget rows
    cannot bind (a type's pull mass per epoch is at most 1), and the program
    splits into one program per type. DUMMY and MEAN_FIELD are then solved
    by the per-type DP with no HiGHS call: the DP's value, the occupancy of
    its policy, which rests on ties, and 0 iterations. SPRMAB_LP goes to
    HiGHS without the budget rows. Their duals are 0. Below that, every row
    goes to HiGHS's simplex with strategy (simplex.DUAL or simplex.PRIMAL):
    the dual simplex ends at linprog(method="highs-ds")'s vertex, which SPI
    and meanfield read; upper_bound, which reads only the duals, asks for
    the primal one.
    """
    T, sizes = problem.horizon, problem.n_states
    covers = _covers(problem)
    if covers and problem.variant != SPRMAB_LP:
        return _dp_solution(problem)
    first = T if covers else 0
    res = simplex.solve(problem.objective, problem.A[first:], problem.lower[first:],
                        problem.upper[first:], strategy=strategy)
    blocks = np.split(res.x, 2 * T * np.cumsum(sizes[:-1]))
    occupancy = [x.reshape(T, S, 2).transpose(1, 2, 0) for x, S in zip(blocks, sizes)]
    budget_dual = np.zeros(T) if first else np.maximum(-res.row_dual[:T], 0.0)
    return LpSolution(res.objective, occupancy, res.iterations, budget_dual)


def _per_type_dp(problem: LpProblem, pi: np.ndarray):
    """The per-type DP at budget prices pi, one whittle.finite_horizon_q pass per state count.

    Yields (ids, P, Q, mu) per group of model.by_state_count: Q[b, t, s, a]
    is the value of action a in state s at epoch t for type ids[b], with
    reward rho r and a pull cost pi_t, and mu[b] is that type's initial
    distribution. In DUMMY a pull retires the arm, which then collects its
    passive value-to-go W_{t+1}. V_t(s) = max_a Q[t, s, a].
    """
    if problem.variant == SPRMAB_LP:
        raise ValueError("the per-type DP solves DUMMY and MEAN_FIELD only")
    for ids, P, R in by_state_count(problem.types):  # P[type, s, a, s']
        yield (ids, P, whittle.finite_horizon_q(P, problem.rho * R, pi, problem.variant == DUMMY),
               np.array([problem.initial[n] for n in ids]))


def lagrangian_bound(problem: LpProblem, pi: np.ndarray) -> float:
    """L(pi) = sum_t K_t pi_t + sum_n mu_n . V_n(pi), for prices pi >= 0 on the budget rows.

    By weak Lagrangian duality it bounds the optimum of DUMMY or MEAN_FIELD
    from above, whatever pi >= 0; K_t is budget row t's upper bound.
    """
    total = problem.upper[:problem.horizon] @ pi
    for _, _, Q, mu in _per_type_dp(problem, pi):
        total += np.sum(mu * Q[:, 0].max(axis=-1))
    return float(total)


def _dp_solution(problem: LpProblem) -> LpSolution:
    """The per-type DP at pi = 0: its value and the occupancy of its policy, ties resting."""
    T = problem.horizon
    value, occupancy = 0.0, [None] * len(problem.types)
    moves = slice(None) if problem.variant == MEAN_FIELD else slice(0, 1)  # DUMMY: rest only
    for ids, P, Q, mass in _per_type_dp(problem, np.zeros(T)):
        value += float(np.sum(mass * Q[:, 0].max(axis=-1)))
        pull = Q[..., 1] > Q[..., 0]
        block = np.empty(mass.shape + (2, T))
        for t in range(T):
            block[:, :, 1, t] = np.where(pull[:, t], mass, 0.0)
            block[:, :, 0, t] = np.where(pull[:, t], 0.0, mass)
            mass = np.einsum("bsa,bsap->bp", block[:, :, moves, t], P[:, :, moves])
        for b, n in enumerate(ids):
            occupancy[n] = block[b]
    return LpSolution(value, occupancy, 0, np.zeros(T))


def upper_bound(instance: Instance) -> float:
    """Total-reward upper bound: L(pi) of the DUMMY LP at HiGHS's budget duals.

    The DUMMY LP's optimum equals the optimum of the occupancy LP over
    dummy-expanded states, and its objective carries the per-class weight
    rho, so it bounds the expected total reward of any feasible policy on the
    replicated population from above. The bound returned is L(pi) with
    pi = max(-row_dual, 0) on the budget rows, which bounds the LP optimum
    whatever vertex or tolerance HiGHS ends at; the solve uses the primal
    simplex, since only its duals are read. At K >= N, pi = 0, and L(0) is
    the value of solve_lp's per-type DP, returned from that one pass. Raises
    SolverStall, naming both values, when L(pi) exceeds c @ x by more than
    CERTIFICATE_TOL relative: HiGHS then stopped short of the optimum.
    """
    problem = build_occupancy_lp(instance, DUMMY)
    solution = solve_lp(problem, strategy=simplex.PRIMAL)
    if _covers(problem):
        return solution.objective  # L(0), the per-type DP's value
    bound = lagrangian_bound(problem, solution.budget_dual)
    if bound - solution.objective > CERTIFICATE_TOL * abs(bound):
        raise simplex.SolverStall(f"the duality certificate L(pi) = {bound!r} exceeds HiGHS's "
                                  f"objective {solution.objective!r} by more than "
                                  f"{CERTIFICATE_TOL:g} relative")
    return bound
