"""Whittle-style subsidy indices by bisection over single-arm DPs.

The infinite-horizon index of a state is the passive subsidy at which
activating and resting are equally attractive under the average-reward
criterion; the inner evaluation is exact multichain policy iteration,
which ends after finitely many policy changes and needs no sweep cap or
damping. The finite-horizon variant replaces the inner evaluation with
backward induction from the end of the horizon, giving a time-dependent
index.

Both DPs solve one problem per entry of a subsidy vector, so one
bisection moves every state (or (state, t) pair) at once. Indexability is
assumed, not verified: a bracket whose endpoints do not straddle the
activation/passivity switch raises BracketFail instead of reporting a
spurious crossing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ArmModel, stack_types

BISECT_MAX_ITERS = 60
DEFAULT_TOL = 1e-6
TIE_TOL = 1e-10  # value gaps below TIE_TOL times the values' scale are ties
CESARO_MAX_SQUARINGS = 64


class BracketFail(RuntimeError):
    """Subsidy bracket does not straddle the indifference point."""


class NonConvergent(RuntimeError):
    """The optimal average reward differs across states, so relative values are undefined."""


@dataclass
class IndexTable:
    """Index values per (type, state, time).

    values[n] has shape (S_n, T) for time-dependent tables and (S_n, 1)
    for stationary ones; stationary lookups ignore t. flat stacks the
    values over global state ids offset[n] + s, once, at construction.
    """

    values: list[np.ndarray]
    time_dependent: bool
    offset: np.ndarray = field(init=False, repr=False, compare=False)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.offset, flat = stack_types(self.values)
        self.flat = np.asarray(flat, dtype=float)

    def value(self, n: int, s: int, t: int = 0) -> float:
        v = self.values[n]
        return float(v[s, t]) if self.time_dependent else float(v[s, 0])

    def lookup(self, type_of: np.ndarray, states: np.ndarray, t: int) -> np.ndarray:
        """Vectorized per-arm index lookup."""
        column = self.flat[:, t if self.time_dependent else 0]
        return np.take(column, self.offset[type_of] + states)

    @classmethod
    def stack(cls, tables: list["IndexTable"]) -> "IndexTable":
        flags = {tb.time_dependent for tb in tables}
        if len(flags) != 1:
            raise ValueError("cannot stack stationary and time-dependent tables")
        return cls(values=[tb.values[0] for tb in tables], time_dependent=flags.pop())


BRACKET_GROWTH_LIMIT = 24  # doublings of the initial half-width


def _bracket_halfwidth(model: ArmModel) -> float:
    span = float(model.rewards.max() - model.rewards.min())
    return 2.0 * span if span > 0 else 1.0


def _expand_bracket(hw0: float, qdiff_at):
    """Grow [-hw, hw] geometrically until the endpoint gaps straddle zero.

    The equalizing subsidy can exceed the per-step reward span by the bias
    range, which is large for lazy chains (small per-step motion), so a
    fixed bracket is not enough. Returns (hw, qd_lo, qd_hi).
    """
    hw = hw0
    qd_lo = qdiff_at(-hw)
    qd_hi = qdiff_at(hw)
    for _ in range(BRACKET_GROWTH_LIMIT):
        if (qd_lo >= 0.0).all() and (qd_hi <= 0.0).all():
            return hw, qd_lo, qd_hi
        hw *= 2.0
        qd_lo = qdiff_at(-hw)
        qd_hi = qdiff_at(hw)
    return hw, qd_lo, qd_hi


def _subsidy_index(model: ArmModel, qdiff_at, tol: float) -> np.ndarray:
    """Indifference subsidy of every entry of the gap array, all bisected together.

    qdiff_at maps a scalar or (B,) subsidy to gaps shaped lam.shape + E.
    Each entry keeps the scalar rule: take the midpoint, stop once |gap| <=
    tol / 2, else move lo (gap > 0) or hi; each step evaluates only the
    entries still searching, one DP row each. Returns shape E.
    """
    hw, qd_lo, qd_hi = _expand_bracket(_bracket_halfwidth(model), qdiff_at)
    bad = np.argwhere((qd_lo < -tol) | (qd_hi > tol))
    if bad.size:
        e = tuple(int(i) for i in bad[0])
        raise BracketFail(
            f"entry {e}: no activation/passivity crossing in [{-hw:g}, {hw:g}] "
            f"(endpoint gaps {qd_lo[e]:.3g}, {qd_hi[e]:.3g})"
        )
    n = qd_lo.size
    lo, hi, lam, live = np.full(n, -hw), np.full(n, hw), np.zeros(n), np.arange(n)
    for _ in range(BISECT_MAX_ITERS):
        mid = 0.5 * (lo[live] + hi[live])
        lam[live] = mid
        qd = qdiff_at(mid).reshape(live.size, n)[np.arange(live.size), live]
        searching = np.abs(qd) > 0.5 * tol
        up = searching & (qd > 0)
        lo[live[up]] = mid[up]
        hi[live[searching & ~up]] = mid[searching & ~up]
        live = live[searching]
        if live.size == 0:
            break
    return lam.reshape(qd_lo.shape)


def _cesaro_limit(P: np.ndarray) -> np.ndarray:
    """Cesaro limit P* = lim (1/n) sum_k P^k of a stack of stochastic matrices (..., S, S).

    The aperiodic transform (I + P) / 2 has the same limit and its powers
    converge to it, so it is squared, with rows renormalised against
    round-off, until a square moves no entry by more than TIE_TOL (the next
    square's error is then of order TIE_TOL ** 2), at most
    CESARO_MAX_SQUARINGS times.
    """
    M = 0.5 * (np.eye(P.shape[-1]) + P)
    for _ in range(CESARO_MAX_SQUARINGS):
        M2 = M @ M
        M2 /= M2.sum(axis=-1, keepdims=True)
        moved = np.abs(M2 - M).max()
        M = M2
        if moved <= TIE_TOL:
            break
    return M


def relative_value_iteration(model: ArmModel, lam):
    """Average-reward DP with passive subsidy lam, a scalar or a (B,) vector.

    Solved exactly by multichain Howard policy iteration (Puterman 1994,
    section 9.2), one row per subsidy, all rows together as (B, S, S)
    arrays. Starting from the myopic policy, each round evaluates every
    row's policy P exactly: the gain g = P* r and the bias
    h = (I - P + P*)^-1 (r - g), with P* the Cesaro limit of P, so the
    multichain models that dummy expansion produces need no special case.
    Each state then keeps only the actions maximising P_a g and, among
    those, takes the one maximising r_a + P_a h; its current action stays
    unless another is better by more than TIE_TOL (relative to the values'
    scale). The loop ends when no row changes, which takes finitely many
    rounds because every change strictly improves the policy.

    Returns (qdiff, h), each lam.shape + (S,): qdiff = Q(s, 1) - Q(s, 0)
    with Q(s, a) = r_a(s) + P_a h, and h the bias shifted to h(0) = 0.
    Raises NonConvergent, naming those subsidies, when the optimal gain is
    not the same in every state: the relative values (and qdiff) are then
    undefined, and that is the one case where relative value iteration
    does not converge.
    """
    lam = np.asarray(lam, dtype=float)
    lams = lam.reshape(-1)
    S = model.n_states
    P0, P1 = model.transitions.transpose(1, 0, 2)  # P_a
    r0 = model.rewards[:, 0] + lams[:, None]
    r1 = model.rewards[:, 1]
    active = r1 > r0  # the myopic policy, one row per subsidy
    while True:
        P_pi = np.where(active[..., None], P1, P0)
        r_pi = np.where(active, r1, r0)
        P_star = _cesaro_limit(P_pi)
        g = (P_star @ r_pi[..., None])[..., 0]
        h = np.linalg.solve(np.eye(S) - P_pi + P_star, (r_pi - g)[..., None])[..., 0]
        q0 = r0 + h @ P0.T
        q1 = r1 + h @ P1.T
        qdiff = q1 - q0
        tie = TIE_TOL * (1.0 + np.abs(np.hstack([q0, q1, g])).max(axis=1, keepdims=True))
        sign = np.where(active, -1.0, 1.0)  # turns action-1-minus-0 gaps into switching gains
        gain_up = sign * (g @ P1.T - g @ P0.T)
        bias_up = sign * qdiff
        switch = (gain_up > tie) | ((gain_up >= -tie) & (bias_up > tie))
        if not switch.any():
            break
        active ^= switch
    split = np.ptp(g, axis=1) > tie[:, 0]
    if split.any():
        raise NonConvergent(
            f"optimal gain differs across states, so relative values are undefined "
            f"(lambda={', '.join(f'{x:g}' for x in lams[split])})"
        )
    h = h - h[:, :1]
    return qdiff.reshape(lam.shape + (S,)), h.reshape(lam.shape + (S,))


def whittle_index_infinite(model: ArmModel, tol: float = DEFAULT_TOL) -> IndexTable:
    """Stationary subsidy index per state, by bisection over the average-reward DP."""
    index = _subsidy_index(model, lambda lam: relative_value_iteration(model, lam)[0], tol)
    return IndexTable(values=[index[:, None]], time_dependent=False)


def finite_horizon_qdiff(model: ArmModel, T: int, lam) -> np.ndarray:
    """Q_t(s,1) - Q_t(s,0) under passive subsidy lam (scalar or (B,)), shaped lam.shape + (S, T).

    One backward induction over a lam.shape + (S,) value array.
    """
    lam = np.asarray(lam, dtype=float)
    P0T, P1T = model.transitions.transpose(1, 2, 0)  # P_a.T for a = 0, 1
    r0 = model.rewards[:, 0] + lam[..., None]
    r1 = model.rewards[:, 1]
    qdiff = np.empty(lam.shape + (model.n_states, T))
    v = np.zeros(lam.shape + (model.n_states,))
    for t in range(T - 1, -1, -1):
        q0 = r0 + v @ P0T
        q1 = r1 + v @ P1T
        qdiff[..., t] = q1 - q0
        v = np.maximum(q0, q1)
    return qdiff


def whittle_index_finite(model: ArmModel, T: int, tol: float = DEFAULT_TOL) -> IndexTable:
    """Time-dependent subsidy index per (state, t), by bisection over backward induction."""
    index = _subsidy_index(model, lambda lam: finite_horizon_qdiff(model, T, lam), tol)
    return IndexTable(values=[index], time_dependent=True)


def q_difference_indices(model: ArmModel, T: int) -> IndexTable:
    """Plain Q-value gaps from unsubsidized backward induction."""
    return IndexTable(values=[finite_horizon_qdiff(model, T, 0.0)], time_dependent=True)
