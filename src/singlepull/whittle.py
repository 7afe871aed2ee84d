"""Whittle-style subsidy indices of single arms.

The infinite-horizon index of a state is the passive subsidy at which
activating and resting are equally attractive under the average-reward
criterion. For a fixed policy the gain g = P* r and the bias
h = (I - P + P*)^-1 (r - g), with P* the Cesaro limit of the policy's
matrix, are affine in the subsidy, and so is each gap Q(s, 1) - Q(s, 0);
one factorization gives the values at subsidy 0 and their slopes, and the
multichain models that dummy expansion produces need no special case. So
each type's index is one parametric sweep over policies, in the manner of
Nino-Mora's adaptive-greedy algorithm (TOP 2007): starting from the
all-active policy at subsidy -inf, the sweep moves the subsidy to the next
kink, the smallest subsidy at which an active state's gap falls to 0, and
those states take it as their index and turn passive. It ends when every
state is passive, after at most S policy evaluations, and needs no
bracket, tolerance or policy-improvement loop. A gap within TIE_TOL times
the values' scale of 0 is a tie, so tied states leave at one kink. Where
I - P + P* is nearly singular, an active state's gap can jump from above 0
to below it between two policies at one kink; such a jump root takes that
kink. Indexability is checked, not assumed: a passive state whose gap is
positive at the end of a piece, or an active state whose gap never falls
to 0, raises NotIndexable. A gain that differs across states at the end
of a piece leaves the relative values undefined and raises NonConvergent.

The finite-horizon index of a dummy-expanded arm is exact and needs no
bisection. A pull moves the arm into the dummy half, which earns the
subsidy lambda every later step just as resting would, so a pull costs
lambda exactly once and the index problem is a retirement (optimal
stopping) problem (Whittle 1980). For lambda >= 0 the slope in lambda of
the gap Q_t(s, 1) - Q_t(s, 0) is -1 + Pr(pull later), in [-1, 0]; for
lambda < 0 the dummies pull as well, and the slope is <= -1. So the gap is
nonincreasing and every expanded arm is indexable. The value
V_t(.; lambda) is piecewise linear in lambda, with kinks only at 0 (the
dummies' index) and at the indices of later epochs. One backward pass per
type keeps V_{t+1} at its kinks, starting from 0 and the sentinels +-H,
H = T * (reward span) + 1: beyond them never pulling and pulling now are
optimal, so they bracket every root. Between kinks the gap is linear, so
each entry's root is one interpolation. An entry whose gap is 0 on a whole
interval of subsidies takes its left end, inf{lambda : gap <= 0}. Roots
of one epoch that differ by round-off only are merged to the smallest, so
genuine ties stay bit-equal. The roots then join the kink set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ArmModel, stack_types

TIE_TOL = 1e-10  # value gaps below TIE_TOL times the values' scale are ties
ROOT_TOL = 64 * np.finfo(float).eps  # finite-index gaps below ROOT_TOL times the scale are zero
CESARO_MAX_SQUARINGS = 64


class NotIndexable(RuntimeError):
    """A state's gap does not cross zero once, downwards, as the subsidy grows."""


class NonConvergent(RuntimeError):
    """The optimal average reward differs across states, so relative values are undefined."""


@dataclass
class IndexTable:
    """Index values per (type, state, time).

    values[n] has shape (S_n, T) for time-dependent tables and (S_n, 1)
    for stationary ones; stationary columns ignore t. flat stacks the
    values over global state ids offset[n] + s, once, at construction.
    """

    values: list[np.ndarray]
    time_dependent: bool
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat = np.asarray(stack_types(self.values)[1], dtype=float)

    def column(self, t: int) -> np.ndarray:
        """The index of every global state id at time t."""
        return self.flat[:, t if self.time_dependent else 0]


def _cesaro_limit(P: np.ndarray) -> np.ndarray:
    """The Cesaro limit P* = lim (1/n) sum_k P^k of one policy matrix.

    The aperiodic transform M = (I + P) / 2 has the same limit and its
    powers converge to it, so it is squared, with rows renormalised against
    round-off, until a square moves no entry by more than TIE_TOL (the next
    square's error is then of order TIE_TOL ** 2), at most
    CESARO_MAX_SQUARINGS times.
    """
    M = 0.5 * (np.eye(len(P)) + P)
    for _ in range(CESARO_MAX_SQUARINGS):
        M2 = M @ M
        M2 /= M2.sum(axis=1, keepdims=True)
        moved = np.abs(M2 - M).max()
        M = M2
        if moved <= TIE_TOL:
            break
    return M


def _evaluate(model: ArmModel, active: np.ndarray):
    """One stationary policy's bias and gain terms, each affine in the subsidy lam.

    active[s] says whether the policy pulls in state s. The subsidy enters
    the policy's reward as lam * u, u the passive indicator, so the gain
    g = P* r and the bias h = (I - P + P*)^-1 (r - g) are affine in lam,
    with slopes g' = P* u and h' = (I - P + P*)^-1 (u - g'): one solve with
    two right-hand sides gives both. Returns (Ph, gains): Ph[a] = (P_a h,
    P_a h') and gains = (g, g'), all at lam = 0, so that
    Q(s, a) = r_a(s) + lam [a = 0] + Ph[a, 0, s] + lam Ph[a, 1, s].
    """
    pick = (np.arange(model.n_states), active.astype(int))
    P = model.transitions[pick]
    rhs = np.array((model.rewards[pick], ~active), dtype=float)
    P_star = _cesaro_limit(P)
    gains = rhs @ P_star.T
    bias = np.linalg.solve(np.eye(len(P)) - P + P_star, (rhs - gains).T).T
    return bias @ model.transitions.transpose(1, 2, 0), gains  # [a, k] = P_a (h, h')[k]


def _sweep_index(model: ArmModel, n: int) -> np.ndarray:
    """Type n's stationary index per state, by one sweep over its policies' pieces.

    On the current policy's piece each gap is c + lam * d. The piece ends at
    the smallest root -c / d >= lam of an active state with d < 0. That
    state, every active state whose root lies behind lam (a jump root), and
    every active state whose gap there is a tie take the end as their index
    and turn passive. The checks run at the end of each piece.
    """
    r0, r1 = model.rewards.T
    index = np.empty(model.n_states)
    active = np.ones(model.n_states, dtype=bool)
    lam = -np.inf
    while active.any():
        Ph, g = _evaluate(model, active)
        c = (r1 - r0) + (Ph[1, 0] - Ph[0, 0])  # exact where both actions' rows agree
        d = Ph[1, 1] - Ph[0, 1] - 1.0
        root = np.divide(-c, d, out=np.full(c.size, np.inf), where=active & (d < 0))
        first = root.min()
        end = lam if first == np.inf else max(lam, first)
        q = model.rewards.T + Ph[:, 0] + end * Ph[:, 1]
        q[0] += end
        gap, gain = c + end * d, g[0] + end * g[1]
        tie = TIE_TOL * (1.0 + max(np.abs(q).max(), np.abs(gain).max()))
        if gain.max() - gain.min() > tie:
            raise NonConvergent(f"type {n}: optimal gain differs across states for subsidies "
                                f"in [{lam:g}, {end:g}], so relative values are undefined")
        rising = np.flatnonzero(~active & (gap > tie))
        if rising.size:
            s = rising[0]
            raise NotIndexable(f"type {n}, state {s}: passive from subsidy {index[s]:g}, "
                               f"but its gap is {gap[s]:.3g} > 0 at {end:g}")
        leaving = active & ((gap <= tie) | (root <= end))
        if not leaving.any():
            s = np.flatnonzero(active)[0]
            raise NotIndexable(f"type {n}, state {s}: its gap {gap[s]:.3g} does not fall "
                               f"to 0 for subsidies above {lam:g}")
        index[leaving] = end
        active &= ~leaving
        lam = end
    return index


def whittle_index_infinite(models: list[ArmModel]) -> IndexTable:
    """Stationary subsidy index per (type, state), one sweep per type."""
    return IndexTable(values=[_sweep_index(m, n)[:, None] for n, m in enumerate(models)],
                      time_dependent=False)


def finite_horizon_qdiff(model: ArmModel, T: int, lam):
    """Q_t(s,1) - Q_t(s,0) under passive subsidy lam (scalar or (B,)), shaped lam.shape + (S, T).

    Plain backward induction of one type from V_T = 0, every subsidy at
    once: each epoch is one (B, S) @ P_a.T product per action.
    """
    lam = np.asarray(lam, dtype=float)
    P0T, P1T = model.transitions.transpose(1, 2, 0)  # P_a.T
    r0 = model.rewards[:, 0] + lam[..., None]
    r1 = model.rewards[:, 1]
    qdiff = np.empty(lam.shape + (model.n_states, T))
    v = np.zeros(lam.shape + (model.n_states,))
    for t in range(T - 1, -1, -1):
        q0 = v @ P0T + r0
        q1 = v @ P1T + r1
        qdiff[..., t] = q1 - q0
        v = np.maximum(q0, q1)
    return qdiff


def _retirement_index(model: ArmModel, T: int) -> np.ndarray:
    """One dummy-expanded type's exact index (S, T), one backward pass over the kinks of V.

    lam holds the kinks of V_{t+1}(.; lambda) in ascending order and v its
    values there, one row per kink. A gap within ROOT_TOL times the
    values' scale at its kink counts as zero, and so does the distance
    between two roots of one epoch.
    """
    PT = model.transitions.transpose(1, 2, 0)  # PT[a] = P_a.T
    r = model.rewards.T[:, None, :]
    H = T * float(np.ptp(model.rewards)) + 1.0
    lam = np.array([-H, 0.0, H])
    v = np.zeros((3, model.n_states))
    states = np.arange(model.n_states)
    index = np.empty((model.n_states, T))
    for t in range(T - 1, -1, -1):
        q = v @ PT + r  # (action, kink, state)
        q[0] += lam[:, None]
        gap = q[1] - q[0]
        tol = ROOT_TOL * np.abs(q).max(axis=(0, 2))
        k = np.argmax(gap <= tol[:, None], axis=0)  # each state's first kink at or past its root
        root = lam[k]
        inside = gap[k, states] < -tol[k]  # the root lies strictly between kinks k - 1 and k
        kc, sc = k[inside], states[inside]
        left, right = gap[kc - 1, sc], gap[kc, sc]
        root[inside] = lam[kc - 1] + (lam[kc] - lam[kc - 1]) * left / (left - right)
        order = np.argsort(root)
        ranked = root[order]
        apart = np.ones(root.size, dtype=bool)
        apart[1:] = ranked[1:] - ranked[:-1] > tol[k[order[1:]]]
        roots = ranked[apart]  # ascending, round-off twins merged to the smallest
        root[order] = roots[np.cumsum(apart) - 1]
        index[:, t] = root
        at = np.searchsorted(lam, roots)
        new = lam[at] != roots  # V_t is linear between the old kinks and these
        roots, at = roots[new], at[new]
        w = ((roots - lam[at - 1]) / (lam[at] - lam[at - 1]))[:, None]
        between = q[:, at - 1] + w * (q[:, at] - q[:, at - 1])
        lam = np.insert(lam, at, roots)
        v = np.insert(q.max(axis=0), at, between.max(axis=0), axis=0)
    return index


def whittle_index_finite(models: list[ArmModel], T: int) -> IndexTable:
    """Time-dependent index per (type, state, t) of dummy-expanded types, exact, one pass per type.

    The pass relies on each gap crossing zero once, which the retirement
    argument proves for dummy-expanded arms only, so other arms raise
    ValueError.
    """
    if not all(m.expanded for m in models):
        raise ValueError("the exact finite-horizon index needs dummy-expanded types")
    return IndexTable(values=[_retirement_index(m, T) for m in models], time_dependent=True)


def q_difference_indices(models: list[ArmModel], T: int) -> IndexTable:
    """Plain Q-value gaps from unsubsidized backward induction, one DP per type."""
    return IndexTable(values=[finite_horizon_qdiff(m, T, 0.0) for m in models],
                      time_dependent=True)
