"""Whittle-style subsidy indices of single arms.

The infinite-horizon index of a state is the passive subsidy at which
activating and resting are equally attractive under the average-reward
criterion. Exact multichain policy iteration gives the gap
Q(s, 1) - Q(s, 0) at a subsidy; it holds no policy twice, so it ends after
finitely many policy changes and needs no sweep cap or damping. For a fixed
policy the gap is affine in the subsidy, so under the optimal policy it is
piecewise affine, and the same factorization that gives the bias gives the
slope of the current piece. The index search is therefore a safeguarded
Newton iteration inside a bisection bracket: a Newton step from the root's
piece lands on the root, and a midpoint is taken wherever Newton would
leave the bracket or shrinks it too slowly. Where I - P + P* is nearly
singular the computed gap can jump across zero between two adjacent
floats; such a jump root ends when its bracket can shrink no further. The
types of an instance that
share a state count are searched together, so an instance costs one search
per distinct state count, and each search step is one policy-iteration
call over the entries still searching. Policy iteration meets the same few
policies at every step of a search, so the Cesaro limit of each (type,
policy) matrix is squared out once per search, not once per step. Every
entry keeps the bracket and the iterates a search of its type alone would
visit, and no row of a policy-iteration call reads another row, so the
tables cannot depend on which types share a search. Indexability is
assumed, not verified: a bracket whose endpoints do not straddle the
activation/passivity switch raises BracketFail instead of reporting a
spurious crossing.

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

BISECT_MAX_ITERS = 60
DEFAULT_TOL = 1e-6
TIE_TOL = 1e-10  # value gaps below TIE_TOL times the values' scale are ties
ROOT_TOL = 64 * np.finfo(float).eps  # finite-index gaps below ROOT_TOL times the scale are zero
CESARO_MAX_SQUARINGS = 64


class BracketFail(RuntimeError):
    """Subsidy bracket does not straddle the indifference point."""


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


BRACKET_GROWTH_LIMIT = 24  # doublings of the initial half-width


def _bracket_halfwidth(model: ArmModel) -> float:
    span = float(model.rewards.max() - model.rewards.min())
    return 2.0 * span if span > 0 else 1.0


def _subsidy_index(halfwidths: dict, qdiff_at, tol: float) -> np.ndarray:
    """Indifference subsidy of every entry of every type's gap array, all searched together.

    halfwidths maps each type id to its starting half-width. qdiff_at(lam,
    type_of) maps (B,) subsidies, row b for type type_of[b], to the gaps
    and their slopes in the subsidy, each shaped (B,) + E; a search step
    passes one row per entry still searching and reads row b at that entry
    only. Each type grows its own bracket [-hw, hw], doubling hw until its
    entries' endpoint gaps straddle zero, at most BRACKET_GROWTH_LIMIT
    times: the equalizing subsidy can exceed the per-step reward span by the
    bias range, which is large for lazy chains (small per-step motion), so a
    fixed bracket is not enough.

    Each entry then runs a safeguarded Newton search (rtsafe, Press et al.,
    Numerical Recipes, section 9.4) on its own: the first iterate is the
    bracket midpoint; stop once |gap| <= tol / 2, else move lo (gap > 0) or
    hi. The next iterate is the Newton point lam - gap / slope when the slope
    is negative, the point lies strictly inside the updated (lo, hi) and the
    last two steps at least halved the bracket; otherwise it is the midpoint.
    The gap is piecewise affine in lam, so a Newton step from a point on the
    root's piece lands on the root. An entry whose midpoint equals lo or hi
    can shrink no further: its gap falls from above tol / 2 to below
    -tol / 2 between two adjacent floats, and this jump root returns that
    midpoint. At
    most BISECT_MAX_ITERS steps are taken; an entry still searching then
    returns its next iterate. Returns shape (len(halfwidths),) + E, types
    in the order of halfwidths.
    """
    types = np.array(list(halfwidths), dtype=np.int64)
    hw = np.array(list(halfwidths.values()), dtype=float)
    grow = np.arange(types.size)
    for doublings in range(BRACKET_GROWTH_LIMIT + 1):
        if doublings:
            hw[grow] *= 2.0
        lo_gap = qdiff_at(-hw[grow], types[grow])[0]
        hi_gap = qdiff_at(hw[grow], types[grow])[0]
        if not doublings:
            qd_lo, qd_hi = np.empty_like(lo_gap), np.empty_like(hi_gap)
        qd_lo[grow], qd_hi[grow] = lo_gap, hi_gap
        axes = tuple(range(1, lo_gap.ndim))
        grow = grow[~((lo_gap >= 0.0).all(axis=axes) & (hi_gap <= 0.0).all(axis=axes))]
        if grow.size == 0:
            break
    bad = np.argwhere((qd_lo < -tol) | (qd_hi > tol))
    if bad.size:
        k, *e = (int(i) for i in bad[0])
        raise BracketFail(
            f"type {types[k]}, entry {tuple(e)}: no activation/passivity crossing in "
            f"[{-hw[k]:g}, {hw[k]:g}] (endpoint gaps {qd_lo[(k, *e)]:.3g}, {qd_hi[(k, *e)]:.3g})"
        )
    n = qd_lo[0].size  # entries per type
    lo, hi = np.repeat(-hw, n), np.repeat(hw, n)
    lam, live = 0.5 * (lo + hi), np.arange(lo.size)
    older, old = hi - lo, hi - lo  # bracket widths two steps and one step back
    for _ in range(BISECT_MAX_ITERS):
        x = lam[live]
        pick = (np.arange(live.size), live % n)
        qd, dqd = (v.reshape(live.size, n)[pick] for v in qdiff_at(x, types[live // n]))
        searching = np.abs(qd) > 0.5 * tol
        up = searching & (qd > 0)
        lo[live[up]] = x[up]
        hi[live[searching & ~up]] = x[searching & ~up]
        live, x, qd, dqd = (v[searching] for v in (live, x, qd, dqd))
        a, b = lo[live], hi[live]
        newton = x - np.divide(qd, dqd, out=np.full(live.size, np.inf), where=dqd < 0)
        take = (a < newton) & (newton < b) & (b - a <= 0.5 * older[live])
        older[live], old[live] = old[live], b - a
        nxt = np.where(take, newton, 0.5 * (a + b))
        lam[live] = nxt
        live = live[(nxt != a) & (nxt != b)]
        if live.size == 0:
            break
    return lam.reshape(qd_lo.shape)


def _normalised_square(M: np.ndarray):
    """The row-renormalised square of a stack (B, S, S) and each matrix's largest move."""
    M2 = M @ M
    M2 /= M2.sum(axis=-1, keepdims=True)
    return M2, np.abs(M2 - M).max(axis=(1, 2))


class _CesaroLimits:
    """Cesaro limits P* = lim (1/n) sum_k P^k of policy matrices, each squared out once.

    The aperiodic transform M_0 = (I + P) / 2 has the same limit and its
    powers converge to it, so it is squared, with rows renormalised against
    round-off, until a square moves no entry by more than TIE_TOL (the next
    square's error is then of order TIE_TOL ** 2), at most
    CESARO_MAX_SQUARINGS times. Each matrix stops on its own moves, so its
    limit does not depend on which matrices share a call. A search meets
    the same policies at many subsidies, so every limit is kept under its
    (type, policy bytes) and squared out once.
    """

    def __init__(self):
        self._known = {}  # (type, policy bytes) -> P*

    def __call__(self, P: np.ndarray, type_of: np.ndarray, policy: np.ndarray) -> np.ndarray:
        """P* of every row of P (B, S, S), row b the matrix of policy[b] on type type_of[b].

        Across all calls on this object, rows with equal type and policy
        bytes must have equal matrices.
        """
        keys = list(zip(type_of.tolist(), (x.tobytes() for x in policy)))
        new = {}
        for b, key in enumerate(keys):
            if key not in self._known:
                new.setdefault(key, b)
        if new:
            M = 0.5 * (np.eye(P.shape[-1]) + P[list(new.values())])
            going = np.arange(len(new))
            for _ in range(CESARO_MAX_SQUARINGS):
                M[going], moved = _normalised_square(M[going])
                going = going[moved > TIE_TOL]
                if going.size == 0:
                    break
            self._known.update(zip(new, M))
        return np.array([self._known[key] for key in keys])


def relative_value_iteration(models: list[ArmModel], lam, type_of=None, limits=None):
    """Average-reward DP with passive subsidy lam, a scalar or a (B,) vector.

    Row b solves type models[type_of[b]] (default: type 0 for every row)
    at subsidy lam[b]; the types the rows name share a state count. No
    row's arithmetic reads another row, so each row comes out as in a call
    with that row alone. limits, a _CesaroLimits, may be shared by calls on
    the same models, such as the steps of one search, which meet the same
    policies; it keys each limit by type and policy, and changes no result.

    Solved exactly by multichain Howard policy iteration (Puterman 1994,
    section 9.2), all rows together as (B, S, S) arrays. Starting from
    the myopic policy, each round evaluates every row's policy P exactly:
    the gain g = P* r and the bias h = (I - P + P*)^-1 (r - g), with P*
    the Cesaro limit of P, so the multichain models that dummy expansion
    produces need no special case. Each state then keeps only the actions
    maximising P_a g and, among those, takes the one maximising
    r_a + P_a h; its current action stays unless another is better by more
    than TIE_TOL (relative to the values' scale). A row ends when its
    policy does not change. It also ends when its next policy is one it
    held before in this call: near-singular I - P + P* can leave the sign
    of a tiny gap to round-off, so two policies may alternate forever. The
    states that would flip are then indifferent at this subsidy up to
    round-off, and their gaps are set to 0.0. A row meets each of its
    2^S policies at most once, so the loop ends.

    Returns (qdiff, h, slope), each lam.shape + (S,): qdiff = Q(s, 1) -
    Q(s, 0) with Q(s, a) = r_a(s) + P_a h, h the bias shifted to h(0) = 0,
    and slope the derivative of qdiff in lam under the row's final policy
    pi. The subsidy enters r_pi as lam * u, u the passive indicator of pi,
    so g' = P* u and h' = (I - P + P*)^-1 (u - g'), solved with h in one
    call on the same matrix, and slope = (P_1 - P_0) h' - 1. qdiff is
    affine in lam while pi stays optimal, so slope is exact on that piece.
    Raises NonConvergent, naming those types and subsidies, when the
    optimal gain is not the same in every state: the relative values (and
    qdiff) are then undefined, and that is the one case where relative
    value iteration does not converge.
    """
    lam = np.asarray(lam, dtype=float)
    lams = lam.reshape(-1)
    type_of = np.zeros(lams.size, dtype=np.int64) if type_of is None else np.asarray(type_of)
    limits = _CesaroLimits() if limits is None else limits
    S = models[type_of[0]].n_states
    P = np.array([models[n].transitions for n in type_of.tolist()])  # (B, S, 2, S)
    Pt = P.transpose(0, 2, 3, 1)  # Pt[b, a] = P_a.T
    rewards = np.array([models[n].rewards for n in type_of.tolist()])
    r0 = rewards[:, :, 0] + lams[:, None]
    r1 = rewards[:, :, 1]
    eye = np.eye(S)
    active = r1 > r0  # the myopic policy, one row per subsidy
    held = [{a.tobytes()} for a in active]  # every policy each row has held
    qdiff, dqdiff, h, g, tie = (np.empty((lams.size, n)) for n in (S, S, S, S, 1))
    rows = np.arange(lams.size)  # the rows whose policies still change
    while rows.size:
        a, p, pt, q_r0, q_r1 = (x if rows.size == len(x) else x[rows]
                                for x in (active, P, Pt, r0, r1))
        P_pi = np.where(a[..., None], p[:, :, 1], p[:, :, 0])
        r_pi = np.where(a, q_r1, q_r0)
        P_star = limits(P_pi, type_of[rows], a)
        g_pi = (P_star @ r_pi[..., None])[..., 0]
        u = (~a).astype(float)  # d r_pi / d lam: the subsidy is paid where the policy rests
        rhs = np.stack((r_pi - g_pi, u - (P_star @ u[..., None])[..., 0]), axis=-1)
        h_pi, dh_pi = np.linalg.solve(eye - P_pi + P_star, rhs).transpose(2, 0, 1)
        x = np.empty((rows.size, 3, S))
        x[:, 0], x[:, 1], x[:, 2] = h_pi, g_pi, dh_pi
        (h0, g0, dh0), (h1, g1, dh1) = (x[:, None] @ pt).transpose(1, 2, 0, 3)
        q0, q1 = q_r0 + h0, q_r1 + h1
        qd = q1 - q0
        scale = np.abs(np.concatenate((q0, q1, g_pi), axis=1)).max(axis=1, keepdims=True)
        tie_pi = TIE_TOL * (1.0 + scale)
        sign = np.where(a, -1.0, 1.0)  # turns action-1-minus-0 gaps into switching gains
        gain_up = sign * (g1 - g0)
        bias_up = sign * qd
        switch = (gain_up > tie_pi) | ((gain_up >= -tie_pi) & (bias_up > tie_pi))
        nxt = a ^ switch
        going = switch.any(axis=1)
        for i in np.flatnonzero(going).tolist():
            key = nxt[i].tobytes()
            if key in held[rows[i]]:
                going[i] = False
                qd[i, switch[i]] = 0.0
            held[rows[i]].add(key)
        qdiff[rows], dqdiff[rows] = qd, dh1 - dh0 - 1.0
        h[rows], g[rows], tie[rows] = h_pi, g_pi, tie_pi
        active[rows] = nxt
        rows = rows[going]
    split = np.ptp(g, axis=1) > tie[:, 0]
    if split.any():
        named = ", ".join(
            f"type {n} (lambda={', '.join(f'{x:g}' for x in lams[split & (type_of == n)])})"
            for n in np.unique(type_of[split])
        )
        raise NonConvergent(f"optimal gain differs across states, so relative values "
                            f"are undefined: {named}")
    h = h - h[:, :1]
    return tuple(x.reshape(lam.shape + (S,)) for x in (qdiff, h, dqdiff))


def whittle_index_infinite(models: list[ArmModel], tol: float = DEFAULT_TOL) -> IndexTable:
    """Stationary subsidy index per (type, state), one search per state count."""
    limits = _CesaroLimits()
    groups = {}
    for n, m in enumerate(models):
        groups.setdefault(m.n_states, []).append(n)
    values = [None] * len(models)
    for members in groups.values():
        index = _subsidy_index(
            {n: _bracket_halfwidth(models[n]) for n in members},
            lambda lam, type_of: relative_value_iteration(models, lam, type_of, limits)[::2],
            tol,
        )
        for n, v in zip(members, index):
            values[n] = v[:, None]
    return IndexTable(values=values, time_dependent=False)


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
