"""Whittle-style subsidy indices of single arms.

The infinite-horizon index of a state is the passive subsidy at which
activating and resting are equally attractive under the average-reward
criterion. It is found by bisection over exact multichain policy
iteration, which ends after finitely many policy changes and needs no
sweep cap or damping. The types of an instance that share a state count
are bisected together, so an instance costs one bisection per distinct
state count, and each bisection step is one policy-iteration call over the
entries still searching. Policy iteration meets the same few policies at
every step of a bisection, so the Cesaro limit of each policy's matrix is
squared out once per bisection, not once per step, and a call keeps its
books once per distinct (type, policy), not once per row. Every entry
keeps the bracket and the midpoints a bisection of its type alone would
visit, and each row comes out bit for bit as in a call for its type alone,
so the tables do not depend on which types share a bisection.
Indexability is assumed, not verified: a bracket whose endpoints do not
straddle the activation/passivity switch raises BracketFail instead of
reporting a spurious crossing.

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
    """Indifference subsidy of every entry of every type's gap array, all bisected together.

    halfwidths maps each type id to its starting half-width. qdiff_at(lam,
    type_of) maps (B,) subsidies, row b for type type_of[b], to gaps shaped
    (B,) + E; a bisection step passes one row per entry still searching and
    reads row b at that entry only. Each type grows its own bracket
    [-hw, hw], doubling hw until its entries' endpoint gaps straddle zero,
    at most BRACKET_GROWTH_LIMIT times: the equalizing subsidy can exceed
    the per-step reward span by the bias range, which is large for lazy
    chains (small per-step motion), so a fixed bracket is not enough. Each
    entry then keeps the scalar rule: take the midpoint, stop once
    |gap| <= tol / 2, else move lo (gap > 0) or hi. Returns shape
    (len(halfwidths),) + E, types in the order of halfwidths.
    """
    types = np.array(list(halfwidths), dtype=np.int64)
    hw = np.array(list(halfwidths.values()), dtype=float)
    grow = np.arange(types.size)
    for doublings in range(BRACKET_GROWTH_LIMIT + 1):
        if doublings:
            hw[grow] *= 2.0
        lo_gap = qdiff_at(-hw[grow], types[grow])
        hi_gap = qdiff_at(hw[grow], types[grow])
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
    lam, live = np.zeros(lo.size), np.arange(lo.size)
    for _ in range(BISECT_MAX_ITERS):
        mid = 0.5 * (lo[live] + hi[live])
        lam[live] = mid
        qd = qdiff_at(mid, types[live // n]).reshape(live.size, n)[np.arange(live.size), live % n]
        searching = np.abs(qd) > 0.5 * tol
        up = searching & (qd > 0)
        lo[live[up]] = mid[up]
        hi[live[searching & ~up]] = mid[searching & ~up]
        live = live[searching]
        if live.size == 0:
            break
    return lam.reshape(qd_lo.shape)


def _per_type_products(x: np.ndarray, Pt: np.ndarray, alone: np.ndarray) -> np.ndarray:
    """x[b, i] @ Pt[b, a] for every row b, action a and vector i, shaped (B, 2, 2, S).

    Bit for bit as per-type products give them: a type's rows, (rows, S)
    @ (S, S), go through BLAS's matrix kernel, whose rows agree whatever
    their count, so each row's two vectors make one two-row product; a
    type's only row goes through the vector kernel instead, and alone
    flags those rows.
    """
    out = x[:, None] @ Pt
    if alone.any():
        out[alone] = (x[alone][:, None, :, None, :] @ Pt[alone][:, :, None])[..., 0, :]
    return out


def _normalised_square(M: np.ndarray):
    """The row-renormalised square of a stack (B, S, S) and each matrix's largest move."""
    M2 = M @ M
    M2 /= M2.sum(axis=-1, keepdims=True)
    return M2, np.abs(M2 - M).max(axis=(1, 2))


class _CesaroLimits:
    """Cesaro limits P* = lim (1/n) sum_k P^k of stochastic matrices, each square taken once.

    The aperiodic transform M_0 = (I + P) / 2 has the same limit and its
    powers converge to it, so it is squared, with rows renormalised against
    round-off (M_j). The rows of one type are squared until a square moves
    no entry of any of them by more than TIE_TOL (the next square's error
    is then of order TIE_TOL ** 2), at most CESARO_MAX_SQUARINGS times. A
    bisection meets the same policy matrices at many subsidies, so every
    matrix keeps its moves max |M_j - M_{j-1}| and its squares from its own
    first move below TIE_TOL on, the earliest its type can stop; a call
    returns each row's square at its type's stopping count, bit for bit as
    squaring the type's rows together gives it.
    """

    def __init__(self):
        self._named = {}  # (type, name bytes) -> matrix bytes
        self._known = {}  # matrix bytes -> _Squares

    def __call__(self, P: np.ndarray, type_of: np.ndarray, names: np.ndarray) -> np.ndarray:
        """P* of every row of P (B, S, S); type_of[b] is row b's type.

        Row b's matrix is named by its type and the bytes of names[b], such
        as the policy that picks its rows: across all calls on this object,
        rows of one type with equal names must have equal matrices. The
        bookkeeping runs once per distinct (type, name) pair, and each row
        takes its pair's limit; a matrix's bytes are read once per name.
        """
        pairs = {}  # (type, name bytes) -> its place among the distinct pairs
        at = np.array([pairs.setdefault(pair, len(pairs))
                       for pair in zip(type_of.tolist(), (x.tobytes() for x in names))])
        if any(pair not in self._named for pair in pairs):
            new = {}
            rows = np.flatnonzero(np.diff(np.maximum.accumulate(at), prepend=-1))  # pair's first
            for pair, b in zip(pairs, rows.tolist()):
                if pair not in self._named:
                    key = self._named[pair] = P[b].tobytes()
                    if key not in self._known:
                        new.setdefault(key, b)
            if new:
                self._start(list(new), P[list(new.values())])
        squares = [self._known[self._named[pair]] for pair in pairs]
        by_type = {}
        for (t, _), m in zip(pairs, squares):
            by_type.setdefault(t, []).append(m)
        stop = {}
        for t, known in by_type.items():
            j = max(m.first for m in known)
            while j < CESARO_MAX_SQUARINGS and max(m.move(j) for m in known) > TIE_TOL:
                j += 1
            stop[t] = j
        return np.array([m.power(stop[t]) for (t, _), m in zip(pairs, squares)])[at]

    def _start(self, keys, P):
        """Square each new matrix until its own first move <= TIE_TOL (or the cap)."""
        M = 0.5 * (np.eye(P.shape[-1]) + P)
        moves = [[] for _ in keys]
        going = np.arange(len(keys))
        for _ in range(CESARO_MAX_SQUARINGS):
            M[going], moved = _normalised_square(M[going])
            for b, move in zip(going.tolist(), moved.tolist()):
                moves[b].append(move)
            going = going[moved > TIE_TOL]
            if going.size == 0:
                break
        for k, m, move in zip(keys, M, moves):
            self._known[k] = _Squares(move, m)


class _Squares:
    """One matrix's moves max |M_j - M_{j-1}| and its squares M_j from its first move <= TIE_TOL."""

    __slots__ = ("moves", "squares", "first")

    def __init__(self, moves: list, square: np.ndarray):
        self.moves, self.squares, self.first = moves, [square], len(moves)

    def power(self, j: int) -> np.ndarray:
        """M_j, j >= first, squaring further as needed."""
        while len(self.squares) <= j - self.first:
            M2, moved = _normalised_square(self.squares[-1][None])
            self.moves.append(float(moved[0]))
            self.squares.append(M2[0])
        return self.squares[j - self.first]

    def move(self, j: int) -> float:
        """max |M_j - M_{j-1}|."""
        self.power(j)
        return self.moves[j - 1]


def relative_value_iteration(models: list[ArmModel], lam, type_of=None, limits=None):
    """Average-reward DP with passive subsidy lam, a scalar or a (B,) vector.

    Row b solves type models[type_of[b]] (default: type 0 for every row)
    at subsidy lam[b]; the types the rows name share a state count. Each
    type's rows come out bit for bit as a call with that type and those
    rows alone. limits, a _CesaroLimits, may be shared by calls on the same
    models, such as the steps of one bisection, which meet the same
    policies; it names each matrix by its type and policy, and changes no
    result.

    Solved exactly by multichain Howard policy iteration (Puterman 1994,
    section 9.2), all rows together as (B, S, S) arrays. Starting from
    the myopic policy, each round evaluates every row's policy P exactly:
    the gain g = P* r and the bias h = (I - P + P*)^-1 (r - g), with P*
    the Cesaro limit of P, so the multichain models that dummy expansion
    produces need no special case. Each state then keeps only the actions
    maximising P_a g and, among those, takes the one maximising
    r_a + P_a h; its current action stays unless another is better by more
    than TIE_TOL (relative to the values' scale). The loop ends when no
    row changes, which takes finitely many rounds because every change
    strictly improves the policy.

    Returns (qdiff, h), each lam.shape + (S,): qdiff = Q(s, 1) - Q(s, 0)
    with Q(s, a) = r_a(s) + P_a h, and h the bias shifted to h(0) = 0.
    Raises NonConvergent, naming those types and subsidies, when the
    optimal gain is not the same in every state: the relative values (and
    qdiff) are then undefined, and that is the one case where relative
    value iteration does not converge.
    """
    lam = np.asarray(lam, dtype=float)
    lams = lam.reshape(-1)
    type_of = np.zeros(lams.size, dtype=np.int64) if type_of is None else np.asarray(type_of)
    limits = _CesaroLimits() if limits is None else limits
    counts = np.bincount(type_of)
    present = np.flatnonzero(counts)
    local = (np.cumsum(counts > 0) - 1)[type_of]  # row type, numbered among present types
    S = models[present[0]].n_states
    P = np.array([models[n].transitions for n in present])[local]  # (B, S, 2, S)
    Pt = P.transpose(0, 2, 3, 1)  # Pt[b, a] = P_a.T
    rewards = np.array([models[n].rewards for n in present])[local]
    r0 = rewards[:, :, 0] + lams[:, None]
    r1 = rewards[:, :, 1]
    alone = counts[type_of] == 1
    eye = np.eye(S)
    active = r1 > r0  # the myopic policy, one row per subsidy
    qdiff, h, g, tie = (np.empty((lams.size, n)) for n in (S, S, S, 1))
    rows = np.arange(lams.size)  # the rows of the types whose policies still change
    while rows.size:
        a, p, pt, q_r0, q_r1, single = (x if rows.size == len(x) else x[rows]
                                        for x in (active, P, Pt, r0, r1, alone))
        P_pi = np.where(a[..., None], p[:, :, 1], p[:, :, 0])
        r_pi = np.where(a, q_r1, q_r0)
        P_star = limits(P_pi, type_of[rows], a)
        g_pi = (P_star @ r_pi[..., None])[..., 0]
        h_pi = np.linalg.solve(eye - P_pi + P_star, (r_pi - g_pi)[..., None])[..., 0]
        x = np.empty((rows.size, 2, S))
        x[:, 0], x[:, 1] = h_pi, g_pi
        (h0, g0), (h1, g1) = _per_type_products(x, pt, single).transpose(1, 2, 0, 3)
        q0, q1 = q_r0 + h0, q_r1 + h1
        qd = q1 - q0
        scale = np.abs(np.concatenate((q0, q1, g_pi), axis=1)).max(axis=1, keepdims=True)
        tie_pi = TIE_TOL * (1.0 + scale)
        sign = np.where(a, -1.0, 1.0)  # turns action-1-minus-0 gaps into switching gains
        gain_up = sign * (g1 - g0)
        bias_up = sign * qd
        switch = (gain_up > tie_pi) | ((gain_up >= -tie_pi) & (bias_up > tie_pi))
        qdiff[rows], h[rows], g[rows], tie[rows] = qd, h_pi, g_pi, tie_pi
        active[rows] = a ^ switch
        changed = np.zeros(len(present), dtype=bool)
        changed[local[rows][switch.any(axis=1)]] = True
        rows = rows[changed[local[rows]]]
    split = np.ptp(g, axis=1) > tie[:, 0]
    if split.any():
        named = ", ".join(
            f"type {n} (lambda={', '.join(f'{x:g}' for x in lams[split & (type_of == n)])})"
            for n in np.unique(type_of[split])
        )
        raise NonConvergent(f"optimal gain differs across states, so relative values "
                            f"are undefined: {named}")
    h = h - h[:, :1]
    return qdiff.reshape(lam.shape + (S,)), h.reshape(lam.shape + (S,))


def whittle_index_infinite(models: list[ArmModel], tol: float = DEFAULT_TOL) -> IndexTable:
    """Stationary subsidy index per (type, state), one bisection per state count."""
    limits = _CesaroLimits()
    groups = {}
    for n, m in enumerate(models):
        groups.setdefault(m.n_states, []).append(n)
    values = [None] * len(models)
    for members in groups.values():
        index = _subsidy_index(
            {n: _bracket_halfwidth(models[n]) for n in members},
            lambda lam, type_of: relative_value_iteration(models, lam, type_of, limits)[0],
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
