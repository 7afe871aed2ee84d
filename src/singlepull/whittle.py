"""Whittle-style subsidy indices of single arms, and their finite-horizon DP in a pull price.

The infinite-horizon index of a state is the passive subsidy at which
activating and resting are equally attractive under the average-reward
criterion. For a fixed policy the gain g = P* r and the bias
h = (I - P + P*)^-1 (r - g), with P* the Cesaro limit of the policy's
matrix, are affine in the subsidy, and so is each gap Q(s, 1) - Q(s, 0);
one factorization gives the values at subsidy 0 and their slopes, and the
multichain models that dummy expansion produces need no special case. So
the index is one lockstep sweep per state count, bit for bit a sweep of
each type alone, over policies, in the manner of Nino-Mora's
adaptive-greedy algorithm (TOP 2007): starting from the all-active policy
at subsidy -inf, the sweep moves each type's subsidy to its next kink, the
smallest subsidy at which an active state's gap falls to 0, and those
states take it as their index and turn passive. Each round evaluates every
live type's policy in one stacked call; a type leaves once every state is
passive, after at most S rounds, and the sweep needs no bracket, tolerance
or policy-improvement loop. A gap within TIE_TOL times
the values' scale of 0 is a tie, so tied states leave at one kink. Where
I - P + P* is nearly singular, an active state's gap can jump from above 0
to below it between two policies at one kink; such a jump root takes that
kink. Indexability is checked, not assumed: a passive state whose gap is
positive at the end of a piece, or an active state whose gap never falls
to 0, raises NotIndexable. A gain that differs across states at the end
of a piece leaves the relative values undefined and raises NonConvergent.

The finite-horizon index is exact and needs no bisection. It runs on the
S states of an arm whose pull retires it, Whittle's (1980) retirement
problem: after a pull at t the arm follows its passive chain, and at
subsidy lambda it is worth W_{t+1}(s') + max(lambda, 0) (T - t - 1), with
W_t = r(., 0) + P(., 0) W_{t+1} its passive value-to-go. That is the value
of the dummy copy of s' on the dummy-expanded arm, so both arms have one
index on the normal states. For lambda >= 0 a pull costs lambda exactly
once, and the slope in lambda of the gap Q_t(s, 1) - Q_t(s, 0) is
-1 + Pr(pull later), in [-1, 0]; for lambda < 0 the retired arm forgoes
the subsidy too, and the slope is <= -1. So the gap is nonincreasing and
every arm is indexable. The value V_t(.; lambda) is piecewise linear in
lambda, with kinks only at 0 (the retired arm's max(lambda, 0)) and at the
indices of later epochs. One backward pass per state count keeps every
type's V_{t+1} at its kinks, in lockstep, starting from 0 and the type's
own sentinels +-H, H = T * (its reward span) + 1: beyond them never
pulling and pulling now are optimal, so they bracket every root. Between
kinks the gap is linear, and so is the retired value, 0 being a kink, so
each entry's root is one interpolation. An entry whose gap is 0 on a whole
interval of subsidies takes its left end, inf{lambda : gap <= 0}. Roots of
one epoch that differ by round-off only are merged to the smallest, so
genuine ties stay bit-equal. The roots then join the kink set. The types'
kink lists grow by different counts, so a list shorter than the longest is
padded by repeating its last kink, +H, and that kink's value row: every
entry stays finite, and no root or interpolation reads a padded row. Each
epoch is one stacked product per action, one root search with its
interpolation, one merge of round-off twins and one insertion of the new
kinks by position, for all the types at once, and each table is bit for
bit a pass of its type alone.

finite_horizon_q is the package's one finite-horizon backward induction:
the per-type DP in a pull price pi_t, where a pull may retire the arm. The
Q-difference table is its gap at pi = 0, and the occupancy LP's bound and
its K >= N solve run it with the rewards rho r (lp._per_type_dp). All the
passes read their groups from model.by_state_count, the grouping the
occupancy LP builder uses too, and reassemble the tables in type order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ArmModel, by_state_count

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
        self.flat = np.concatenate(self.values, dtype=float)

    def column(self, t: int) -> np.ndarray:
        """The index of every global state id at time t."""
        return self.flat[:, t if self.time_dependent else 0]


def _cesaro_limit(P: np.ndarray) -> np.ndarray:
    """The Cesaro limit P* = lim (1/n) sum_k P^k of each policy matrix of a stack (B, S, S).

    The aperiodic transform M = (I + P) / 2 has the same limit and its
    powers converge to it, so it is squared, with rows renormalised against
    round-off, until a square moves no entry by more than TIE_TOL (the next
    square's error is then of order TIE_TOL ** 2), at most
    CESARO_MAX_SQUARINGS times. Each member stops at its own first settle,
    so its limit is bit for bit that of squaring it alone.
    """
    return _square_until_settled(0.5 * (np.eye(P.shape[-1]) + P), CESARO_MAX_SQUARINGS)


def _square_until_settled(M: np.ndarray, squarings: int) -> np.ndarray:
    for k in range(squarings):
        M2 = M @ M
        M2 /= M2.sum(axis=-1, keepdims=True)
        moved = np.abs(M2 - M).max(axis=(1, 2))
        M = M2
        if moved[moved.argmin()] <= TIE_TOL:  # a member settles and keeps this square
            if moved[moved.argmax()] > TIE_TOL:
                M[moved > TIE_TOL] = _square_until_settled(M[moved > TIE_TOL], squarings - k - 1)
            break
    return M


def _evaluate(P: np.ndarray, R: np.ndarray, active: np.ndarray):
    """A stack of stationary policies' bias and gain terms, each affine in the subsidy lam.

    P (B, S, 2, S) holds the types' transitions, R[b, a] = (r_a, u_a) action
    a's reward and its slope in lam (u_0 = 1, u_1 = 0), and active[b, s] says
    whether type b's policy pulls in state s. The policy's reward r + lam * u
    makes the gain g = P* r and the bias h = (I - P + P*)^-1 (r - g) affine in
    lam, with slopes g' = P* u and h' = (I - P + P*)^-1 (u - g'): one solve
    with two right-hand sides gives both. Returns (Ph, gains): Ph[b, a] =
    (P_a h, P_a h') and gains[b] = (g, g'), all at lam = 0, so that
    Q(s, a) = r_a(s) + lam [a = 0] + Ph[b, a, 0, s] + lam Ph[b, a, 1, s].
    """
    Pa = np.where(active[..., None], P[:, :, 1], P[:, :, 0])
    rhs = np.where(active[:, None], R[:, 1], R[:, 0])
    P_star = _cesaro_limit(Pa)
    gains = rhs @ P_star.transpose(0, 2, 1)
    bias = np.linalg.solve(np.eye(Pa.shape[-1]) - Pa + P_star, (rhs - gains).transpose(0, 2, 1))
    return bias.transpose(0, 2, 1)[:, None] @ P.transpose(0, 2, 3, 1), gains


def _per_state_count(models: list[ArmModel], build) -> list:
    """build(ids, P, R) on each group of model.by_state_count; its results in type order."""
    out = [None] * len(models)
    for ids, P, R in by_state_count(models):
        for n, result in zip(ids, build(ids, P, R)):
            out[n] = result
    return out


def _sweep_index(ids: list[int], P: np.ndarray, rewards: np.ndarray) -> list:
    """The stationary index of the types ids, all with one state count, by one lockstep sweep.

    On a type's piece each gap is c + lam * d. The piece ends at the smallest
    root -c / d >= lam of an active state with d < 0. That state, every active
    state whose root lies behind lam (a jump root), and every active state
    whose gap there is a tie take the end as their index and turn passive.
    The checks run at the end of each piece. A type leaves the batch with
    its table (S, 1) or its error, and the list holds them in the order of ids.
    """
    done, all_ids = {}, ids
    R = np.zeros((len(ids), 2, 2, P.shape[1]))
    R[:, :, 0], R[:, 0, 1] = rewards.transpose(0, 2, 1), 1.0
    ids, lam = np.array(ids), np.full(len(ids), -np.inf)
    index, active = np.empty(P.shape[:2]), np.ones(P.shape[:2], dtype=bool)
    while ids.size:
        Ph, g = _evaluate(P, R, active)
        c = (R[:, 1, 0] - R[:, 0, 0]) + (Ph[:, 1, 0] - Ph[:, 0, 0])  # exact where both rows agree
        d = Ph[:, 1, 1] - Ph[:, 0, 1] - 1.0
        root = np.divide(-c, d, out=np.full(c.shape, np.inf), where=active & (d < 0))
        first = root.min(axis=1)
        end = np.where((first > lam) & (first != np.inf), first, lam)
        e = end[:, None]
        q = R[:, :, 0] + Ph[:, :, 0] + e[..., None] * Ph[:, :, 1]
        q[:, 0] += e
        gap, gain = c + e * d, g[:, 0] + e * g[:, 1]
        tie = TIE_TOL * (1.0 + np.maximum(np.abs(q).max(axis=(1, 2)), np.abs(gain).max(axis=1)))
        split = gain.max(axis=1) - gain.min(axis=1) > tie
        rising = ~active & (gap > tie[:, None])
        leaving = active & ((gap <= tie[:, None]) | (root <= e))
        np.copyto(index, e, where=leaving)
        active ^= leaving
        fails = split | rising.any(axis=1) | ~leaving.any(axis=1)
        out = fails | ~active.any(axis=1)
        if out[out.argmax()]:  # some type is done or fails a check
            done.update(zip(ids[out & ~fails], index[out & ~fails, :, None]))
            for b in np.flatnonzero(fails):
                n, s = ids[b], np.argmax(rising[b] if rising[b].any() else active[b])
                if split[b]:
                    done[n] = NonConvergent(
                        f"type {n}: optimal gain differs across states for subsidies "
                        f"in [{lam[b]:g}, {end[b]:g}], so relative values are undefined")
                elif rising[b, s]:
                    done[n] = NotIndexable(f"type {n}, state {s}: passive from subsidy "
                                           f"{index[b, s]:g}, but its gap is {gap[b, s]:.3g} "
                                           f"> 0 at {end[b]:g}")
                else:
                    done[n] = NotIndexable(f"type {n}, state {s}: its gap {gap[b, s]:.3g} "
                                           f"does not fall to 0 for subsidies above {lam[b]:g}")
            if out.all():
                return [done[n] for n in all_ids]
            P, R, ids, index, active, end = (a[~out] for a in (P, R, ids, index, active, end))
        lam = end


def whittle_index_infinite(models: list[ArmModel]) -> IndexTable:
    """Stationary subsidy index per (type, state), one lockstep sweep per state count.

    Bit for bit a sweep of each type alone; the lowest-numbered failing type's error is raised.
    """
    values = _per_state_count(models, _sweep_index)
    failed = [v for v in values if isinstance(v, Exception)]
    if failed:
        raise failed[0]
    return IndexTable(values=values, time_dependent=False)


def finite_horizon_q(P: np.ndarray, R: np.ndarray, pi: np.ndarray, retire: bool = True):
    """Q_t(s, a) of the types stacked in P (B, S, 2, S) and R (B, S, 2) at pull prices pi (T,).

    Backward induction from V_T = W_T = 0, shaped (B, T, S, 2). Resting pays
    R(s, 0) and moves by P(.|s, 0); a pull pays R(s, 1) - pi_t and moves by
    P(.|s, 1). Where the pull retires the arm, the arm then collects its
    passive value-to-go W_{t+1}, W_t = R(., 0) + P(., 0) W_{t+1}; else it
    goes on with V_{t+1} = max_a Q_{t+1}. Each epoch is one product of every
    row P(.|s, a) with (V_{t+1}, W_{t+1}), bit for bit a pass of each type
    alone and the product of each row alone.
    """
    Q = np.empty((len(R), len(pi)) + R.shape[1:])
    after = np.zeros(R.shape[:2] + (2,))  # (V_{t+1}, W_{t+1}) per (type, state)
    ahead = np.empty(P.shape[:3] + (2,))  # ahead[b, s, a, k] = P(.|s, a) @ column k of after
    goes_on = ahead.diagonal(axis1=2, axis2=3) if retire else ahead[..., 0]  # each action's k
    rows, products = (x.reshape(len(R), -1, x.shape[-1]) for x in (P, ahead))
    for q, price in zip(Q.transpose(1, 0, 2, 3)[::-1], pi[::-1]):  # q = Q[:, t], t = T-1..0
        np.matmul(rows, after, out=products)  # into ahead: one (2S, S) @ (S, 2) per type
        np.add(R, goes_on, out=q)
        q[..., 1] -= price
        np.maximum(q[..., 0], q[..., 1], out=after[..., 0])
        np.add(R[..., 0], ahead[:, :, 0, 1], out=after[..., 1])
    return Q


def finite_horizon_qdiff(P: np.ndarray, R: np.ndarray, T: int) -> np.ndarray:
    """Q_t(s, 1) - Q_t(s, 0) at subsidy 0 of the types stacked in P (B, S, 2, S) and R (B, S, 2).

    finite_horizon_q at pi = 0, where a pull retires the arm, shaped (B, S, T).
    """
    Q = finite_horizon_q(P, R, np.zeros(T))
    return (Q[..., 1] - Q[..., 0]).transpose(0, 2, 1)


def _retirement_index(P: np.ndarray, R: np.ndarray, T: int) -> list[np.ndarray]:
    """Exact tables (S, T) of a stack of types of one state count, in lockstep.

    A pull retires the arm, which is then worth W_{t+1} + max(lambda, 0)
    (T - t - 1), with W_{t+1} its passive value-to-go. Row b of the kinks
    holds the kinks of type b's V_{t+1}(.; lambda) in ascending order and
    v[b] its values there, one row per kink. A type with fewer kinks than
    the longest repeats its last kink, +H, and that kink's value row, so
    every entry stays finite. A kink, and a root, of type b is stored as the
    complex number b + 1j * lambda: complex numbers order by real part, then
    imaginary part, so one np.searchsorted over the flat kinks finds each
    root's slot among its own type's kinks. A gap within ROOT_TOL times the
    values' scale at its kink counts as zero, and so does the distance
    between two roots of one epoch.
    """
    PT = P.transpose(2, 0, 3, 1)  # PT[a, b] = P_a.T of type b; a contiguous copy moves the bits
    r = R.transpose(2, 0, 1)[:, :, None]
    H = T * (R.max(axis=(1, 2)) - R.min(axis=(1, 2))) + 1.0  # each type's own sentinel
    B, S = P.shape[:2]
    rows, states = np.arange(B)[:, None], np.tile(np.arange(S), (B, 1))
    first = S * rows  # each type's first root in the flat roots
    kinks = (rows + 1j * H[:, None] * [-1.0, 0.0, 1.0]).ravel()
    v, length = np.zeros((B, 3, S)), 3  # length: each type's own kink count, 3 at first
    index, W = np.empty((B, S, T)), np.zeros((B, 1, S))
    for t in range(T - 1, -1, -1):
        K, lam = kinks.size // B, kinks.imag
        subsidy = lam.reshape(B, K, 1)  # a retired arm's value is linear between kinks: 0 is one
        q = np.stack((v, W + np.maximum(subsidy, 0.0) * (T - t - 1))) @ PT + r  # (a, b, kink, s)
        q[0] += subsidy
        W = W @ PT[0] + r[0]
        gap = q[1] - q[0]
        tol = ROOT_TOL * np.abs(q).max(axis=(0, 3))
        k = (gap <= tol[..., None]).argmax(axis=1) + K * rows  # flat: first kink at or past root
        gap, tol = gap.reshape(-1, S), tol.ravel()
        root = kinks[k]  # b + 1j * (each entry's root), stored as the kinks are
        inside = gap[k, states] < -tol[k]  # the root lies strictly between kinks k - 1 and k
        kc, sc = k[inside], states[inside]
        left, right, lo = gap[kc - 1, sc], gap[kc, sc], lam[kc - 1]
        root.imag[inside] = lo + (lam[kc] - lo) * left / (left - right)
        order = (root.imag.argsort(axis=1) + first).ravel()
        ranked = root.ravel()[order]
        apart = np.empty(B * S, dtype=bool)
        apart[1:] = ranked.imag[1:] - ranked.imag[:-1] > tol[k.ravel()[order[1:]]]
        apart[::S] = True  # each type's first root
        roots = ranked[apart]  # ascending per type, round-off twins merged to the smallest
        root.ravel()[order] = roots[apart.cumsum() - 1]
        index[..., t] = root.imag
        at = kinks.searchsorted(roots)  # flat: row b's start + np.searchsorted(lam[b], root)
        new = kinks[at] != roots  # V_t is linear between the old kinks and these
        roots, at = roots[new], at[new]
        lo = lam[at - 1]
        w = ((roots.imag - lo) / (lam[at] - lo))[:, None]
        q = q.reshape(2, -1, S)
        below = q[:, at - 1]
        between = below + w * (q[:, at] - below)
        pos = at + np.arange(len(roots))  # the slots np.insert(kinks, at, roots) gives the roots
        kept = np.ones(kinks.size + len(roots), dtype=bool)
        kept[pos] = False
        kinks, old, v = np.empty(kept.size, dtype=complex), kinks, np.empty((kept.size, S))
        kinks[kept], kinks[pos], v[kept], v[pos] = old, roots, q.max(axis=0), between.max(axis=0)
        if B > 1:  # a lone type's kinks always fill its row
            gained = np.bincount(roots.real.astype(int), minlength=B)
            length = length + gained
            if gained.min() < gained.max():  # the rows no longer line up: re-pad to the longest
                start, end = K * rows + (np.cumsum(gained) - gained)[:, None], K + gained[:, None]
                # slots past a row's end repeat its last entry, +H with its value row
                slots = start + np.minimum(np.arange(length.max()), end - 1)
                kinks, v = kinks[slots].ravel(), v[slots]
        v = v.reshape(B, -1, S)
    return [table.copy() for table in index]  # each type's own array


def _finite_table(models: list[ArmModel], T: int, build) -> IndexTable:
    """build(P, R, T) on each group of model.by_state_count, as one time-dependent table."""
    if any(m.expanded for m in models):
        raise ValueError("the finite-horizon passes take unexpanded types: a pull retires the arm")
    return IndexTable(_per_state_count(models, lambda ids, P, R: build(P, R, T)), True)


def whittle_index_finite(models: list[ArmModel], T: int) -> IndexTable:
    """Exact time-dependent index per (type, state, t) of unexpanded types, where a pull retires.

    One lockstep backward pass per state count gives each type's table, bit
    for bit a pass of that type alone. The retirement argument proves that
    each gap crosses zero once; an expanded type raises ValueError.
    """
    return _finite_table(models, T, _retirement_index)


def q_difference_indices(models: list[ArmModel], T: int) -> IndexTable:
    """Q_t(s, 1) - Q_t(s, 0) at subsidy 0 of unexpanded types, where a pull retires.

    One finite_horizon_q pass per state count; an expanded type raises ValueError.
    """
    return _finite_table(models, T, finite_horizon_qdiff)
