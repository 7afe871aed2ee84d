"""Scalar references for singlepull.whittle.

The stationary reference is damped relative value iteration at one
subsidy, an independent method from the package's parametric sweep over
policies, with its own span tolerance and sweep cap: the tests check that
every stationary index zeroes its entry's gap under it, and that the
slopes of the sweep's pieces are its difference quotients. The finite-horizon reference is
scalar backward induction, against which the tests check that every finite
index zeroes its entry's gap. The per-type retirement pass is the finite
index of one type alone, on the arm whose pull retires it or on the
dummy-expanded arm, and the folded Q-difference pass the gaps of one type
alone where a pull retires the arm: the package's lockstep passes over the
types of one state count must equal them bit for bit. On the expanded arm
the retirement pass and the plain gaps of per_type_qdiff give the same
normal-state tables up to round-off. The closed-form EHRENFEST index is a
bulk approximation of the stationary index.
"""

import numpy as np

from singlepull.whittle import CESARO_MAX_SQUARINGS, ROOT_TOL, TIE_TOL, NonConvergent

RVI_SPAN_TOL = 1e-9
RVI_MAX_SWEEPS = 100_000


def rvi_qdiff(model, lam, damping=0.5):
    """Damped relative value iteration at one scalar subsidy; returns qdiff (S,)."""
    P0 = model.transitions[:, 0, :]
    P1 = model.transitions[:, 1, :]
    r0 = model.rewards[:, 0] + lam
    r1 = model.rewards[:, 1]
    v = np.zeros(model.n_states)
    for _ in range(RVI_MAX_SWEEPS):
        q0 = r0 + P0 @ v
        q1 = r1 + P1 @ v
        bellman = np.maximum(q0, q1)
        residual = bellman - v
        if residual.max() - residual.min() < RVI_SPAN_TOL:
            return q1 - q0
        v = (1.0 - damping) * v + damping * bellman
        v = v - v[0]
    raise NonConvergent(f"lambda={lam:g}")


def backward_qdiff(model, T, lam):
    """Backward induction at one scalar subsidy; returns qdiff (S, T)."""
    P0 = model.transitions[:, 0, :]
    P1 = model.transitions[:, 1, :]
    r0 = model.rewards[:, 0] + lam
    r1 = model.rewards[:, 1]
    qdiff = np.empty((model.n_states, T))
    v = np.zeros(model.n_states)
    for t in range(T - 1, -1, -1):
        q0 = r0 + P0 @ v
        q1 = r1 + P1 @ v
        qdiff[:, t] = q1 - q0
        v = np.maximum(q0, q1)
    return qdiff


def per_type_qdiff(model, T, lam=0.0):
    """One type's Q_t(s,1) - Q_t(s,0) under passive subsidy lam (scalar or (G,)).

    Plain backward induction from V_T = 0, every subsidy at once, shaped
    lam.shape + (S, T): each epoch is one (G, S) @ P_a.T product per action.
    At lam = 0 it is the type's Q-difference table.
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


def folded_qdiff(model, T):
    """One type's Q_t(s, 1) - Q_t(s, 0) at subsidy 0 where a pull retires the arm, shaped (S, T).

    Backward induction from V_T = W_T = 0: resting pays r(s, 0) and goes on
    with V_{t+1}; a pull pays r(s, 1) and retires with the passive
    value-to-go W_{t+1}, W_t = r(., 0) + P(., 0) W_{t+1}. Each epoch is one
    (2, S) @ (S, 2) product per state: P(.|s, a) times (V_{t+1}, W_{t+1}).
    """
    P, r = model.transitions, model.rewards
    qdiff = np.empty((model.n_states, T))
    after = np.zeros((model.n_states, 2))  # (V_{t+1}, W_{t+1})
    for t in range(T - 1, -1, -1):
        ahead = P @ after  # ahead[s, a, k] = P(.|s, a) @ after[:, k]
        q0 = r[:, 0] + ahead[:, 0, 0]
        q1 = r[:, 1] + ahead[:, 1, 1]
        qdiff[:, t] = q1 - q0
        after = np.stack((np.maximum(q0, q1), r[:, 0] + ahead[:, 0, 1]), axis=1)
    return qdiff


def closed_form_whittle(c, mu, lam, S, s):
    """Closed-form stationary index of the EHRENFEST energy birth-death model (rate units)."""
    return c / (mu * S) * (mu * s**2 - lam * (S - s) ** 2)


def cesaro_limit(P):
    """Squares of (I + P) / 2 for a stack (B, S, S), squared together.

    Rows are renormalised after each square; the stack stops once a square
    moves no entry by more than TIE_TOL, at most CESARO_MAX_SQUARINGS times.
    A stack of one matrix gives that matrix's limit as the package takes it.
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


def retirement_index(model, T):
    """One type's exact index (S, T), one backward pass over the kinks of V.

    On a dummy-expanded type a pull moves the arm into the dummy half, whose
    values v holds too; on any other type a pull retires the arm, worth
    W_{t+1} + max(lambda, 0) (T - t - 1) then, with W_{t+1} its passive
    value-to-go. lam holds the kinks of V_{t+1}(.; lambda) in ascending
    order and v its values there, one row per kink. A gap within ROOT_TOL
    times the values' scale at its kink counts as zero, and so does the
    distance between two roots of one epoch.
    """
    PT = model.transitions.transpose(1, 2, 0)  # PT[a] = P_a.T
    r = model.rewards.T[:, None, :]
    H = T * float(np.ptp(model.rewards)) + 1.0
    lam = np.array([-H, 0.0, H])
    v, W = np.zeros((3, model.n_states)), np.zeros(model.n_states)
    states = np.arange(model.n_states)
    index = np.empty((model.n_states, T))
    for t in range(T - 1, -1, -1):
        retired = v if model.expanded else W + np.maximum(lam, 0.0)[:, None] * (T - t - 1)
        q = np.stack((v, retired)) @ PT + r  # (action, kink, state)
        q[0] += lam[:, None]
        W = r[0, 0] + W @ PT[0]
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
        pos = at + np.arange(len(roots))  # the rows np.insert(lam, at, roots) gives the roots
        kept = np.ones(len(lam) + len(roots), dtype=bool)
        kept[pos] = False
        lam, old, v = np.empty(kept.size), lam, np.empty((kept.size, model.n_states))
        lam[kept], lam[pos], v[kept], v[pos] = old, roots, q.max(axis=0), between.max(axis=0)
    return index
