"""Scalar references for singlepull.whittle.

The stationary reference is damped relative value iteration at one
subsidy, an independent method from the package's parametric sweep over
policies, with its own span tolerance and sweep cap: the tests check that
every stationary index zeroes its entry's gap under it, and that the
slopes of the sweep's pieces are its difference quotients. The finite-horizon reference is
scalar backward induction, against which the tests check that every finite
index zeroes its entry's gap. The per-type retirement pass is the finite
index of one type alone, and the per-type Q-difference pass the plain gaps
of one type alone: the package's lockstep passes over the types of one
state count must equal them bit for bit. The closed-form EHRENFEST index is
a bulk approximation of the stationary index.
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
        pos = at + np.arange(len(roots))  # the rows np.insert(lam, at, roots) gives the roots
        kept = np.ones(len(lam) + len(roots), dtype=bool)
        kept[pos] = False
        lam, old, v = np.empty(kept.size), lam, np.empty((kept.size, model.n_states))
        lam[kept], lam[pos], v[kept], v[pos] = old, roots, q.max(axis=0), between.max(axis=0)
    return index
